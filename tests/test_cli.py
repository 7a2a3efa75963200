import json
import math
import re
import time

import pytest
from conftest import AB, WIDE_PERIOD_DFA, WRONGLY_TYPED_FIELDS, reference_distance_to_language, wrongly_typed
from reference import WindowBuffer, final_window

import regwin
from regwin import analysis, automata, automaton_to_json, cli, find_excluded_factor, streams, testers_det, testers_rand
from regwin.cli import ConfigError, main, report_to_csv, run_experiment

BASE_CONFIG = {
    "seed": 11,
    "trials": 3,
    "eps": 0.5,
    "window_sizes": [64, 256],
    "languages": [{"id": "a-star", "regex": "a*", "alphabet": "ab"}],
    "testers": ["det", "two-sided"],
    "streams": [{"kind": "adversarial", "factor": "b", "x": "", "y": "a", "z": "", "n": 8, "k": 300}],
    "timing": False,
}


def test_experiment_cross_product_and_space_shapes():
    rows = run_experiment(BASE_CONFIG)
    assert len(rows) == 4  # 1 language x 2 testers x 2 window sizes x 1 stream
    det = sorted((r.n, r.state_bits) for r in rows if r.tester == "det")
    two = sorted((r.n, r.state_bits) for r in rows if r.tester == "two-sided")
    assert det[0][1] < det[1][1]  # log-space tester grows with the window
    assert two[0][1] == two[1][1]  # constant-space tester does not
    for row in rows:
        assert 0.0 <= row.accept_freq <= 1.0 and row.trials == 3


def test_experiment_is_byte_reproducible():
    first = report_to_csv(run_experiment(BASE_CONFIG))
    second = report_to_csv(run_experiment(BASE_CONFIG))
    assert first == second
    assert first.splitlines()[0] == (
        "language,tester,n,eps,stream,trials,accept_freq,oracle_dist,state_bits,wall_time_s"
    )


def test_experiment_empty_tester_list_gives_empty_report():
    config = dict(BASE_CONFIG, testers=[])
    assert run_experiment(config) == []


def test_experiment_validation_errors_carry_paths():
    with pytest.raises(ConfigError, match=r"testers\[0\]"):
        run_experiment(dict(BASE_CONFIG, testers=["bogus"]))
    with pytest.raises(ConfigError, match=r"languages\[0\]\.alphabet"):
        run_experiment(dict(BASE_CONFIG, languages=[{"id": "x", "regex": "a*"}]))
    with pytest.raises(ConfigError, match="window_sizes"):
        run_experiment(dict(BASE_CONFIG, window_sizes=[-1]))


def test_experiment_runs_the_oracle_once_per_window_and_builds_each_factory_once(monkeypatch):
    calls = {"distance": 0, "factory": 0, "analyze": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    distance = counting("distance", cli.oracle.distance_to_language)
    monkeypatch.setattr(cli.oracle, "distance_to_language", distance)
    monkeypatch.setattr(cli, "build_tester_factory", counting("factory", cli.build_tester_factory))
    analyze = counting("analyze", cli.analysis.analyze)
    monkeypatch.setattr(cli.analysis, "analyze", analyze)
    monkeypatch.setattr(testers_rand, "analyze", analyze)  # the name a `Language` analyzes through
    periodic = {"kind": "periodic", "block": "ab", "repeats": 40}
    languages = [
        {"id": "b-then-a", "regex": "ba*", "alphabet": "ab"},
        {"id": "b-even-a", "regex": "b(aa)*", "alphabet": "ab"},
    ]
    rows = run_experiment(dict(BASE_CONFIG, testers=["det", "two-sided", "one-sided"],
                               streams=BASE_CONFIG["streams"] + [periodic], languages=languages))
    assert len(rows) == 24  # 2 languages x 3 testers x 2 window sizes x 2 streams
    # per (language, window size, stream); per (language, tester, window size); per language
    assert calls == {"distance": 8, "factory": 12, "analyze": 2}


def test_experiment_compiles_each_language_once(monkeypatch):
    """A language is analyzed, classified and split into its partial
    machines once, and its triviality tested once, however many window
    sizes and kinds read it: CI's four loglog languages at four window
    sizes, every kind.  Each layer function is counted under every name
    the library binds it to."""
    names = ("analyze", "one_sided_class", "enumerate_path_descriptions", "realized_lengths", "is_trivial",
             "reverse_to_rdfa")
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(regwin, name)

        def wrapper(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        for module in (regwin, analysis, automata, cli, testers_det, testers_rand):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    languages = [
        {"id": "b-then-a", "regex": "ba*", "alphabet": "ab"},
        {"id": "b-then-even-a", "regex": "b(aa)*", "alphabet": "ab"},
        {"id": "ab-or-b-then-a", "regex": "ab|ba*", "alphabet": "ab"},
        {"id": "aab-or-b-then-even-a", "regex": "aab|b(aa)*", "alphabet": "ab"},
    ]
    config = dict(BASE_CONFIG, trials=1, window_sizes=[7, 33, 64, 255], languages=languages,
                  testers=["exact", "trivial", "det", "two-sided", "one-sided"],
                  streams=[{"kind": "periodic", "block": "ba", "repeats": 200}])
    assert len(run_experiment(config)) == 80
    # per language: one analysis and one class check, which tests triviality twice (the language and its
    # recurrent part) and reverses the machine once, as the analysis does; one length set; and one partial
    # machine list per transient final (one each for ba* and b(aa)*, two each for the unions)
    assert calls == {"analyze": 4, "one_sided_class": 4, "enumerate_path_descriptions": 6, "realized_lengths": 4,
                     "is_trivial": 8, "reverse_to_rdfa": 8}


@pytest.mark.parametrize(
    "kind, regex", [("det", "(aa)*|b(aa)*b"), ("two-sided", "(aa)*|b(aa)*b"), ("one-sided", "ab|b(aa)*")]
)
@pytest.mark.parametrize(
    "stream",
    [
        {"kind": "adversarial", "factor": "ab", "x": "b", "y": "a", "z": "bba", "n": 40, "k": 100},
        {"kind": "periodic", "block": "baab", "repeats": 30},
        {"kind": "random", "seed": 3, "length": 300, "weights": {"a": 0.7, "b": 0.3}},
    ],
)
def test_experiment_trials_after_the_first_build_no_table(kind, regex, stream, monkeypatch):
    """The trials of a row share their tables (the analysis's, or a
    one-sided factory's fingerprint table): every lasso walk and slot of a
    four-trial row is built by its first trial, and so is det's pad
    window, which draws no coin."""
    trial, built, pads = [0], [], []
    walk, slot = testers_det.walk_lassos, testers_det.SkeletonTester._slot
    pad = testers_det.SlidingWindowTester._start_on_pad
    monkeypatch.setattr(testers_det, "walk_lassos", lambda *args: (built.append(trial[0]), walk(*args))[1])
    monkeypatch.setattr(testers_det.SkeletonTester, "_slot", lambda *args: (built.append(trial[0]), slot(*args))[1])
    monkeypatch.setattr(
        testers_det.SlidingWindowTester, "_start_on_pad", lambda *args: (pads.append(trial[0]), pad(*args))[1]
    )
    build = cli.build_tester_factory

    def counting_build(*args):
        factory = build(*args)

        def trial_factory(rng):
            trial[0] += 1
            return factory(rng)

        return trial_factory

    monkeypatch.setattr(cli, "build_tester_factory", counting_build)
    language = {"id": regex, "regex": regex, "alphabet": "ab"}
    config = dict(BASE_CONFIG, trials=4, window_sizes=[64], languages=[language], testers=[kind], streams=[stream])
    (row,) = run_experiment(config)
    assert row.trials == 4 and trial[0] == 4
    assert built and set(built) == {1}
    assert pads == ([1] if kind == "det" else [1, 2, 3, 4])


def test_experiment_at_a_window_of_2_62_plus_1_finishes_within_a_second():
    """Every summarizing kind, and the oracle, in closed form on windows of
    2^62 + 1 symbols: no stream or window is ever joined."""
    n = 2**62 + 1
    k = 2**59
    config = {
        "seed": 5,
        "trials": 2,
        "eps": 0.5,
        "window_sizes": [n],
        "languages": [
            {"id": "b(aa)*", "regex": "b(aa)*", "alphabet": "ab"},
            {"id": "ba*", "regex": "ba*", "alphabet": "ab"},
        ],
        "testers": ["det", "two-sided", "one-sided"],
        "streams": [
            {"kind": "adversarial", "factor": "b", "x": "", "y": "a", "z": "", "n": n, "k": k},
            {"kind": "periodic", "block": "aab", "repeats": 2**62},
        ],
        "timing": False,
    }
    started = time.perf_counter()
    rows = run_experiment(config)
    elapsed = time.perf_counter() - started
    assert len(rows) == 12
    # b^(n-k) a^k needs every b but the first changed; the window a b (aab)^m, one change per b and the a
    expected = {"adversarial": n - k - 1, "periodic": 2 + (n - 2) // 3}
    for row in rows:
        assert row.oracle_dist == expected[row.stream.partition(":")[0]], row
        if row.tester != "two-sided":
            assert row.accept_freq == 0.0, row  # far windows; det and one-sided never accept one here
    assert elapsed < 1.0


def _member_word(dfa, n):
    """Some member of L ∩ Σ^n, or None: left to right, the first symbol
    whose target reaches a final state in exactly the remaining steps."""
    backs = [set(dfa.finals)]  # backs[r]: states reaching a final in exactly r steps
    for _ in range(n):
        backs.append({q for q, row in enumerate(dfa.delta) if any(t in backs[-1] for t in row)})
    if dfa.initial not in backs[n]:
        return None
    word, q = [], dfa.initial
    for remaining in range(n - 1, -1, -1):
        a = next(a for a, t in enumerate(dfa.delta[q]) if t in backs[remaining])
        word.append(dfa.alphabet.symbols[a])
        q = dfa.delta[q][a]
    return "".join(word)


@pytest.mark.parametrize("n", [255, 1023])
@pytest.mark.parametrize("regex", ["b(aa)*", "ba*", ".(aa)*"])
def test_experiment_oracle_dist_matches_the_reference_on_benchmark_shapes(regex, n):
    """The Monte Carlo benchmark's streams: a periodic member block, and
    factor^m x y^k z packing the window with an excluded factor."""
    dfa = cli.language_from_regex(regex, regex, AB).dfa
    member = _member_word(dfa, n)
    assert member is not None
    specs = [{"kind": "periodic", "block": member, "repeats": 2}]
    excluded = find_excluded_factor(dfa)
    if excluded is not None:
        factor = excluded[1]
        for x, y, z in [("", "a", ""), ("ab", "b", "ba")]:
            specs.append({"kind": "adversarial", "factor": factor, "x": x, "y": y, "z": z,
                          "n": -(-n // len(factor)), "k": n // 10})
    config = {"seed": 1, "window_sizes": [n], "languages": [{"id": regex, "regex": regex, "alphabet": "ab"}],
              "testers": ["exact"], "streams": specs, "timing": False}
    rows = run_experiment(config)
    assert len(rows) == len(specs)
    for row in rows:
        window = final_window(list(streams.generate(streams.spec_from_string(row.stream), AB)), AB, n)
        assert row.oracle_dist == reference_distance_to_language(window, dfa), row.stream


@pytest.mark.parametrize("n", [0, 3, 7, 12])
def test_final_window_is_what_the_window_buffer_holds(n):
    """The last n symbols padded on the left, for n = 0, n below the
    stream's length, equal to it and above it."""
    alphabet = cli.Alphabet.from_string("abc", "c")
    symbols = list("abbabba")
    window = WindowBuffer(alphabet, n)
    for symbol in symbols:
        window.feed(symbol)
    assert final_window(symbols, alphabet, n) == window.contents()


def test_cli_oracle_dist_rejects_a_negative_window(capsys):
    assert main(["oracle", "dist", "--regex", "a*", "--alphabet", "ab", "--n", "-1", "--stream", "literal:ab"]) == 2
    assert "window size must be nonnegative" in capsys.readouterr().err


def test_cli_experiment_subcommand(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(BASE_CONFIG))
    assert main(["experiment", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("language,tester,")
    assert out.count("\n") == 5  # header + 4 rows

    assert main(["experiment", str(config_path), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4 and rows[0]["language"] == "a-star"


def test_cli_experiment_rejects_bad_config(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(BASE_CONFIG, testers=["bogus"])))
    assert main(["experiment", str(config_path)]) != 0
    assert "bogus" in capsys.readouterr().err


def test_cli_classify(capsys):
    assert main(["classify", "--regex", "ba*", "--alphabet", "ab"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivial"] is False
    assert report["suffix_free"] is True
    assert report["one_sided_class"] == "loglog"
    assert report["excluded_factor"]["factor"] == "ab"  # no member has b after a
    assert "excluded_factor_reason" not in report


def test_cli_classify_names_a_trivial_language_without_a_factor(capsys):
    assert main(["classify", "--regex", "(a|b)*a", "--alphabet", "ab"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivial"] is True
    assert report["excluded_factor"] is None
    assert report["excluded_factor_reason"] == "trivial language"


def test_cli_classify_says_when_the_bounded_factor_search_exhausts(capsys):
    # "no bbbbb" is nontrivial, but its excluded factor is longer than the search reaches
    assert main(["classify", "--regex", "(a|ba|bba|bbba|bbbba)*(|b|bb|bbb|bbbb)", "--alphabet", "ab"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trivial"] is False
    assert report["excluded_factor"] is None
    assert report["excluded_factor_reason"] == (
        "bounded search exhausted (factors of length <= 4, length progressions of step "
        "<= 8 x the realized-length period)"
    )


def test_cli_analyze(capsys):
    assert main(["analyze", "--regex", "(aa)*", "--alphabet", "a"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["period"] == 2
    assert report["threshold"] == 1
    assert len(report["sccs"]) >= 1


def test_cli_analyze_refuses_a_uniformization_past_the_state_cap(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(automaton_to_json(WIDE_PERIOD_DFA)))
    assert main(["analyze", "--automaton", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: period uniformization (g = 1048576) exceeded 65536 states\n"


def test_cli_tester_run(capsys):
    assert (
        main(
            [
                "tester", "run",
                "--regex", "a*", "--alphabet", "ab",
                "--kind", "det", "--n", "4",
                "--stream", "literal:abaa",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["accept_freq"] == 0.0
    assert report["oracle_dist"] == 1


def test_cli_tester_run_one_sided(capsys):
    assert (
        main(
            [
                "tester", "run",
                "--regex", "ba*", "--alphabet", "ab",
                "--kind", "one-sided", "--n", "8",
                "--seed", "3", "--trials", "4",
                "--stream", "literal:baaaaaaa",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["accept_freq"] == 1.0  # member window, one-sided completeness


@pytest.mark.parametrize("kind", ["exact", "trivial", "det", "two-sided", "one-sided"])
@pytest.mark.parametrize("eps", ["2", "0", "-0.5", "nan", "inf"])
def test_cli_tester_run_rejects_an_eps_outside_0_1_naming_the_flag(capsys, kind, eps):
    argv = ["tester", "run", "--regex", "ba*", "--alphabet", "ab", "--kind", kind, "--n", "8"]
    assert main(argv + ["--eps", eps, "--stream", "periodic:ba,4"]) == 2
    assert capsys.readouterr().err.startswith("error: --eps: expected a number in (0, 1], got ")


def test_cli_tester_run_takes_a_weighted_random_stream(capsys):
    argv = ["tester", "run", "--regex", "a*", "--alphabet", "ab", "--kind", "det", "--n", "4"]
    assert main(argv + ["--stream", "random:1,50,a=1.0,b=0.0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["stream"] == "random:1,50,a=1.0,b=0.0"  # the label reads back as the same stream
    assert report["accept_freq"] == 1.0 and report["oracle_dist"] == 0
    assert main(argv + ["--stream", "random:1,50,a=1.0,b=x"]) == 2
    assert capsys.readouterr().err.startswith("error: weights.b: expected a number")


def test_one_sided_experiment_compiles_once_per_factory(monkeypatch):
    """A one-sided factory analyzes its language and enumerates its path
    descriptions when built; each trial only instantiates a tester."""
    calls = {"analyze": 0, "paths": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    analyze = counting("analyze", cli.analysis.analyze)
    monkeypatch.setattr(cli.analysis, "analyze", analyze)
    monkeypatch.setattr(testers_rand, "analyze", analyze)
    paths = counting("paths", testers_rand.enumerate_path_descriptions)
    monkeypatch.setattr(testers_rand, "enumerate_path_descriptions", paths)
    config = dict(
        BASE_CONFIG,
        trials=5,
        window_sizes=[64],
        languages=[{"id": "b-even-a", "regex": "b(aa)*", "alphabet": "ab"}],
        testers=["one-sided"],
    )
    rows = run_experiment(config)
    assert [row.trials for row in rows] == [5]
    assert calls == {"analyze": 1, "paths": 1}  # one factory, one transient final


def test_cli_oracle_dist(capsys):
    assert (
        main(
            [
                "oracle", "dist",
                "--regex", "a*", "--alphabet", "ab",
                "--n", "4", "--stream", "literal:abaa",
            ]
        )
        == 0
    )
    report = json.loads(capsys.readouterr().out)
    assert report["window"] == "abaa"
    assert report["hamming_dist"] == 1
    assert report["prefix_dist"] == 2


def test_cli_oracle_dist_reads_only_the_window(capsys):
    """The window is taken from the stream's pieces, so a stream of 2^41
    symbols costs what its last 8 do."""
    argv = ["oracle", "dist", "--regex", "(ab)*", "--alphabet", "ab", "--n", "8", "--stream", "periodic:ab,1099511627776"]
    started = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - started < 1.0
    report = json.loads(capsys.readouterr().out)
    assert report["window"] == "abababab"
    assert report["hamming_dist"] == report["prefix_dist"] == 0


def test_cli_accepts_regex_from_file(tmp_path, capsys):
    regex_path = tmp_path / "lang.regex"
    regex_path.write_text("ba*\n")
    assert main(["classify", "--regex-file", str(regex_path), "--alphabet", "ab"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suffix_free"] is True


def test_cli_export_round_trips_through_automaton_flag(tmp_path, capsys):
    assert main(["export", "--regex", "ba*", "--alphabet", "ab", "--out", str(tmp_path / "m.json")]) == 0
    assert main(
        ["classify", "--automaton", str(tmp_path / "m.json")]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["one_sided_class"] == "loglog"


def test_cli_rejects_automaton_with_out_of_range_state(tmp_path, capsys):
    assert main(["export", "--regex", "ba*", "--alphabet", "ab", "--out", str(tmp_path / "m.json")]) == 0
    data = json.loads((tmp_path / "m.json").read_text())
    data["transitions"][0]["to"] = 7
    (tmp_path / "m.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["classify", "--automaton", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "state ids must lie in" in err


@pytest.mark.parametrize("field", ["transitions", "initial", "finals"])
def test_cli_rejects_automaton_with_missing_field(tmp_path, capsys, field):
    assert main(["export", "--regex", "ba*", "--alphabet", "ab", "--out", str(tmp_path / "m.json")]) == 0
    data = json.loads((tmp_path / "m.json").read_text())
    del data[field]
    (tmp_path / "m.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["classify", "--automaton", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"missing field '{field}'" in err


@pytest.mark.parametrize("case", sorted(WRONGLY_TYPED_FIELDS))
def test_cli_rejects_automaton_with_wrongly_typed_field(tmp_path, capsys, case):
    assert main(["export", "--regex", "ba*", "--alphabet", "ab", "--out", str(tmp_path / "m.json")]) == 0
    data = wrongly_typed(json.loads((tmp_path / "m.json").read_text()), case)
    (tmp_path / "m.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["classify", "--automaton", str(tmp_path / "m.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{WRONGLY_TYPED_FIELDS[case][0]}'" in err


def _periodic(repeats):
    return {"kind": "periodic", "block": "ba", "repeats": repeats}


def _adversarial(n, k):
    return {"kind": "adversarial", "factor": "b", "x": "", "y": "a", "z": "", "n": n, "k": k}


def _random(length, **extra):
    return dict({"kind": "random", "seed": 1, "length": length}, **extra)


# (config overrides, pattern the error must match): each names the field at fault
BAD_CONFIGS = {
    "eps-null": ({"eps": None}, r"^eps: "),
    "eps-list": ({"eps": [1]}, r"^eps: "),
    "eps-bool": ({"eps": True}, r"^eps: "),
    # an eps outside (0, 1] is refused whatever the kinds, before any language is compiled
    "eps-above-one": ({"eps": 2, "testers": ["det"]}, r"^eps: "),
    "eps-zero": ({"eps": 0, "testers": ["exact"]}, r"^eps: "),
    "eps-negative": ({"eps": -1, "testers": ["trivial"]}, r"^eps: "),
    "eps-infinite": ({"eps": math.inf, "testers": ["one-sided"]}, r"^eps: "),
    "eps-nan": ({"eps": math.nan}, r"^eps: "),
    "trials-bool": ({"trials": True}, r"^trials: "),
    "timing-string": ({"timing": "no"}, r"^timing: "),
    "stream-not-object": ({"streams": ["periodic:ba,4"]}, r"^streams\[0\]: expected a stream object"),
    "repeats-null": ({"streams": [_periodic(None)]}, r"^streams\[0\]: repeats: "),
    "repeats-negative": ({"streams": [_periodic(-3)]}, r"^streams\[0\]: repeats: "),
    "word-not-string": ({"streams": [{"kind": "literal", "word": 5}]}, r"^streams\[0\]: word: "),
    "adversarial-n-negative": ({"streams": [_adversarial(-1, 3)]}, r"^streams\[0\]: n: "),
    "adversarial-k-negative": ({"streams": [_adversarial(4, -2)]}, r"^streams\[0\]: k: "),
    "length-negative": ({"streams": [_random(-5)]}, r"^streams\[0\]: length: "),
    "weights-list": ({"streams": [_random(10, weights=[1, 3])]}, r"^streams\[0\]: weights: "),
    "weights-all-zero": ({"streams": [_random(10, weights={"a": 0, "b": 0})]}, r"^streams\[0\]: weights: "),
    "regex-not-string": (
        {"languages": [{"id": "x", "regex": 5, "alphabet": "ab"}]},
        r"^languages\[0\]\.regex: ",
    ),
    "automaton-not-string": ({"languages": [{"id": "x", "automaton": 0}]}, r"^languages\[0\]\.automaton: "),
    "language-id-repeated": (
        {
            "languages": [
                {"id": "a", "regex": "a*", "alphabet": "ab"},
                {"id": "c", "regex": "ba*", "alphabet": "ab"},
                {"id": "a", "regex": "b*", "alphabet": "ab"},
            ]
        },
        r"^languages\[2\]\.id: duplicate 'a'$",
    ),
    "tester-kind-repeated": ({"testers": ["det", "exact", "det"]}, r"^testers\[2\]: duplicate 'det'$"),
    "window-size-repeated": ({"window_sizes": [8, 8]}, r"^window_sizes\[1\]: duplicate 8$"),
    "stream-repeated": (
        {"streams": [{"kind": "literal", "word": "ba"}, _periodic(2), {"kind": "literal", "word": "ba"}]},
        r"^streams\[2\]: duplicate 'literal:ba'$",
    ),
    "random-stream-repeated": (
        {"streams": [_random(10, weights={"a": 1, "b": 3}), _random(10, weights={"b": 3.0, "a": 1})]},
        r"^streams\[1\]: duplicate 'random:1,10,a=1.0,b=3.0'$",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_experiment_rejects_mistyped_or_out_of_range_field(case):
    overrides, pattern = BAD_CONFIGS[case]
    with pytest.raises(ConfigError, match=pattern):
        run_experiment(dict(BASE_CONFIG, **overrides))


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_cli_experiment_exits_2_naming_the_field(tmp_path, capsys, case):
    overrides, pattern = BAD_CONFIGS[case]
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(dict(BASE_CONFIG, **overrides)))
    assert main(["experiment", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(pattern, err.removeprefix("error: "))


def test_weighted_random_streams_differing_in_weights_get_distinct_rows():
    config = dict(
        BASE_CONFIG,
        testers=["det"],
        window_sizes=[4],
        streams=[_random(50, weights={"a": 1, "b": 0}), _random(50, weights={"a": 0, "b": 1})],
    )
    rows = run_experiment(config)
    assert [(row.stream, row.accept_freq) for row in rows] == [
        ("random:1,50,a=0.0,b=1.0", 0.0),
        ("random:1,50,a=1.0,b=0.0", 1.0),
    ]


@pytest.mark.parametrize(
    "stream, field",
    [
        ("periodic:ba,-3", "repeats"),
        ("periodic:ba,x", "repeats"),
        ("random:7,-5", "length"),
        ("random:-7,5", "seed"),
        ("adversarial:b,,a,,-4,3", "n"),
        ("adversarial:b,,a,,4,-3", "k"),
    ],
)
def test_cli_tester_run_rejects_bad_stream_naming_the_field(capsys, stream, field):
    argv = ["tester", "run", "--regex", "a*", "--alphabet", "ab", "--kind", "exact", "--n", "4"]
    assert main(argv + ["--stream", stream]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: expected ")
