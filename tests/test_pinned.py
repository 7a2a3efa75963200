"""Literal analysis figures, pinned so that refactors of the compile pipeline
(trimming, uniformization, acceptance sets, thresholds, partial machines)
are checked value by value, not only through tester verdicts.  The
construction pins fix state numbering too: every construction numbers its
states breadth-first from the initial state, symbols in alphabet order."""

import hashlib

import pytest
from conftest import AB, CORPUS, build_analyzed, build_dfa, build_partials

from regwin import (
    OneSidedClass,
    determinize,
    deterministic_tester,
    find_excluded_factor,
    one_sided_class,
    parse_regex,
    product_intersect,
    realized_lengths,
    reverse_to_rdfa,
    trim_reachable,
    two_sided_tester,
    uniformize_period,
)
from regwin import testers_det
from regwin.cli import report_to_csv, run_experiment

# pattern, g, t, states after uniformization, acc_mod per state
ANALYSIS_PINS = [
    ("a*", 1, 0, 2, ((0,), ())),
    ("(aa)*", 2, 1, 4, ((0,), (1,), (), ())),
    ("(a|b)*a", 1, 1, 3, ((0,), (0,), ())),
    ("ba*", 1, 1, 3, ((0,), (), ())),
    ("((a|b)a)*", 2, 1, 4, ((0,), (1,), (), ())),
    ("(ab)*", 2, 1, 4, ((0,), (), (1,), ())),
    ("ab", 1, 3, 4, ((), (), (), ())),
    ("a|bb", 1, 3, 4, ((), (), (), ())),
    ("a*|ba*", 1, 1, 3, ((0,), (), ())),
    ("(a|b)*", 1, 0, 1, ((0,),)),
    ("b(a|b)*", 1, 1, 2, ((0,), (0,))),
    ("b(aa)*", 2, 2, 5, ((1,), (0,), (), (), ())),
    (
        "(aa)*|b(aa)*b",
        4,
        4,
        14,
        ((0, 2), (1, 3), (1, 3), (0, 2), (), (0, 2), (), (1, 3), (), (1, 3), (0, 2), (), (0, 2), ()),
    ),
]

# pattern -> (threshold, soundness_gap) of every partial machine, in the
# order the composed one-sided tester builds them
PARTIAL_PINS = {
    "ba*": [(1, 4)],
    "b(aa)*": [(2, 5)],
}


def test_analysis_pins_cover_the_corpus():
    assert {pattern for _ident, pattern in CORPUS} <= {row[0] for row in ANALYSIS_PINS}


@pytest.mark.parametrize("pattern, g, t, n_states, acc_mod", ANALYSIS_PINS)
def test_analyze_matches_pinned_figures(pattern, g, t, n_states, acc_mod):
    analyzed = build_analyzed(pattern)
    assert (analyzed.g, analyzed.t, analyzed.rdfa.n_states) == (g, t, n_states)
    assert tuple(tuple(sorted(residues)) for residues in analyzed.acc_mod) == acc_mod


def test_partial_machines_match_pinned_figures():
    loglog = [
        pattern for _ident, pattern in CORPUS if one_sided_class(build_dfa(pattern)) is OneSidedClass.LOGLOG
    ]
    assert sorted(loglog) == sorted(PARTIAL_PINS)
    for pattern in loglog:
        figures = [(partial.threshold, partial.soundness_gap) for partial in build_partials(pattern)]
        assert figures == PARTIAL_PINS[pattern], pattern


# pattern -> (g, t, [(threshold, soundness_gap) of each partial machine]):
# every threshold global_threshold sets, for the corpus and the languages of
# CI's experiments, partial machines in the order of their transient finals
THRESHOLD_PINS = {
    "a*": (1, 0, []),
    "(aa)*": (2, 1, []),
    "(a|b)*a": (1, 1, []),
    "ba*": (1, 1, [(1, 4)]),
    "((a|b)a)*": (2, 1, []),
    "(ab)*": (2, 1, []),
    "ab": (1, 3, [(3, 8)]),
    "a|bb": (1, 3, [(2, 5), (3, 8)]),
    "a*|ba*": (1, 1, [(1, 4)]),
    "(a|b)*": (1, 0, []),
    "b(a|b)*": (1, 1, []),
    "b(aa)*": (2, 2, [(2, 5)]),
    "(aa)*|b(aa)*b": (4, 4, [(1, 2), (4, 9), (4, 11)]),
    "(aa)*b(aaa)*": (6, 10, []),
    "ab|ba*": (1, 2, [(2, 5), (2, 7), (3, 8)]),
    "aab|b(aa)*": (2, 3, [(2, 5), (2, 7), (4, 11)]),
}


def test_threshold_pins_cover_the_corpus():
    assert {pattern for _ident, pattern in CORPUS} <= set(THRESHOLD_PINS)


@pytest.mark.parametrize("pattern", sorted(THRESHOLD_PINS))
def test_thresholds_match_pinned_figures(pattern):
    g, t, partials = THRESHOLD_PINS[pattern]
    analyzed = build_analyzed(pattern)
    assert (analyzed.g, analyzed.t) == (g, t)
    assert [(partial.threshold, partial.soundness_gap) for partial in build_partials(pattern)] == partials


# pattern -> (table, finals) of the subset construction on its Glushkov NFA
DETERMINIZE_PINS = {
    "a*": (((1, 2), (1, 2), (2, 2)), (0, 1)),
    "(aa)*": (((1, 2), (3, 2), (2, 2), (1, 2)), (0, 3)),
    "(a|b)*a": (((1, 2), (1, 2), (1, 2)), (1,)),
    "ba*": (((1, 2), (1, 1), (3, 1), (3, 1)), (2, 3)),
    "((a|b)a)*": (((1, 2), (3, 4), (3, 4), (1, 2), (4, 4)), (0, 3)),
    "(ab)*": (((1, 2), (2, 3), (2, 2), (1, 2)), (0, 3)),
    "ab": (((1, 2), (2, 3), (2, 2), (2, 2)), (3,)),
    "a|bb": (((1, 2), (3, 3), (3, 4), (3, 3), (3, 3)), (1, 4)),
    "a*|ba*": (((1, 2), (1, 3), (4, 3), (3, 3), (4, 3)), (0, 1, 2, 4)),
    "(a|b)*": (((1, 2), (1, 2), (1, 2)), (0, 1, 2)),
    "b(a|b)*": (((1, 2), (1, 1), (3, 4), (3, 4), (3, 4)), (2, 3, 4)),
    "b(aa)*": (((1, 2), (1, 1), (3, 1), (4, 1), (3, 1)), (2, 4)),
}

# (left pattern, right pattern) -> (table, finals) of their product
PRODUCT_PINS = {
    ("(a|b)*a", "b(aa)*"): (((1, 2), (1, 3), (4, 3), (1, 3), (5, 3), (4, 3)), (5,)),
    ("a*|ba*", "((a|b)a)*"): (((1, 1), (2, 3), (1, 4), (3, 3), (5, 3), (4, 4)), (0, 2)),
}

# uniformize_period of the trimmed right-to-left reader of (aa)*|b(aa)*b
UNIFORMIZED_PIN = (
    4,
    (
        (1, 2), (3, 4), (5, 6), (7, 4), (8, 8), (9, 4), (4, 4),
        (10, 4), (11, 11), (12, 6), (1, 4), (13, 13), (2, 4), (4, 4),
    ),
    (0, 3, 6, 10),
)

# pattern -> realized_lengths(...).to_dict() and find_excluded_factor as
# (offset, step, factor), or None
LENGTH_PINS = {
    "a*": ((0, 1, [], [0]), (0, 1, "b")),
    "(aa)*": ((0, 2, [], [0]), (0, 2, "b")),
    "(a|b)*a": ((1, 1, [], [0]), None),
    "ba*": ((1, 1, [], [0]), (1, 1, "ab")),
    "((a|b)a)*": ((0, 2, [], [0]), (0, 2, "bb")),
    "(ab)*": ((0, 2, [], [0]), (0, 2, "aa")),
    "ab": ((3, 1, [2], []), None),
    "a|bb": ((3, 1, [1, 2], []), None),
    "a*|ba*": ((0, 1, [], [0]), (0, 1, "ab")),
    "(a|b)*": ((0, 1, [], [0]), None),
    "b(a|b)*": ((1, 1, [], [0]), None),
    "b(aa)*": ((0, 2, [], [1]), (1, 2, "ab")),
}


def _table(machine):
    return tuple(tuple(row) for row in machine.delta), tuple(sorted(machine.finals))


def test_construction_pins_cover_the_corpus():
    patterns = {pattern for _ident, pattern in CORPUS}
    assert patterns == set(DETERMINIZE_PINS) == set(LENGTH_PINS)


@pytest.mark.parametrize("pattern", sorted(DETERMINIZE_PINS))
def test_determinize_matches_pinned_table(pattern):
    dfa = determinize(parse_regex(pattern, AB))
    assert dfa.initial == 0
    assert _table(dfa) == DETERMINIZE_PINS[pattern]


@pytest.mark.parametrize("left, right", sorted(PRODUCT_PINS))
def test_product_intersect_matches_pinned_table(left, right):
    product = product_intersect(build_dfa(left), build_dfa(right))
    assert product.initial == 0
    assert _table(product) == PRODUCT_PINS[(left, right)]


def test_uniformize_period_matches_pinned_table():
    rdfa = trim_reachable(reverse_to_rdfa(build_dfa("(aa)*|b(aa)*b")))
    uniform, g = uniformize_period(rdfa)
    assert uniform.initial == 0
    assert (g, *_table(uniform)) == UNIFORMIZED_PIN


@pytest.mark.parametrize("pattern", sorted(LENGTH_PINS))
def test_length_sets_match_pinned_figures(pattern):
    dfa = build_dfa(pattern)
    lengths = realized_lengths(dfa).to_dict()
    excluded = find_excluded_factor(dfa)
    pinned_lengths, pinned_excluded = LENGTH_PINS[pattern]
    assert tuple(lengths.values()) == pinned_lengths
    if pinned_excluded is None:
        assert excluded is None
    else:
        progression, factor = excluded
        assert (progression.offset, progression.step, factor) == pinned_excluded


# --- seeded tester traces ----------------------------------------------------------

TRACE_LANGUAGES = sorted({pattern for _ident, pattern in CORPUS} | {"(aa)*|b(aa)*b"})
TRACE_WINDOW_SIZES = (64, 1000, 4097)
TRACE_SEEDS = (0, 1)
# sparse b's, then an a-run that carries every segment past the gap marks of
# the largest window, then a dense burst
TRACE_STREAM = (
    "".join("b" if i * i % 61 == 3 else "a" for i in range(1200)) + "a" * 4200 + "babba" + "ab" * 30
)

# pattern -> SHA-256 of the two-sided testers' per-step (decide, state_bits)
# trace over every window size and seed above (eps 0.25)
TRACE_PINS = {
    "((a|b)a)*": "e0d013c5669273e249d133b90f894d36a4bd04fbb859af5a575679fee1f47de8",
    "(aa)*": "2a50875f8b302fea65fbdc1a40e09ee8b28058a609077f195232c7c75488beec",
    "(aa)*|b(aa)*b": "21f02d15907096300998bb7c7e970ce6a8fe76b5127a7d3775e362f2cd6988d2",
    "(ab)*": "4d6ad60883cc833aa404209def3eabb9230a1a1ab75f4256a89b2768501a4ec0",
    "(a|b)*": "027eee10ace2ee687e8d2a37e83cb99c11f3ee4aec3dc560a9dac561efe3580b",
    "(a|b)*a": "a2d15357b1d75af441ac43bf509b537a3dbd71a3f1de3b1f903719cf9dc14766",
    "a*": "09003a7490486dd28c8e894f4ca6bb63491e1983b3e0ea5a2e7d8015d3c77035",
    "a*|ba*": "1a89d2ef76b495d545f2c7c0597512c85a5bcfbfbecf4d2a1ca1c0855c961640",
    "ab": "f9ee4a1ad897fa18bfd66398240ec599ac9bc7c0fa8b9627945bcdca392264c5",
    "a|bb": "0cc007c5aaf93225bb0245fcefa0b1c60d363f8caf31e378a58980d6be0c6a2a",
    "b(aa)*": "3817bd27d41f4f93e2462bf4f327805993fa48bc5809180d349991f345db6877",
    "b(a|b)*": "be672dd366c24cceea1b3f73dba7acb89bf0190025193949a07a03b44fb37b9d",
    "ba*": "1a89d2ef76b495d545f2c7c0597512c85a5bcfbfbecf4d2a1ca1c0855c961640",
}


def two_sided_trace_digest(pattern: str) -> str:
    analyzed = build_analyzed(pattern)
    digest = hashlib.sha256()
    for n in TRACE_WINDOW_SIZES:
        for seed in TRACE_SEEDS:
            tester = two_sided_tester(analyzed, n, 0.25, rng=seed)
            steps = []
            for symbol in TRACE_STREAM:
                tester.feed(symbol)
                steps.append(f"{tester.decide():d}{tester.state_bits()}")
            digest.update(f"{n}/{seed}:{','.join(steps)};".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("pattern", TRACE_LANGUAGES)
def test_two_sided_trace_matches_pinned_digest(pattern):
    assert two_sided_trace_digest(pattern) == TRACE_PINS[pattern]


@pytest.mark.parametrize("pattern", ["(aa)*|b(aa)*b", "b(aa)*"])
def test_two_sided_trace_is_unchanged_when_the_skeleton_table_holds_two(pattern, monkeypatch):
    """A full skeleton table is emptied and refilled; that must not touch
    the counts, the coins or the verdicts."""
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", 2)
    assert two_sided_trace_digest(pattern) == TRACE_PINS[pattern]


# pattern -> SHA-256 of the deterministic testers' per-step (decide,
# state_bits) trace over every window size above
DET_TRACE_PINS = {
    "((a|b)a)*": "781c50ccfaf2b18afe1924abe6d6e6e140ae7eec143c741453d0c200bdfb9a1c",
    "(aa)*": "07a0254916870fc6492a1ad7f546ea0187d31c27c6b5d361bbc809ea693fd954",
    "(aa)*|b(aa)*b": "e11e9354c28890ea33aa9fb267a06068cef090967a6267f2801656a560dae374",
    "(ab)*": "62e31bcd60e8eace50dcf8e8ce66bac909995c683f89c157f7c5d23a18b8a19e",
    "(a|b)*": "c39b8b1f3e954576cb516f3c5885bb20fedb191792e86edffc09cedb62563cac",
    "(a|b)*a": "8a7872246f19dcb9ae01c8086e0a1d7abc323b4006f4215a885070e034007ac4",
    "a*": "af27f94e27e002aaad933a8084fe80e093734c1288c980f3ac4338571b6f7e71",
    "a*|ba*": "098d3010607095ebe8d0b7e486ea500a0e0c32aee94b55a91c2aafd9bc9f547a",
    "ab": "da3c041f40cb3480be85087c68a274e32bd53e180371b45c07dfe920fb8b7a80",
    "a|bb": "926b135690ea118950f02c5a569a114aa827847852b6dae8beb35491701a9164",
    "b(aa)*": "092c4ee196f0aecd842a00fb0c567cc7dc80f00de780c54c7b04f5b45be118bb",
    "b(a|b)*": "67880c358c49b174ea96e4be1bde488c90b4efee30b34e2d5285b152049706e4",
    "ba*": "098d3010607095ebe8d0b7e486ea500a0e0c32aee94b55a91c2aafd9bc9f547a",
}


def det_trace_digest(pattern: str) -> str:
    analyzed = build_analyzed(pattern)
    digest = hashlib.sha256()
    for n in TRACE_WINDOW_SIZES:
        tester = deterministic_tester(analyzed, n)
        steps = []
        for symbol in TRACE_STREAM:
            tester.feed(symbol)
            steps.append(f"{tester.decide():d}{tester.state_bits()}")
        digest.update(f"{n}:{','.join(steps)};".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("pattern", TRACE_LANGUAGES)
def test_det_trace_matches_pinned_digest(pattern):
    assert det_trace_digest(pattern) == DET_TRACE_PINS[pattern]


@pytest.mark.parametrize("pattern", TRACE_LANGUAGES)
def test_det_trace_is_unchanged_when_the_skeleton_table_holds_two(pattern, monkeypatch):
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", 2)
    assert det_trace_digest(pattern) == DET_TRACE_PINS[pattern]


# --- a seeded one-sided experiment --------------------------------------------------

# CI's loglog config with the one-sided kind alone, plus aab|b(aa)* and a
# window of 2^16 + 1: together they cover fingerprint parts, exact parts,
# dropped single-word parts and a transient final with no part left
ONE_SIDED_EXPERIMENT = {
    "seed": 7,
    "trials": 20,
    "eps": 0.5,
    "window_sizes": [33, 64, 65537],
    "languages": [
        {"id": "b-then-a", "regex": "ba*", "alphabet": "ab"},
        {"id": "b-then-even-a", "regex": "b(aa)*", "alphabet": "ab"},
        {"id": "ab-or-b-then-a", "regex": "ab|ba*", "alphabet": "ab"},
        {"id": "aab-or-b-then-even-a", "regex": "aab|b(aa)*", "alphabet": "ab"},
    ],
    "testers": ["one-sided"],
    "streams": [
        {"kind": "random", "seed": 3, "length": 200, "weights": {"a": 0.9, "b": 0.1}},
        {"kind": "adversarial", "factor": "b", "x": "", "y": "a", "z": "", "n": 8, "k": 100},
    ],
    "timing": False,
}
# SHA-256 of its CSV report: the coins, verdicts and state bits of every trial.
# ab|ba* and aab|b(aa)* have two transient finals each, so their one tester
# draws one prime from the pool of k = 2 finals, twice the single-final pool
ONE_SIDED_EXPERIMENT_PIN = "5bf517981adf686a5504b2d6220a10a9bd2ce7cab627f91da471cf791e18417a"


def test_one_sided_experiment_matches_pinned_digest():
    csv = report_to_csv(run_experiment(ONE_SIDED_EXPERIMENT))
    assert hashlib.sha256(csv.encode()).hexdigest() == ONE_SIDED_EXPERIMENT_PIN


# --- a seeded deterministic experiment ----------------------------------------------

# CI's two reproducibility configs as one, with the det kind alone and
# windows of 7 and 255 added: exact fallbacks below |Q|, and the periodic
# stream's 39-symbol a-runs, fed by run, at every other window
DET_EXPERIMENT = {
    "seed": 7,
    "trials": 20,
    "eps": 0.5,
    "window_sizes": [7, 33, 64, 255],
    "languages": [
        *ONE_SIDED_EXPERIMENT["languages"],
        {"id": "even-a-or-b-even-a-b", "regex": "(aa)*|b(aa)*b", "alphabet": "ab"},
    ],
    "testers": ["det"],
    "streams": [
        *ONE_SIDED_EXPERIMENT["streams"],
        {"kind": "periodic", "block": "b" + "a" * 39, "repeats": 5},
    ],
    "timing": False,
}
# SHA-256 of its CSV report: the verdicts and largest state bits of every row
DET_EXPERIMENT_PIN = "62caecd875e560ee40bc721e7682081fc3c6edb02f91e7bde7317090bc4cf556"


def test_det_experiment_matches_pinned_digest():
    csv = report_to_csv(run_experiment(DET_EXPERIMENT))
    assert hashlib.sha256(csv.encode()).hexdigest() == DET_EXPERIMENT_PIN


# --- a seeded two-sided experiment --------------------------------------------------

# the two-sided kind alone on languages of one, two and three SCC segments, at a window of
# 255 besides CI's: the periodic streams' 39-symbol a-runs and 200 copies of ba are fed
# as runs and word powers, so their coins come from the skeleton walk and feed_power's draws
TWO_SIDED_EXPERIMENT = {
    "seed": 7,
    "trials": 20,
    "eps": 0.5,
    "window_sizes": [33, 64, 255],
    "languages": [
        {"id": "b-then-even-a", "regex": "b(aa)*", "alphabet": "ab"},
        {"id": "ab-or-b-then-a", "regex": "ab|ba*", "alphabet": "ab"},
        {"id": "even-a-or-b-even-a-b", "regex": "(aa)*|b(aa)*b", "alphabet": "ab"},
    ],
    "testers": ["two-sided"],
    "streams": [
        *DET_EXPERIMENT["streams"],
        {"kind": "periodic", "block": "ba", "repeats": 200},
    ],
    "timing": False,
}
# SHA-256 of its CSV report: the coins, verdicts and largest state bits of every row
TWO_SIDED_EXPERIMENT_PIN = "d0483e68abee5517d5e5bdc630f9f667f1fc9e1236849e867c045d7867f74ef6"


def test_two_sided_experiment_matches_pinned_digest():
    csv = report_to_csv(run_experiment(TWO_SIDED_EXPERIMENT))
    assert hashlib.sha256(csv.encode()).hexdigest() == TWO_SIDED_EXPERIMENT_PIN


def test_two_sided_experiment_is_unchanged_when_the_skeleton_table_holds_two(monkeypatch):
    monkeypatch.setattr(testers_det, "SKELETON_TABLE_SIZE", 2)
    csv = report_to_csv(run_experiment(TWO_SIDED_EXPERIMENT))
    assert hashlib.sha256(csv.encode()).hexdigest() == TWO_SIDED_EXPERIMENT_PIN


# --- a seeded two-sided row inside the gap ---------------------------------------------

# b(aa)* at n = 65 and eps 0.25 on a^30 b a^58: the window a^6 b a^58 is 2 substitutions
# from the language, inside the gap, and the entry born at its b, 59 symbols old, lies
# between the counter's marks 51.75 and 63, so whether it reads low, and so each trial's
# verdict, is the coins': the rate is neither 0 nor 1
TWO_SIDED_GAP_EXPERIMENT = {
    "seed": 7,
    "trials": 200,
    "eps": 0.25,
    "window_sizes": [65],
    "languages": [{"id": "b-then-even-a", "regex": "b(aa)*", "alphabet": "ab"}],
    "testers": ["two-sided"],
    "streams": [{"kind": "adversarial", "factor": "a", "x": "b", "y": "a", "z": "", "n": 30, "k": 58}],
    "timing": False,
}
# SHA-256 of its CSV report, which moves with any coin of the row
TWO_SIDED_GAP_EXPERIMENT_PIN = "6378672b252f3d2a89c2c588e72ad59291ec2ee8fead3a1bd729d0be444d6f58"


def test_two_sided_gap_row_matches_pinned_digest():
    rows = run_experiment(TWO_SIDED_GAP_EXPERIMENT)
    assert [row.oracle_dist for row in rows] == [2]
    assert 0.2 < rows[0].accept_freq < 0.6  # inside the band where the coins decide
    assert hashlib.sha256(report_to_csv(rows).encode()).hexdigest() == TWO_SIDED_GAP_EXPERIMENT_PIN


# --- oracle distances of CI's reproducibility configs -------------------------------

CI_STREAMS = [
    {"kind": "random", "seed": 3, "length": 200, "weights": {"a": 0.9, "b": 0.1}},
    {"kind": "adversarial", "factor": "b", "x": "", "y": "a", "z": "", "n": 8, "k": 100},
    {"kind": "periodic", "block": "b" + "a" * 39, "repeats": 5},
]
# the configs of CI's "Seeded experiment reproducibility" step, in its order
CI_EXPERIMENTS = [
    {
        "seed": 7,
        "trials": 20,
        "eps": 0.5,
        "window_sizes": [33, 64],
        "languages": ONE_SIDED_EXPERIMENT["languages"],
        "testers": ["exact", "trivial", "det", "two-sided", "one-sided"],
        "streams": CI_STREAMS,
        "timing": False,
    },
    {
        "seed": 7,
        "trials": 20,
        "eps": 0.5,
        "window_sizes": [33, 64],
        "languages": [{"id": "even-a-or-b-even-a-b", "regex": "(aa)*|b(aa)*b", "alphabet": "ab"}],
        "testers": ["exact", "trivial", "det", "two-sided"],
        "streams": CI_STREAMS,
        "timing": False,
    },
    {
        # the a-track's lead over the b-track grows through the 5000-symbol window, so the
        # oracle's cost vectors never recur and its step table fills and is emptied
        "seed": 7,
        "trials": 2,
        "eps": 0.5,
        "window_sizes": [64, 5000],
        "languages": [{"id": "all-a-or-all-b", "regex": "a*|b*", "alphabet": "ab"}],
        "testers": ["exact", "det"],
        "streams": [{"kind": "random", "seed": 3, "length": 6000, "weights": {"a": 0.9, "b": 0.1}}],
        "timing": False,
    },
]
ORACLE_DIST_COLUMNS = ("language", "tester", "n", "stream", "oracle_dist")
# SHA-256 of those columns of every row of every config, one comma-joined line per row
ORACLE_DIST_PIN = "cda94b27030ad8e331843b79bee4902afb7f75df2443e2fc7ef9a85ab7c99827"


def test_ci_oracle_distances_match_pinned_digest():
    digest = hashlib.sha256()
    for config in CI_EXPERIMENTS:
        for row in run_experiment(config):
            record = row.as_record()
            digest.update((",".join(str(record[col]) for col in ORACLE_DIST_COLUMNS) + "\n").encode())
    assert digest.hexdigest() == ORACLE_DIST_PIN
