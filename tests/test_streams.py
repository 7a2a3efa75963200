import pytest
from conftest import AB, build_analyzed

from regwin import (
    AdversarialStream,
    LiteralStream,
    PeriodicStream,
    RandomStream,
    deterministic_tester,
    generate,
    monte_carlo,
    pieces,
    spec_from_dict,
    spec_from_string,
    trial_seed,
)
from regwin.streams import _feeds


def test_adversarial_expansion():
    spec = AdversarialStream(factor="b", x="", y="a", z="", n=4, k=3)
    assert "".join(generate(spec, AB)) == "bbbbaaa"


def test_literal_and_periodic():
    assert "".join(generate(LiteralStream("baaa"), AB)) == "baaa"
    assert "".join(generate(PeriodicStream("ba", 3), AB)) == "bababa"


def test_random_stream_is_seed_deterministic():
    spec = RandomStream(seed=7, length=10_000)
    first = "".join(generate(spec, AB))
    second = "".join(generate(spec, AB))
    assert first == second and len(first) == 10_000
    assert set(first) <= set(AB.symbols)


def test_random_stream_respects_weights():
    spec = spec_from_dict({"kind": "random", "seed": 1, "length": 2_000, "weights": {"a": 1, "b": 3}})
    text = "".join(generate(spec, AB))
    assert 0.6 < text.count("b") / len(text) < 0.9


def test_generate_rejects_foreign_symbols():
    with pytest.raises(ValueError):
        list(generate(LiteralStream("abc"), AB))


def test_generate_raises_before_yielding_any_symbol_of_a_foreign_part():
    yielded = []
    with pytest.raises(ValueError, match="'c'"):
        for symbol in generate(AdversarialStream(factor="ab", x="", y="ac", z="", n=3, k=2), AB):
            yielded.append(symbol)
    assert "".join(yielded) == "ababab"


@pytest.mark.parametrize(
    "spec",
    [
        LiteralStream("baab"),
        LiteralStream(""),
        PeriodicStream("ba", 3),
        PeriodicStream("ab", 0),
        RandomStream(seed=7, length=50),
        RandomStream(seed=1, length=40, weights=(("a", 1.0), ("b", 3.0))),
        AdversarialStream(factor="ab", x="b", y="a", z="bb", n=5, k=4),
        AdversarialStream(factor="b", x="", y="a", z="", n=0, k=3),
    ],
)
def test_pieces_flatten_to_the_generated_stream(spec):
    assert "".join(word * k for word, k in pieces(spec, AB)) == "".join(generate(spec, AB))


def test_pieces_hold_the_literal_parts_of_the_spec():
    assert pieces(AdversarialStream(factor="ab", x="b", y="a", z="", n=5, k=4), AB) == [
        ("ab", 5),
        ("b", 1),
        ("a", 4),
        ("", 1),
    ]
    assert pieces(PeriodicStream("ba", 3), AB) == [("ba", 3)]
    assert pieces(LiteralStream("baab"), AB) == [("baab", 1)]


@pytest.mark.parametrize("field", ["factor", "x", "y", "z"])
def test_pieces_raise_on_a_foreign_symbol_in_any_part(field):
    parts = dict(factor="ab", x="", y="a", z="b", n=3, k=2)
    parts[field] += "c"
    with pytest.raises(ValueError, match="'c'"):
        pieces(AdversarialStream(**parts), AB)


def test_monte_carlo_feeds_powers_of_two_or_more_symbols_and_runs_of_the_rest():
    """A piece (w, k) with k > |w| >= 2 is one power; the symbols of every
    other piece join the runs around them."""
    items = [("ab", 3), ("ba", 2), ("a", 4), ("", 5), ("b", 0), ("aab", 3), ("a", 1)]
    assert _feeds(items) == [
        ("ab", 3),
        ("b", 1),
        ("a", 1),
        ("b", 1),
        ("a", 7),
        ("b", 1),
        ("a", 2),
        ("b", 1),
        ("a", 2),
        ("b", 1),
        ("a", 1),
    ]


def test_spec_string_round_trip():
    for text in (
        "literal:baaa",
        "periodic:ba,64",
        "random:7,100",
        "random:1,50,a=1.0,b=3.0",
        "adversarial:b,,a,,4,3",
    ):
        spec = spec_from_string(text)
        assert spec.label() == text
        assert spec_from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "text, field",
    [
        ("random:1,50,a=x", "weights.a"),
        ("random:1,50,a", "weights.a"),
        ("random:1,50,a=-1", "weights.a"),
        ("random:1,50,a=1.0,b=inf", "weights.b"),
        ("random:1,50,a=1.0,a=2.0", "weights.a"),
    ],
)
def test_weighted_random_spec_string_names_a_bad_weight(text, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        spec_from_string(text)


def test_spec_parsing_errors():
    with pytest.raises(ValueError):
        spec_from_string("bogus:1")
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "adversarial", "factor": "b"})


def test_trial_seed_is_stable():
    assert trial_seed(7, 0) == trial_seed(7, 0)
    assert trial_seed(7, 0) != trial_seed(7, 1)
    assert trial_seed(7, 0) == 15971330445000585728  # frozen: derivation must not drift


def test_monte_carlo_on_deterministic_tester_is_zero_or_one():
    analyzed = build_analyzed("a*")
    member = monte_carlo(lambda rng: deterministic_tester(analyzed, 4), "aaaa", 5, master_seed=1)
    far = monte_carlo(lambda rng: deterministic_tester(analyzed, 4), "abab", 5, master_seed=1)
    assert member.accept_rate == 1.0
    assert far.accept_rate == 0.0


def test_monte_carlo_traces():
    analyzed = build_analyzed("a*")
    result = monte_carlo(
        lambda rng: deterministic_tester(analyzed, 2), "ab", 2, master_seed=0, trace=True
    )
    assert result.traces == ((True, False), (True, False))
