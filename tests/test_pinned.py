"""Literal analysis figures, pinned so that refactors of the compile pipeline
(trimming, uniformization, acceptance sets, thresholds, partial machines)
are checked value by value, not only through tester verdicts.  The
construction pins fix state numbering too: every construction numbers its
states breadth-first from the initial state, symbols in alphabet order."""

import pytest
from conftest import AB, CORPUS, build_analyzed, build_dfa

from regwin import (
    OneSidedClass,
    determinize,
    enumerate_path_descriptions,
    find_excluded_factor,
    one_sided_class,
    parse_regex,
    product_intersect,
    realized_lengths,
    retarget_finals,
    reverse_to_rdfa,
    trim_reachable,
    uniformize_period,
)

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
        analyzed = build_analyzed(pattern)
        figures = [
            (partial.threshold, partial.soundness_gap)
            for f in sorted(analyzed.rdfa.finals)
            if analyzed.scc.is_transient_state(f)
            for partial in enumerate_path_descriptions(retarget_finals(analyzed, (f,)))
        ]
        assert figures == PARTIAL_PINS[pattern], pattern


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
