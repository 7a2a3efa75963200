"""Literal analysis figures, pinned so that refactors of the compile pipeline
(trimming, uniformization, acceptance sets, thresholds, partial machines)
are checked value by value, not only through tester verdicts."""

import pytest
from conftest import CORPUS, build_analyzed, build_dfa

from regwin import OneSidedClass, enumerate_path_descriptions, one_sided_class, retarget_finals

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
