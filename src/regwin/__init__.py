"""Sliding-window property testers for regular languages.

Given a window size n and a stream, a tester must accept whenever the last
n stream symbols form a word of the language and reject whenever they are
far from every such word.  The package provides the exact baseline, a
constant-space tester for trivial languages, a deterministic tester in
O(log n) bits, a two-sided randomized tester in O(1) bits, and a one-sided
randomized tester in O(log log n) bits for unions of trivial and
suffix-free languages -- plus the automaton analyses those testers compile
from and the distance oracles that label a window: its exact Hamming and
prefix distance to the words of the language of the window's length.
"""

from .analysis import (
    AnalyzedRdfa,
    EventuallyPeriodicSet,
    OneSidedClass,
    PeriodInfo,
    Progression,
    SccDecomposition,
    acceptance_sets,
    analyze,
    compute_period_info,
    find_excluded_factor,
    is_length_language,
    is_suffix_free,
    is_trivial,
    length_cut_witness,
    one_sided_class,
    realized_lengths,
    scc_decompose,
    shift,
    uniformize_period,
)
from .automata import (
    Alphabet,
    AlphabetMismatch,
    AutomatonError,
    Dfa,
    Nfa,
    Rdfa,
    RegexSyntaxError,
    StateLimitExceeded,
    automaton_from_json,
    automaton_to_json,
    determinize,
    equivalent,
    minimize,
    parse_regex,
    product_intersect,
    rdfa_to_dfa,
    reverse_to_rdfa,
    trim_reachable,
)
from .oracle import distance_to_language, prefix_distance_to_language
from .streams import (
    AdversarialStream,
    LiteralStream,
    MonteCarloResult,
    PeriodicStream,
    RandomStream,
    StreamSpec,
    generate,
    monte_carlo,
    pieces,
    spec_from_dict,
    spec_from_string,
    trial_seed,
)
from .testers_det import (
    SlidingWindowTester,
    deterministic_tester,
    exact_tester,
    trivial_tester,
)
from .testers_rand import (
    FingerprintTable,
    Language,
    OneSidedTester,
    PartialRdfa,
    ProbabilisticCounter,
    build_tester_factory,
    compile_one_sided,
    composed_one_sided_tester,
    counter_copies,
    enumerate_path_descriptions,
    make_counter,
    prime_pool,
    sample_prime,
    two_sided_tester,
)

__version__ = "0.1.0"
