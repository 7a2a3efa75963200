"""Reference definitions the tests audit the library against.

Nothing here runs in the library.  Each definition is the plain,
one-object-at-a-time form of something a tester or an analysis does in
bulk: a ring buffer for the active window, the window after a whole
stream, Hamming distance, exhaustive run search for the simulation
property, cut languages, the SCC order, the deterministic tester's path
summaries and its step in ages, the one-sided tester's fingerprint step
in lengths, the two-sided tester's compact summaries with their one-step
prolongation, and an exact threshold counter to put in through
``TwoSidedTester``'s ``counter_factory`` seam.  Tests import it as they import ``conftest``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from regwin import Alphabet, AnalyzedRdfa, Dfa, Nfa, ProbabilisticCounter, Rdfa, SlidingWindowTester


def feed_all(tester: SlidingWindowTester, stream: Iterable[str]) -> SlidingWindowTester:
    """Feed ``stream`` symbol by symbol; the tester, for chaining."""
    for symbol in stream:
        tester.feed(symbol)
    return tester


# --- windows and distances ---------------------------------------------------------


class WindowBuffer:
    """Ring buffer holding the active window: the last n stream symbols,
    padded on the left with the alphabet's pad symbol."""

    __slots__ = ("size", "_buf")

    def __init__(self, alphabet: Alphabet, size: int):
        if size < 0:
            raise ValueError("window size must be nonnegative")
        self.size = size
        self._buf: deque[str] = deque([alphabet.pad] * size, maxlen=size)

    def feed(self, symbol: str) -> None:
        self._buf.append(symbol)

    def contents(self) -> str:
        return "".join(self._buf)


def final_window(symbols: Sequence[str], alphabet: Alphabet, n: int) -> str:
    """The window after the whole stream: its last n symbols, padded on the
    left, as the window buffer holds it; ``cli._final_pieces`` is checked
    against it."""
    if n < 0:
        raise ValueError("window size must be nonnegative")
    last = symbols[max(0, len(symbols) - n) :]  # not symbols[-n:], which is the whole list at n = 0
    return alphabet.pad * (n - len(last)) + "".join(last)


def hamming_distance(u: str, v: str) -> int:
    """Number of positions where two equal-length words differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


# --- runs and the simulation property ------------------------------------------------


def _reachable_layers(rdfa: Rdfa, start: int, depth: int) -> list[set[int]]:
    layers = [{start}]
    for _ in range(depth):
        layers.append({rdfa.delta[q][a] for q in layers[-1] for a in range(len(rdfa.alphabet))})
    return layers


def _run_length_guard(analyzed: AnalyzedRdfa, n: int) -> None:
    bound = analyzed.t + 2 * analyzed.g + 8
    if n > bound:
        raise ValueError(f"exhaustive run search is guarded at length {bound}, got {n}")


def exhaustive_accepting_run(analyzed: AnalyzedRdfa, q: int, n: int) -> list[int] | None:
    """Some accepting run of length exactly n from q (as its state
    sequence), or None.  Guarded to small n; this is a test oracle."""
    _run_length_guard(analyzed, n)
    rdfa = analyzed.rdfa
    layers = _reachable_layers(rdfa, q, n)
    goals = layers[n] & rdfa.finals
    if not goals:
        return None
    # walk backwards choosing any predecessor in the previous layer
    run = [min(goals)]
    for depth in range(n - 1, -1, -1):
        here = run[-1]
        for p in sorted(layers[depth]):
            if any(rdfa.delta[p][a] == here for a in range(len(rdfa.alphabet))):
                run.append(p)
                break
    run.reverse()
    return run


def _accepts_some_word_of_length(rdfa: Rdfa, q: int, n: int) -> bool:
    frontier = {q}
    for _ in range(n):
        frontier = {rdfa.delta[p][a] for p in frontier for a in range(len(rdfa.alphabet))}
    return bool(frontier & rdfa.finals)


def check_t_simulation(analyzed: AnalyzedRdfa, run_states: Sequence[int], n: int) -> bool:
    """Check that some accepting run of length n from the start state of an
    internal run keeps the run's behaviour except for a prefix of length at
    most the analysis threshold t.

    Concretely: for some k <= min(t, |run|), dropping the run's final k
    steps leaves a state from which an accepting continuation of length
    n - (|run| - k) exists.  Length membership is recomputed here by plain
    frontier search, independent of the analysis module's periodic sets.
    """
    _run_length_guard(analyzed, n)
    length = len(run_states) - 1
    if length > n:
        raise ValueError("run longer than the target length")
    scc = analyzed.scc
    if any(not scc.same_scc(run_states[0], s) for s in run_states):
        raise ValueError("run is not internal to one SCC")
    for k in range(0, min(analyzed.t, length) + 1):
        kept = length - k
        if _accepts_some_word_of_length(analyzed.rdfa, run_states[kept], n - kept):
            return True
    return False


# --- cut languages and the SCC order ---------------------------------------------------


def cut_language(dfa: Dfa, i: int, j: int) -> Nfa:
    """NFA for the words of L with i leading and j trailing symbols removed:
    initials are the states reachable in exactly i steps, finals the states
    from which a final state is reachable in exactly j steps."""
    initials = {dfa.initial}
    for _ in range(i):
        initials = {dfa.delta[q][a] for q in initials for a in range(len(dfa.alphabet))}
    finals = set(dfa.finals)
    for _ in range(j):
        finals = {
            q
            for q in range(dfa.n_states)
            if any(dfa.delta[q][a] in finals for a in range(len(dfa.alphabet)))
        }
    return Nfa(dfa.alphabet, dfa.n_states, initials, dfa.transitions(), finals)


def scc_reach(analyzed: AnalyzedRdfa) -> list[set[int]]:
    """Per component c, the ids of the components reachable from c, c
    included: the SCC partial order.  Swept in ``scc_decompose``'s
    numbering, which lists sinks first, so every successor is done."""
    scc, delta = analyzed.scc, analyzed.rdfa.delta
    reach: list[set[int]] = []
    for cid, component in enumerate(scc.components):
        successors = {scc.scc_id[w] for q in component for w in delta[q]} - {cid}
        reach.append({cid}.union(*(reach[d] for d in successors)))
    return reach


def _assert_scc_chain(analyzed: AnalyzedRdfa, states: Iterable[int]) -> None:
    """Each state's component lies strictly after the next one's."""
    scc, reach = analyzed.scc, scc_reach(analyzed)
    ids = [scc.scc_id[q] for q in states]
    for older, newer in zip(ids, ids[1:]):
        assert older != newer and older in reach[newer], "SCC chain out of order"


# --- the deterministic tester's path summaries ------------------------------------------


@dataclass(frozen=True)
class PathSummary:
    """Run summary: (segment length, segment start state) pairs, oldest
    segment first.

    A run is factored into maximal single-SCC segments joined by
    SCC-changing transitions; each pair except the oldest counts its
    segment plus the transition that follows it, so lengths sum to the run
    length and every pair but the first is at least 1.
    """

    pairs: tuple[tuple[int, int], ...]

    @property
    def length(self) -> int:
        return sum(l for l, _q in self.pairs)

    def validate(self, analyzed: AnalyzedRdfa) -> None:
        assert self.pairs, "summary must hold at least one pair"
        assert self.pairs[0][0] >= 0
        assert all(l >= 1 for l, _q in self.pairs[1:])
        assert len(self.pairs) <= analyzed.rdfa.n_states
        _assert_scc_chain(analyzed, (q for _l, q in self.pairs))


def path_summary_of(window: str, q: int, analyzed: AnalyzedRdfa) -> PathSummary:
    """Reference (non-streaming) summary of the run on ``window`` from q;
    the oracle the streaming updates are tested against."""
    states = analyzed.rdfa.run(window, q)
    scc = analyzed.scc
    pairs: list[tuple[int, int]] = []
    seg_start = states[0]
    seg_len = 0
    for prev, nxt in zip(states, states[1:]):
        if scc.same_scc(prev, nxt):
            seg_len += 1
        else:
            pairs.append((seg_len + 1, seg_start))  # segment plus its exit transition
            seg_start = nxt
            seg_len = 0
    pairs.append((seg_len, seg_start))
    pairs.reverse()
    return PathSummary(tuple(pairs))


def path_summaries(tester) -> dict[int, PathSummary]:
    """A ``PathSummaryTester``'s rows, the entries in the window, as one
    ``PathSummary`` per start state."""
    n, views = tester.window_size, {}
    for q, row in enumerate(tester._rows):
        live = [(s, age) for s, _r, age in row if age <= n]
        older_ages = [n, *(age for _s, age in live)]  # the oldest runs to the far end
        views[q] = PathSummary(tuple((older - age, s) for older, (s, age) in zip(older_ages, [*live, (q, 0)])))
    return views


def path_summary_feed(analyzed: AnalyzedRdfa, rows: Sequence[Sequence[tuple[int, int, int]]], code: int, n: int):
    """A ``PathSummaryTester``'s ``_rows`` after one feed of the symbol
    ``code``, from its ``_rows`` before, by the row rule in ages: row p is
    the row of q = delta[p][code] with every age one up to n + 1, where it
    freezes, and ``(q, 0, 1)`` joins when p and q lie in different SCCs."""
    dead, delta = n + 1, analyzed.rdfa.delta
    stepped = []
    for p, successors in enumerate(delta):
        q = successors[code]
        row = [(s, 0, age + 1 if age < dead else dead) for s, _r, age in rows[q]]
        if not analyzed.same_scc(p, q):
            row.append((q, 0, 1))
        stepped.append(row)
    return stepped


def path_summary_verdict(analyzed: AnalyzedRdfa, rows: Sequence[Sequence[tuple[int, int, int]]], n: int) -> bool:
    """A ``PathSummaryTester``'s verdict on its ``_rows``: the oldest entry
    of the initial state's row of age at most n accepts iff n - age is an
    acceptance length of its state; with none, iff n is one of the
    initial state's."""
    initial = analyzed.rdfa.initial
    for s, _r, age in rows[initial]:
        if age <= n:
            return analyzed.acc[s].member(n - age)
    return analyzed.acc[initial].member(n)


# --- the one-sided tester's fingerprint table ----------------------------------------------


def fingerprint_feed(parts: Sequence, prime: int, values: Sequence[int], code: int) -> list[int]:
    """A ``OneSidedTester``'s ``values`` after one feed of the symbol
    ``code``, from its ``values`` before: over its ``parts``' completed
    machines laid end to end, every state takes its successor's length
    through the successor table ``0 -> 1 -> ... -> p-1 -> 0, p -> p`` (p
    stands for infinity), and every final then holds 0."""
    successor = [*range(1, prime), 0, prime]
    stepped: list[int] = []
    for machine in (partial.machine for partial in parts):
        offset = len(stepped)
        block = [successor[values[offset + row[code]]] for row in machine.delta]
        for final in machine.finals:
            block[final] = 0
        stepped += block
    return stepped


# --- the two-sided tester's compact summaries ----------------------------------------------


class _UnitStep(dict):
    """count -> the table of a step of exactly one, whatever the count."""

    def __missing__(self, count: int) -> tuple[float, ...]:
        return (0.0, 1.0)


class ThresholdCounter:
    """Deterministic test double: the count is exact, every increment adds
    exactly 1 (its ``increment_cdfs`` tables say so whatever the uniform),
    and it reads high iff count >= cutoff."""

    __slots__ = ("cutoff",)

    def __init__(self, cutoff: int):
        if cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        self.cutoff = cutoff

    def reads_high(self, count: int) -> bool:
        return count >= self.cutoff

    def increment_cdfs(self) -> Mapping[int, tuple[float, ...]]:
        return _UnitStep()

    def advance(self, count: int, k: int, rng: np.random.Generator | None = None) -> int:
        return count + k

    def state_bit_cost(self) -> int:
        return self.cutoff.bit_length()


class SummaryTriple(NamedTuple):
    """One SCC segment of a run: its start state, the residue mod g of the
    stream length consumed after the segment ended, and the count of its
    staleness counter, which tracks that same length approximately."""

    state: int
    residue: int
    count: int


class CompactSummary:
    """Constant-size surrogate of a run's segment summary, oldest segment
    first.  The newest triple is always (start state, 0, 0)."""

    __slots__ = ("triples",)

    def __init__(self, triples: Sequence[SummaryTriple]):
        self.triples = list(triples)
        if not self.triples:
            raise ValueError("summary must hold at least one triple")

    @property
    def start_state(self) -> int:
        return self.triples[-1].state

    def validate(self, analyzed: AnalyzedRdfa) -> None:
        assert self.triples[-1][1:] == (0, 0), "newest triple must carry residue 0 and count 0"
        assert len(self.triples) <= analyzed.rdfa.n_states
        _assert_scc_chain(analyzed, (tr.state for tr in self.triples))


def prolong_compact_summary(
    cs: CompactSummary,
    symbol_code: int,
    new_start: int,
    analyzed: AnalyzedRdfa,
    counter: ProbabilisticCounter | ThresholdCounter,
    rng: np.random.Generator | None = None,
) -> CompactSummary:
    """Extend the summarized run by one transition at its start.

    This is the one-step reference definition that ``TwoSidedTester``
    applies to all start states at once: every kept triple moves its
    residue by 1 mod g and advances its count by ``counter.advance(count,
    1, rng)``, oldest first; the newest triple is kept only when the
    transition changes SCC, and ``(new_start, 0, 0)`` becomes the newest.
    A ``ThresholdCounter`` needs no ``rng``.
    """
    rdfa, scc, g = analyzed.rdfa, analyzed.scc, analyzed.g
    q = rdfa.delta[new_start][symbol_code]
    if q != cs.start_state:
        raise ValueError(
            f"transition from {new_start} reaches {q}, but the summary starts at {cs.start_state}"
        )
    kept = cs.triples[:-1] if scc.same_scc(new_start, q) else cs.triples
    triples = [SummaryTriple(s, (residue + 1) % g, counter.advance(count, 1, rng)) for s, residue, count in kept]
    return CompactSummary([*triples, SummaryTriple(new_start, 0, 0)])


def compact_summaries(tester) -> dict[int, CompactSummary]:
    """A ``TwoSidedTester``'s rows as one ``CompactSummary`` per start
    state, the newest triple ``(q, 0, 0)`` appended."""
    return {
        q: CompactSummary([*map(SummaryTriple._make, row), SummaryTriple(q, 0, 0)])
        for q, row in enumerate(tester._rows)
    }
