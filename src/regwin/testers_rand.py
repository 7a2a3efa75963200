"""Randomized sliding-window testers.

Two-sided tester (constant space for fixed gap fraction): for every state
the tester keeps a *compact summary* of the run on the whole stream: per
SCC segment a triple (segment start state, segment-end staleness mod g,
count of a probabilistic staleness counter).  The counter is a bank of
one-bit Bernoulli cells whose majority flips from "low" to "high"
somewhere between the gap's two marks, so the summary locates the
window's left edge up to the allowed slack without storing any length
exactly.  Only the number of set cells matters: a count is a plain int,
and a counter object holds only the parameters its counts share.  The
segments that started at one step share one count, a step draws one
coin per such birth class, and each decision's law is that of
independent per-segment counters.  The summaries without their counts
range over a finite set of skeletons and birth-class partitions, which
the tester steps as an automaton interned on the fly: the
``SkeletonTester`` engine it shares with the deterministic tester.

One-sided tester (double-log space for finite unions of trivial and
suffix-free languages): the one analysed machine is split into finitely
many partial machines, one per chain of SCCs from the initial state to a
transient final state, each completed with a sink into a machine of its
own.  Each partial machine has essentially one accepting length profile,
so membership reduces to "the shortest suffix driving the start state to
the final state has length exactly n", which is checked modulo one random
prime drawn from a pool of the first Θ(k log window-size) primes, k the
number of transient finals.  Member windows are accepted for every prime;
far windows survive for at most a third of the pool.  ``OneSidedTester``
keeps these lengths for the partial machines of every transient final in
one flat table, as births mod p on one clock, which a feed steps by one
gather.  A partial
machine that cannot accept a window of size n is dropped; one whose
language is a single word, or whose slack does not fit the window, is
tracked exactly by the ``ExactWindowTester`` that serves the exact kind.
The recurrent finals' language is trivial, so it is a constant at a fixed
window size: the one-sided factory returns its trivial tester where it
holds n and leaves it out otherwise.

``UnionTester`` runs testers for finitely many languages in parallel and
accepts iff one of them accepts; the compiled one-sided tester is never one.

``build_tester_factory`` builds every kind from one ``Language``, which
keeps what depends only on the language; ``compile_one_sided`` is its
one-sided factory.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, islice
from typing import Callable, Mapping, Sequence

import numpy as np

from .analysis import (
    AnalyzedRdfa,
    EventuallyPeriodicSet,
    OneSidedClass,
    _acceptance_sets_from_successors,
    analyze,
    global_threshold,
    one_sided_class,
    realized_lengths,
)
from .automata import Alphabet, Dfa, Rdfa, StateLimitExceeded
from .testers_det import (
    Classes,
    ExactWindowTester,
    FixedSizeTester,
    SkeletonTester,
    SlidingWindowTester,
    check_power,
    deterministic_tester,
    exact_tester,
    gather,
    lasso_node,
    trivial_tester,
    word_codes,
    word_lassos,
)

PATH_DESCRIPTION_CAP = 4096

Rng = np.random.Generator | int | None  # a generator, or the seed of one
Factory = Callable[[Rng], SlidingWindowTester]  # a per-trial rng -> a fresh tester


def _ensure_rng(rng: Rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


# --- probabilistic counters ---------------------------------------------------


def binomial_cdf(m: int, p: float) -> tuple[float, ...]:
    """P(X <= k) for X ~ Binomial(m, p) and k = 0, 1, ..., cut after the
    first entry that is 1.0 in floating point, so the last entry is 1.0.

    For u uniform on [0, 1), ``bisect_right(table, u)`` is the least k with
    P(X <= k) > u, an inverse-transform draw of X (Devroye, *Non-Uniform
    Random Variate Generation*, 1986, ch. 3).  The probabilities are walked
    out from the mode by the ratio of neighbouring terms and normalized by
    their sum, so none underflows; terms below 1e-30 of the mode's are
    dropped (entries below the walk read 0.0).  p = 0 and p = 1 give the
    point masses at 0 and m.
    """
    if p >= 1.0:
        return (0.0,) * m + (1.0,)
    if p <= 0.0 or m == 0:
        return (1.0,)
    odds = p / (1.0 - p)
    mode = min(m, int((m + 1) * p))
    below: list[float] = []  # P(X = k) / P(X = mode) for k = mode - 1, mode - 2, ...
    ratio, k = 1.0, mode
    while k > 0 and ratio > 1e-30:
        ratio *= k / ((m - k + 1) * odds)
        k -= 1
        below.append(ratio)
    above: list[float] = []  # the same for k = mode + 1, mode + 2, ...
    ratio, k = 1.0, mode
    while k < m and ratio > 1e-30:
        ratio *= (m - k) * odds / (k + 1)
        k += 1
        above.append(ratio)
    partial = list(accumulate([*reversed(below), 1.0, *above]))
    cdf = [s / partial[-1] for s in partial]
    return (0.0,) * (mode - len(below)) + tuple(cdf[: cdf.index(1.0) + 1])


class _IncrementCdfs(dict):
    """count -> ``binomial_cdf(copies - count, per_step_p)``, the law of the
    cells one increment sets on a counter holding ``count``; each table is
    built on first use."""

    def __init__(self, copies: int, per_step_p: float):
        super().__init__()
        self.copies = copies
        self.per_step_p = per_step_p

    def __missing__(self, count: int) -> tuple[float, ...]:
        cdf = self[count] = binomial_cdf(self.copies - count, self.per_step_p)
        return cdf


# shared by every counter with the same (copies, per_step_p), so Monte Carlo
# trials build each table once; the tables are values of a pure function, so
# what a caller reads does not depend on what ran before
_shared_increment_cdfs = functools.lru_cache(maxsize=16)(_IncrementCdfs)


def counter_copies(qsize: int, noise_margin: float) -> int:
    """Cell count making the majority vote err with probability at most
    1/(3*qsize): ceil(96 ln(3 qsize) / margin^2)."""
    if not 0 < noise_margin <= 1:
        raise ValueError("noise margin must lie in (0, 1]")
    return math.ceil(96.0 * math.log(3.0 * qsize) / noise_margin**2)


class ProbabilisticCounter:
    """Parameters of a staleness counter reading "low" below ``low_mark``
    increments and "high" above ``high_mark``, erring with probability
    <= 1/(3*qsize).

    A counter is a bank of ``copies`` one-bit cells; an increment sets each
    still-unset cell independently with the per-step probability, and the
    reading is the majority vote (ties count high; ``copies`` is forced odd
    so ties cannot occur).  Only the number of set cells matters, so a
    *count* is a plain int held by whoever keeps the counter (the
    two-sided tester's rows); this object holds only what every count
    shares.  ``reads_high(count)`` is the vote,
    ``advance(count, k, rng)`` applies k increments in one draw, and
    ``increment_cdfs()`` gives the tables by which the two-sided step
    advances a count by one increment at a uniform.
    """

    __slots__ = ("high_mark", "low_mark", "qsize", "margin", "per_step_p", "copies")

    def __init__(self, high_mark: int, low_mark: float, qsize: int, per_step_p: float | None = None):
        if high_mark < 1:
            raise ValueError("high mark must be at least 1")
        if not low_mark < high_mark:
            raise ValueError(f"low mark {low_mark} must lie below high mark {high_mark}")
        self.high_mark = high_mark
        self.low_mark = low_mark
        self.qsize = qsize
        self.margin = (high_mark - low_mark) / high_mark
        if per_step_p is None:
            # 1 - (1/2 - margin/8)^(1/high_mark), without the cancellation that rounds it to 0 at large marks
            per_step_p = -math.expm1(math.log(0.5 - self.margin / 8.0) / high_mark)
        if not 0.0 <= per_step_p <= 1.0:
            raise ValueError("per-step probability out of range")
        self.per_step_p = per_step_p
        copies = counter_copies(qsize, self.margin)
        self.copies = copies + 1 if copies % 2 == 0 else copies

    def reads_high(self, count: int) -> bool:
        return 2 * count >= self.copies

    def increment_cdfs(self) -> Mapping[int, tuple[float, ...]]:
        """count -> CDF table of the cells one increment sets on a counter
        holding ``count``: Binomial(copies - count, per_step_p).  Shared by
        every counter with these parameters."""
        return _shared_increment_cdfs(self.copies, self.per_step_p)

    def set_chance(self, k: float) -> float:
        """The chance that an unset cell is set within k increments,
        1 - (1-p)^k, computed through ``expm1`` and ``log1p`` so that it keeps
        its digits for p down to 1e-19 (high marks up to 2^62)."""
        return -math.expm1(k * math.log1p(-self.per_step_p))

    def advance(self, count: int, k: int, rng: np.random.Generator) -> int:
        """The count after k increments of a counter holding ``count``.
        Each unset cell survives all k rounds with probability (1-p)^k, so
        one Binomial(copies - count, ``set_chance(k)``) draw from ``rng``
        suffices."""
        unset = self.copies - count
        if k <= 0 or unset == 0 or self.per_step_p <= 0.0:
            return count
        if self.per_step_p >= 1.0:
            return self.copies
        return count + int(rng.binomial(unset, self.set_chance(k)))

    def state_bit_cost(self) -> int:
        return self.copies.bit_length()


def make_counter(n: int, eps: float, qsize: int, t: int) -> ProbabilisticCounter:
    """Counter with marks derived from the window size: high at n - t,
    low at (1-eps)n + t + 1.  Callers must fall back to an exact tester
    when eps*n < t or the marks collapse."""
    if eps * n < t:
        raise ValueError(f"gap eps*n = {eps * n} is below the analysis threshold {t}")
    high = n - t
    low = (1.0 - eps) * n + t + 1
    if not low < high:
        raise ValueError(f"counter marks collapsed (low {low} >= high {high})")
    return ProbabilisticCounter(high, low, qsize)


# --- the two-sided tester ------------------------------------------------------


UNIFORM_BUFFER = 2048  # uniforms per batch of a two-sided tester's stream


class TwoSidedTester(SkeletonTester):
    """Constant-space tester with two-sided error for gap eps*n: the
    skeleton engine with period g and staleness-counter counts, one count
    per birth class.

    p's summary is its row of triples plus the newest, ``(p, 0, 0)``, and a
    step prolongs every state's summary by one transition at once, by the
    row rule of ``SkeletonTester``.
    Accepts iff, in the initial state's summary, the oldest triple whose
    count still reads low has an acceptance residue matching the window
    size; the decide record holds that verdict per entry, with the entry's
    class, then the newest's.

    The entries of one birth class share one count.  The law each decision
    reads is the one independent per-entry counts give: a class's count
    after a steps is Binomial(copies, 1 - (1 - p)^a), and the entries of
    one row lie in distinct classes, born at distinct steps, whose counts
    are drawn from disjoint coins and so are independent.  Only the
    correlation across rows and across time steps differs, and no
    guarantee reads it: the error bound holds per time instant, a union
    bound over the entries of the one row ``decide`` reads.

    An increment of a count is one Binomial(copies - count, p) draw, taken
    by inverse transform: ``count + bisect_right(cdfs[count], u)`` with the
    counter's ``increment_cdfs`` tables and one uniform u per class of the
    next node, in its order (a u below the table's first entry adds
    nothing, without the search).  The tester owns one generator, seeded
    at construction by one draw from ``rng``, so trials are reproducible
    and every cell sees independent coins.  Its uniforms are one endless
    stream of ``UNIFORM_BUFFER``-draw batches, so a step itself makes no
    NumPy call.  ``counter_factory`` is the test seam: it builds the
    counter in place of ``make_counter``'s, and any object with the same
    four methods runs through the same step (an exact test counter's
    tables step by exactly one at any uniform).  ``feed_power``
    advances a class's count by k increments in one draw (the counter's
    ``advance``, from the tester's generator), so the pad warm-up takes
    O(|Q|^2) draws at most whatever n.

    The state size depends only on the skeleton, so ``feed_run(w, k)``
    walks the nodes' slots under w for min(k·|w|, tau + L) symbols (tau
    and L as in ``SkeletonTester``), without the counts, reads each
    one's entry count off the node, and then advances the counts by one
    ``feed_power`` from the node and counts the run started on.  Entries
    never leave a row, so from tau on the entry count repeats with period
    L.  A power of fewer than |Q| + 4 symbols is fed step by step instead:
    on the test corpus (1-14 states, n = 64 and 1023, runs of a, b and ab
    after 3n random symbols) the closed form's fixed cost and |Q| rows
    cost more than the steps below about |Q| + 4 symbols, crossing at
    |Q| + 3 to |Q| + 5 (at |Q| - 2 to |Q| + 2 for the 14-state machine),
    whatever the number of classes or entries.  A closed form
    draws each count's law exactly in fewer coins than the steps, so the
    coins for a seed, not the law, depend on which powers are fed in
    closed form.

    A uniform is a multiple of 2^-53, so a per-step draw resolves a set
    chance only to 2^-53.  Near n = 2^62 the chance that an increment sets
    any cell of a zero count is about 7e-16, so a window fed symbol by
    symbol there follows a law off by up to 2.6% (-2.6% for
    ``make_counter(2**62 + 1, 0.25, 5, 2)``, -2.3e-4 at 2^56).
    ``feed_power``, and so ``feed_run`` on a long run, draws through
    ``set_chance`` and is exact.
    """

    def __init__(
        self,
        analyzed: AnalyzedRdfa,
        window_size: int,
        eps: float,
        rng: Rng = None,
        counter_factory: Callable[[], ProbabilisticCounter] | None = None,
    ):
        super().__init__(analyzed, window_size, analyzed.g)
        if counter_factory is None:
            counter_factory = lambda: make_counter(window_size, eps, self._n_states, analyzed.t)
        self._counter = counter_factory()
        self._cdfs = self._counter.increment_cdfs()
        gen = self._rng = np.random.default_rng(int(_ensure_rng(rng).integers(0, 2**63 - 1)))
        self._uniforms = chain.from_iterable(iter(lambda: gen.random(UNIFORM_BUFFER).tolist(), None))
        self._triple_bits = (
            (self._n_states - 1).bit_length() + (self._period - 1).bit_length() + self._counter.state_bit_cost()
        )
        self._start_on_pad(analyzed.rdfa.alphabet)

    def _decision(self, classes: Classes, row: tuple[tuple[int, int], ...]) -> tuple:
        analyzed, n, g = self._a, self.window_size, self._period
        entries = [(c, (n - residue) % g in analyzed.acc_mod[state]) for c, (state, residue) in zip(classes, row)]
        return entries, n % g in analyzed.acc_mod[analyzed.rdfa.initial]

    def _advance(self, count: int, k: int) -> int:
        return self._counter.advance(count, k, self._rng)

    def feed(self, symbol: str) -> None:
        code = self._code(symbol)
        self._node, take = self._node.slots[code] or self._slot(code)
        counts, cdfs = self._counts, self._cdfs
        counts.append(0)  # the sentinel a fresh class gathers
        # zip finds the gathered counts' end before it takes a uniform, so each class takes exactly one
        self._counts = [
            c if u < (cdf := cdfs[c])[0] else c + bisect_right(cdf, u) for c, u in zip(take(counts), self._uniforms)
        ]

    def feed_run(self, word: str, k: int) -> int:
        codes = word_codes(self._code, word)
        if k * len(codes) < self._n_states + 4:  # where the closed form costs more than the steps
            return super().feed_run(word, k)
        _lassos, tail, cycles = word_lassos(self._lassos, self._moves, codes)
        node, counts, most = self._node, self._counts, 0
        for code in islice(cycle(codes), min(k * len(codes), tail + cycles)):
            self._node, _take = self._node.slots[code] or self._slot(code)
            most = max(most, len(self._node.classes))
        self._power(node, counts, codes, k)
        return self._triple_bits * (most + self._n_states)

    def decide(self) -> bool:
        counts, reads_high = self._counts, self._counter.reads_high
        entries, newest = self._node.decision
        # oldest first: the first entry that reads low decides
        for index, verdict in entries:
            if not reads_high(counts[index]):
                return verdict
        return newest  # the newest triple's, which reads low by invariant

    def state_bits(self) -> int:
        return self._triple_bits * (len(self._node.classes) + self._n_states)


def two_sided_tester(
    analyzed: AnalyzedRdfa,
    window_size: int,
    eps: float,
    rng: Rng = None,
    counter_factory: Callable[[], ProbabilisticCounter] | None = None,
) -> SlidingWindowTester:
    """Two-sided tester, or the exact fallback when the window is too small
    for the counter marks to separate."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    t = analyzed.t
    marks_ok = eps * window_size >= t and (1.0 - eps) * window_size + t + 1 < window_size - t
    if not marks_ok:
        return exact_tester(analyzed.rdfa, window_size)
    return TwoSidedTester(analyzed, window_size, eps, rng, counter_factory)


# --- partial machines for suffix-free languages ---------------------------------


@dataclass(frozen=True, eq=False)
class PartialRdfa:
    """Restriction of the machine to one chain of SCCs ending in a
    transient final state, as induced by a path description: per chain
    component its internal transitions plus one connecting transition to
    the next component, with that final state as the only one.

    ``machine`` is that restriction made complete: state i is
    ``states[i]``, and one sink after them takes every missing transition,
    all of the final state's included.  ``start`` and ``final`` keep the
    full machine's numbering, and so do the keys of ``acc``, the
    acceptance sets of the partial machine's states.  ``length_slack`` is
    the chain's threshold s: at least its connector count, the sum of its
    residue steps, and every length from which an entry state's
    acceptance set is a plain residue class.  ``threshold`` is the length
    beyond which every set in ``acc`` is periodic and shift-consistent,
    and ``soundness_gap`` the prefix distance above which the fingerprint
    tester must reject.  A chain without a recurrent component accepts one
    word only, ``singleton_word``; otherwise that field is None.
    """

    machine: Rdfa
    states: tuple[int, ...]
    start: int
    final: int
    acc: Mapping[int, EventuallyPeriodicSet]
    length_slack: int
    threshold: int
    soundness_gap: int
    singleton_word: str | None


def _build_partial(analyzed: AnalyzedRdfa, connectors: list[tuple[int, int, int]]) -> PartialRdfa:
    """The partial machine of the chain entered through ``connectors``,
    each a ``(target entry, symbol code, source)`` transition, oldest
    component first."""
    rdfa, scc, g = analyzed.rdfa, analyzed.scc, analyzed.g
    entries = [rdfa.initial] + [target for target, _a, _src in connectors]
    start, final = entries[0], entries[-1]
    chain = [scc.scc_id[q] for q in entries[:-1]]

    states = tuple(sorted({final}.union(*(scc.components[cid] for cid in chain))))
    index = {q: i for i, q in enumerate(states)}
    sink = len(states)
    connector_table = {(src, a): target for target, a, src in connectors}
    # the final state is transient and no connector leaves it, so all of its transitions go to the sink
    delta = [
        [
            index[q] if scc.same_scc(p, q) or connector_table.get((p, a)) == q else sink
            for a, q in enumerate(rdfa.delta[p])
        ]
        for p in states
    ]
    sets = _acceptance_sets_from_successors([[q for q in row if q != sink] for row in delta], (index[final],))
    acc = dict(zip(states, sets))
    delta.append([sink] * len(rdfa.alphabet))

    # per connector, the residue mod g of every crossing from its component's entry to the next entry
    residue_steps = [
        1 if scc.transient[cid] else (analyzed.shift(entry, source) + 1) % g
        for cid, entry, (_t, _a, source) in zip(chain, entries, connectors)
    ]
    recurrent = [i for i, cid in enumerate(chain) if not scc.transient[cid]]
    # a chain of transient components only spells one word, read right to left
    singleton_word = None if recurrent else "".join(rdfa.alphabet.symbols[a] for _t, a, _s in reversed(connectors))
    # per entry up to the last recurrent component: from where its acceptance set is the tail's residue class
    tail_thresholds: list[int] = []
    for i in range(max(recurrent, default=-1) + 1):
        target_set = EventuallyPeriodicSet.from_progression(sum(residue_steps[i:]), g)
        agree = acc[entries[i]].min_threshold_agree(target_set)
        if agree is None:
            raise RuntimeError("partial acceptance set is not an eventual residue class")
        tail_thresholds.append(agree)
    length_slack = max(len(connectors), sum(residue_steps), *tail_thresholds)
    threshold = global_threshold(acc, g, analyzed.periods)

    return PartialRdfa(
        machine=Rdfa(rdfa.alphabet, delta, index[start], (index[final],)),
        states=states,
        start=start,
        final=final,
        acc=acc,
        length_slack=length_slack,
        threshold=threshold,
        soundness_gap=1 + length_slack + len(connectors) + threshold,
        singleton_word=singleton_word,
    )


def enumerate_path_descriptions(analyzed: AnalyzedRdfa, final: int) -> list[PartialRdfa]:
    """All chains of SCCs from the initial state to the final state
    ``final``, each as a partial machine; their union recognizes the words
    the machine leads from its initial state to ``final``.  That language
    is suffix-free exactly when ``final`` is transient, which is required
    (checked).  At most ``PATH_DESCRIPTION_CAP`` chains are built."""
    rdfa, scc = analyzed.rdfa, analyzed.scc
    if final not in rdfa.finals:
        raise ValueError(f"state {final} is not a final state")
    if not scc.is_transient_state(final):
        raise ValueError(f"final state {final} lies on a cycle, so its language is not suffix-free")

    results: list[PartialRdfa] = []
    if rdfa.initial == final:
        results.append(_build_partial(analyzed, []))

    def expand(connectors: list[tuple[int, int, int]], current_component: int) -> None:
        for p in sorted(scc.components[current_component]):
            for a, q in enumerate(rdfa.delta[p]):
                if scc.scc_id[q] == current_component:
                    continue
                if q == final:
                    if len(results) >= PATH_DESCRIPTION_CAP:
                        raise StateLimitExceeded(f"more than {PATH_DESCRIPTION_CAP} path descriptions")
                    results.append(_build_partial(analyzed, connectors + [(q, a, p)]))
                else:
                    expand(connectors + [(q, a, p)], scc.scc_id[q])

    expand([], scc.scc_id[rdfa.initial])
    return results


# --- prime fingerprints and the one-sided tester ---------------------------------


@functools.cache
def _first_primes(count: int) -> tuple[int, ...]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def _pool(n: int, k: int = 1) -> tuple[int, ...]:
    if n < 2:
        raise ValueError("window size must be at least 2")
    return _first_primes(max(2, 3 * k * n.bit_length()))


def prime_pool(n: int, k: int = 1) -> list[int]:
    """First max(2, 3*k*ceil(log2(n+1))) primes, the pool of a one-sided
    tester over the partial machines of k transient finals.

    A stream has at most one suffix in a suffix-free language, so within
    one transient final at most one partial machine has a finite shortest
    accepted suffix, and at most k parts of the tester are live.  A far
    window gives each live part a nonzero difference D <= n between that
    length and n, and D has at most log2(n) distinct prime factors; so at
    most k*log2(n) primes, a third of the pool, make some part accept.
    ``prime_pool(n)`` is a prefix of every larger pool.  Each pool is
    computed once; the caller gets its own list."""
    return list(_pool(n, k))


def sample_prime(n: int, rng: Rng = None, k: int = 1) -> int:
    pool = _pool(n, k)
    return pool[int(_ensure_rng(rng).integers(len(pool)))]


def _fingerprintable(partial: PartialRdfa, window_size: int) -> bool:
    """Whether the prime fingerprint serves the partial machine at this
    window size: its language is not a single word and the window is at
    least its slack, ``length_slack`` + |partial states|."""
    return partial.singleton_word is None and window_size >= partial.length_slack + len(partial.states)


class FingerprintTable:
    """What every one-sided tester over the same partial machines and
    window size n shares, built once: which partial machines it keeps, and
    the flat table over the kept fingerprinted ones (``OneSidedTester``).

    A partial machine whose acceptance set misses n never accepts and is
    dropped (a single-word one survives only at n = |w|); the others are
    ``live``.  The live ones where the fingerprint applies
    (``_fingerprintable``) are the ``parts``, their completed machines
    laid end to end: per symbol code the gather of a feed and the marked
    moves of a power, the start states, the finals, and the lasso table
    per word, filled on first use.  The other live ones are ``exact``,
    each tracked by a tester's own ``ExactWindowTester``.  ``draws`` tells
    whether a tester draws a prime: whenever some partial machine, kept or
    not, could be fingerprinted; ``k`` is the number of distinct
    transient finals."""

    def __init__(self, partials: Sequence[PartialRdfa], window_size: int):
        if not partials:
            raise ValueError("need at least one partial machine")
        self.window_size = window_size
        self.live = tuple(partial for partial in partials if partial.acc[partial.start].member(window_size))
        self.parts = tuple(partial for partial in self.live if _fingerprintable(partial, window_size))
        self.exact = tuple(partial for partial in self.live if not _fingerprintable(partial, window_size))
        self.k = len({partial.final for partial in partials})
        self.draws = any(_fingerprintable(partial, window_size) for partial in partials)
        self.alphabet = alphabet = partials[0].machine.alphabet
        offsets = list(accumulate((partial.machine.n_states for partial in self.parts), initial=0))
        blocks = list(zip(offsets, (partial.machine for partial in self.parts)))
        moves = [
            tuple(offset + row[a] for offset, machine in blocks for row in machine.delta) for a in range(len(alphabet))
        ]
        self.starts = tuple(offset + machine.initial for offset, machine in blocks)
        self.finals = tuple(offset + final for offset, machine in blocks for final in machine.finals)
        finals, self.size = frozenset(self.finals), offsets[-1]
        self.marked_moves = [tuple((q, q in finals) for q in row) for row in moves]  # marked: enters a final
        self.takes = []  # per symbol code, the gather of a feed
        for row in moves:
            indices = list(row)
            for final in self.finals:
                indices[final] = self.size  # the clock, which a feed appends at index size
            self.takes.append(gather(indices))
        self.lassos: dict = {}


class OneSidedTester(FixedSizeTester):
    """One-sided tester for a finite union of suffix-free languages given
    their partial machines, of any number k of transient finals, and one
    random prime p from ``prime_pool(n, k)``; accepts iff some partial
    machine accepts.  Which partial machines it keeps and how it reads
    them is its ``FingerprintTable``, shared by every tester over it, so
    a tester only draws its prime and warms its births.

    The parts share one flat table over their completed machines' states,
    laid end to end: per state, the length mod p of the shortest suffix
    of the stream that drives it to its machine's final state, with p for
    infinity (``values``).  The table holds each length as a *birth* mod p
    on one clock ``now`` mod p: the length is now - birth mod p, and p
    still stands for infinity.  A feed moves the clock by one and gathers
    every state's birth from its successor under the symbol, a final
    taking ``now``, in one ``operator.itemgetter`` call: no value changes.
    A part accepts iff its start state's birth is now - n mod p.
    ``feed_power(w, k)`` (the pad warm-up included) steps fewer than the
    table's size of symbols and is closed form otherwise: after K = k·|w|
    symbols, with the clock at now', a final holds now', a state whose
    path first enters a final at step j <= K holds now' - j mod p, and any
    other state q the birth of q_K.  The paths are the lassos of
    ``SkeletonTester`` over the product of the table's states with
    Z_|w|, with "enters a final" as the marked step, kept in one table
    per word.
    The table's size never changes, so ``feed_run`` is one
    ``feed_power``.  ``state_bits`` counts the prime and width + 1 bits
    per partial-machine state; the clock costs nothing more, since each
    final, whose length is always 0, is counted and holds nothing but the
    clock.  With nothing kept the table is empty, the clock runs mod 1,
    and every window is rejected in one state bit.

    The prime is drawn from ``rng`` whenever some partial machine, kept
    or not, could be fingerprinted, so the coins a caller draws after it
    do not depend on which parts were kept.  A ``prime`` given instead
    must lie in ``prime_pool(n, k)`` when a part reads it.
    """

    def __init__(self, table: FingerprintTable, rng: Rng = None, prime: int | None = None):
        window_size = table.window_size
        super().__init__(window_size)
        parts = self._parts = table.parts
        if prime is None:
            if table.draws:
                prime = sample_prime(window_size, rng, table.k)
        elif parts and prime not in (pool := _pool(window_size, table.k)):
            raise ValueError(
                f"prime {prime} is not in the pool of window size {window_size}, the first {len(pool)} primes"
            )
        if not parts:
            prime = None  # every kept partial machine is tracked exactly, so nothing reads a prime
        self.prime = prime

        self._table = table
        self._code, self._takes, self._starts = table.alphabet.code, table.takes, table.starts
        self._period = prime if parts else 1  # the clock's modulus
        self._now = 0
        self._births = [prime] * table.size  # the warm-up gives the finals the clock and reads no other final
        self._exact = ()  # an exact part starts on the pad window the warm-up makes, so it joins after it
        self._start_on_pad(table.alphabet)
        self._exact = [ExactWindowTester(partial.machine, window_size) for partial in table.exact]
        width = prime.bit_length() if parts else 0
        table_bits = width + sum(len(partial.states) for partial in parts) * (width + 1)
        self._bits = table_bits + sum(part.state_bits() for part in self._exact) if table.live else 1

    @property
    def values(self) -> list[int]:
        """Per table state, the length mod p of the shortest suffix of the
        stream that drives it to its machine's final state, p for infinity
        (a view; not for the hot path)."""
        now, p = self._now, self._period
        return [birth if birth == p else (now - birth) % p for birth in self._births]

    def feed(self, symbol: str) -> None:
        take = self._takes[self._code(symbol)]
        now = self._now = (self._now + 1) % self._period
        self._births = take((*self._births, now))
        for part in self._exact:
            part.feed(symbol)

    def feed_power(self, word: str, k: int) -> None:
        codes = word_codes(self._code, word)
        check_power(k)
        old, steps = self._births, k * len(codes)
        if steps < len(old):  # a power shorter than the table costs less in steps than in its lassos
            return super().feed_power(word, k)
        p = self._period
        now = self._now = (self._now + steps) % p
        new = []
        table = self._table
        for path, start, marks in word_lassos(table.lassos, table.marked_moves, codes)[0]:
            hit = marks[-1][0] if marks else steps + 1  # the first step into a final
            # with no such step, the birth at q_K, a copy boundary and so a state of the table
            new.append((now - hit) % p if hit <= steps else old[lasso_node(path, start, steps)])
        for final in table.finals:
            new[final] = now
        self._births = new
        for part in self._exact:
            part.feed_power(word, k)

    def decide(self) -> bool:
        births, target = self._births, (self._now - self.window_size) % self._period
        for start in self._starts:
            if births[start] == target:
                return True
        for part in self._exact:
            if part.decide():
                return True
        return False

    def state_bits(self) -> int:
        return self._bits


# --- unions and the compiled one-sided tester ----------------------------------


class UnionTester(FixedSizeTester):
    """Run testers for finitely many languages in parallel; accept iff one
    of them accepts.

    A union's parts must have fixed sizes (trivial, exact and one-sided
    testers), so the sum of their ``state_bits`` is taken once, at
    construction.  A union needs at least one tester: an empty union has
    no alphabet and no window size to check its input against."""

    def __init__(self, testers: Sequence[SlidingWindowTester]):
        self._testers = list(testers)
        if not self._testers:
            raise ValueError("a union needs at least one tester")
        sizes = {t.window_size for t in self._testers}
        if len(sizes) > 1:
            raise ValueError(f"sub-testers disagree on the window size: {sorted(sizes)}")
        super().__init__(sizes.pop())
        self._bits = sum(t.state_bits() for t in self._testers)

    def feed(self, symbol: str) -> None:
        for tester in self._testers:
            tester.feed(symbol)

    def feed_power(self, word: str, k: int) -> None:
        for tester in self._testers:  # the first checks the word and k before any changes
            tester.feed_power(word, k)

    def decide(self) -> bool:
        return any(tester.decide() for tester in self._testers)

    def state_bits(self) -> int:
        return self._bits


def compile_one_sided(dfa: Dfa, window_size: int, prime: int | None = None) -> Factory:
    """Compile a language in the loglog class into a factory mapping an
    rng to a fresh one-sided tester: ``Language.one_sided_factory``."""
    return Language("", dfa).one_sided_factory(window_size, prime)


def composed_one_sided_tester(
    dfa: Dfa,
    window_size: int,
    rng: Rng = None,
    prime: int | None = None,
) -> SlidingWindowTester:
    """One-sided tester for a full language in the loglog class
    (``compile_one_sided`` applied to ``rng``)."""
    return compile_one_sided(dfa, window_size, prime)(rng)


# --- compiled languages ------------------------------------------------------------

TESTER_KINDS = ("exact", "trivial", "det", "two-sided", "one-sided")


@dataclass(frozen=True)
class Language:
    """A regular language ``dfa``, named ``ident``, compiled once for
    every tester kind and window size: the analysis, the realized lengths
    and the one-sided split (the class check, the trivial part's lengths,
    the partial machines of every transient final) are built on first use
    and kept, so a window size builds only its ``FingerprintTable`` and
    the closures of ``build_tester_factory``."""

    ident: str
    dfa: Dfa

    @property
    def alphabet(self) -> Alphabet:
        return self.dfa.alphabet

    @functools.cached_property
    def analyzed(self) -> AnalyzedRdfa:
        return analyze(self.dfa)

    @functools.cached_property
    def lengths(self) -> EventuallyPeriodicSet:
        return realized_lengths(self.dfa)

    @functools.cached_property
    def _trivial_part(self) -> tuple[bool, EventuallyPeriodicSet | None]:
        """Whether the language is in the constant class, and its trivial
        part's realized lengths: all of it in the constant class, else the
        recurrent finals' language (None without one).  Only a language of
        the loglog class is analysed here."""
        classification = one_sided_class(self.dfa)
        if classification is OneSidedClass.LOG_LOWER_BOUND:
            raise ValueError(
                "language is not a finite union of trivial and suffix-free parts; "
                "no loglog-space one-sided tester exists"
            )
        if classification is OneSidedClass.CONSTANT_TRIVIAL:
            return True, self.lengths
        rdfa, scc = self.analyzed.rdfa, self.analyzed.scc
        recurrent_finals = [f for f in rdfa.finals if not scc.is_transient_state(f)]
        recurrent = Rdfa(rdfa.alphabet, rdfa.delta, rdfa.initial, recurrent_finals)
        return False, realized_lengths(recurrent) if recurrent_finals else None

    @functools.cached_property
    def _partials(self) -> tuple[PartialRdfa, ...]:
        """The partial machines of every transient final, finals in order."""
        analyzed = self.analyzed
        return tuple(
            partial
            for f in sorted(analyzed.rdfa.finals)
            if analyzed.scc.is_transient_state(f)
            for partial in enumerate_path_descriptions(analyzed, f)
        )

    def one_sided_factory(self, window_size: int, prime: int | None = None) -> Factory:
        """A factory of fresh one-sided testers at this window size; raises
        ValueError outside the loglog class.

        The language is the union of a trivial part, the recurrent finals'
        language, and one suffix-free part per transient final.  At a fixed
        window size the trivial part is a constant: where its realized
        lengths hold n every window is accepted, and the factory returns
        its ``trivial_tester`` (no prime drawn), as for all of a
        constant-class language; otherwise it is left out.  What is left
        is one ``OneSidedTester`` over the partial machines of every
        transient final, drawing one prime."""
        constant, lengths = self._trivial_part
        if constant or lengths is not None and lengths.member(window_size):
            return lambda rng: trivial_tester(self.alphabet, lengths, window_size)
        table = FingerprintTable(self._partials, window_size)
        return lambda rng: OneSidedTester(table, rng, prime)


def build_tester_factory(kind: str, language: Language, n: int, eps: float) -> Factory:
    """Factory mapping a per-trial rng to a fresh tester of ``kind`` (one
    of ``TESTER_KINDS``) at window size n and gap eps*n."""
    if kind == "exact":
        return lambda rng: exact_tester(language.dfa, n)
    if kind == "trivial":
        lengths = language.lengths
        return lambda rng: trivial_tester(language.alphabet, lengths, n)
    if kind == "det":
        analyzed = language.analyzed
        return lambda rng: deterministic_tester(analyzed, n)
    if kind == "two-sided":
        analyzed = language.analyzed
        return lambda rng: two_sided_tester(analyzed, n, eps, rng)
    if kind == "one-sided":
        return language.one_sided_factory(n)
    raise ValueError(f"unknown tester kind {kind!r} (choose from {', '.join(TESTER_KINDS)})")
