"""Static analyses the sliding-window testers compile against.

The pipeline in :func:`analyze` turns any machine for a regular language
into an :class:`AnalyzedRdfa`:

1. build a right-to-left reader and trim it to reachable states;
2. decompose into SCCs, compute per-SCC periods and residue classes, and
   take ``g``, the lcm of the non-transient SCCs' periods;
3. compute each state's acceptance-length set as an eventually periodic
   set, read off the lasso of "states with some final reachable in exactly
   k more symbols" sets: the sequence of sets for k = 0, 1, ... repeats
   from its first repeated value on;
4. fix one global threshold ``t`` beyond which every acceptance set is
   ``g``-periodic and any two states of one non-transient SCC have
   acceptance sets equal up to their residue shift mod that SCC's period.

Only the one-sided path descriptions need every non-transient SCC to
share one period; :func:`uniformize_period` builds that machine for them,
and nothing else reads it.

The classifiers at the bottom (length language, trivial, suffix-free,
one-sided space class, excluded factor) reduce to finite automaton
constructions plus the machinery above.  The length-language and
triviality tests share one level check: a DFA accepts a length language
iff every level, the set of its states reachable in exactly k steps, is
all-final or all-nonfinal.  The triviality test explores, once per front
(the DFA's states reachable in exactly i steps), the image sets of that
front under every word, and then checks the levels of that exploration
against each back (the states with a final reachable in exactly j
steps) in turn.

One cap, ``DEFAULT_STATE_CAP``, bounds every walk here: each exploration
(the uniformization, the subset constructions, the triviality test's image
sets) and each lasso of state sets stops with ``StateLimitExceeded`` once
it would pass that many states or values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .automata import (
    DEFAULT_STATE_CAP,
    Alphabet,
    Dfa,
    Nfa,
    Rdfa,
    StateLimitExceeded,
    _explore,
    determinize,
    product_intersect,
    rdfa_to_dfa,
    reverse_to_rdfa,
    trim_reachable,
)

# --- eventually periodic sets -------------------------------------------------


class EventuallyPeriodicSet:
    """Subset of the naturals stored as an explicit prefix plus residue
    classes: for ``x >= threshold`` membership depends only on
    ``x % period``.  Instances are canonical (minimal period, then minimal
    threshold), so structural equality is set equality.
    """

    __slots__ = ("threshold", "period", "prefix", "residues")

    def __init__(self, threshold: int, period: int, prefix: Sequence[bool], residues: Sequence[bool]):
        if period < 1:
            raise ValueError("period must be positive")
        if len(prefix) != threshold or len(residues) != period:
            raise ValueError("prefix/residue lengths must match threshold/period")
        threshold, period, prefix, residues = self._canonicalize(
            threshold, period, tuple(bool(b) for b in prefix), tuple(bool(b) for b in residues)
        )
        self.threshold = threshold
        self.period = period
        self.prefix = prefix
        self.residues = residues

    @staticmethod
    def _canonicalize(t, d, prefix, residues):
        for div in range(1, d + 1):
            if d % div:
                continue
            if all(residues[r] == residues[(r + div) % d] for r in range(d)):
                residues = tuple(residues[r] for r in range(div))
                d = div
                break
        while t > 0 and prefix[t - 1] == residues[(t - 1) % d]:
            t -= 1
        return t, d, prefix[:t], residues

    # -- constructors

    @classmethod
    def from_member_fn(cls, fn, threshold: int, period: int) -> "EventuallyPeriodicSet":
        """Build from a membership function that is ``period``-periodic at
        and beyond ``threshold``."""
        prefix = [fn(x) for x in range(threshold)]
        residues = [False] * period
        for x in range(threshold, threshold + period):
            residues[x % period] = bool(fn(x))
        return cls(threshold, period, prefix, residues)

    @classmethod
    def from_lasso(cls, flags: Sequence[bool], start: int) -> "EventuallyPeriodicSet":
        """Membership read off a lasso: ``flags[x]`` for the listed x, after
        which the sequence repeats ``flags[start:]`` forever."""
        return cls.from_member_fn(flags.__getitem__, start, len(flags) - start)

    @classmethod
    def from_progression(cls, offset: int, step: int) -> "EventuallyPeriodicSet":
        """The arithmetic progression ``{offset + step*k : k >= 0}``."""
        return cls.from_member_fn(lambda x: x >= offset and (x - offset) % step == 0, offset, step)

    @classmethod
    def from_finite(cls, values: Iterable[int]) -> "EventuallyPeriodicSet":
        values = set(values)
        bound = max(values) + 1 if values else 0
        return cls(bound, 1, [x in values for x in range(bound)], [False])

    @classmethod
    def empty(cls) -> "EventuallyPeriodicSet":
        return cls(0, 1, [], [False])

    @classmethod
    def universal(cls) -> "EventuallyPeriodicSet":
        return cls(0, 1, [], [True])

    # -- queries

    def member(self, x: int) -> bool:
        if x < 0:
            return False
        if x < self.threshold:
            return self.prefix[x]
        return self.residues[x % self.period]

    @property
    def is_empty(self) -> bool:
        return not (any(self.prefix) or any(self.residues))

    @property
    def is_finite(self) -> bool:
        return not any(self.residues)

    def bits(self, length: int) -> int:
        """The members below ``length`` as the set bits of an int: bit x
        is set iff x is a member."""
        t, d = self.threshold, self.period
        cycle = "".join("1" if self.residues[x % d] else "0" for x in range(t, t + d))
        flags = "".join("1" if b else "0" for b in self.prefix) + cycle * (max(0, length - t) // d + 1)
        return int(flags[length - 1 :: -1], 2) if length > 0 else 0

    def min_threshold_agree(self, other: "EventuallyPeriodicSet") -> int | None:
        """Least t with self(x) == other(x) for all x >= t, or None if the
        sets are not almost equal."""
        window = math.lcm(self.period, other.period)
        start = max(self.threshold, other.threshold)
        if any(self.member(x) != other.member(x) for x in range(start, start + window)):
            return None
        t = start
        while t > 0 and self.member(t - 1) == other.member(t - 1):
            t -= 1
        return t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventuallyPeriodicSet):
            return NotImplemented
        return (
            self.threshold == other.threshold
            and self.period == other.period
            and self.prefix == other.prefix
            and self.residues == other.residues
        )

    def __hash__(self) -> int:
        return hash((self.threshold, self.period, self.prefix, self.residues))

    def __repr__(self) -> str:
        members = [x for x in range(self.threshold + self.period) if self.member(x)]
        return f"<EPSet t={self.threshold} d={self.period} members~{members}>"

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "period": self.period,
            "prefix": [x for x in range(self.threshold) if self.prefix[x]],
            "residues": [r for r in range(self.period) if self.residues[r]],
        }


# --- SCC structure and periods -------------------------------------------------


@dataclass(frozen=True)
class SccDecomposition:
    """SCC partition of a machine's transition graph, components numbered
    sinks first (Tarjan's order).  A component is transient iff it is a
    singleton with no self-loop.
    """

    scc_id: tuple[int, ...]
    components: tuple[frozenset[int], ...]
    transient: tuple[bool, ...]

    def same_scc(self, p: int, q: int) -> bool:
        return self.scc_id[p] == self.scc_id[q]

    def is_transient_state(self, q: int) -> bool:
        return self.transient[self.scc_id[q]]


def scc_decompose(rdfa: Rdfa) -> SccDecomposition:
    """SCCs of the transition graph (edges q -> step(a, q))."""
    n_states = rdfa.n_states
    succ = [set(row) for row in rdfa.delta]

    # Iterative Tarjan.
    index_of = [-1] * n_states
    lowlink = [0] * n_states
    on_stack = [False] * n_states
    stack: list[int] = []
    counter = 0
    comp_id = [-1] * n_states
    components: list[frozenset[int]] = []

    for root in range(n_states):
        if index_of[root] != -1:
            continue
        work = [(root, iter(sorted(succ[root])))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(succ[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                cid = len(components)
                components.append(frozenset(members))
                for w in members:
                    comp_id[w] = cid

    transient = tuple(
        len(comp) == 1 and not any(q in succ[q] for q in comp) for comp in components
    )

    return SccDecomposition(tuple(comp_id), tuple(components), transient)


def _component_period_and_depths(
    component: frozenset[int], succ: Sequence[set[int]]
) -> tuple[int | None, dict[int, int]]:
    intra = {q: sorted(succ[q] & component) for q in component}
    if len(component) == 1:
        (q,) = component
        if q not in intra[q]:
            return None, {q: 0}
    root = min(component)
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in intra[u]:
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    # gcd of depth(u) + 1 - depth(v) over intra-SCC edges is the gcd of all
    # cycle lengths: every closed walk telescopes into these differences.
    g = 0
    for u in component:
        for v in intra[u]:
            g = math.gcd(g, depth[u] + 1 - depth[v])
    return g, depth


@dataclass(frozen=True)
class PeriodInfo:
    """Per-SCC periods of the machine ``rdfa``, with the residue-class
    labelling that makes every intra-SCC path length congruent to the
    class difference; ``global_period`` is the lcm of the non-transient
    SCCs' periods (1 without one)."""

    rdfa: Rdfa
    scc: SccDecomposition
    component_period: tuple[int | None, ...]
    global_period: int
    class_of: tuple[int, ...]


def compute_period_info(rdfa: Rdfa, scc: SccDecomposition | None = None) -> PeriodInfo:
    scc = scc or scc_decompose(rdfa)
    succ = [set(row) for row in rdfa.delta]
    periods: list[int | None] = []
    class_of = [0] * rdfa.n_states
    for component in scc.components:
        period, depth = _component_period_and_depths(component, succ)
        periods.append(period)
        if period is not None:
            for q in component:
                class_of[q] = depth[q] % period
    global_period = math.lcm(*(period for period in periods if period is not None))
    return PeriodInfo(rdfa, scc, tuple(periods), global_period, tuple(class_of))


def shift(p: int, q: int, info: PeriodInfo) -> int:
    """Residue mod the SCC period of every path length from p to q inside
    their shared non-transient SCC."""
    cid = info.scc.scc_id[p]
    if info.scc.scc_id[q] != cid:
        raise ValueError(f"states {p} and {q} are not in the same SCC")
    period = info.component_period[cid]
    if period is None:
        raise ValueError(f"SCC of states {p}, {q} is transient")
    return (info.class_of[q] - info.class_of[p]) % period


def uniformize_period(rdfa: Rdfa) -> Rdfa:
    """Product with a counter mod g (g = the lcm of the non-transient SCC
    periods) that resets on SCC-leaving transitions.  The result accepts
    the same language and every non-transient SCC has period exactly g:
    its closed walks are the machine's closed walks of a length that g
    divides.  Only the one-sided path descriptions read such a machine.
    Raises StateLimitExceeded beyond ``DEFAULT_STATE_CAP`` states."""
    info = compute_period_info(rdfa)
    g = info.global_period
    scc = info.scc

    def row_of(key: tuple[int, int]):
        q, counter = key
        return ((target, (counter + 1) % g if scc.same_scc(q, target) else 0) for target in rdfa.delta[q])

    try:
        order, delta = _explore((rdfa.initial, 0), row_of, DEFAULT_STATE_CAP)
    except StateLimitExceeded:
        raise StateLimitExceeded(
            f"period uniformization (g = {g}) exceeded {DEFAULT_STATE_CAP} states"
        ) from None
    finals = [i for i, (q, _c) in enumerate(order) if q in rdfa.finals]
    return Rdfa(rdfa.alphabet, delta, 0, finals)


# --- acceptance sets -----------------------------------------------------------


def _until_repeat(value, step) -> tuple[list, int]:
    """Iterate ``step`` from ``value`` up to the first repeated value.
    Returns the distinct values in order and the index the sequence
    returns to: from there on it cycles through ``values[start:]``.
    Raises StateLimitExceeded past ``DEFAULT_STATE_CAP`` distinct values."""
    seen: dict = {}
    values = []
    while value not in seen:
        if len(values) == DEFAULT_STATE_CAP:
            raise StateLimitExceeded(f"the length-set lasso exceeded {DEFAULT_STATE_CAP} values")
        seen[value] = len(values)
        values.append(value)
        value = step(value)
    return values, seen[value]


def _fronts(starts: Iterable[int], succ: Sequence[Iterable[int]]) -> tuple[list[frozenset[int]], int]:
    """Lasso of the sets of states reachable from ``starts`` in exactly
    i steps, i = 0, 1, ..."""
    return _until_repeat(frozenset(starts), lambda current: frozenset(q for p in current for q in succ[p]))


def _backs(finals: Iterable[int], succ: Sequence[Iterable[int]]) -> tuple[list[frozenset[int]], int]:
    """Lasso of the sets of states with some state of ``finals`` reachable
    in exactly j steps, j = 0, 1, ..."""
    return _until_repeat(
        frozenset(finals),
        lambda current: frozenset(q for q, targets in enumerate(succ) if not current.isdisjoint(targets)),
    )


def _acceptance_sets_from_successors(
    succ: Sequence[Iterable[int]], finals: Iterable[int]
) -> list[EventuallyPeriodicSet]:
    backs, start = _backs(finals, succ)
    return [EventuallyPeriodicSet.from_lasso([q in back for back in backs], start) for q in range(len(succ))]


def global_threshold(
    acc: Mapping[int, EventuallyPeriodicSet], g: int, info: PeriodInfo
) -> int:
    """Least t such that every acceptance set in ``acc`` (state -> set) is
    g-periodic from t on and same-SCC sets agree (after the residue shift)
    from t on.  Only non-transient SCCs lying wholly inside ``acc`` are
    compared, so a partial machine passes the sets of its own states.

    A set is g-periodic from its canonical threshold on, or never, so the
    periodic part is the largest threshold ``top``.  For the rest, each
    SCC is one scan: state q's set becomes a bit row shifted up by its
    class c_q, so p and q agree at x exactly where p's row and q's row
    agree at bit x + c_p; a q of a smaller class than p's wraps, and its
    row is shifted up by the SCC period P more.  Sorted by class, the
    rows p must agree with are a suffix of plain rows and a prefix of
    wrapped ones, kept as running ORs and ANDs: p differs from some row
    of a group at a bit iff it differs there from the group's OR or AND.
    From bit top + 2P - 1 on, every difference recurs with period g, so
    rows of top + 2P + g bits show the last difference, or one at or past
    bit top + 2P when the sets do not almost agree.
    """
    for a in acc.values():
        if g % a.period:
            raise ValueError(f"set is not eventually periodic with step {g}")
    top = t = max((a.threshold for a in acc.values()), default=0)
    for cid, component in enumerate(info.scc.components):
        period = info.component_period[cid]
        if period is None or len(component) < 2 or not acc.keys() >= component:
            continue
        members = sorted(component, key=info.class_of.__getitem__)
        classes = [info.class_of[q] for q in members]
        width = top + 2 * period + g
        mask = (1 << width) - 1
        rows = [(acc[q].bits(width) << c) & mask for q, c in zip(members, classes)]
        suffix_or, suffix_and = rows + [0], rows + [mask]
        for i in range(len(rows) - 1, -1, -1):
            suffix_or[i] |= suffix_or[i + 1]
            suffix_and[i] &= suffix_and[i + 1]
        wrap_or, wrap_and, first = 0, mask, 0
        for i, (row, c) in enumerate(zip(rows, classes)):
            if c != classes[first]:
                for wrapped in rows[first:i]:
                    wrap_or |= (wrapped << period) & mask
                    wrap_and &= wrapped << period
                first = i
            diff = (row ^ suffix_or[first]) | (row ^ suffix_and[first])
            if first:
                diff |= (row ^ wrap_or) | (row ^ wrap_and)
            if diff >> (top + 2 * period):
                raise RuntimeError("same-SCC acceptance sets failed to almost agree")
            t = max(t, diff.bit_length() - c)
    return t


def acceptance_sets(info: PeriodInfo) -> tuple[list[EventuallyPeriodicSet], int]:
    """Acceptance-length set of every state of ``info.rdfa`` plus the
    global threshold t for g = ``info.global_period``.  Any machine has
    them: a set's eventual period divides the lcm of the periods of the
    SCCs its paths cross, and so g."""
    rdfa = info.rdfa
    sets = _acceptance_sets_from_successors(rdfa.delta, rdfa.finals)
    return sets, global_threshold(dict(enumerate(sets)), info.global_period, info)


@dataclass(frozen=True)
class AnalyzedRdfa:
    """A trimmed right-to-left machine bundled with all the static data the
    deterministic and two-sided testers need: g, the lcm of its
    non-transient SCCs' periods; the acceptance sets and threshold t; and
    per state the residues mod g of the acceptance lengths from t on.

    ``tables`` holds what the testers built from this analysis share, each
    entry built by the first tester that needs it (see
    ``testers_det.shared_table``), never here; it takes no part in
    equality, hashing or ``repr``."""

    rdfa: Rdfa
    g: int
    scc: SccDecomposition
    periods: PeriodInfo
    acc: tuple[EventuallyPeriodicSet, ...]
    t: int
    acc_mod: tuple[frozenset[int], ...]
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def shift(self, p: int, q: int) -> int:
        return shift(p, q, self.periods)

    def same_scc(self, p: int, q: int) -> bool:
        return self.scc.same_scc(p, q)


def analyze(machine: Dfa | Rdfa) -> AnalyzedRdfa:
    """Compile any machine for the language into an :class:`AnalyzedRdfa`:
    its trimmed right-to-left reader, as it is, with g the lcm of its
    non-transient SCCs' periods."""
    rdfa = machine if isinstance(machine, Rdfa) else reverse_to_rdfa(machine)
    info = compute_period_info(trim_reachable(rdfa))
    g = info.global_period
    acc, t = acceptance_sets(info)
    # every set's period divides g and t is at least its threshold, so x >= t is in it iff x % period is
    by_set = {a: frozenset(r for r in range(g) if a.residues[r % a.period]) for a in set(acc)}
    acc_mod = tuple(by_set[a] for a in acc)
    return AnalyzedRdfa(info.rdfa, g, info.scc, info, tuple(acc), t, acc_mod)


# --- length sets ----------------------------------------------------------------


def realized_lengths(machine: Dfa | Rdfa | Nfa) -> EventuallyPeriodicSet:
    """The set {|w| : w in L} as an eventually periodic set, read off the
    lasso of the exactly-k-steps reachable state sets."""
    if isinstance(machine, Nfa):
        starts: Iterable[int] = machine.initials
        succ: Sequence[Iterable[int]] = [set() for _ in range(machine.n_states)]
        for p, _a, q in machine.transitions:
            succ[p].add(q)
    else:
        starts = (machine.initial,)
        succ = machine.delta
    fronts, start = _fronts(starts, succ)
    return EventuallyPeriodicSet.from_lasso([not front.isdisjoint(machine.finals) for front in fronts], start)


# --- length languages and the triviality classifier ------------------------------


def _uniform_levels(levels: Iterable[frozenset[int]], finals: frozenset[int]) -> bool:
    """True iff every level lies wholly inside or wholly outside ``finals``."""
    return all(finals.issuperset(level) or finals.isdisjoint(level) for level in levels)


def is_length_language(machine: Nfa | Dfa) -> bool:
    """True iff membership depends only on word length: every set of
    states the DFA reaches in exactly k steps is all-final or all-nonfinal."""
    dfa = determinize(machine) if isinstance(machine, Nfa) else machine
    levels, _ = _fronts((dfa.initial,), dfa.delta)
    return _uniform_levels(levels, dfa.finals)


def length_cut_witness(dfa: Dfa) -> tuple[int, int] | None:
    """The first pair (i, j) whose cut language is a length language, or
    None.  The language is trivial exactly when a witness exists.

    Scan order, a contract callers rely on: i ascending over the distinct
    fronts F_0, F_1, ... (F_i the states reachable in exactly i steps),
    and for each i, j ascending over the distinct backs B_0, B_1, ...
    (B_j the states with a final state exactly j steps away); the first
    witness in that order is returned.  Both sequences are lassos, so
    their distinct values cover every cut language.

    Per front F_i, one subset construction numbers the image sets
    δ(F_i, w) of all words w, and the lasso of its levels (the image sets
    of the words of each length) is read once.  The cut by back B_j is a
    length language iff every level meets B_j in all of its image sets or
    in none.  Raises StateLimitExceeded when a front has more than
    ``DEFAULT_STATE_CAP`` image sets, or a lasso more values.
    """
    fronts, _ = _fronts((dfa.initial,), dfa.delta)
    backs, _ = _backs(dfa.finals, dfa.delta)
    columns = list(zip(*dfa.delta))

    def row_of(image: frozenset[int]):
        return (frozenset(column[q] for q in image) for column in columns)

    for i, front in enumerate(fronts):
        try:
            images, table = _explore(front, row_of, DEFAULT_STATE_CAP)
        except StateLimitExceeded:
            raise StateLimitExceeded(
                f"the triviality test's subset construction is limited to {DEFAULT_STATE_CAP} states"
            ) from None
        levels, _ = _fronts((0,), table)
        for j, back in enumerate(backs):
            meets = frozenset(k for k, image in enumerate(images) if not image.isdisjoint(back))
            if _uniform_levels(levels, meets):
                return i, j
    return None


def is_trivial(dfa: Dfa) -> bool:
    """True iff, at every realized length, all words are within a bounded
    Hamming distance of the language."""
    return length_cut_witness(dfa) is not None


# --- suffix-freeness and the one-sided space classes ------------------------------


def is_suffix_free(rdfa: Rdfa) -> bool:
    """True iff no member is a proper suffix of another member.  Decided on
    the trimmed right-to-left machine: no final state may reach a final
    state by a nonempty path."""
    rdfa = trim_reachable(rdfa)
    succ = [set(row) for row in rdfa.delta]
    for f in rdfa.finals:
        frontier = set(succ[f])
        seen = set(frontier)
        while frontier:
            if frontier & rdfa.finals:
                return False
            frontier = {q for p in frontier for q in succ[p]} - seen
            seen |= frontier
    return True


class OneSidedClass(Enum):
    """Space class of one-sided-error sliding-window testing."""

    CONSTANT_TRIVIAL = "constant"
    LOGLOG = "loglog"
    LOG_LOWER_BOUND = "log"


def one_sided_class(dfa: Dfa) -> OneSidedClass:
    """Classify: trivial languages need constant space; finite unions of
    trivial and suffix-free languages admit loglog space; everything else
    sits at the log lower bound.

    The union test splits the right-to-left machine's finals into the
    non-transient part (language must be trivial) and transient finals
    (each yields a suffix-free part).
    """
    if is_trivial(dfa):
        return OneSidedClass.CONSTANT_TRIVIAL
    rdfa = trim_reachable(reverse_to_rdfa(dfa))
    scc = scc_decompose(rdfa)
    recurrent_finals = [f for f in rdfa.finals if not scc.is_transient_state(f)]
    recurrent_part = rdfa_to_dfa(Rdfa(rdfa.alphabet, rdfa.delta, rdfa.initial, recurrent_finals))
    if is_trivial(recurrent_part):
        return OneSidedClass.LOGLOG
    return OneSidedClass.LOG_LOWER_BOUND


# --- excluded factors (adversarial stream material) --------------------------------

FACTOR_MAX_LEN = 4  # the longest factor find_excluded_factor tries
FACTOR_MAX_STEP_MULTIPLE = 8  # its longest progression step, in realized-length periods


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression {offset + step*k : k >= 0} of window sizes."""

    offset: int
    step: int

    def member(self, n: int) -> bool:
        return n >= self.offset and (n - self.offset) % self.step == 0

    def iterate(self, count: int) -> list[int]:
        return [self.offset + self.step * k for k in range(count)]


def _factor_dfa(alphabet: Alphabet, factor: str) -> Dfa:
    """DFA for the words containing ``factor`` as a factor."""
    m = len(factor)
    transitions = {(i, alphabet.code(factor[i]), i + 1) for i in range(m)}
    transitions |= {(0, a, 0) for a in range(len(alphabet))}
    transitions |= {(m, a, m) for a in range(len(alphabet))}
    return determinize(Nfa(alphabet, m + 1, (0,), transitions, (m,)))


def find_excluded_factor(dfa: Dfa) -> tuple[Progression, str] | None:
    """For a nontrivial language, search for an infinite restriction to an
    arithmetic progression of lengths that excludes some factor.

    Every window of a length in the progression that is packed with k
    disjoint copies of the factor then has distance >= k from the language.
    The first hit in this order is returned, and callers rely on it:
    factors by length (1 to ``FACTOR_MAX_LEN``), then in alphabet order;
    for each factor, progressions by step (d, 2d, ... up to
    ``FACTOR_MAX_STEP_MULTIPLE`` * d, d the realized-length period), then
    by offset (each realized length in [t, t + step), t the threshold).
    Returns None for trivial languages or if the bounded search exhausts.
    """
    if is_trivial(dfa):
        return None
    lengths = realized_lengths(dfa)
    alphabet = dfa.alphabet
    t, d = lengths.threshold, lengths.period
    progressions = [
        Progression(offset, d * multiple)
        for multiple in range(1, FACTOR_MAX_STEP_MULTIPLE + 1)
        for offset in range(t, t + d * multiple)
        if lengths.member(offset)
    ]
    for factor_len in range(1, FACTOR_MAX_LEN + 1):
        for factor_syms in itertools.product(alphabet.symbols, repeat=factor_len):
            factor = "".join(factor_syms)
            # w excludes P iff P misses the lengths of L ∩ Σ*wΣ*; beyond
            # max(offset, threshold) both repeat with lcm(step, period)
            hits = product_intersect(dfa, _factor_dfa(alphabet, factor))
            hit_lengths = realized_lengths(hits)
            for p in progressions:
                end = max(p.offset, hit_lengths.threshold) + math.lcm(p.step, hit_lengths.period)
                if not any(map(hit_lengths.member, range(p.offset, end, p.step))):
                    return p, factor
    return None
