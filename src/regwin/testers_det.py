"""Deterministic sliding-window testers.

Three testers share one interface:

* :func:`exact_tester` stores the window outright -- the linear-space
  baseline every other tester is measured against.  It keeps the window
  as a two-stack aggregate of the machine's state transformations, so
  ``feed`` costs amortized O(|Q|) and ``decide`` O(1), while its space is
  still the n symbols of the window.
* :func:`trivial_tester` is the constant-space tester available whenever a
  language is trivial (all words of a realized length sit within bounded
  distance of the language): accept iff the window length is realized.
* :func:`deterministic_tester` is the logarithmic-space tester: for every
  state p it keeps the segment summary of the window's run from p in the
  analyzed right-to-left machine, and accepts iff the oldest segment's
  length is an acceptance length of its start state.  Accepted windows are
  within prefix distance t (the analysis threshold) of the language.

The last shares its engine, :class:`SkeletonTester`, with the two-sided
tester.  The engine keeps one count per birth class, the segments that
started at one step, not one per segment.  The deterministic tester's
count is the class's birth on one clock, so a step moves no value: an
age is the clock minus its birth, frozen at n + 1 out of the window.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from itertools import accumulate
from math import lcm
from operator import itemgetter
from typing import Callable, Hashable, Sequence, TypeVar

from .analysis import AnalyzedRdfa, EventuallyPeriodicSet
from .automata import Alphabet, Dfa, Rdfa


def check_power(k: int) -> None:
    if k < 0:
        raise ValueError(f"power must be nonnegative, got {k}")


def check_run(k: int) -> None:
    if k < 1:
        raise ValueError(f"a run holds at least one symbol, got {k}")


def word_codes(code: Callable[[str], int], word: str) -> tuple[int, ...]:
    """The codes of ``word``'s symbols; an empty word, or a symbol ``code``
    rejects, raises ``ValueError``."""
    if not word:
        raise ValueError("a word holds at least one symbol")
    return tuple(map(code, word))


class SlidingWindowTester(ABC):
    """Streaming decision procedure over the active window.

    ``feed`` is the only mutation; ``decide`` reports for the current
    window; ``state_bits`` is the information-theoretic size of the
    maintained state (the space measure all scaling claims refer to).
    Every tester passes its window size through this constructor, which
    rejects a negative one.  ``feed_power(w, k)`` reaches the state of k
    copies of the word w, fed symbol by symbol (a symbol is a word of
    length 1); summarizing testers replace its loop with a closed form
    over the lassos of the product Q x Z_|w|.  ``feed_run(w, k)`` does the
    same for k >= 1 copies and also returns the largest ``state_bits``
    over the k·|w| states it passes; a ``FixedSizeTester``, whose size
    never changes, answers it with one ``feed_power``, and the
    skeleton testers read their sizes over the run's first tau + L states
    (in whole copies for the deterministic one; tau the longest tail, L the
    lcm of the cycle lengths of the product), past which their size cannot
    grow, then take one ``feed_power`` (see ``SkeletonTester``).  Every library
    tester checks the whole word before it changes anything, so an empty
    word, a symbol outside the alphabet anywhere in it or a bad k raises
    ``ValueError`` and leaves the state as it was; the loops here check
    each symbol as they feed it.  Every window starts as n pad symbols: a
    summarizing tester reaches it at construction through
    ``_start_on_pad``, one ``feed_power`` of the pad, in time independent
    of n; the exact tester stores them.
    """

    window_size: int

    def __init__(self, window_size: int):
        if window_size < 0:
            raise ValueError("window size must be nonnegative")
        self.window_size = window_size

    @abstractmethod
    def feed(self, symbol: str) -> None: ...

    @abstractmethod
    def decide(self) -> bool: ...

    @abstractmethod
    def state_bits(self) -> int: ...

    def feed_power(self, word: str, k: int) -> None:
        """The state k copies of ``word``, fed symbol by symbol, reach; a
        negative k raises ``ValueError``, and so does an empty or foreign
        word, even at k = 0, in every library tester."""
        check_power(k)
        for symbol in word * k:
            self.feed(symbol)

    def feed_run(self, word: str, k: int) -> int:
        """The state of k >= 1 copies of ``word``, fed symbol by symbol, and
        the largest ``state_bits()`` over the k·|word| states after each
        feed."""
        check_run(k)
        feed, state_bits, most = self.feed, self.state_bits, 0
        for symbol in word * k:
            feed(symbol)
            bits = state_bits()
            if bits > most:
                most = bits
        return most

    def _start_on_pad(self, alphabet: Alphabet) -> None:
        self.feed_power(alphabet.pad, self.window_size)


class FixedSizeTester(SlidingWindowTester):
    """A tester whose ``state_bits`` never changes: ``feed_run`` is one
    ``feed_power``, and the run's largest size is the size."""

    def feed_run(self, word: str, k: int) -> int:
        check_run(k)
        self.feed_power(word, k)
        return self.state_bits()


class ExactWindowTester(FixedSizeTester):
    """Exact membership of the window, as a two-stack aggregate over the
    machine's transformation monoid.

    A word u acts on the states as the map q -> (state after reading u
    from q), a tuple of |Q| states; the map of u·v is composed from the
    maps of u and v, in the order the machine reads them (a ``Dfa`` reads
    u first, an ``Rdfa`` reads v first).  The window is split in two:

    * the *front*, its older part, as a stack holding one map per
      position: the map of the front's suffix starting there, the oldest
      on top (an identity map sits at the bottom for the empty front);
    * the *back*, the symbols fed since the front was last rebuilt, as
      their codes plus the one map of all of them.

    ``feed`` pops the front and extends the back map in O(|Q|); once the
    front runs empty, the back's codes become the new front, in
    O(n·|Q|) once every n + 1 feeds (amortized O(|Q|) per feed).  ``decide``
    looks the initial state up in the two maps, O(1).  ``feed_power(w, k)``
    feeds k·|w| < n symbols one by one; otherwise the window is the last n
    symbols of w^k, which it builds as construction builds the pad window,
    O(n·|Q|) whatever k.
    The maps are a function of the window, so the state is still the
    window itself: ``state_bits`` counts n symbols of ceil(log2 |Σ|) bits.
    """

    def __init__(self, machine: Dfa | Rdfa, window_size: int):
        super().__init__(window_size)
        self._alphabet = machine.alphabet
        self._initial = machine.initial
        self._finals = machine.finals
        self._reads_oldest_first = not isinstance(machine, Rdfa)
        self._symbol_bits = max(1, (len(machine.alphabet) - 1).bit_length())
        n_states = machine.n_states
        self._symbol_maps = tuple(
            tuple(machine.delta[q][a] for q in range(n_states)) for a in range(len(machine.alphabet))
        )
        self._identity = tuple(range(n_states))
        self._back = [self._alphabet.code(self._alphabet.pad)] * window_size
        self._rebuild_front()

    def _concat(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        """Map of the word u·v from the maps of u and v."""
        first, then = (u, v) if self._reads_oldest_first else (v, u)
        return tuple(map(then.__getitem__, first))

    def _rebuild_front(self) -> None:
        """Move the back's symbols onto the (empty) front, newest first, so
        the oldest suffix ends on top."""
        concat, maps = self._concat, self._symbol_maps
        front = [self._identity]
        suffix = self._identity
        for code in reversed(self._back):
            suffix = concat(maps[code], suffix)
            front.append(suffix)
        self._front = front
        self._back = []
        self._back_map = self._identity

    def feed(self, symbol: str) -> None:
        code = self._alphabet.code(symbol)  # validates before any change
        self._back.append(code)
        self._back_map = self._concat(self._back_map, self._symbol_maps[code])
        if len(self._front) == 1:
            self._rebuild_front()
        self._front.pop()

    def feed_power(self, word: str, k: int) -> None:
        codes = word_codes(self._alphabet.code, word)  # validates even when k is 0
        check_power(k)
        n = self.window_size
        if k * len(codes) < n:
            super().feed_power(word, k)
            return
        # the window is now the last n symbols of w^k whatever came before: refill it as __init__ does
        copies = -(-n // len(codes))
        self._back = list(codes * copies)[copies * len(codes) - n :]
        self._rebuild_front()

    def decide(self) -> bool:
        front = self._front[-1]
        if self._reads_oldest_first:
            return self._back_map[front[self._initial]] in self._finals
        return front[self._back_map[self._initial]] in self._finals

    def state_bits(self) -> int:
        return self.window_size * self._symbol_bits


def exact_tester(machine: Dfa | Rdfa, window_size: int) -> ExactWindowTester:
    return ExactWindowTester(machine, window_size)


class FixedVerdictTester(FixedSizeTester):
    """Constant-space tester for trivial languages: the verdict depends
    only on whether the window length is a realized length."""

    def __init__(self, alphabet: Alphabet, lengths: EventuallyPeriodicSet, window_size: int):
        super().__init__(window_size)
        self._alphabet = alphabet
        self._verdict = lengths.member(window_size)

    def feed(self, symbol: str) -> None:
        self._alphabet.code(symbol)  # validate

    def feed_power(self, word: str, k: int) -> None:
        word_codes(self._alphabet.code, word)  # validate
        check_power(k)

    def decide(self) -> bool:
        return self._verdict

    def state_bits(self) -> int:
        return 1


def trivial_tester(
    alphabet: Alphabet, lengths: EventuallyPeriodicSet, window_size: int
) -> FixedVerdictTester:
    """``lengths`` must be the language's realized-length set (see
    :func:`regwin.analysis.realized_lengths`); fed symbols are checked
    against ``alphabet``."""
    return FixedVerdictTester(alphabet, lengths, window_size)


Row = list[tuple[int, int, int]]  # (segment start state, residue, count), oldest first, newest left out
Skeleton = tuple[tuple[tuple[int, int], ...], ...]  # per start state, its row's (state, residue) pairs
Classes = tuple[int, ...]  # per flat entry, row by row, its birth class, numbered by birth, the oldest 0
Gather = Callable[[Sequence[int]], tuple[int, ...]]  # a sequence -> the tuple of its items at fixed indices
Slot = tuple["Node", Gather]  # (the node the symbol leads to, the gather of its classes' counts)
Moves = Sequence[Sequence[tuple[int, bool]]]  # per symbol code, per state: (successor, whether the step is marked)
# per start state p: (the states of p's path under copies of one word, up to its first repeated node of
# Q x Z_|w|, the index its cycle starts at, and (age, state) per marked step on the path, oldest first);
# then the longest tail and the lcm of the cycle lengths, both in symbols
Lassos = tuple[tuple[tuple[list[int], int, tuple[tuple[int, int], ...]], ...], int, int]

SKELETON_TABLE_SIZE = 4096  # skeletons (and lasso tables) a table holds before it is emptied

T = TypeVar("T")


def shared_table(analyzed: AnalyzedRdfa, key: Hashable, build: Callable[[], T]) -> T:
    """The table ``key`` that every tester built from ``analyzed`` shares,
    built by ``build()`` on first use."""
    table = analyzed.tables.get(key)
    if table is None:
        table = analyzed.tables[key] = build()
    return table


def walk_lassos(moves: Moves, codes: tuple[int, ...]) -> Lassos:
    """The lassos of the word ``codes``: one walk per start state p over
    the product Q x Z_|w| from (p, 0) to its first repeated node, where
    (q, j) moves to (delta(q, reversed(w)[j]), j + 1 mod |w|), the order
    a run from q reads the word in.  A marked step is entered with its
    age, the steps taken so far, and the state it reaches."""
    steps = [moves[code] for code in reversed(codes)]
    n, width = len(steps[0]), len(codes)
    lassos, tail, cycles = [], 0, 1
    for p in range(n):
        path, marks, index, q, j = [], [], {}, p, 0
        while (node := j * n + q) not in index:
            index[node] = len(path)
            path.append(q)
            q, marked = steps[j][q]
            j = j + 1 if j + 1 < width else 0
            if marked:
                marks.append((len(path), q))
        start = index[node]
        lassos.append((path, start, tuple(reversed(marks))))
        tail, cycles = max(tail, start), lcm(cycles, len(path) - start)
    return tuple(lassos), tail, cycles


def word_lassos(table: dict[tuple[int, ...], Lassos], moves: Moves, codes: tuple[int, ...]) -> Lassos:
    """The lassos of the word ``codes`` from ``table``, walked and entered
    on first use.  A table that reaches ``SKELETON_TABLE_SIZE`` words is
    emptied first."""
    lassos = table.get(codes)
    if lassos is None:
        if len(table) >= SKELETON_TABLE_SIZE:
            table.clear()
        lassos = table[codes] = walk_lassos(moves, codes)
    return lassos


def gather(indices: Sequence[int]) -> Gather:
    """The gather of ``indices``: one ``operator.itemgetter``, which runs in
    C, where there are two or more (``itemgetter(i)`` returns an item, not
    a tuple)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (index,) = indices
        return lambda values: (values[index],)
    return lambda values: ()


def lasso_node(path: list[int], start: int, k: int) -> int:
    """Node k of a lasso: ``path``, then its cycle ``path[start:]`` forever."""
    return path[k] if k < len(path) else path[start + (k - start) % (len(path) - start)]


def birth_classes(sources: Sequence[int]) -> tuple[list[int], Classes]:
    """The distinct sources, in increasing order, and per item of
    ``sources`` the index of its source in that list: the classes of
    entries that take one count per distinct source, in the order of the
    sources."""
    order = sorted(set(sources))
    if not order or order[-1] == len(order) - 1:  # the sources are 0, 1, ...: each is its own index
        return order, tuple(sources)
    number = {source: index for index, source in enumerate(order)}
    return order, tuple(map(number.__getitem__, sources))


class Node:
    """A skeleton and its entries' birth classes, in a node table, with one
    slot per symbol code (None until first needed) and its decide record:
    the initial state's row as ``(class, what the subclass decides by)``
    entries, oldest first, and the newest segment's verdict (set by the
    engine).  ``classes`` gives the class of each flat entry, row by row,
    and row p's entries are ``classes[starts[p] : starts[p + 1]]``; the
    entries of one class were born at one step, and the classes are
    numbered by birth, the oldest 0.  ``entries_from[i]`` is the number of
    entries in classes i and younger (0 at the number of classes)."""

    __slots__ = ("skeleton", "classes", "starts", "entries_from", "slots", "decision")

    def __init__(self, skeleton: Skeleton, classes: Classes, slots: list[Slot | None]):
        self.skeleton, self.classes, self.slots = skeleton, classes, slots
        self.starts = (0, *accumulate(map(len, skeleton)))
        sizes = [0] * (len(set(classes)) + 1)  # per class its entry count, then 0
        for c in classes:
            sizes[c] += 1
        self.entries_from = (*accumulate(sizes[::-1]),)[::-1]


class NodeTable(dict):
    """(skeleton, classes) -> ``Node``, shared by the skeleton testers of
    one class and window size built from one analysis.  ``start`` is the
    state the pad warm-up leaves, kept by a subclass whose warm-up draws
    no coin (the deterministic tester: its node's key, births and clock),
    so only the first such tester runs it."""

    start: tuple | None = None


class SkeletonTester(SlidingWindowTester):
    """Segment summaries of the run from every start state, stepped as a
    finite automaton over their skeletons.

    State p's *row* holds one ``(segment start state, residue, count)``
    entry per SCC segment of the run from p, oldest first, the newest (p's
    own) left out.  The residue is the length consumed since the segment's
    start, mod the tester's period; the count is what the subclass keeps
    of that length.  A step builds p's row from the row of q = delta[p][c]:
    each entry moves its residue by 1 and its count by one step, and
    ``(q, 1, one step from 0)`` joins when p and q lie in different SCCs.

    Without the counts, the rows are a *skeleton* of ``(state, residue)``
    pairs: SCC chains, finitely many, whose successor depends only on the
    skeleton and the symbol.  An entry's *birth class* is the step its
    segment started at.  The one fresh entry a step makes joins every row
    that leaves its SCC, and an old entry is copied to every row that
    gathers it, so the entries of a class lie in different rows (the
    entries of one row are distinct segments of one run, born at distinct
    steps) and have equal lengths.  The state keeps one count per class,
    not one per entry: the current ``Node``, which holds the skeleton and
    each flat entry's class, and one flat sequence of counts, class by
    class.  The classes are numbered by birth, the oldest 0 (finitely many
    ordered partitions of finitely many entries), and the numbering is
    static: a step keeps the order of the classes it gathers and the fresh
    one is the youngest, and a power's SCC changes are younger than every
    class before it.  A node holds, built when first needed, one slot per
    symbol code and a decide record over the initial state's row.  A slot
    is the next node and its *gather*: it takes the old classes' counts,
    with one fresh count appended at index ``len(counts)``, to the new
    classes' counts before their step, in one ``operator.itemgetter`` call
    (see ``gather``).  An old class gathered by no row is dropped.

    Nodes, slots and decide records depend only on the analysis, the
    tester class and n, so the testers built from one analysis share one
    ``NodeTable`` per class and n, and one move table and one lasso table
    (below), which depend only on the analysis; each is built on first use
    (``shared_table``), and a Monte Carlo trial builds nothing an earlier
    trial built.  The node table is closed under slots: a slot of a node
    in the table leads to a node in the table.  One that reaches
    ``SKELETON_TABLE_SIZE`` nodes is emptied in place, keeping only the
    current node of the tester that evicts, its slots cleared; a table a
    new tester finds that full is emptied outright.  A node another tester
    holds stays a valid object, its slots valid nodes, though they may be
    out of the table: that tester steps on through them, and enters each
    node it builds in the table, so a node is a function of its skeleton
    and classes whichever tester built it.

    ``feed_power(w, k)`` builds p's row from the row of p_K, K = k·|w|
    steps along p's path under copies of w: every entry moves by K steps,
    and the path's own SCC changes j < K join, oldest first, as
    ``(p_{j+1}, j + 1, count after j + 1 steps from 0)``.  Each class
    advances once: one ``_advance`` per old class of the p_K rows, and one
    per distinct age of the SCC changes, since the changes at one age were
    born at one step.  The run from p
    reads the newest symbol first, so the path is the lasso from (p, 0) in
    the functional graph of the product Q x Z_|w|, where (q, j) moves to
    (delta(q, reversed(w)[j]), j + 1 mod |w|).  A cycle of the product
    stays in one SCC, so every SCC change lies on a tail, and its length
    is a multiple of |w|, so p_K is a state at a copy boundary.  The
    lassos are one table per word (``word_lassos``), its marked steps the
    SCC changes: per state its path, the index its cycle starts at and its
    SCC changes, then the longest tail tau and the lcm L of the cycle
    lengths.  For a symbol the product is the symbol's own functional
    graph; the pad warm-up is one such call.

    A run's largest size lies in its first min(k·|w|, tau + L) states.
    After t >= tau symbols, p's row is the run-start row of p_t, every
    entry moved by t, plus the SCC changes of p's path, all within its
    tail, at fixed ages.  p_t has period L, so from tau on the same
    entries come back every L symbols, each L steps older.  Each subclass's
    ``feed_run`` reads its sizes over those states only.

    A subclass says what a count is: ``feed`` steps the gathered counts,
    ``_advance(count, k)`` is what the state keeps after a power of k
    steps for a class that read ``count`` in ``_readings`` before it (the
    counts themselves, unless the subclass says otherwise), and
    ``_decision(classes, row)`` is the decide record of a skeleton whose
    initial-state row ``row`` has its entries in ``classes``.  It calls
    ``_start_on_pad`` once its counts can advance.
    """

    def __init__(self, analyzed: AnalyzedRdfa, window_size: int, period: int):
        super().__init__(window_size)
        self._a = analyzed
        self._period = period
        rdfa = analyzed.rdfa
        self._code = rdfa.alphabet.code
        self._n_states = rdfa.n_states
        # per symbol code, per start state p: (successor q, whether the step leaves p's SCC)
        self._moves: Moves = shared_table(
            analyzed,
            "moves",
            lambda: [
                [(q, not analyzed.same_scc(p, q)) for p, q in enumerate(successors)] for successors in zip(*rdfa.delta)
            ],
        )
        self._lassos: dict[tuple[int, ...], Lassos] = shared_table(analyzed, "lassos", dict)
        self._nodes: NodeTable = shared_table(analyzed, (type(self), window_size), NodeTable)
        if len(self._nodes) >= SKELETON_TABLE_SIZE:  # no current node to keep yet
            self._nodes.clear()
        self._node = self._intern(((),) * rdfa.n_states, ())
        self._counts: Sequence[int] = []

    def _intern(self, skeleton: Skeleton, classes: Classes) -> Node:
        """The node of ``skeleton`` and ``classes``, entered in the table on
        first sight.  A full table is first emptied in place but for the
        current node, its slots cleared."""
        nodes = self._nodes
        node = nodes.get((skeleton, classes))
        if node is None:
            if len(nodes) >= SKELETON_TABLE_SIZE:
                nodes.clear()
                current = self._node
                current.slots = [None] * len(self._moves)
                nodes[current.skeleton, current.classes] = current
            node = nodes[skeleton, classes] = Node(skeleton, classes, [None] * len(self._moves))
            initial = self._a.rdfa.initial
            node.decision = self._decision(classes[node.starts[initial] : node.starts[initial + 1]], skeleton[initial])
        return node

    def _slot(self, code: int) -> Slot:
        """The slot of the current node under ``code``, built by the row
        rule and entered in the node."""
        node, g = self._node, self._period
        rows, classes, starts, fresh = node.skeleton, node.classes, node.starts, len(node.entries_from) - 1
        next_rows, sources = [], []  # per new entry, its old class, or ``fresh``
        for q, leaves in self._moves[code]:
            row = [(state, (residue + 1) % g) for state, residue in rows[q]]
            sources += classes[starts[q] : starts[q + 1]]
            if leaves:
                row.append((q, 1 % g))
                sources.append(fresh)
            next_rows.append(tuple(row))
        order, next_classes = birth_classes(sources)
        slot = node.slots[code] = (self._intern(tuple(next_rows), next_classes), gather(order))
        return slot

    def feed_power(self, word: str, k: int) -> None:
        self._power(self._node, self._readings, word_codes(self._code, word), k)

    def _power(self, node: Node, readings: Sequence[int], codes: tuple[int, ...], k: int) -> None:
        """Set the state that k copies of the word ``codes`` reach from
        ``node`` with its classes reading ``readings``."""
        check_power(k)
        lassos = word_lassos(self._lassos, self._moves, codes)[0]
        rows, classes, starts = node.skeleton, node.classes, node.starts
        g, steps = self._period, k * len(codes)
        # per new entry its source: its old class, or n_old + steps - j for an SCC change at age j, so the
        # sources sort oldest first (every old class is older than every change)
        n_old = len(node.entries_from) - 1
        next_rows, sources = [], []
        for path, start, exits in lassos:
            last = lasso_node(path, start, steps)
            row = [(s, (residue + steps) % g) for s, residue in rows[last]]
            sources += classes[starts[last] : starts[last + 1]]
            for age, s in exits:
                if age <= steps:
                    row.append((s, age % g))
                    sources.append(n_old + steps - age)
            next_rows.append(tuple(row))
        order, next_classes = birth_classes(sources)
        advance = self._advance
        self._counts = [advance(readings[c], steps) if c < n_old else advance(0, n_old + steps - c) for c in order]
        self._node = self._intern(tuple(next_rows), next_classes)

    @property
    def _readings(self) -> Sequence[int]:
        """Per class, what ``_advance`` and ``_rows`` read: the counts."""
        return self._counts

    @property
    def _rows(self) -> list[Row]:
        """The rows as ``(state, residue, count)`` lists, read off the
        skeleton, the classes and ``_readings`` (a view; not for the hot
        path)."""
        readings, classes = self._readings, iter(self._node.classes)
        return [[(s, r, readings[next(classes)]) for s, r in row] for row in self._node.skeleton]


class PathSummaryTester(SkeletonTester):
    """Logarithmic-space deterministic tester: the skeleton engine with
    period 1 and births for counts.

    An entry's age counts the window symbols newer than its segment's
    start.  The tester keeps, in place of the age, the birth of the
    entry's class on one clock ``now`` (the entries of a class share their
    birth): the age is now - birth, read as n + 1 once it is above n.  A
    step is ``take((*births, now))``, one ``operator.itemgetter`` call that
    gathers the births and a fresh class's, ``now``, then moves the clock
    by one: no stored value changes.  An entry that leaves the window
    stays in its row, *frozen* (any age above n reads as n + 1), so the
    next node still depends only on the node and the symbol.
    Every n + 1 steps the clock is rebased: ``now`` goes back to 0, every
    birth moves back by n + 1, and a frozen one is clamped at -(n + 1), so
    ``now`` stays in [0, n] and every birth in [-(n + 1), now).  Accepts
    iff the oldest segment of the initial state's row still in the window,
    of length n - age, is an acceptance length of its start state (the
    initial state's own, of length n, when there is none).  It reads only
    the machine's SCCs and acceptance sets, which every right-to-left
    machine has, so it runs on the analysed machine as it is, whatever
    periods its SCCs have.  ``_readings``
    are the classes' ages, n + 1 for a frozen one, and so ``_rows`` reads
    the entries' ages.

    ``state_bits`` counts the entries of age at most n (births at least
    now - n) plus each state's newest segment, ``n.bit_length()`` + ⌈log2
    |Q|⌉ bits each; frozen entries are kept but not counted.  The classes
    are numbered by birth, so the births never decrease in class order (a
    rebase and its clamp keep that order): the live classes are the ones
    from ``bisect_left(births, now - n)`` on, and the node holds their
    entry count, so the count is one C-level search.  The births take no
    more: given ``now``, a live birth is now minus an age in [1, n], and a
    frozen birth tells nothing, since every value below now - n reads the
    same now and after.  ``now`` itself takes
    ``n.bit_length()`` bits, and the |Q| newest segments counted are never
    stored, so one of them pays for it.  One birth per class, not per
    entry, is a change of representation only: every verdict and size is
    the one per-entry births give.

    Until its first feed a tester is a function of the machine and n, so
    only the first tester of a node table runs the pad warm-up: it keeps
    the node's key, the births and clock it reached as the table's
    ``start``, and every later one starts there.

    ``_power`` computes in ages, as the engine does: ``_advance`` gives
    the birth of the advanced age on a clock at 0, and the clock is set
    to 0.  ``feed_run(w, k)`` steps min(k, ceil((tau + L)/|w|)) copies of
    w, then takes one ``feed_power`` for the rest (tau and L as in
    ``SkeletonTester``): the entries that come back every L symbols are
    older, so the count of ages at most n can only fall.  A repeated
    skeleton is no stopping point: the same skeleton can gather its ages
    from other rows, and so hold more live entries at its next visit.
    """

    def __init__(self, analyzed: AnalyzedRdfa, window_size: int):
        super().__init__(analyzed, window_size, 1)
        self._dead = window_size + 1
        self._now = 0
        self._pair_bits = window_size.bit_length() + (self._n_states - 1).bit_length()
        start = self._nodes.start
        if start is None:
            self._start_on_pad(analyzed.rdfa.alphabet)
            node = self._node
            self._nodes.start = (node.skeleton, node.classes, tuple(self._counts), self._now)
        else:  # the pad window of an earlier tester of this table: its node enters the table again
            skeleton, classes, self._counts, self._now = start
            self._node = self._intern(skeleton, classes)

    def _decision(self, classes: Classes, row: tuple[tuple[int, int], ...]) -> tuple:
        acc = self._a.acc
        entries = [(c, acc[state]) for c, (state, _r) in zip(classes, row)]
        return entries, acc[self._a.rdfa.initial].member(self.window_size)

    def _advance(self, age: int, k: int) -> int:
        age += k
        return -age if age < self._dead else -self._dead  # the birth on a clock at 0

    def _power(self, node: Node, readings: Sequence[int], codes: tuple[int, ...], k: int) -> None:
        super()._power(node, readings, codes, k)
        self._now = 0  # the clock ``_advance`` gave the births on

    @property
    def _readings(self) -> list[int]:
        """Per class, its age, n + 1 once frozen."""
        now, dead = self._now, self._dead
        return [age if (age := now - birth) < dead else dead for birth in self._counts]

    def feed(self, symbol: str) -> None:
        code = self._code(symbol)
        self._node, take = self._node.slots[code] or self._slot(code)
        now = self._now
        births = take((*self._counts, now))  # a fresh class is born now
        if now < self.window_size:
            self._counts, self._now = births, now + 1
        else:  # the clock would reach n + 1: rebase it to 0
            dead = self._dead
            self._counts, self._now = [birth - dead if birth > 0 else -dead for birth in births], 0

    def feed_run(self, word: str, k: int) -> int:
        codes = word_codes(self._code, word)
        check_run(k)
        _lassos, tail, cycle = word_lassos(self._lassos, self._moves, codes)
        copies = min(k, -(-(tail + cycle) // len(codes)))
        most = super().feed_run(word, copies)
        if k > copies:
            self._power(self._node, self._readings, codes, k - copies)
        return most

    def decide(self) -> bool:
        births, oldest = self._counts, self._now - self.window_size  # the oldest live birth
        entries, newest = self._node.decision
        for index, acc in entries:
            birth = births[index]
            if birth >= oldest:
                return acc.member(birth - oldest)  # n - age
        return newest

    def state_bits(self) -> int:
        live = self._node.entries_from[bisect_left(self._counts, self._now - self.window_size)]
        return self._pair_bits * (live + self._n_states)


def deterministic_tester(analyzed: AnalyzedRdfa, window_size: int) -> SlidingWindowTester:
    """Logspace tester; below |Q| the window is cheaper stored outright."""
    if window_size < analyzed.rdfa.n_states:
        return exact_tester(analyzed.rdfa, window_size)
    return PathSummaryTester(analyzed, window_size)
