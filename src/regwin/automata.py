"""Core finite-automaton types and constructions.

States are dense integers ``0..n-1`` and symbols are single characters
mapped to dense codes by :class:`Alphabet`, so transition tables are plain
nested tuples with O(1) lookup.  Deterministic tables are always total:
constructions add an explicit sink state rather than leaving gaps.

Deterministic machines share one table type with two reading directions.
A :class:`Dfa` consumes a word left to right.  An :class:`Rdfa` consumes
it from its last symbol to its first; it recognizes the language itself
(not the reversal), which makes it the natural machine for
suffix-anchored sliding-window runs.  Direction-blind constructions
(reachability trim, reverse-and-determinize) are written once for both.
Every construction whose states are the reachable keys of a walk
(subset construction, product, trim, and the analysis's period
uniformization) is one breadth-first explorer, :func:`_explore`, that
numbers those states in the order it meets them, the initial state
first.

The regex front end is deliberately small: literals, ``.`` (any alphabet
symbol), ``|``, ``*``, ``+``, ``?`` and grouping.  Patterns compile to an
epsilon-free NFA via the position (Glushkov) construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, TypeVar

DEFAULT_STATE_CAP = 1 << 16


class AutomatonError(Exception):
    """Base class for errors raised by this package's automaton layer."""


class RegexSyntaxError(AutomatonError):
    """Malformed pattern; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class StateLimitExceeded(AutomatonError):
    """A construction would exceed its configured state cap."""


class AlphabetMismatch(AutomatonError):
    """Two machines with different alphabets were combined."""


class Alphabet:
    """Ordered set of distinct single-character symbols with a pad symbol.

    The pad is the symbol an empty sliding window is filled with.  It
    defaults to the lexicographically smallest symbol.
    """

    __slots__ = ("symbols", "pad", "_code")

    def __init__(self, symbols: Iterable[str], pad: str | None = None):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must be nonempty")
        for s in symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"alphabet symbols are single characters, got {s!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if pad is None:
            pad = min(symbols)
        if pad not in symbols:
            raise ValueError(f"pad symbol {pad!r} is not in the alphabet")
        self.symbols = symbols
        self.pad = pad
        self._code = {s: i for i, s in enumerate(symbols)}

    @classmethod
    def from_string(cls, text: str, pad: str | None = None) -> "Alphabet":
        return cls(tuple(text), pad)

    def code(self, symbol: str) -> int:
        try:
            return self._code[symbol]
        except (KeyError, TypeError):  # TypeError: an unhashable symbol
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._code

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.symbols == other.symbols and self.pad == other.pad

    def __hash__(self) -> int:
        return hash((self.symbols, self.pad))

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.symbols)!r}, pad={self.pad!r})"


def _check_table(delta, n_symbols: int) -> tuple[tuple[int, ...], ...]:
    delta = tuple(tuple(row) for row in delta)
    n = len(delta)
    if n == 0:
        raise ValueError("automaton needs at least one state")
    for q, row in enumerate(delta):
        if len(row) != n_symbols:
            raise ValueError(f"state {q}: transition row must cover all {n_symbols} symbols")
        for target in row:
            if not 0 <= target < n:
                raise ValueError(f"state {q}: transition target {target} out of range")
    return delta


class _DeterministicTable:
    """Complete deterministic transition table; subclasses fix the reading
    direction."""

    __slots__ = ("alphabet", "delta", "initial", "finals")

    def __init__(self, alphabet: Alphabet, delta, initial: int, finals: Iterable[int]):
        self.alphabet = alphabet
        self.delta = _check_table(delta, len(alphabet))
        n = len(self.delta)
        if not 0 <= initial < n:
            raise ValueError("initial state out of range")
        self.initial = initial
        self.finals = frozenset(finals)
        if any(not 0 <= f < n for f in self.finals):
            raise ValueError("final state out of range")

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def transitions(self) -> Iterator[tuple[int, int, int]]:
        """Yield (state, symbol code, target) for the whole table."""
        for p, row in enumerate(self.delta):
            for a, q in enumerate(row):
                yield p, a, q

    def __repr__(self) -> str:
        return f"<{type(self).__name__} states={self.n_states} finals={sorted(self.finals)}>"


class Dfa(_DeterministicTable):
    """Complete deterministic automaton reading its input left to right."""

    __slots__ = ()

    def accepts(self, word: str) -> bool:
        q = self.initial
        code = self.alphabet.code
        for ch in word:
            q = self.delta[q][code(ch)]
        return q in self.finals


class Rdfa(_DeterministicTable):
    """Complete deterministic automaton consuming the word right to left.

    ``delta[q][a]`` is the state reached from ``q`` after consuming symbol
    ``a``, where symbols of a word are consumed last-first.  The language
    is ``{w : run on w from initial ends in a final state}`` -- the same
    language the corresponding left-to-right machine would accept, not its
    reversal.
    """

    __slots__ = ()

    def run(self, word: str, start: int | None = None) -> list[int]:
        """State sequence of the unique run on ``word`` (consumed right to
        left) from ``start``; index i holds the state after i symbols."""
        q = self.initial if start is None else start
        states = [q]
        code = self.alphabet.code
        for ch in reversed(word):
            q = self.delta[q][code(ch)]
            states.append(q)
        return states

    def accepts(self, word: str) -> bool:
        return self.run(word)[-1] in self.finals


class Nfa:
    """Nondeterministic automaton without epsilon transitions."""

    __slots__ = ("alphabet", "n_states", "initials", "transitions", "finals")

    def __init__(
        self,
        alphabet: Alphabet,
        n_states: int,
        initials: Iterable[int],
        transitions: Iterable[tuple[int, int, int]],
        finals: Iterable[int],
    ):
        if n_states <= 0:
            raise ValueError("automaton needs at least one state")
        self.alphabet = alphabet
        self.n_states = n_states
        self.initials = frozenset(initials)
        self.transitions = frozenset(transitions)
        self.finals = frozenset(finals)
        n_symbols = len(alphabet)
        for group, name in ((self.initials, "initial"), (self.finals, "final")):
            if any(not 0 <= q < n_states for q in group):
                raise ValueError(f"{name} state out of range")
        for p, a, q in self.transitions:
            if not (0 <= p < n_states and 0 <= q < n_states and 0 <= a < n_symbols):
                raise ValueError(f"transition ({p}, {a}, {q}) references invalid state or symbol")

    def successors(self) -> dict[tuple[int, int], set[int]]:
        succ: dict[tuple[int, int], set[int]] = {}
        for p, a, q in self.transitions:
            succ.setdefault((p, a), set()).add(q)
        return succ

    def accepts(self, word: str) -> bool:
        succ = self.successors()
        frontier = set(self.initials)
        code = self.alphabet.code
        for ch in word:
            a = code(ch)
            frontier = {q for p in frontier for q in succ.get((p, a), ())}
            if not frontier:
                return False
        return bool(frontier & self.finals)

    def __repr__(self) -> str:
        return f"<Nfa states={self.n_states} transitions={len(self.transitions)}>"


# --- regex front end -------------------------------------------------------

_EPS = ("eps",)


class _RegexParser:
    """Recursive-descent parser; precedence: alternation < concatenation <
    postfix repetition."""

    def __init__(self, pattern: str, alphabet: Alphabet):
        self.pattern = pattern
        self.alphabet = alphabet
        self.pos = 0

    def _peek(self) -> str | None:
        return self.pattern[self.pos] if self.pos < len(self.pattern) else None

    def parse(self):
        node = self._alternation()
        if self.pos != len(self.pattern):
            raise RegexSyntaxError(f"unexpected {self._peek()!r}", self.pos)
        return node

    def _alternation(self):
        node = self._concatenation()
        while self._peek() == "|":
            self.pos += 1
            node = ("alt", node, self._concatenation())
        return node

    def _concatenation(self):
        node = None
        while self._peek() not in (None, "|", ")"):
            item = self._postfix()
            node = item if node is None else ("cat", node, item)
        return _EPS if node is None else node

    def _postfix(self):
        node = self._atom()
        while self._peek() in ("*", "+", "?"):
            op = {"*": "star", "+": "plus", "?": "opt"}[self._peek()]
            node = (op, node)
            self.pos += 1
        return node

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            open_pos = self.pos
            self.pos += 1
            node = self._alternation()
            if self._peek() != ")":
                raise RegexSyntaxError("unclosed group", open_pos)
            self.pos += 1
            return node
        if ch in ("*", "+", "?"):
            raise RegexSyntaxError("nothing to repeat", self.pos)
        if ch == ".":
            self.pos += 1
            return ("any",)
        if ch not in self.alphabet:
            raise RegexSyntaxError(f"symbol {ch!r} not in alphabet", self.pos)
        self.pos += 1
        return ("lit", self.alphabet.code(ch))


def parse_regex(pattern: str, alphabet: Alphabet) -> Nfa:
    """Compile a pattern over the alphabet into an epsilon-free NFA.

    State 0 is the single initial state; the remaining states are the
    pattern's symbol positions (Glushkov construction).
    """
    ast = _RegexParser(pattern, alphabet).parse()
    all_codes = tuple(range(len(alphabet)))

    position_codes: list[tuple[int, ...]] = []  # per position: codes it matches
    follow: dict[int, set[int]] = {}

    def walk(node) -> tuple[bool, frozenset[int], frozenset[int]]:
        kind = node[0]
        if kind == "eps":
            return True, frozenset(), frozenset()
        if kind in ("lit", "any"):
            position_codes.append((node[1],) if kind == "lit" else all_codes)
            pid = len(position_codes)  # positions are 1-based; 0 is initial
            follow.setdefault(pid, set())
            return False, frozenset((pid,)), frozenset((pid,))
        if kind == "cat":
            n1, f1, l1 = walk(node[1])
            n2, f2, l2 = walk(node[2])
            for p in l1:
                follow[p] |= f2
            return n1 and n2, f1 | (f2 if n1 else frozenset()), l2 | (l1 if n2 else frozenset())
        if kind == "alt":
            n1, f1, l1 = walk(node[1])
            n2, f2, l2 = walk(node[2])
            return n1 or n2, f1 | f2, l1 | l2
        if kind in ("star", "plus", "opt"):
            n1, f1, l1 = walk(node[1])
            if kind != "opt":
                for p in l1:
                    follow[p] |= f1
            return n1 or kind != "plus", f1, l1
        raise AssertionError(f"unknown node {kind}")

    nullable, first, last = walk(ast)

    transitions: set[tuple[int, int, int]] = set()
    for p in first:
        for a in position_codes[p - 1]:
            transitions.add((0, a, p))
    for q, targets in follow.items():
        for p in targets:
            for a in position_codes[p - 1]:
                transitions.add((q, a, p))
    finals = set(last)
    if nullable:
        finals.add(0)
    return Nfa(alphabet, len(position_codes) + 1, (0,), transitions, finals)


# --- standard constructions -------------------------------------------------


def _explore(start, row_of, cap: int | None = None) -> tuple[list, list[list[int]]]:
    """Number the keys reachable from ``start`` breadth-first: ``start`` is
    0, and each new key gets the next number in the order the rows of
    ``row_of(key)`` name it.  Returns the keys by number and the table of
    their rows.  Raises StateLimitExceeded when more than ``cap`` keys are
    reachable."""
    index = {start: 0}
    order = [start]
    delta: list[list[int]] = []
    for key in order:  # order grows while it is walked
        row = []
        for target in row_of(key):
            number = index.get(target)
            if number is None:
                number = index[target] = len(order)
                order.append(target)
            row.append(number)
        delta.append(row)
        if cap is not None and len(order) > cap:
            raise StateLimitExceeded(f"exploration exceeded {cap} states")
    return order, delta


def determinize(nfa: Nfa, cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Subset construction.  The empty subset doubles as the sink, so the
    result is always complete.  Raises StateLimitExceeded beyond ``cap``."""
    succ = nfa.successors()
    symbols = range(len(nfa.alphabet))

    def row_of(subset: frozenset[int]):
        return (frozenset(q for p in subset for q in succ.get((p, a), ())) for a in symbols)

    try:
        order, delta = _explore(frozenset(nfa.initials), row_of, cap)
    except StateLimitExceeded:
        raise StateLimitExceeded(f"subset construction exceeded {cap} states") from None
    finals = [i for i, subset in enumerate(order) if subset & nfa.finals]
    return Dfa(nfa.alphabet, delta, 0, finals)


def _determinized_reversal(machine: Dfa | Rdfa) -> Dfa:
    """Subset construction on the reversed transition relation.  Its table
    read in the opposite direction to ``machine`` recognizes the same
    language."""
    reversed_nfa = Nfa(
        machine.alphabet,
        machine.n_states,
        machine.finals,
        ((q, a, p) for p, a, q in machine.transitions()),
        (machine.initial,),
    )
    return determinize(reversed_nfa)


def reverse_to_rdfa(dfa: Dfa) -> Rdfa:
    """Build a right-to-left reader for the *same* language: reverse the
    transition relation, determinize, and reinterpret the result as a
    machine consuming the word last symbol first."""
    det = _determinized_reversal(dfa)
    return Rdfa(det.alphabet, det.delta, det.initial, det.finals)


def rdfa_to_dfa(rdfa: Rdfa) -> Dfa:
    """Inverse direction of :func:`reverse_to_rdfa` (same language)."""
    return _determinized_reversal(rdfa)


def product_intersect(a: Dfa, b: Dfa) -> Dfa:
    """DFA for the intersection, restricted to reachable state pairs."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("product requires a shared alphabet")
    order, delta = _explore((a.initial, b.initial), lambda pair: zip(a.delta[pair[0]], b.delta[pair[1]]))
    finals = [i for i, (p, q) in enumerate(order) if p in a.finals and q in b.finals]
    return Dfa(a.alphabet, delta, 0, finals)


_Machine = TypeVar("_Machine", Dfa, Rdfa)


def trim_reachable(machine: _Machine) -> _Machine:
    """Drop states unreachable from the initial state, keeping the machine's
    class (and so its reading direction).  Reachability is closed under the
    transition function, so the result stays complete."""
    order, delta = _explore(machine.initial, machine.delta.__getitem__)
    finals = [i for i, q in enumerate(order) if q in machine.finals]
    return type(machine)(machine.alphabet, delta, 0, finals)


def minimize(dfa: Dfa) -> Dfa:
    """Language-preserving minimal DFA (partition refinement on the
    reachable part; completeness is preserved)."""
    dfa = trim_reachable(dfa)
    n = dfa.n_states
    block = [1 if q in dfa.finals else 0 for q in range(n)]
    while True:
        signatures = {}
        new_block = []
        for q in range(n):
            sig = (block[q], tuple(block[t] for t in dfa.delta[q]))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block.append(signatures[sig])
        if len(signatures) == len(set(block)):
            block = new_block
            break
        block = new_block
    # renumber blocks by first occurrence so the initial state is state 0
    renumber: dict[int, int] = {}
    for q in range(n):
        renumber.setdefault(block[q], len(renumber))
    block = [renumber[b] for b in block]
    representative: dict[int, int] = {}
    for q in range(n):
        representative.setdefault(block[q], q)
    m = len(representative)
    delta = [[block[dfa.delta[representative[b]][a]] for a in range(len(dfa.alphabet))] for b in range(m)]
    finals = {block[q] for q in dfa.finals}
    return Dfa(dfa.alphabet, delta, block[dfa.initial], finals)


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality via synchronized reachability over state pairs."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("equivalence check requires a shared alphabet")
    seen = {(a.initial, b.initial)}
    stack = [(a.initial, b.initial)]
    while stack:
        p, q = stack.pop()
        if (p in a.finals) != (q in b.finals):
            return False
        for sym in range(len(a.alphabet)):
            pair = (a.delta[p][sym], b.delta[q][sym])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


# --- JSON wire format --------------------------------------------------------


def automaton_to_json(machine: Dfa | Rdfa) -> dict:
    """Wire form: direction "left" for a Dfa, "right" for an Rdfa."""
    symbols = machine.alphabet.symbols
    return {
        "alphabet": list(symbols),
        "pad": machine.alphabet.pad,
        "states": machine.n_states,
        "initial": machine.initial,
        "finals": sorted(machine.finals),
        "direction": "left" if isinstance(machine, Dfa) else "right",
        "transitions": [
            {"from": p, "symbol": symbols[a], "to": q} for p, a, q in machine.transitions()
        ],
    }


def _json_int(value, what: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def automaton_from_json(data: dict) -> Dfa | Rdfa:
    if not isinstance(data, dict):
        raise ValueError(f"automaton JSON must be an object, got {data!r}")
    try:
        symbols = data["alphabet"]
        if not isinstance(symbols, (list, str)):
            raise ValueError(f"field 'alphabet' must be a list of symbols, got {symbols!r}")
        alphabet = Alphabet(symbols, data.get("pad"))
        n = _json_int(data["states"], "field 'states'")
        direction = data["direction"]
        transitions = _json_list(data["transitions"], "field 'transitions'")
        initial = _json_int(data["initial"], "field 'initial'")
        finals = _json_list(data["finals"], "field 'finals'")
        finals = [_json_int(f, "an entry of field 'finals'") for f in finals]
    except KeyError as exc:
        raise ValueError(f"automaton JSON is missing field {exc}") from None
    if direction not in ("left", "right"):
        raise ValueError(f"direction must be 'left' or 'right', got {direction!r}")
    table: list[list[int | None]] = [[None] * len(alphabet) for _ in range(n)]
    for entry in transitions:
        if not isinstance(entry, dict):
            raise ValueError(
                f"each entry of field 'transitions' must be an object with 'from', 'symbol' "
                f"and 'to', got {entry!r}"
            )
        try:
            p = _json_int(entry["from"], f"transition {entry!r}: field 'from'")
            a = alphabet.code(entry["symbol"])
            q = _json_int(entry["to"], f"transition {entry!r}: field 'to'")
        except KeyError as exc:
            raise ValueError(f"transition {entry!r} is missing field {exc}") from None
        if not (0 <= p < n and 0 <= q < n):
            raise ValueError(f"transition {entry!r}: state ids must lie in 0..{n - 1}")
        if table[p][a] is not None and table[p][a] != q:
            raise ValueError(f"conflicting transitions from state {p} on {entry['symbol']!r}")
        table[p][a] = q
    missing = [(p, a) for p in range(n) for a in range(len(alphabet)) if table[p][a] is None]
    if missing:
        p, a = missing[0]
        raise ValueError(
            f"transition table is not total: {len(missing)} entries missing, "
            f"first is state {p} on {alphabet.symbols[a]!r}"
        )
    cls = Dfa if direction == "left" else Rdfa
    return cls(alphabet, table, initial, finals)
