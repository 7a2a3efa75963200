"""Distance oracles: the ground truth that labels every window.

Two distances from a word to the length-|word| slice of a language are
computed exactly.  Hamming distance, which labels every experiment row, is
the min-plus dynamic programme kept cheap: it steps only the states that
can still reach a final state, holds the cost vector normalized by its
minimum, and memoizes each (vector, symbol) step, so a window whose
normalized vectors recur costs one table lookup per symbol.  It reads the
word as ``(w, k)`` pieces, w repeated k times, as the stream specs hold
it: a power is stepped copy by copy until its vector repeats at a copy
boundary, and its remaining whole cycles are added in closed form, so a
window of 2^62 symbols held in a few pieces costs a few steps.  Prefix
distance, which ``regwin oracle dist`` reports beside it, favours
obviousness over speed: a suffix-anchored search.  Infinite distance
(empty length slice) is an explicit ``math.inf``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .automata import Alphabet, Dfa

STEP_TABLE_SIZE = 1024  # memoized steps one distance call holds before it empties its table

def _live_states(dfa: Dfa) -> list[int]:
    """The states from which some final state is reachable, in order."""
    predecessors: list[list[int]] = [[] for _ in range(dfa.n_states)]
    for p, _a, q in dfa.transitions():
        predecessors[q].append(p)
    live = set(dfa.finals)
    stack = list(live)
    while stack:
        for p in predecessors[stack.pop()]:
            if p not in live:
                live.add(p)
                stack.append(p)
    return sorted(live)


def _live_moves(row: Sequence[int], actual: int, index: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """(live index, mismatch cost) of each live target of a state's row
    when the word reads symbol ``actual``; a target reached on ``actual``
    costs 0, any other 1."""
    cost: dict[int, int] = {}
    for a, target in enumerate(row):
        j = index.get(target)
        if j is not None:
            mismatch = int(a != actual)
            cost[j] = min(cost.get(j, mismatch), mismatch)
    return tuple(cost.items())


def _check_symbols(pieces: Sequence[tuple[str, int]], alphabet: Alphabet) -> None:
    """Each distinct symbol of each piece, in order of first appearance, so
    the first foreign symbol raises ``ValueError``."""
    for word, _k in pieces:
        for ch in dict.fromkeys(word):
            alphabet.code(ch)


def distance_to_language(word: str | Sequence[tuple[str, int]], dfa: Dfa) -> int | float:
    """Exact Hamming distance from ``word`` to L ∩ Σ^|word|, where ``word``
    is a sequence of ``(w, k)`` pieces, w repeated k times, or a string,
    the one piece ``(word, 1)``.

    Min-plus DP over the forward machine (Wagner 1974): cost[q] after i
    symbols is the least number of mismatches over length-i words leading
    to q.  Only live states, those that can still reach a final state, are
    stepped; the others never decide the answer.  The cost vector is kept
    as a tuple normalized by its minimum plus a running integer base, and
    each step (vector, symbol) -> (next vector, minimum added) is memoized
    in a table private to the call, so a recurring vector costs one lookup
    per symbol.  The table holds at most ``STEP_TABLE_SIZE`` steps and is
    emptied when full.

    A piece is read copy by copy, and the vector at each copy boundary is
    compared with one saved boundary vector, moved to the current one
    after 1, 2, 4, ... copies (Brent's cycle finding).  Once they are
    equal, the copies since the saved one form a cycle: each of its
    repeats adds the same minima, so the whole cycles left are added in
    one product and only the copies past them are read.  When live
    tracks drift apart (``a*|b*`` on an a-heavy word) the vectors never
    recur: every step misses and runs the DP over live states plus a
    table store, which can be slower than the plain DP over every state,
    and a piece costs its copies one by one.  A foreign symbol anywhere in
    ``word``, even in a piece of no copies, raises ``ValueError``.
    """
    return _memoized_distance(word, dfa, {})


def _memoized_distance(word: str | Sequence[tuple[str, int]], dfa: Dfa, table: dict) -> int | float:
    alphabet = dfa.alphabet
    pieces = [(word, 1)] if isinstance(word, str) else word
    live = _live_states(dfa)
    index = {q: i for i, q in enumerate(live)}
    inf = math.inf
    if dfa.initial not in index:  # the language is empty
        _check_symbols(pieces, alphabet)
        return inf
    # moves[ch][i]: (j, 0 if reading ch else 1) per live successor j of live state i
    moves: dict[str, list[tuple[tuple[int, int], ...]]] = {}

    def read(vector: tuple, copy: str) -> tuple[tuple, int] | None:
        """The vector after ``copy`` and the minima it added, or None once
        no live state is left: the slice of this length is empty."""
        added = 0
        get = table.get
        for ch in copy:
            key = (vector, ch)
            step = get(key)
            if step is None:
                state_moves = moves.get(ch)
                if state_moves is None:
                    actual = alphabet.code(ch)
                    state_moves = moves[ch] = [_live_moves(dfa.delta[q], actual, index) for q in live]
                nxt: list[int | float] = [inf] * len(live)
                for c, edges in zip(vector, state_moves):
                    if c is inf:
                        continue
                    for j, mismatch in edges:
                        edited = c + mismatch
                        if edited < nxt[j]:
                            nxt[j] = edited
                low = min(nxt)
                if low is inf:
                    return None
                if len(table) >= STEP_TABLE_SIZE:
                    table.clear()
                step = table[key] = (tuple([c if c is inf else c - low for c in nxt]), low)
            vector, low = step
            added += low
        return vector, added

    vector = tuple(0 if q == dfa.initial else inf for q in live)
    base = 0
    for i, (copy, k) in enumerate(pieces):
        if k < 1 or not copy:
            _check_symbols([(copy, k)], alphabet)
            continue
        saved, saved_base, saved_at, power, done = vector, base, 0, 1, 0
        while done < k:
            after = read(vector, copy)
            if after is None:  # reading checked each symbol so far; the rest still raises on a foreign one
                _check_symbols(pieces[i:], alphabet)
                return inf
            vector, added = after
            base += added
            done += 1
            if vector == saved:  # a cycle of done - saved_at copies, each repeat adding the same minima
                whole, rest = divmod(k - done, done - saved_at)
                base += whole * (base - saved_base)
                for _ in range(rest):  # copies read before, so none empties the slice
                    vector, added = read(vector, copy)
                    base += added
                break
            if done - saved_at == power:
                saved, saved_base, saved_at, power = vector, base, done, 2 * power
    best = min(vector[index[f]] for f in dfa.finals)
    return best if best is inf else base + best


def prefix_distance_to_language(word: str, dfa: Dfa) -> int | float:
    """Least i such that some member of L ∩ Σ^|word| agrees with ``word``
    beyond position i (so 0 means membership; inf means empty slice).

    The candidate suffix is anchored at the right, so the search combines
    forward reachability (which states are reachable by *some* prefix of
    length i) with backward reachability over the fixed suffix of ``word``.
    """
    n = len(word)
    # share[i] = states q with delta(q, word[i:]) final, built right to left
    share = [set(dfa.finals)]
    for ch in reversed(word):
        a = dfa.alphabet.code(ch)
        previous = share[-1]
        share.append({q for q in range(dfa.n_states) if dfa.delta[q][a] in previous})
    share.reverse()
    reachable = {dfa.initial}
    for i in range(n + 1):
        if reachable & share[i]:
            return i
        if i < n:
            reachable = {dfa.delta[q][a] for q in reachable for a in range(len(dfa.alphabet))}
    return math.inf
