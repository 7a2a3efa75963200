"""Distance oracles: the ground truth that labels every window.

Two distances from a word to the length-|word| slice of a language are
computed exactly.  Hamming distance, which labels every experiment row, is
the min-plus dynamic programme kept cheap: it steps only the states that
can still reach a final state, holds the cost vector normalized by its
minimum, and memoizes each (vector, symbol) step, so a window whose
normalized vectors recur costs one table lookup per symbol.  Prefix
distance, which ``regwin oracle dist`` reports beside it, favours
obviousness over speed: a suffix-anchored search.  Infinite distance
(empty length slice) is an explicit ``math.inf``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

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


def _check_symbols(symbols: Iterable[str], alphabet: Alphabet) -> None:
    for ch in symbols:
        alphabet.code(ch)  # raises ValueError on a foreign symbol


def distance_to_language(word: str, dfa: Dfa) -> int | float:
    """Exact Hamming distance from ``word`` to L ∩ Σ^|word|.

    Min-plus DP over the forward machine (Wagner 1974): cost[q] after i
    symbols is the least number of mismatches over length-i words leading
    to q.  Only live states, those that can still reach a final state, are
    stepped; the others never decide the answer.  The cost vector is kept
    as a tuple normalized by its minimum plus a running integer base, and
    each step (vector, symbol) -> (next vector, minimum added) is memoized
    in a table private to the call, so a recurring vector costs one lookup
    per symbol.  The table holds at most ``STEP_TABLE_SIZE`` steps and is
    emptied when full.  When live tracks drift apart (``a*|b*`` on an
    a-heavy word) the vectors never recur: every step misses and runs the
    DP over live states plus a table store, which can be slower than the
    plain DP over every state.  A foreign symbol anywhere in ``word``
    raises ``ValueError``.
    """
    return _memoized_distance(word, dfa, {})


def _memoized_distance(word: str, dfa: Dfa, table: dict) -> int | float:
    alphabet = dfa.alphabet
    live = _live_states(dfa)
    index = {q: i for i, q in enumerate(live)}
    symbols = iter(word)
    inf = math.inf
    if dfa.initial not in index:  # the language is empty
        _check_symbols(symbols, alphabet)
        return inf
    vector = tuple(0 if q == dfa.initial else inf for q in live)
    base = 0
    # moves[ch][i]: (j, 0 if reading ch else 1) per live successor j of live state i
    moves: dict[str, list[tuple[tuple[int, int], ...]]] = {}
    for ch in symbols:
        key = (vector, ch)
        step = table.get(key)
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
            if low is inf:  # no live state left: the slice of this length is empty
                _check_symbols(symbols, alphabet)
                return inf
            if len(table) >= STEP_TABLE_SIZE:
                table.clear()
            step = table[key] = (tuple(c if c is inf else c - low for c in nxt), low)
        vector, added = step
        base += added
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
