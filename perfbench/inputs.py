"""Seeded generation of every workload's inputs, as plain data.

Regexes, DFA tables and streams are drawn here from the ``--seed``; the
program only ever receives these values.  Nothing in this module imports
the program, so the generated inputs and their hash can be checked on
their own.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np

# Stream workload: two loglog languages and one log-class machine with a
# larger uniformized state count (7 forward states, 14 after
# uniformization, g = 4).
STREAM_LANGUAGES = (("b(aa)*", "ab"), ("ba*", "ab"), ("(aa)*|b(aa)*b", "ab"))
STREAM_LENGTH = 1 << 15

# Monte Carlo workload: the two loglog languages of the stream workload
# plus a constant-class one (a pure length language), so the one-sided
# grid builds both a UnionTester and a FixedVerdictTester.
MONTECARLO_LANGUAGES = (("b(aa)*", "ab"), ("ba*", "ab"), (".(aa)*", "ab"))

# The cases the analysis refuses with StateLimitExceeded at the time the
# benchmark was written: an 11-state reverse machine whose uniformized
# period is 30, and a 64-state forward machine.
KNOWN_LIMIT_CASES = (
    {"kind": "regex", "regex": "(aa)*b(aaa)*c(aaaaa)*", "alphabet": "abc"},
    {"kind": "regex", "regex": "(a|b)*b(a|b)(a|b)(a|b)(a|b)(a|b)", "alphabet": "ab"},
)


def _rng(*parts: object) -> random.Random:
    # String seeds go through SHA-512, so draws do not depend on the
    # per-process hash salt.
    return random.Random(":".join(str(p) for p in parts))


def stream_inputs(seed: int, n: int) -> dict:
    """Per language a uniform random stream, the stream rounds after which
    the oracle checkpoints run, and the seed of the testers' coins."""
    gen = np.random.default_rng([seed, 1])
    languages = []
    for regex, alphabet in STREAM_LANGUAGES:
        symbols = np.array(list(alphabet))[gen.integers(0, len(alphabet), STREAM_LENGTH)]
        languages.append({"regex": regex, "alphabet": alphabet, "stream": "".join(symbols.tolist())})
    checkpoints = sorted(int(r) for r in gen.choice(np.arange(1, 12), size=3, replace=False))
    return {
        "n": n,
        "languages": languages,
        "checkpoint_rounds": checkpoints,
        "tester_seed": int(gen.integers(1 << 31)),
    }


def _short_word(rng: random.Random, alphabet: str, max_len: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def montecarlo_inputs(seed: int, groups: tuple[tuple[int, int], ...]) -> dict:
    """Languages with the seeded tail ``x y^k z`` of their adversarial
    stream ``factor^m x y^k z``, the (window size, trials) groups, and the master seed the
    per-call experiment seeds derive from."""
    rng = _rng("montecarlo", seed)
    languages = [
        {
            "regex": regex,
            "alphabet": alphabet,
            "x": _short_word(rng, alphabet, 2),
            "y": rng.choice(alphabet),
            "z": _short_word(rng, alphabet, 2),
            # y^k is a long single-symbol run: k is this share of the window size.
            "k_share": rng.uniform(1 / 16, 1 / 8),
        }
        for regex, alphabet in MONTECARLO_LANGUAGES
    ]
    return {"languages": languages, "groups": [list(g) for g in groups], "master": rng.randrange(1 << 31)}


# Strata of the random DFAs: (states, symbols, chance that a state is final).
_DFA_STRATA = [(m, k, p) for m in range(1, 6) for k in (2, 3) for p in (0.2, 0.35, 0.5)]


def _random_dfas(rng: random.Random, count: int) -> list[dict]:
    """Random complete DFAs spread evenly over the strata, so the mix of
    sizes is the same for every seed and only the tables are drawn."""
    dfas = []
    for i in range(count):
        states, symbols, final_p = _DFA_STRATA[i % len(_DFA_STRATA)]
        alphabet = "abc"[:symbols]
        delta = [[rng.randrange(states) for _ in alphabet] for _ in range(states)]
        finals = [q for q in range(states) if rng.random() < final_p]
        dfas.append({"kind": "dfa", "alphabet": alphabet, "delta": delta, "finals": finals})
    return dfas


def _a(k: int) -> str:
    return "a" * k


def _family_grid() -> list[tuple[str, str]]:
    """Regex families varying the period g, the state count and
    suffix-freeness.  Each family is taken over its whole parameter grid,
    so the seed changes only the random DFAs and the order, and the slow
    share of the mix stays fixed.  Period products stay at most 6: larger
    ones exceed the analysis state limit."""
    small = [(p, q) for p in range(1, 4) for q in range(1, 4) if p * q <= 6]
    grid = [("b(" + _a(g) + ")*", "ab") for g in range(1, 7)]  # suffix-free, period g
    grid += [("(" + _a(p) + ")*|b(" + _a(q) + ")*b", "ab") for p, q in small]  # trivial part + suffix-free part
    grid += [("(a|b)*b" + "(a|b)" * k, "ab") for k in range(4)]  # forward state count doubles with k
    grid += [("(" + _a(p) + ")*b(" + _a(q) + ")*", "ab") for p, q in small]  # not suffix-free
    grid += [
        ("(" + _a(p) + ")*b(" + _a(q) + ")*c(" + _a(r) + ")*", "abc")
        for p in range(1, 4)
        for q in range(1, 4)
        for r in range(1, 4)
        if p * q * r <= 6
    ]
    grid += [("c(" + w + ")*" + e, "abc") for w in ("ab", "ba", "aab", "abb") for e in ("", "c", "b")]
    return grid


def compile_inputs(seed: int, random_dfas: int, family_stride: int = 1) -> dict:
    """Random complete DFAs of 1-5 states over 2-3 symbols, every
    ``family_stride``-th regex of the family grid and the known
    state-limit cases, in an order drawn from ``seed``.

    The random DFAs are one fixed seeded corpus, the same for every
    ``seed``: the compile percentiles sit where the DFAs' cost tail meets
    the regex families, and a fresh draw per seed moved the 90th
    percentile by 28% between quartiles of ten runs (through the number
    of refused DFAs), which would hide any change in the library.
    """
    items = _random_dfas(_rng("compile-corpus"), random_dfas)
    family = _family_grid()[::family_stride]
    items += [{"kind": "regex", "regex": regex, "alphabet": alphabet} for regex, alphabet in family]
    items.extend(dict(case) for case in KNOWN_LIMIT_CASES)
    _rng("compile", seed).shuffle(items)
    return {"items": items}


def input_hash(inputs: dict) -> str:
    """Short SHA-256 of the canonical JSON form of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
