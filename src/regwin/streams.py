"""Stream generators and seeded Monte Carlo estimation.

Stream specs are small declarative records so experiment configs and CLI
flags can describe inputs reproducibly.  The adversarial kind expands to
``factor^n · x · y^k · z``, the shape used to drive testers onto windows
that are provably far from a language (pack the window with disjoint
copies of an excluded factor).  ``pieces`` gives a spec's stream as the
(word, repeats) parts it holds, which ``monte_carlo`` feeds a power at a
time; ``generate`` is their flattening.

Monte Carlo trials derive per-trial seeds by hashing (master seed, trial
index) with BLAKE2, so results do not depend on scheduling or on Python's
per-process hash salt.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator

import numpy as np

from .automata import Alphabet
from .testers_det import SlidingWindowTester, check_power


def _check_text(value, field: str) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected a string, got {value!r}")


def _check_count(value, field: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{field}: expected a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class LiteralStream:
    word: str

    def __post_init__(self) -> None:
        _check_text(self.word, "word")

    def to_dict(self) -> dict:
        return {"kind": "literal", "word": self.word}

    def label(self) -> str:
        return f"literal:{self.word}"


@dataclass(frozen=True)
class PeriodicStream:
    block: str
    repeats: int

    def __post_init__(self) -> None:
        _check_text(self.block, "block")
        _check_count(self.repeats, "repeats")

    def to_dict(self) -> dict:
        return {"kind": "periodic", "block": self.block, "repeats": self.repeats}

    def label(self) -> str:
        return f"periodic:{self.block},{self.repeats}"


@dataclass(frozen=True)
class RandomStream:
    seed: int
    length: int
    weights: tuple[tuple[str, float], ...] = ()  # empty means uniform

    def __post_init__(self) -> None:
        _check_count(self.seed, "seed")
        _check_count(self.length, "length")
        for s, w in self.weights:
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not math.isfinite(w) or w < 0:
                raise ValueError(f"weights.{s}: expected a finite nonnegative number, got {w!r}")
        if self.weights and sum(w for _s, w in self.weights) <= 0:
            raise ValueError("weights: expected at least one positive weight")

    def to_dict(self) -> dict:
        data = {"kind": "random", "seed": self.seed, "length": self.length}
        if self.weights:
            data["weights"] = {s: w for s, w in self.weights}
        return data

    def label(self) -> str:
        # weights as the floats the generator draws with, so 1 and 1.0 label one stream alike
        return f"random:{self.seed},{self.length}" + "".join(f",{s}={float(w)}" for s, w in self.weights)


@dataclass(frozen=True)
class AdversarialStream:
    """Expands to factor^n x y^k z."""

    factor: str
    x: str
    y: str
    z: str
    n: int
    k: int

    def __post_init__(self) -> None:
        for field in ("factor", "x", "y", "z"):
            _check_text(getattr(self, field), field)
        _check_count(self.n, "n")
        _check_count(self.k, "k")

    def to_dict(self) -> dict:
        return {
            "kind": "adversarial",
            "factor": self.factor,
            "x": self.x,
            "y": self.y,
            "z": self.z,
            "n": self.n,
            "k": self.k,
        }

    def label(self) -> str:
        return f"adversarial:{self.factor},{self.x},{self.y},{self.z},{self.n},{self.k}"


StreamSpec = LiteralStream | PeriodicStream | RandomStream | AdversarialStream


def spec_from_dict(data: dict) -> StreamSpec:
    """Spec from its JSON form; every field is checked for its type and
    range, and a bad one raises ``ValueError`` naming it."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a stream object, got {data!r}")
    kind = data.get("kind")
    try:
        if kind == "literal":
            return LiteralStream(data["word"])
        if kind == "periodic":
            return PeriodicStream(data["block"], data["repeats"])
        if kind == "random":
            weights = data.get("weights", {})
            if not isinstance(weights, dict):
                raise ValueError(f"weights: expected an object mapping symbols to numbers, got {weights!r}")
            return RandomStream(data["seed"], data["length"], tuple(sorted(weights.items())))
        if kind == "adversarial":
            return AdversarialStream(data["factor"], data["x"], data["y"], data["z"], data["n"], data["k"])
    except KeyError as exc:
        raise ValueError(f"stream spec of kind {kind!r} is missing field {exc}") from None
    raise ValueError(f"unknown stream kind {kind!r}")


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field}: expected an integer, got {text!r}") from None


def _parse_float(text: str, field: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{field}: expected a number, got {text!r}") from None


def spec_from_string(text: str) -> StreamSpec:
    """Compact CLI form, e.g. literal:baaa | periodic:ba,64 |
    random:7,10000 | random:7,10000,a=1.0,b=3.0 | adversarial:b,,a,,4,3.
    Every spec's ``label()`` is this form, so a label reads back as its spec."""
    kind, _, rest = text.partition(":")
    if kind == "literal":
        return LiteralStream(rest)
    if kind == "periodic":
        block, _, repeats = rest.rpartition(",")
        if not block:
            raise ValueError("periodic stream needs block,repeats")
        return PeriodicStream(block, _parse_int(repeats, "repeats"))
    if kind == "random":
        parts = rest.split(",")
        if len(parts) < 2:
            raise ValueError("random stream needs seed,length")
        weights: dict[str, float] = {}
        for part in parts[2:]:
            symbol, _, weight = part.partition("=")
            if symbol in weights:
                raise ValueError(f"weights.{symbol}: given twice")
            weights[symbol] = _parse_float(weight, f"weights.{symbol}")
        seed, length = _parse_int(parts[0], "seed"), _parse_int(parts[1], "length")
        return RandomStream(seed, length, tuple(sorted(weights.items())))
    if kind == "adversarial":
        parts = rest.split(",")
        if len(parts) != 6:
            raise ValueError("adversarial stream needs factor,x,y,z,n,k")
        return AdversarialStream(*parts[:4], _parse_int(parts[4], "n"), _parse_int(parts[5], "k"))
    raise ValueError(f"unknown stream kind {kind!r}")


Piece = tuple[str, int]  # (word, repeats): the word repeated that many times


def _pieces(spec: StreamSpec, alphabet: Alphabet) -> Iterator[Piece]:
    """The spec's pieces, each checked against ``alphabet`` before it is
    yielded."""
    if isinstance(spec, LiteralStream):
        parts: list[Piece] = [(spec.word, 1)]
    elif isinstance(spec, PeriodicStream):
        parts = [(spec.block, spec.repeats)]
    elif isinstance(spec, AdversarialStream):
        parts = [(spec.factor, spec.n), (spec.x, 1), (spec.y, spec.k), (spec.z, 1)]
    elif isinstance(spec, RandomStream):
        symbols = alphabet.symbols
        if spec.weights:
            for s, _w in spec.weights:
                alphabet.code(s)  # validate
            symbols = tuple(s for s, _w in spec.weights)
            weights = np.array([w for _s, w in spec.weights], dtype=float)
            probs = weights / weights.sum()
        else:
            probs = None
        rng = np.random.default_rng(spec.seed)
        draws = rng.choice(len(symbols), size=spec.length, p=probs)
        yield "".join(symbols[int(i)] for i in draws), 1
        return
    else:
        raise TypeError(f"not a stream spec: {spec!r}")
    for word, repeats in parts:
        for symbol in dict.fromkeys(word):  # each distinct symbol once, in order of first appearance
            alphabet.code(symbol)
        yield word, repeats


def pieces(spec: StreamSpec, alphabet: Alphabet) -> list[Piece]:
    """The stream as the literal parts the spec holds, in order: a literal
    is ``[(word, 1)]``, a periodic stream ``[(block, repeats)]``, an
    adversarial one ``[(factor, n), (x, 1), (y, k), (z, 1)]`` and a random
    one its drawn symbols as one word.  Every symbol is checked against
    ``alphabet`` first, so a foreign one raises ``ValueError`` before any
    piece is returned."""
    return list(_pieces(spec, alphabet))


def generate(spec: StreamSpec, alphabet: Alphabet) -> Iterator[str]:
    """Lazily yield the stream's symbols, the flattening of its pieces;
    deterministic given the spec.  A piece is checked before any of its
    symbols is yielded."""
    for word, repeats in _pieces(spec, alphabet):
        for _ in range(repeats):
            yield from word


def trial_seed(master_seed: int, trial_index: int) -> int:
    digest = hashlib.blake2b(
        f"{master_seed}:{trial_index}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class MonteCarloResult:
    accept_rate: float
    max_state_bits: int
    traces: tuple[tuple[bool, ...], ...] | None = None


def _feeds(pieces: Iterable[Piece]) -> list[Piece]:
    """The feeds of a library tester: a piece (w, k) with k > |w| >= 2 as
    one word power, every other piece's symbols joined into runs of one
    symbol, as ``(symbol, run length)``."""
    feeds: list[Piece] = []
    for word, k in pieces:
        check_power(k)
        if k > len(word) >= 2:
            feeds.append((word, k))
            continue
        if len(word) == 1:
            runs = [(word, k)] if k else []
        else:
            runs = [(symbol, len(list(run))) for symbol, run in groupby(word * k)]
        for symbol, length in runs:
            if feeds and feeds[-1][0] == symbol:  # a run goes on across pieces
                feeds[-1] = (symbol, feeds[-1][1] + length)
            else:
                feeds.append((symbol, length))
    return feeds


def monte_carlo(
    factory: Callable[[np.random.Generator], SlidingWindowTester],
    stream: Iterable[str | Piece],
    trials: int,
    master_seed: int,
    trace: bool = False,
) -> MonteCarloResult:
    """Fraction of independent tester instances accepting at end of stream.

    Every trial runs its own tester (from ``factory`` with a derived rng)
    over the same stream; the library's testers of one row share their
    tables (the analysis's move, lasso and node tables, det's pad window,
    a one-sided factory's fingerprint table), so a trial builds none that
    an earlier trial built and holds only its own state.  The stream's
    items are words, read symbol by symbol (a plain string or a list of
    symbols is a stream of one-symbol words), and ``(word, k)`` pieces,
    the word repeated k times (``pieces`` gives a spec's).  Once per call, a piece
    with k > |w| >= 2 becomes one word power, and the words of every other
    piece are joined and split into runs of one symbol.  A library tester
    (a ``SlidingWindowTester``) is fed feed by feed: a one-symbol run by
    ``feed``, a longer run or a power by ``feed_run``, which also gives its
    largest ``state_bits``.  A power or run that a randomized tester feeds
    in closed form (``feed_power``) draws each count's law exactly, in
    fewer coins than symbol by symbol, so a two-sided trial's coins for a
    seed differ between the feeds but its acceptance law does not.
    ``trace=True``, which records each trial's per-step decisions, and
    any other tester (one offering only ``feed``, ``decide`` and
    ``state_bits``) are fed symbol by symbol.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    items = [(item, 1) if isinstance(item, str) else item for item in stream]
    feeds = _feeds(items)
    symbols: list[str] | None = None  # materialized for the first trial fed symbol by symbol
    accepted = 0
    max_bits = 0
    traces: list[tuple[bool, ...]] = []
    for i in range(trials):
        tester = factory(np.random.default_rng(trial_seed(master_seed, i)))
        max_bits = max(max_bits, tester.state_bits())
        if trace or not isinstance(tester, SlidingWindowTester):
            if symbols is None:
                symbols = [symbol for word, k in items for symbol in word * k]
            steps: list[bool] = []
            for symbol in symbols:
                tester.feed(symbol)
                if trace:
                    steps.append(tester.decide())
                max_bits = max(max_bits, tester.state_bits())
            if trace:
                traces.append(tuple(steps))
        else:
            for word, k in feeds:
                if k == 1:
                    tester.feed(word)
                    bits = tester.state_bits()
                else:
                    bits = tester.feed_run(word, k)
                if bits > max_bits:
                    max_bits = bits
        if tester.decide():
            accepted += 1
    return MonteCarloResult(
        accepted / trials, max_bits, tuple(traces) if trace else None
    )
