"""Stream generators and seeded Monte Carlo estimation.

Stream specs are small declarative records so experiment configs and CLI
flags can describe inputs reproducibly.  The adversarial kind expands to
``factor^n · x · y^k · z``, the shape used to drive testers onto windows
that are provably far from a language (pack the window with disjoint
copies of an excluded factor).

Monte Carlo trials derive per-trial seeds by hashing (master seed, trial
index) with BLAKE2, so results do not depend on scheduling or on Python's
per-process hash salt.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .automata import Alphabet
from .testers_det import SlidingWindowTester


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


def generate(spec: StreamSpec, alphabet: Alphabet) -> Iterator[str]:
    """Lazily yield the stream's symbols; deterministic given the spec."""
    if isinstance(spec, LiteralStream):
        literal_parts: Iterable[str] = (spec.word,)
    elif isinstance(spec, PeriodicStream):
        literal_parts = (spec.block,) * spec.repeats
    elif isinstance(spec, AdversarialStream):
        literal_parts = (spec.factor,) * spec.n + (spec.x,) + (spec.y,) * spec.k + (spec.z,)
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
        for i in draws:
            yield symbols[int(i)]
        return
    else:
        raise TypeError(f"not a stream spec: {spec!r}")
    checked: set[str] = set()
    for part in literal_parts:
        if part not in checked:  # a part repeats n or k times; check its symbols once, before yielding any
            for ch in part:
                alphabet.code(ch)
            checked.add(part)
        yield from part


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


def monte_carlo(
    factory: Callable[[np.random.Generator], SlidingWindowTester],
    stream: Sequence[str] | Iterable[str],
    trials: int,
    master_seed: int,
    trace: bool = False,
) -> MonteCarloResult:
    """Fraction of independent tester instances accepting at end of stream.

    Every trial runs a fresh tester (from ``factory`` with a derived rng)
    over the same materialized stream, which is split into runs of one
    symbol once per call.  A library tester (a ``SlidingWindowTester``) is
    fed run by run: a one-symbol run by ``feed``, a longer one by
    ``feed_run``, which also gives the run's largest ``state_bits``.  A
    run that a randomized tester feeds in closed form (``feed_power``)
    draws each count's law exactly, in fewer coins than symbol by symbol,
    so a two-sided trial's coins for a seed differ between the two feeds
    but its acceptance law does not.  ``trace=True``, which records each
    trial's per-step decisions, and any other tester (one offering only
    ``feed``, ``decide`` and ``state_bits``) are fed symbol by symbol.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    symbols = list(stream)
    runs = [(symbol, len(list(group))) for symbol, group in groupby(symbols)]
    accepted = 0
    max_bits = 0
    traces: list[tuple[bool, ...]] = []
    for i in range(trials):
        tester = factory(np.random.default_rng(trial_seed(master_seed, i)))
        max_bits = max(max_bits, tester.state_bits())
        if trace or not isinstance(tester, SlidingWindowTester):
            steps: list[bool] = []
            for symbol in symbols:
                tester.feed(symbol)
                if trace:
                    steps.append(tester.decide())
                max_bits = max(max_bits, tester.state_bits())
            if trace:
                traces.append(tuple(steps))
        else:
            for symbol, k in runs:
                if k == 1:
                    tester.feed(symbol)
                    bits = tester.state_bits()
                else:
                    bits = tester.feed_run(symbol, k)
                if bits > max_bits:
                    max_bits = bits
        if tester.decide():
            accepted += 1
    return MonteCarloResult(
        accepted / trials, max_bits, tuple(traces) if trace else None
    )
