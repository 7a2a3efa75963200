"""The three phases every workload runs, their oracle checks, and the
space-scaling probe.

* :class:`StreamPhase` feeds long seeded random streams to one tester per
  (language, kind) and times each ``feed`` + ``decide`` step.
* :class:`MonteCarloPhase` times whole ``cli.run_experiment`` calls, one
  tester kind per call, over adversarial and periodic member streams.
* :class:`CompilePhase` times the compile-and-classify pipeline per
  language.

A phase is set up once (untimed) and then offers :class:`Task` s: small
units of timed work (a stream round of one tester kind, one experiment
call, one language compiled) that :func:`schedule` interleaves over the
whole run, so every metric samples the same stretch of machine time.
Every oracle check runs inside :meth:`Context.checking`, outside the timed
work and with span recording suspended.  Each timed unit also records when
it ran, so that its time can be set against the reference loops timed just
before and after it (:meth:`Reference.near`).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from regwin import analysis, automata, cli, oracle, testers_det, testers_rand
from regwin.analysis import OneSidedClass
from regwin.automata import Alphabet, StateLimitExceeded

from . import stats
from .spans import Tracer, TracedTester

EPS = 0.25  # gap fraction of the two-sided tester
KINDS = ("exact", "det", "two-sided", "one-sided")
EXPERIMENT_KINDS = ("det", "two-sided", "one-sided")
# Steps per stream round, shared among the kind's testers: with at least
# 1000 steps a round's 99th percentile has 10 steps beyond it.
ROUND_STEPS = 1000
# Two-sided rows are checked against 2/3 and 1/3 only once this many
# trials are aggregated; the tester's real error on these rows is far
# below its 1/3 guarantee, so a false alarm is then negligible.
MIN_TWO_SIDED_TRIALS = 8
COMPILE_N = 64  # window size of the one-sided tester built while compiling
CHECK_WORD_LEN = {2: 8, 3: 5}  # compile check: all words up to this length
SPACE_EXPONENTS = (8, 12, 16)
MIN_REPEATS = 3  # every stream round kind and every experiment call runs at least this often
# Weight of the two-sided tasks in their phase's share (others weigh 1): a
# two-sided unit costs 20-50 times another kind's, so at an equal share it
# gets the fewest samples and the widest run-to-run spread.
TWO_SIDED_WEIGHT = 2.0
MAX_NOTES = 20


class Gate:
    """Correctness gate: attempted operations and checks, failures among
    them, and refusals (the program's state-limit error) counted apart."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.notes: list[str] = []

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < MAX_NOTES:
                self.notes.append(note)

    def fail(self, note: str) -> None:
        self.check(False, note)

    def refuse(self) -> None:
        self.attempted += 1
        self.refused += 1


class Context:
    """What the phases share: the gate, the optional tracer, and the time
    spent in checks (kept out of every measured wall time)."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.gate = Gate()
        self.check_s = 0.0

    @contextmanager
    def checking(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            with self.tracer.suspended() if self.tracer else nullcontext():
                yield
        finally:
            self.check_s += time.perf_counter() - started

    def span(self, name: str, tag: str | None = None):
        return self.tracer.span(name, tag) if self.tracer else nullcontext()


@dataclass
class Task:
    """A repeatable unit of timed work.  ``minimum`` units always run, so
    that every input is measured at least once.  ``weight`` sets the
    task's part of its phase's share.  A companion task (the reference
    loops) keeps running, at its share of the time spent, for as long as
    any other task does."""

    name: str
    minimum: int
    run: Callable[[], None]
    share: float = 0.0
    weight: float = 1.0
    companion: bool = False


def schedule(tasks: list[Task], seconds: float) -> list[int]:
    """Run units of the task furthest behind its share of ``seconds``
    until every task but the companions has used its share and run its
    minimum; returns the order, for replay.  A companion runs whenever it
    falls behind its share of the time spent so far, so its units stay
    spread evenly over the run."""
    spent = [0.0] * len(tasks)
    last = [0.0] * len(tasks)
    done = [0] * len(tasks)
    order: list[int] = []
    companions = [i for i, task in enumerate(tasks) if task.companion]
    while True:
        open_tasks = [
            i for i, task in enumerate(tasks)
            if not task.companion and (done[i] < task.minimum or spent[i] + last[i] <= task.share * seconds)
        ]
        if not open_tasks:
            return order
        elapsed = sum(spent)
        due = [i for i in companions if spent[i] <= tasks[i].share * elapsed]
        if due:
            i = due[0]
        else:
            i = min(open_tasks, key=lambda j: (done[j] >= tasks[j].minimum, spent[j] / tasks[j].share))
        started = time.perf_counter()
        tasks[i].run()
        last[i] = time.perf_counter() - started
        spent[i] += last[i]
        done[i] += 1
        order.append(i)


def replay(tasks: list[Task], order: list[int]) -> None:
    for i in order:
        tasks[i].run()


# --- reference work -------------------------------------------------------------

_REFERENCE_DELTA = tuple(tuple((7 * q + 3 * a + 1) % 13 for a in range(3)) for q in range(13))
_REFERENCE_STEPS = 20_000
_RNG_REFERENCE_DRAWS = 100
REFERENCE_UNITS = 20  # reference loop pairs each set-up probe times


def python_reference_loop() -> int:
    """Fixed pure-Python work of the kind the library does (table lookups,
    small-int arithmetic, dict updates), independent of the library.  Its
    time measures how fast the machine runs Python at that moment."""
    delta = _REFERENCE_DELTA
    counts: dict[int, int] = {}
    q = 0
    for i in range(_REFERENCE_STEPS):
        q = delta[q][i % 3]
        counts[q] = counts.get(q, 0) + 1
    return len(counts)


def rng_reference_loop() -> int:
    """Fixed NumPy work of the kind the two-sided tester does: a generator
    seeded from a tuple, then one binomial draw."""
    total = 0
    for i in range(_RNG_REFERENCE_DRAWS):
        total += int(np.random.default_rng((12345, i, 3, 1)).binomial(64, 0.01))
    return total


def _weight(kind: str) -> float:
    return TWO_SIDED_WEIGHT if kind == "two-sided" else 1.0


def reference_loop(kind: str) -> str:
    """The reference loop a tester kind's times are set against: the
    two-sided tester spends most of a step building NumPy generators."""
    return "rng" if kind == "two-sided" else "python"


class Reference:
    """Times both reference loops as one more interleaved task, with the
    moment each pair ran."""

    def __init__(self) -> None:
        self.python_s: list[float] = []
        self.rng_s: list[float] = []
        self.at: list[float] = []

    def tasks(self) -> list[Task]:
        return [Task("reference", 0, self.measure, companion=True)]

    def measure(self) -> None:
        started = time.perf_counter()
        python_reference_loop()
        middle = time.perf_counter()
        rng_reference_loop()
        self.python_s.append(middle - started)
        self.rng_s.append(time.perf_counter() - middle)
        self.at.append(middle)

    def near(self, at: float, loop: str) -> float:
        """Mean time of ``loop`` (``"python"`` or ``"rng"``) over the
        samples just before and just after the moment ``at``.

        The machine's speed moves within seconds.  Divided by these two
        samples instead of the run's median sample, the time of a
        0.2-second two-sided experiment call spread by 4% between quartiles
        of eight runs instead of 12%, and the compile 90th percentile by 4%
        instead of 10%.
        """
        samples = self.python_s if loop == "python" else self.rng_s
        if not samples:
            raise ValueError("no reference samples")
        i = bisect.bisect(self.at, at)
        near = samples[max(i - 1, 0) : i + 1]
        return sum(near) / len(near)


def _unwrap(tester):
    return tester.inner if isinstance(tester, TracedTester) else tester


def describe(tester) -> str:
    """The class that actually runs, with the parts of composed testers.
    Reads the composed testers' private part lists; this is observation
    only."""
    tester = _unwrap(tester)
    name = type(tester).__name__
    if isinstance(tester, testers_rand.UnionTester):
        parts = [describe(t) for group in getattr(tester, "_groups", ()) for t in group]
        return f"{name}[{', '.join(parts)}]"
    if isinstance(tester, testers_rand.OneSidedTester):
        parts = getattr(tester, "_parts", ())
        exact = sum(1 for p in parts if type(p).__name__ == "_ExactPart")
        return f"{name}(fingerprint={len(parts) - exact}, exact={exact})"
    return name


def is_fallback(kind: str, tester) -> bool:
    """True when a non-exact kind runs as exact window tracking: the
    exact-window tester itself, or a one-sided tester all of whose
    fingerprint parts fell back to exact tracking."""
    tester = _unwrap(tester)
    if kind == "exact":
        return False
    if isinstance(tester, testers_det.ExactWindowTester):
        return True
    if isinstance(tester, testers_rand.UnionTester):
        subs = [t for group in getattr(tester, "_groups", ()) for t in group]
        one_sided = [t for t in subs if isinstance(t, testers_rand.OneSidedTester)]
        return bool(one_sided) and all(is_fallback(kind, t) for t in one_sided)
    if isinstance(tester, testers_rand.OneSidedTester):
        parts = getattr(tester, "_parts", ())
        return bool(parts) and all(type(p).__name__ == "_ExactPart" for p in parts)
    return False


def member_word(dfa: automata.Dfa, n: int) -> str | None:
    """Some word of L of length exactly n, or None.  Keeps repeating the
    previous symbol where it can, so members come out as long runs."""
    symbols = dfa.alphabet.symbols
    good = [frozenset(dfa.finals)]  # good[r]: states reaching a final in exactly r steps
    for _ in range(n):
        previous = good[-1]
        good.append(frozenset(q for q in range(dfa.n_states) if any(t in previous for t in dfa.delta[q])))
    if dfa.initial not in good[n]:
        return None
    word = []
    q = dfa.initial
    last = dfa.alphabet.code(dfa.alphabet.pad)
    for i in range(n):
        target = good[n - i - 1]
        order = [last] + [a for a in range(len(symbols)) if a != last]
        last = next(a for a in order if dfa.delta[q][a] in target)
        q = dfa.delta[q][last]
        word.append(symbols[last])
    return "".join(word)


def _nearest_realized(dfa: automata.Dfa, n: int) -> int:
    lengths = analysis.realized_lengths(dfa)
    for m in range(n, n + lengths.threshold + lengths.period + 1):
        if lengths.member(m):
            return m
    raise ValueError(f"language realizes no window size at or above {n}")


def _derived_seed(*parts: object) -> int:
    text = ":".join(str(p) for p in parts).encode("ascii")
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "big")


# --- stream phase ---------------------------------------------------------------


@dataclass
class _StreamRun:
    language: str
    kind: str
    n: int
    dfa: automata.Dfa
    t: int
    tester: object
    stream: str
    pos: int = 0
    window: str = ""

    def next_chunk(self, size: int) -> str:
        end = self.pos + size
        text = self.stream[self.pos : end]
        if len(text) < size:  # wrap around the seeded stream
            end = size - len(text)
            text += self.stream[:end]
        self.pos = end % len(self.stream)
        return text


class StreamPhase:
    """One tester per valid (language, kind) at the realized window size
    nearest the workload's n, all built during set-up.  A round feeds each
    tester of one kind the next chunk of its seeded stream."""

    def __init__(self, ctx: Context, inputs: dict):
        self.ctx = ctx
        self.checkpoints = set(inputs["checkpoint_rounds"])
        self.runs: dict[str, list[_StreamRun]] = {k: [] for k in KINDS}
        for li, lang in enumerate(inputs["languages"]):
            regex = lang["regex"]
            language = cli.language_from_regex(regex, regex, Alphabet.from_string(lang["alphabet"]))
            n = _nearest_realized(language.dfa, inputs["n"])
            loglog_or_constant = analysis.one_sided_class(language.dfa) is not OneSidedClass.LOG_LOWER_BOUND
            t = analysis.analyze(language.dfa).t
            for ki, kind in enumerate(KINDS):
                if kind == "one-sided" and not loglog_or_constant:
                    continue
                rng = np.random.default_rng([inputs["tester_seed"], li, ki])
                tester = cli.build_tester_factory(kind, language, n, EPS)(rng)
                pad = language.alphabet.pad * n
                self.runs[kind].append(_StreamRun(regex, kind, n, language.dfa, t, tester, lang["stream"], window=pad))
        self.kinds = [k for k in KINDS if self.runs[k]]
        self.chunk = {k: -(-ROUND_STEPS // len(self.runs[k])) for k in self.kinds}  # symbols per tester
        self.step_ns: dict[str, list[int]] = {k: [] for k in self.kinds}
        self.round_ns: dict[str, list[int]] = {k: [] for k in self.kinds}
        self.round_at: dict[str, list[float]] = {k: [] for k in self.kinds}  # middle of each round

    def tasks(self) -> list[Task]:
        return [
            Task(f"stream.{kind}", MIN_REPEATS, lambda kind=kind: self._round(kind), weight=_weight(kind))
            for kind in self.kinds
        ]

    def _round(self, kind: str) -> None:
        clock = time.perf_counter_ns
        samples = self.step_ns[kind]
        total = 0
        began_round = time.perf_counter()
        for run in self.runs[kind]:
            chunk = run.next_chunk(self.chunk[kind])
            tester = run.tester
            try:
                for symbol in chunk:
                    began = clock()
                    tester.feed(symbol)
                    tester.decide()
                    took = clock() - began
                    samples.append(took)
                    total += took
            except Exception as exc:  # a raising tester is a failed operation, not a crash
                self.ctx.gate.fail(f"stream {kind} {run.language}: {type(exc).__name__}: {exc}")
            self.ctx.gate.ops(len(chunk))
            run.window = (run.window + chunk)[-run.n :]
        self.round_ns[kind].append(total)
        self.round_at[kind].append((began_round + time.perf_counter()) / 2)
        if len(self.round_ns[kind]) in self.checkpoints:
            self._checkpoint(kind)

    def _checkpoint(self, kind: str) -> None:
        with self.ctx.checking():
            for run in self.runs[kind]:
                self._check_window(run, require_member=False)

    def _check_window(self, run: _StreamRun, require_member: bool) -> None:
        gate, kind = self.ctx.gate, run.kind
        if kind == "two-sided":
            return
        where = f"stream {kind} {run.language} n={run.n}"
        verdict = run.tester.decide()
        member = oracle.distance_to_language(run.window, run.dfa) == 0
        if require_member:
            gate.check(member, f"{where}: the member word is not in the language")
        if kind == "exact":
            gate.check(verdict == member, f"{where}: exact verdict {verdict} != membership {member}")
        elif member:
            gate.check(verdict, f"{where}: rejected a member window")
        if kind == "det" and not member:
            far = oracle.prefix_distance_to_language(run.window, run.dfa) > run.t
            if far:
                gate.check(not verdict, f"{where}: accepted a window at prefix distance > t={run.t}")

    def finish(self) -> None:
        """Feed each deterministic and one-sided tester a member word of
        its window size; each must accept it."""
        with self.ctx.checking():
            for kind in self.kinds:
                for run in self.runs[kind]:
                    if kind == "two-sided":
                        continue
                    word = member_word(run.dfa, run.n)
                    for symbol in word:
                        run.tester.feed(symbol)
                    run.window = word
                    self._check_window(run, require_member=True)

    def effective(self) -> list[tuple[str, str, int, str]]:
        return [(r.language, r.kind, r.n, describe(r.tester)) for k in self.kinds for r in self.runs[k]]

    def results(self, reference: Reference) -> dict[str, dict]:
        """Throughput from the median round time; the step tail as the
        median over rounds of each round's 99th percentile, so a burst of
        machine noise moves only the rounds it falls in.  Each comes raw
        and per reference loop time (``*_ref``: each round's figure over
        the loop time around the round)."""
        out = {}
        for kind in self.kinds:
            rounds = self.round_ns[kind]
            loop = reference_loop(kind)
            near = [reference.near(at, loop) for at in self.round_at[kind]]
            per_round = self.chunk[kind] * len(self.runs[kind])
            steps = self.step_ns[kind]
            round_p99 = [
                stats.percentile(steps[r * per_round : (r + 1) * per_round], 99.0) for r in range(len(rounds))
            ]
            out[kind] = {
                "symbols_per_s": per_round / (stats.median(rounds) * 1e-9),
                "symbols_per_ref": per_round / stats.median([r * 1e-9 / ref for r, ref in zip(rounds, near)]),
                "loop": loop,
                "rounds": len(rounds),
                "step_us_p99": stats.median(round_p99) / 1000.0,
                "step_p99_ref": stats.median([p * 1e-9 / ref for p, ref in zip(round_p99, near)]),
                "step_us": [s / 1000.0 for s in steps],
            }
        return out


# --- Monte Carlo phase ---------------------------------------------------------


@dataclass
class _Experiment:
    kind: str
    language: str
    ident: str  # window-size group and stream
    n: int
    trials: int
    t: int
    config: dict
    call_s: list[float] = field(default_factory=list)
    call_at: list[float] = field(default_factory=list)  # middle of each call
    trials_per_call: int = 0


class MonteCarloPhase:
    """``cli.run_experiment`` calls per tester kind, one per language,
    (window size, trials) group and stream: the adversarial stream built
    from ``find_excluded_factor``, and a periodic stream whose period is a
    member word of the window size."""

    def __init__(self, ctx: Context, inputs: dict):
        self.ctx = ctx
        self.master = inputs["master"]
        self.experiments: dict[str, list[_Experiment]] = {k: [] for k in EXPERIMENT_KINDS}
        self.languages: dict[str, cli.Language] = {}
        for lang in inputs["languages"]:
            regex = lang["regex"]
            language = cli.language_from_regex(regex, regex, Alphabet.from_string(lang["alphabet"]))
            self.languages[regex] = language
            dfa = language.dfa
            loglog_or_constant = analysis.one_sided_class(dfa) is not OneSidedClass.LOG_LOWER_BOUND
            t = analysis.analyze(dfa).t
            excluded = analysis.find_excluded_factor(dfa)
            lengths = analysis.realized_lengths(dfa)
            for gi, (n, trials) in enumerate(inputs["groups"]):
                specs = []
                if excluded is not None:
                    factor = excluded[1]
                    specs.append(
                        {"kind": "adversarial", "factor": factor, "x": lang["x"], "y": lang["y"],
                         "z": lang["z"], "n": -(-n // len(factor)), "k": max(1, round(n * lang["k_share"]))}
                    )
                if lengths.member(n):
                    specs.append({"kind": "periodic", "block": member_word(dfa, n), "repeats": 2})
                for kind, (si, spec) in itertools.product(EXPERIMENT_KINDS, enumerate(specs)):
                    if kind == "one-sided" and not loglog_or_constant:
                        continue
                    config = {
                        "trials": trials,
                        "eps": EPS,
                        "window_sizes": [n],
                        "languages": [{"id": regex, "regex": regex, "alphabet": lang["alphabet"]}],
                        "testers": [kind],
                        "streams": [spec],
                        "timing": False,
                    }
                    self.experiments[kind].append(_Experiment(kind, regex, f"{gi}.{si}", n, trials, t, config))
        self.kinds = [k for k in EXPERIMENT_KINDS if self.experiments[k]]
        self.largest_n = {k: max(e.n for e in self.experiments[k]) for k in self.kinds}
        self.state_bits = {k: 0 for k in self.kinds}
        self._two_sided: dict[tuple, list] = {}

    def tasks(self) -> list[Task]:
        """Per kind, one unit is the next experiment call in cyclic order."""
        tasks = []
        for kind in self.kinds:
            counter = itertools.count()
            experiments = self.experiments[kind]

            def unit(experiments=experiments, counter=counter):
                i = next(counter)
                self._call(experiments[i % len(experiments)], i // len(experiments))

            tasks.append(Task(f"montecarlo.{kind}", MIN_REPEATS * len(experiments), unit, weight=_weight(kind)))
        return tasks

    def _call(self, exp: _Experiment, round_index: int) -> None:
        config = dict(exp.config, seed=_derived_seed(self.master, exp.kind, exp.language, exp.ident, round_index))
        started = time.perf_counter()
        try:
            with self.ctx.span("cli.run_experiment", tag=exp.kind):
                rows = cli.run_experiment(config)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.ctx.gate.fail(f"montecarlo {exp.kind} {exp.language}: {type(exc).__name__}: {exc}")
            return
        ended = time.perf_counter()
        exp.call_s.append(ended - started)
        exp.call_at.append((started + ended) / 2)
        self.ctx.gate.ops(1)
        with self.ctx.checking():
            exp.trials_per_call = sum(row.trials for row in rows)
            for row in rows:
                if row.n == self.largest_n[exp.kind]:
                    self.state_bits[exp.kind] = max(self.state_bits[exp.kind], row.state_bits)
                self._check_row(exp, row)

    def _check_row(self, exp: _Experiment, row: cli.ReportRow) -> None:
        gate = self.ctx.gate
        where = f"montecarlo {row.tester} {row.language} n={row.n} {row.stream[:40]}"
        dist = row.oracle_dist
        if row.tester in ("det", "one-sided") and dist == 0:
            gate.check(row.accept_freq == 1.0, f"{where}: member accepted at rate {row.accept_freq}")
        if row.tester == "det" and dist > exp.t:
            gate.check(row.accept_freq == 0.0, f"{where}: window at distance {dist} > t accepted")
        if row.tester == "two-sided":
            tally = self._two_sided.setdefault((row.language, row.n, row.stream, dist), [0.0, 0])
            tally[0] += row.accept_freq * row.trials
            tally[1] += row.trials

    def finish(self) -> None:
        """Two-sided rows, aggregated over calls: members accepted at rate
        >= 2/3, windows more than eps*n far at rate <= 1/3."""
        with self.ctx.checking():
            for (language, n, stream, dist), (accepted, trials) in self._two_sided.items():
                if trials < MIN_TWO_SIDED_TRIALS:
                    continue
                rate = accepted / trials
                where = f"montecarlo two-sided {language} n={n} {stream[:40]}"
                if dist == 0:
                    self.ctx.gate.check(rate >= 2 / 3, f"{where}: member accepted at rate {rate:.3f}")
                elif dist > EPS * n:
                    self.ctx.gate.check(rate <= 1 / 3, f"{where}: far window accepted at rate {rate:.3f}")

    def effective(self) -> list[tuple[str, str, int, str]]:
        """Builds one tester per (language, kind, n) the way
        ``run_experiment`` does and reports its class."""
        out = []
        with self.ctx.checking():
            for kind in self.kinds:
                for language, n in dict.fromkeys((e.language, e.n) for e in self.experiments[kind]):
                    factory = cli.build_tester_factory(kind, self.languages[language], n, EPS)
                    out.append((language, kind, n, describe(factory(np.random.default_rng(0)))))
        return out

    def results(self, reference: Reference) -> dict[str, dict]:
        """Trials per second over one call of each experiment, each call
        timed as the median of its repetitions; and the same per reference
        loop time, each repetition's time over the loop time around it."""
        out = {}
        for k in self.kinds:
            measured = [e for e in self.experiments[k] if e.call_s]
            trials = sum(e.trials_per_call for e in measured)
            loop = reference_loop(k)
            relative = [
                stats.median([s / reference.near(at, loop) for s, at in zip(e.call_s, e.call_at)]) for e in measured
            ]
            out[k] = {
                "trials_per_s": trials / sum(stats.median(e.call_s) for e in measured),
                "trials_per_ref": trials / sum(relative),
                "loop": loop,
                "calls": sum(len(e.call_s) for e in measured),
                "experiments": len(measured),
                "state_bits": self.state_bits[k],
                "largest_n": self.largest_n[k],
            }
        return out


# --- compile phase -----------------------------------------------------------------


def _words(alphabet: str, max_len: int) -> Iterator[str]:
    for length in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=length):
            yield "".join(letters)


class CompilePhase:
    """The compile-and-classify pipeline, one language per unit, cycling
    over the languages; a language's time is the median of its
    repetitions.  Refused and failed languages are +inf."""

    def __init__(self, ctx: Context, inputs: dict):
        self.ctx = ctx
        self.items = inputs["items"]
        self.times: list[list[float]] = [[] for _ in self.items]
        self.at: list[list[float]] = [[] for _ in self.items]  # middle of each repetition
        self.outcome: list[str | None] = [None] * len(self.items)  # None, "refused" or "failed"
        self.passes = 0  # completed passes over the items
        self._cursor = 0

    @staticmethod
    def label(item: dict) -> str:
        if item["kind"] == "regex":
            return item["regex"]
        return f"dfa{item['delta']}/{item['finals']}"

    def _pipeline(self, item: dict):
        alphabet = Alphabet.from_string(item["alphabet"])
        if item["kind"] == "regex":
            dfa = cli.language_from_regex(item["regex"], item["regex"], alphabet).dfa
        else:
            dfa = automata.minimize(automata.Dfa(alphabet, item["delta"], 0, item["finals"]))
        analyzed = analysis.analyze(dfa)
        one_sided = analysis.one_sided_class(dfa)
        analysis.find_excluded_factor(dfa)
        analysis.realized_lengths(dfa)
        if one_sided is OneSidedClass.LOGLOG:
            testers_rand.composed_one_sided_tester(dfa, COMPILE_N, rng=0)
        return dfa, analyzed

    def tasks(self) -> list[Task]:
        return [Task("compile", len(self.items), self._next)]

    def _next(self) -> None:
        """Compile the next language in cyclic order; a refused or failed
        language is not retried."""
        for _ in range(len(self.items)):
            i = self._cursor
            self._cursor = (i + 1) % len(self.items)
            if self._cursor == 0:
                self.passes += 1
            if self.outcome[i] is None:
                self._compile(i)
                return

    def _compile(self, i: int) -> None:
        item, gate = self.items[i], self.ctx.gate
        began = time.perf_counter()
        try:
            dfa, analyzed = self._pipeline(item)
        except StateLimitExceeded:
            self.outcome[i] = "refused"
            gate.refuse()
            return
        except Exception as exc:  # any other exception is a failed operation
            self.outcome[i] = "failed"
            gate.fail(f"compile {self.label(item)}: {type(exc).__name__}: {exc}")
            return
        ended = time.perf_counter()
        self.times[i].append(ended - began)
        self.at[i].append((began + ended) / 2)
        gate.ops(1)
        if len(self.times[i]) == 1:
            self._check(item, dfa, analyzed)

    def _check(self, item: dict, dfa: automata.Dfa, analyzed) -> None:
        """The analyzed right-to-left machine must agree with the DFA on
        every word up to a short length."""
        with self.ctx.checking():
            alphabet = item["alphabet"]
            for word in _words(alphabet, CHECK_WORD_LEN[len(alphabet)]):
                if analyzed.rdfa.accepts(word) != dfa.accepts(word):
                    self.ctx.gate.check(False, f"compile {self.label(item)}: reverse machine disagrees on {word!r}")
                    return
            self.ctx.gate.check(True, "")

    def results(self, reference: Reference) -> dict:
        """Percentiles over languages of the median repetition, in ms and
        in reference loop times (each repetition over the Python loop time
        around it)."""
        failures = sum(1 for outcome in self.outcome if outcome is not None)
        kept = [i for i, outcome in enumerate(self.outcome) if outcome is None]
        per_language = stats.with_failures([stats.median(self.times[i]) * 1e3 for i in kept], failures)
        relative = stats.with_failures(
            [stats.median([t / reference.near(at, "python") for t, at in zip(self.times[i], self.at[i])]) for i in kept],
            failures,
        )
        return {
            "p50_ms": stats.percentile(per_language, 50.0),
            "p90_ms": stats.percentile(per_language, 90.0),
            "p50_ref": stats.percentile(relative, 50.0),
            "p90_ref": stats.percentile(relative, 90.0),
            "languages": len(per_language),
            "refused": self.outcome.count("refused"),
            "failed": self.outcome.count("failed"),
            "passes": self.passes,
            "refused_labels": [self.label(it) for it, o in zip(self.items, self.outcome) if o == "refused"],
        }


# --- space probe ----------------------------------------------------------------


def space_probe(seed: int) -> dict[str, float]:
    """State bits of one tester per randomized kind for ``b(aa)*`` at
    n = 2^8, 2^12, 2^16, right after construction, plus the two-sided
    construction time at n = 4096.  The one-sided tester gets the largest
    prime of its pool, so its figure is the worst case, not a draw."""
    language = cli.language_from_regex("b(aa)*", "b(aa)*", Alphabet.from_string("ab"))
    out: dict[str, float] = {}
    for e in SPACE_EXPONENTS:
        n = 1 << e
        out[f"space.log2_n.n{e}"] = math.log2(n)
        out[f"space.log2_log2_n.n{e}"] = math.log2(math.log2(n))
        for kind in EXPERIMENT_KINDS:
            rng = np.random.default_rng([seed, e])
            started = time.perf_counter()
            if kind == "one-sided":
                prime = max(testers_rand.prime_pool(n))
                tester = testers_rand.composed_one_sided_tester(language.dfa, n, rng, prime=prime)
            else:
                tester = cli.build_tester_factory(kind, language, n, EPS)(rng)
            took = time.perf_counter() - started
            if kind == "two-sided" and n == 4096:
                out["tester.construct_ms.two-sided.n4096"] = took * 1e3
            out[f"space.bits.{kind}.n{e}"] = tester.state_bits()
    return out
