"""Workloads, passes and metrics of the benchmark.

Every workload runs all three phases (stream, Monte Carlo, compile) so
that each run reports every metric, but a workload gives most of its time
and its large inputs to one phase:

* ``stream``: feed and decide on long random streams at n ~ 4096.
* ``montecarlo``: ``run_experiment`` grids at window sizes up to 1023.
* ``compile``: the compile-and-classify pipeline on a large language mix.

Which end-to-end metric each per-layer metric should move:

* ``automata.*`` -> ``compile_ms_*`` on compile, ``setup_s`` everywhere.
* ``analysis.*`` -> ``compile_ms_*`` on compile; ``uniform_states`` also
  drives ``symbols_per_s.det``/``two-sided`` on stream and ``state_bits.*``.
* ``testers_rand.path_descriptions_ms``/``partials`` -> ``compile_ms_p90``
  and ``trials_per_s.one-sided`` on montecarlo.
* ``tester.construct_ms.<kind>`` -> ``trials_per_s.<kind>`` on montecarlo
  and ``setup_s`` on stream; it must not move ``symbols_per_s.*``.
* ``tester.feed_us``/``decide_us.<kind>`` -> ``symbols_per_s.<kind>`` and
  ``symbol_us_p99.<kind>`` on stream; two-sided feed also drives
  ``trials_per_s.two-sided`` through the warmup.
* ``tester.state_bits_us``/``state_bits_calls.<kind>`` ->
  ``trials_per_s.<kind>`` on montecarlo only.
* ``tester.fallback_share.<kind>`` explains moves in ``state_bits.*`` and
  ``symbols_per_s.*``.
* ``streams.*``, ``oracle.*``, ``cli.*`` -> ``trials_per_s.*`` on montecarlo.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import regwin
from regwin import analysis, automata, cli, oracle, streams, testers_det, testers_rand

from . import inputs as gen
from . import phases, stats
from .spans import STATUS_ERROR, STATUS_LIMIT, Instrumentation, Tracer, TracedTester, nearest_ancestor, self_times, traced

SETUP_REPEATS = 5  # child processes whose set-up times give setup_s
TRACE_PASS_SHARE = 0.5  # share of --seconds the untraced pass of a traced run measures
REFERENCE_SHARE = 0.06  # share of the time spent so far that goes to the reference loops
# End-to-end times are reported at the speed where the Python reference loop
# takes PYTHON_REFERENCE_S, and two-sided rates at the speed where the NumPy
# generator loop takes RNG_REFERENCE_S.  The machine this was written on is
# shared: its speed drifts by up to 40% for minutes at a time and moves
# within seconds, and the reference loop and the library slow down together
# (their time ratio held within 2% while both moved by 6%), so each unit of
# work is set against the loop samples timed next to it.  The two-sided
# tester spends most of a step building NumPy generators, which slowed by
# 20% on that machine while Python code did not.
PYTHON_REFERENCE_S = 2.0e-3
RNG_REFERENCE_S = 1.5e-3
REFERENCE_S = {"python": PYTHON_REFERENCE_S, "rng": RNG_REFERENCE_S}


@dataclass(frozen=True)
class Workload:
    why: str
    stream_n: int
    stream_share: float
    mc_groups: tuple[tuple[int, int], ...]  # (window size, trials) per run_experiment call
    mc_share: float
    compile_dfas: int
    compile_family_stride: int  # every k-th regex of the family grid
    compile_share: float


WORKLOADS = {
    "stream": Workload(
        why="steady-state feed+decide on random streams at n~4096; construction confined to set-up",
        stream_n=4096, stream_share=0.6,
        mc_groups=((255, 2),), mc_share=0.2,
        compile_dfas=0, compile_family_stride=2, compile_share=0.2,
    ),
    "montecarlo": Workload(
        why="run_experiment grids up to n=1023: per-trial construction, state_bits, oracle, long runs",
        stream_n=256, stream_share=0.2,
        mc_groups=((255, 4), (1023, 1)), mc_share=0.6,
        compile_dfas=0, compile_family_stride=2, compile_share=0.2,
    ),
    "compile": Workload(
        why="compile-and-classify pipeline on random DFAs and regex families; nothing streams",
        stream_n=256, stream_share=0.2,
        mc_groups=((255, 2),), mc_share=0.2,
        compile_dfas=600, compile_family_stride=1, compile_share=0.6,
    ),
}

END_TO_END = [
    ("setup_s", "s"),
    *[(f"symbols_per_s.{k}", "symbols/s") for k in phases.KINDS],
    *[(f"symbol_us_p99.{k}", "us") for k in phases.EXPERIMENT_KINDS],
    *[(f"trials_per_s.{k}", "trials/s") for k in phases.EXPERIMENT_KINDS],
    ("compile_ms_p50", "ms"),
    ("compile_ms_p90", "ms"),
    *[(f"state_bits.{k}", "bits") for k in phases.EXPERIMENT_KINDS],
]

# Layer spans recorded around the program's public functions: (module
# attribute, span name).
_LAYER_FUNCTIONS = [
    (automata, "parse_regex", "automata.parse_regex"),
    (automata, "determinize", "automata.determinize"),
    (automata, "minimize", "automata.minimize"),
    (analysis, "analyze", "analysis.analyze"),
    (analysis, "one_sided_class", "analysis.one_sided_class"),
    (analysis, "find_excluded_factor", "analysis.find_excluded_factor"),
    (analysis, "realized_lengths", "analysis.realized_lengths"),
    (testers_rand, "enumerate_path_descriptions", "testers_rand.path_descriptions"),
    (streams, "generate", "streams.generate"),
    (streams, "monte_carlo", "streams.monte_carlo"),
    (oracle, "distance_to_language", "oracle.distance"),
]
_TESTER_OPS = ("construct", "feed", "decide", "state_bits")
_SPAN_NAMES = [name for _m, _a, name in _LAYER_FUNCTIONS] + [
    *[f"tester.{op}.{k}" for op in _TESTER_OPS for k in phases.KINDS if not (op == "state_bits" and k == "exact")],
    "cli.build_tester_factory",
    "cli.run_experiment",
]
# Values read off a layer's result: span -> [(metric, getter)]; each
# metric reports the mean over calls.
_OBSERVED = {
    "automata.minimize": [("automata.dfa_states", lambda dfa: dfa.n_states)],
    "analysis.analyze": [
        ("analysis.uniform_states", lambda analyzed: analyzed.rdfa.n_states),
        ("analysis.g", lambda analyzed: analyzed.g),
        ("analysis.t", lambda analyzed: analyzed.t),
    ],
    "testers_rand.path_descriptions": [("testers_rand.partials", len)],
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names: list[tuple[str, str]] = []
    for _m, _a, span in _LAYER_FUNCTIONS:
        if span == "oracle.distance":
            names += [("oracle.distance_ms", "ms"), ("oracle.calls", "count")]
        else:
            names += [(f"{span}_ms", "ms"), (f"{span}_calls", "count")]
    names += [("automata.dfa_states", "count"), ("analysis.uniform_states", "count"), ("analysis.g", "count"),
              ("analysis.t", "count"), ("analysis.state_limit_failures", "count"), ("testers_rand.partials", "count")]
    for k in phases.KINDS:
        names += [(f"tester.construct_ms.{k}", "ms"), (f"tester.construct_calls.{k}", "count"),
                  (f"tester.feed_us.{k}", "us"), (f"tester.feed_calls.{k}", "count"), (f"tester.decide_us.{k}", "us")]
    for k in phases.EXPERIMENT_KINDS:
        names += [(f"tester.state_bits_us.{k}", "us"), (f"tester.state_bits_calls.{k}", "count"),
                  (f"tester.fallback_share.{k}", "share")]
    names += [("cli.build_tester_factory_ms", "ms"), ("cli.build_tester_factory_calls", "count"),
              ("cli.run_experiment_ms", "ms"), ("cli.run_experiment_calls", "count")]
    names += [(f"share.{span}", "share") for span in _SPAN_NAMES] + [("share.bench", "share")]
    names += [(f"share.group.{g}", "share") for g in _GROUPS]
    names += [("trace.overhead_s", "s"), ("trace.overhead_share", "share"), ("trace.spans", "count")]
    names += [("bench.reference_ms", "ms")]  # per-layer times are raw; this gives the machine's speed
    names += [(f"montecarlo.share.{g}", "share") for g in _GROUPS]
    names += [("montecarlo.one_sided.compile_share", "share"), ("montecarlo.one_sided.state_bits_share", "share")]
    names += [("tester.construct_ms.two-sided.n4096", "ms")]
    for e in phases.SPACE_EXPONENTS:
        names += [(f"space.bits.{k}.n{e}", "bits") for k in phases.EXPERIMENT_KINDS]
        names += [(f"space.log2_n.n{e}", "bits"), (f"space.log2_log2_n.n{e}", "bits")]
    return names


# Span-name prefixes summed into the shares that test the per-workload split.
_GROUPS = {
    "feed_decide": ("tester.feed.", "tester.decide."),
    "construct": ("tester.construct.",),
    "state_bits": ("tester.state_bits.",),
    "oracle": ("oracle.",),
    "automata_analysis": ("automata.", "analysis.", "testers_rand."),
}


def make_inputs(workload: str, seed: int) -> dict:
    w = WORKLOADS[workload]
    return {
        "workload": workload,
        "stream": gen.stream_inputs(seed, w.stream_n),
        "montecarlo": gen.montecarlo_inputs(seed, w.mc_groups),
        "compile": gen.compile_inputs(seed, w.compile_dfas, w.compile_family_stride),
    }


class Bench:
    """The three phases of one workload, set up on construction."""

    def __init__(self, workload: str, inputs: dict, ctx: phases.Context):
        self.w = WORKLOADS[workload]
        self.reference = phases.Reference()
        self.stream = phases.StreamPhase(ctx, inputs["stream"])
        self.montecarlo = phases.MonteCarloPhase(ctx, inputs["montecarlo"])
        self.compile = phases.CompilePhase(ctx, inputs["compile"])

    def tasks(self) -> list[phases.Task]:
        """Every phase's tasks, each with its weight's part of its phase's share."""
        out = []
        for phase, share in (
            (self.stream, self.w.stream_share),
            (self.montecarlo, self.w.mc_share),
            (self.compile, self.w.compile_share),
        ):
            tasks = phase.tasks()
            total = sum(task.weight for task in tasks)
            for task in tasks:
                task.share = share * task.weight / total
            out += tasks
        (reference,) = self.reference.tasks()
        reference.share = REFERENCE_SHARE
        return out + [reference]

    def finish(self) -> list[tuple[str, str, str, int, str]]:
        self.stream.finish()
        self.montecarlo.finish()
        return [("stream", *e) for e in self.stream.effective()] + [
            ("montecarlo", *e) for e in self.montecarlo.effective()
        ]


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # one clock for parent and child


def setup_child(workload: str, seed: int) -> None:
    """Entry point of a set-up probe process: import, generate inputs,
    set up every phase, print the clock, then time the reference loop."""
    Bench(workload, make_inputs(workload, seed), phases.Context())
    done = _monotonic()
    reference = phases.Reference()
    for _ in range(phases.REFERENCE_UNITS):
        reference.measure()
    print(repr(done), repr(stats.median(reference.python_s)), flush=True)


def measure_setup(root: Path, workload: str, seed: int) -> list[tuple[float, float]]:
    """Seconds from the start of a fresh interpreter to the end of set-up,
    with the reference loop's time in that process, once per probe
    process, run one after another."""
    code = (
        "import sys; "
        f"sys.path[:0] = [{str(root)!r}, {str(root / 'src')!r}]; "
        "from perfbench import harness; "
        f"harness.setup_child({workload!r}, {seed!r})"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        started = _monotonic()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=150, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        ended, reference_s = (float(x) for x in done.stdout.split()[-2:])
        samples.append((ended - started, reference_s))
    return samples


def _hash_checks(workload: str, seed: int, gate: phases.Gate) -> str:
    digest = gen.input_hash(make_inputs(workload, seed))
    gate.check(gen.input_hash(make_inputs(workload, seed)) == digest, "same seed gave different inputs")
    gate.check(gen.input_hash(make_inputs(workload, seed + 1)) != digest, "another seed gave the same inputs")
    return digest


# --- end-to-end run ------------------------------------------------------------


def run_untraced(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[str], phases.Gate]:
    setup = measure_setup(root, workload, seed)
    ctx = phases.Context()
    digest = _hash_checks(workload, seed, ctx.gate)
    bench = Bench(workload, make_inputs(workload, seed), ctx)
    phases.schedule(bench.tasks(), seconds)
    effective = bench.finish()
    # speed < 1: the machine ran slower than the reference speed.  The
    # metrics use the loop samples next to each unit; the run's medians are
    # printed to show the speed the run saw.
    python_ms = stats.median(bench.reference.python_s) * 1e3
    rng_ms = stats.median(bench.reference.rng_s) * 1e3
    python_speed = PYTHON_REFERENCE_S * 1e3 / python_ms
    rng_speed = RNG_REFERENCE_S * 1e3 / rng_ms

    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (stats.median([s * PYTHON_REFERENCE_S / ref for s, ref in setup]), "s"),
    }
    lines = [
        f"workload {workload}  seed {seed}  inputs {digest}  why: {WORKLOADS[workload].why}",
        f"reference loops over {len(bench.reference.python_s)} runs: Python {python_ms:.4f} ms "
        f"(speed {python_speed:.4f}), NumPy generators {rng_ms:.4f} ms (speed {rng_speed:.4f}, two-sided); "
        "figures at reference speed, raw figures in brackets",
        "setup_s samples (raw s, reference ms): " + " ".join(f"({s:.3f}, {ref * 1e3:.3f})" for s, ref in setup),
    ]

    stream = bench.stream.results(bench.reference)
    for kind in phases.KINDS:
        r = stream[kind]
        rate = r["symbols_per_ref"] / REFERENCE_S[r["loop"]]
        metrics[f"symbols_per_s.{kind}"] = (rate, "symbols/s")
        steps = r["step_us"]
        tail = stats.tail_percentile(steps)
        line = (
            f"stream {kind}: rounds {r['rounds']} symbols/s {rate:.6g} "
            f"[{r['symbols_per_s']:.6g}] raw step p50 {stats.median(steps):.3f} us ({len(steps)} samples)"
        )
        if tail:
            line += f" p{tail[0]:g} {tail[1]:.3f} us"
        if kind != "exact":
            p99_us = r["step_p99_ref"] * REFERENCE_S[r["loop"]] * 1e6
            metrics[f"symbol_us_p99.{kind}"] = (p99_us, "us")
            line += (
                f" median round p99 {p99_us:.3f} us [{r['step_us_p99']:.3f}] "
                f"(raw, all steps {stats.percentile(steps, 99.0):.3f})"
            )
        lines.append(line)

    mc = bench.montecarlo.results(bench.reference)
    for kind in phases.EXPERIMENT_KINDS:
        r = mc[kind]
        rate = r["trials_per_ref"] / REFERENCE_S[r["loop"]]
        metrics[f"trials_per_s.{kind}"] = (rate, "trials/s")
        metrics[f"state_bits.{kind}"] = (float(r["state_bits"]), "bits")
        lines.append(
            f"montecarlo {kind}: trials/s {rate:.6g} [{r['trials_per_s']:.6g}] "
            f"experiments {r['experiments']} calls {r['calls']} state_bits {r['state_bits']} at n={r['largest_n']}"
        )

    comp = bench.compile.results(bench.reference)
    p50_ms = comp["p50_ref"] * PYTHON_REFERENCE_S * 1e3
    p90_ms = comp["p90_ref"] * PYTHON_REFERENCE_S * 1e3
    metrics["compile_ms_p50"] = (p50_ms, "ms")
    metrics["compile_ms_p90"] = (p90_ms, "ms")
    lines.append(
        f"compile: p50 {p50_ms:.4g} ms [{comp['p50_ms']:.4g}] "
        f"p90 {p90_ms:.4g} ms "
        f"[{comp['p90_ms']:.4g}] languages {comp['languages']} passes {comp['passes']} "
        f"refused {comp['refused']} failed {comp['failed']} (+inf in the percentiles)"
    )
    lines.append("refused: " + "; ".join(comp["refused_labels"]))
    lines += [f"effective {workload} {phase} {lang} {kind} n={n}: {desc}" for phase, lang, kind, n, desc in effective]
    return metrics, lines, ctx.gate


# --- traced run ------------------------------------------------------------------


def _instrumentation(tracer: Tracer) -> Instrumentation:
    limit = automata.StateLimitExceeded
    wrappers = {}
    for module, attr, span in _LAYER_FUNCTIONS:
        fn = getattr(module, attr)
        observe = None
        if span in _OBSERVED:
            def observe(tr, result, getters=_OBSERVED[span]):
                for key, get in getters:
                    tr.observe(key, get(result))
        wrappers[fn] = traced(tracer, span, fn, limit, observe, materialize=span == "streams.generate")
    wrappers[cli.build_tester_factory] = _traced_factory_builder(tracer, cli.build_tester_factory, limit)
    modules = [regwin, automata, analysis, cli, oracle, streams, testers_det, testers_rand]
    return Instrumentation(modules, wrappers)


def _traced_factory_builder(tracer: Tracer, build, limit):
    """``cli.build_tester_factory`` whose factories record a construct span
    and the fallback outcome, and return span-recording proxies."""
    traced_build = traced(tracer, "cli.build_tester_factory", build, limit)

    def build_tester_factory(kind, language, n, eps):
        factory = traced_build(kind, language, n, eps)
        construct = tracer.name_id(f"tester.construct.{kind}")

        def traced_factory(rng):
            if not tracer.enabled:
                return factory(rng)
            idx = tracer.open(construct)
            try:
                tester = factory(rng)
            except BaseException:
                tracer.close(idx, STATUS_ERROR)
                raise
            tracer.close(idx)
            if kind != "exact":
                tracer.observe(f"tester.fallback.{kind}", phases.is_fallback(kind, tester))
            return TracedTester(tester, tracer, kind)

        return traced_factory

    return build_tester_factory


def _layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    trace = np.frombuffer(tracer.trace, dtype=np.int32)
    status = np.frombuffer(tracer.status, dtype=np.int8)
    dur, own = self_times(tracer.start, tracer.end, parent)
    calls = np.bincount(name, minlength=len(tracer.names))
    total = np.bincount(name, weights=dur, minlength=len(tracer.names))
    self_total = np.bincount(name, weights=own, minlength=len(tracer.names))
    ids = {n: i for i, n in enumerate(tracer.names)}

    def per_call(span: str, scale: float) -> float:
        i = ids.get(span)
        return float(total[i] / calls[i] * scale) if i is not None and calls[i] else 0.0

    def count(span: str) -> float:
        i = ids.get(span)
        return float(calls[i]) if i is not None else 0.0

    def mean_value(key: str) -> float:
        values = tracer.values.get(key)
        return float(np.mean(values)) if values else 0.0

    out: dict[str, float] = {}
    for _m, _a, span in _LAYER_FUNCTIONS:
        if span == "oracle.distance":
            out["oracle.distance_ms"] = per_call(span, 1e3)
            out["oracle.calls"] = count(span)
        else:
            out[f"{span}_ms"] = per_call(span, 1e3)
            out[f"{span}_calls"] = count(span)
    for key, _get in (pair for getters in _OBSERVED.values() for pair in getters):
        out[key] = mean_value(key)
    # A refusal is counted where it was raised: a limit span with no limit child.
    limited = status == STATUS_LIMIT
    has_limited_child = np.zeros(len(name), dtype=bool)
    has_limited_child[parent[limited & (parent >= 0)]] = True
    analysis_ids = [i for n, i in ids.items() if n.startswith("analysis.")]
    out["analysis.state_limit_failures"] = float(np.sum(limited & ~has_limited_child & np.isin(name, analysis_ids)))
    for k in phases.KINDS:
        out[f"tester.construct_ms.{k}"] = per_call(f"tester.construct.{k}", 1e3)
        out[f"tester.construct_calls.{k}"] = count(f"tester.construct.{k}")
        out[f"tester.feed_us.{k}"] = per_call(f"tester.feed.{k}", 1e6)
        out[f"tester.feed_calls.{k}"] = count(f"tester.feed.{k}")
        out[f"tester.decide_us.{k}"] = per_call(f"tester.decide.{k}", 1e6)
    for k in phases.EXPERIMENT_KINDS:
        out[f"tester.state_bits_us.{k}"] = per_call(f"tester.state_bits.{k}", 1e6)
        out[f"tester.state_bits_calls.{k}"] = count(f"tester.state_bits.{k}")
        out[f"tester.fallback_share.{k}"] = mean_value(f"tester.fallback.{k}")
    for span in ("cli.build_tester_factory", "cli.run_experiment"):
        out[f"{span}_ms"] = per_call(span, 1e3)
        out[f"{span}_calls"] = count(span)

    covered = 0.0
    for span in _SPAN_NAMES:
        i = ids.get(span)
        share = float(self_total[i] / wall_s) if i is not None else 0.0
        out[f"share.{span}"] = share
        covered += share
    out["share.bench"] = 1.0 - covered
    for group, prefixes in _GROUPS.items():
        out[f"share.group.{group}"] = sum(
            float(self_total[i]) for n, i in ids.items() if n.startswith(prefixes)
        ) / wall_s

    # Inside the run_experiment calls: each group's self time as a share of
    # the calls' time, over all kinds and for one-sided alone (per-trial
    # compile = automata/analysis/path descriptions under a construct span).
    experiment = name == ids.get("cli.run_experiment", -1)
    in_experiment = np.isin(trace, list(tracer.trace_tags))
    construct_ids = [i for n, i in ids.items() if n.startswith("tester.construct.")]
    under_construct = nearest_ancestor(parent, np.isin(name, construct_ids)) >= 0
    experiment_s = float(dur[experiment].sum())
    for group, prefixes in _GROUPS.items():
        group_ids = [i for n, i in ids.items() if n.startswith(prefixes)]
        share = float(own[in_experiment & np.isin(name, group_ids)].sum())
        out[f"montecarlo.share.{group}"] = share / experiment_s if experiment_s else 0.0
    one_sided = np.isin(trace, [t for t, kind in tracer.trace_tags.items() if kind == "one-sided"])
    one_sided_s = float(dur[one_sided & experiment].sum())
    compile_ids = [i for n, i in ids.items() if n.startswith(_GROUPS["automata_analysis"])]
    compile_s = float(own[one_sided & under_construct & np.isin(name, compile_ids)].sum())
    bits_s = float(dur[one_sided & (name == ids.get("tester.state_bits.one-sided", -1))].sum())
    out["montecarlo.one_sided.compile_share"] = compile_s / one_sided_s if one_sided_s else 0.0
    out["montecarlo.one_sided.state_bits_share"] = bits_s / one_sided_s if one_sided_s else 0.0
    out["trace.spans"] = float(len(name))
    return out


def run_traced(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[str], phases.Gate]:
    budget = seconds * TRACE_PASS_SHARE
    # Pass A, untraced: set-up plus the phases for the budget.
    ctx_a = phases.Context()
    digest = _hash_checks(workload, seed, ctx_a.gate)
    started = time.perf_counter()
    bench = Bench(workload, make_inputs(workload, seed), ctx_a)
    order = phases.schedule(bench.tasks(), budget)
    wall_a = time.perf_counter() - started - ctx_a.check_s
    effective = bench.finish()
    del bench

    # Pass B, traced: the same set-up and exactly the same rounds.
    tracer = Tracer()
    ctx_b = phases.Context(tracer)
    with _instrumentation(tracer):
        started = time.perf_counter()
        bench = Bench(workload, make_inputs(workload, seed), ctx_b)
        phases.replay(bench.tasks(), order)
        wall_b = time.perf_counter() - started - ctx_b.check_s
        bench.finish()
    reference_ms = stats.median(bench.reference.python_s) * 1e3
    del bench

    layer = _layer_metrics(tracer, wall_b)
    layer["trace.overhead_s"] = wall_b - wall_a
    layer["trace.overhead_share"] = (wall_b - wall_a) / wall_a
    layer["bench.reference_ms"] = reference_ms
    layer.update(phases.space_probe(seed))

    out_dir = root / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-{seed}.npz"
    tracer.dump(str(spans_path))

    units = dict(per_layer_metric_names())
    metrics = {k: (layer[k], units[k]) for k in units}
    lines = [
        f"workload {workload}  seed {seed}  inputs {digest}  traced",
        f"untraced wall {wall_a:.3f} s  traced wall {wall_b:.3f} s  spans {len(tracer)} -> {spans_path.relative_to(root)}",
        f"units {len(order)}",
    ]
    for k in sorted(metrics):
        if k.startswith("share.") and metrics[k][0] >= 0.01:
            lines.append(f"{k} {metrics[k][0]:.3f}")
    lines += [f"effective {workload} {phase} {lang} {kind} n={n}: {desc}" for phase, lang, kind, n, desc in effective]
    # Both passes are real runs: the gate counts the operations and checks of both.
    gate = ctx_a.gate
    gate.attempted += ctx_b.gate.attempted
    gate.failed += ctx_b.gate.failed
    gate.refused += ctx_b.gate.refused
    gate.notes += ctx_b.gate.notes
    return metrics, lines, gate


def main(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> int:
    run = run_traced if trace else run_untraced
    metrics, lines, gate = run(root, workload, seed, seconds)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"gate: attempted {gate.attempted} failed {gate.failed} refused {gate.refused}")
    for note in gate.notes:
        print(f"FAILED {note}")
    expected = dict(per_layer_metric_names()) if trace else dict(END_TO_END)
    missing = sorted(set(expected) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        # A percentile that reaches a failed operation is +inf (JSON "Infinity").
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in expected.items()},
    }
    print(json.dumps(result))
    return 0
