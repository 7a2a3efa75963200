"""Tests of the benchmark's own arithmetic: percentiles, the +inf rule for
failed operations, span self times, input reproducibility, the reference
samples around a unit and the interleaving of the reference loops.

    python3 -m pytest perfbench -q
"""

import math
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import inputs, spans, stats


def test_percentile_interpolates_linearly():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0) == 3.0
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert stats.percentile([10.0, 0.0], 25.0) == 2.5
    assert stats.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    q, value = stats.tail_percentile([float(i) for i in range(count)])
    assert q == expected
    assert value == stats.percentile([float(i) for i in range(count)], q)


def test_tail_percentile_needs_enough_samples():
    assert stats.tail_percentile([1.0] * 19) is None


def test_failed_operations_count_as_inf():
    ok = [float(i) for i in range(1, 96)]
    samples = stats.with_failures(ok, 5)
    assert len(samples) == 100
    assert math.isfinite(stats.percentile(samples, 50.0))
    assert math.isfinite(stats.percentile(samples, 90.0))
    assert stats.percentile(samples, 99.0) == math.inf
    # A failure share above the tail pushes the percentile to +inf.
    assert stats.percentile(stats.with_failures(ok[:85], 15), 90.0) == math.inf
    # Interpolating between a finite sample and +inf gives +inf, not nan.
    assert stats.percentile([1.0, math.inf], 50.0) == math.inf
    with pytest.raises(ValueError):
        stats.with_failures(ok, -1)


def test_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles(n=4), exclusive method: Q1 = 2.75, Q2 = 5.5, Q3 = 8.25
    assert stats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_self_time_subtracts_direct_children():
    # A [0, 10] with children B [1, 4] and C [5, 6]; D [2, 3] is a child of B.
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    dur, own = spans.self_times(start, end, parent)
    assert list(dur) == [10.0, 3.0, 1.0, 1.0]
    assert list(own) == [6.0, 2.0, 1.0, 1.0]
    # Self times of a trace add up to its root's duration.
    assert own.sum() == dur[0]


def test_tracer_records_parents_and_traces():
    tracer = spans.Tracer()
    with tracer.span("outer", tag="kind"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    with tracer.suspended():
        with tracer.span("hidden"):
            pass
    assert [tracer.names[i] for i in tracer.name] == ["outer", "inner", "next"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert list(tracer.trace) == [1, 1, 2]
    assert tracer.trace_tags == {1: "kind"}
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    dur, own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    assert own[0] == pytest.approx(dur[0] - dur[1])
    found = spans.nearest_ancestor(tracer.parent, [True, False, False])
    assert list(found) == [0, 0, -1]


def test_nearest_ancestor_walks_up_several_levels():
    # 0 -> 1 -> 2 -> 3, and 4 -> 5; targets are 1 and 4.
    parent = [-1, 0, 1, 2, -1, 4]
    target = [False, True, False, False, True, False]
    assert list(spans.nearest_ancestor(parent, target)) == [-1, 1, 1, 1, 4, 4]


def test_instrumentation_wraps_every_binding_and_restores():
    class Refused(Exception):
        pass

    def work(x):
        if x < 0:
            raise Refused
        return x * 2

    first = types.ModuleType("first")
    second = types.ModuleType("second")
    first.work = second.alias = work
    tracer = spans.Tracer()
    wrapper = spans.traced(tracer, "layer.work", work, Refused)
    with spans.Instrumentation([first, second], {work: wrapper}):
        assert first.work(2) == 4 and second.alias(3) == 6
        with pytest.raises(Refused):
            first.work(-1)
    assert first.work is work and second.alias is work
    assert len(tracer) == 3
    assert list(tracer.status) == [spans.STATUS_OK, spans.STATUS_OK, spans.STATUS_LIMIT]


def _all_inputs(seed):
    return {
        "stream": inputs.stream_inputs(seed, 256),
        "montecarlo": inputs.montecarlo_inputs(seed, ((255, 4),)),
        "compile": inputs.compile_inputs(seed, 20),
    }


def test_inputs_are_reproducible_from_the_seed():
    for part in ("stream", "montecarlo", "compile"):
        same = inputs.input_hash(_all_inputs(7)[part]), inputs.input_hash(_all_inputs(7)[part])
        assert same[0] == same[1]
        assert inputs.input_hash(_all_inputs(8)[part]) != same[0]


def test_compile_mix_keeps_the_known_limit_cases():
    items = inputs.compile_inputs(3, 20)["items"]
    regexes = {item.get("regex") for item in items}
    for case in inputs.KNOWN_LIMIT_CASES:
        assert case["regex"] in regexes


def _phases():
    """The phases module, which imports the library from ``src/``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from perfbench import phases

    return phases


def test_reference_near_averages_the_samples_around_a_moment():
    reference = _phases().Reference()
    reference.at = [1.0, 2.0, 3.0]
    reference.python_s = [10.0, 20.0, 30.0]
    reference.rng_s = [1.0, 2.0, 3.0]
    assert reference.near(2.5, "python") == 25.0
    assert reference.near(1.5, "rng") == 1.5
    assert reference.near(0.5, "python") == 10.0  # before the first sample
    assert reference.near(9.0, "python") == 30.0  # after the last sample


def test_schedule_keeps_the_companion_interleaved_and_ends():
    phases = _phases()
    work = phases.Task("work", 6, lambda: time.sleep(0.002), share=0.5)
    reference = phases.Task("reference", 1, lambda: time.sleep(0.001), share=0.25, companion=True)
    order = phases.schedule([work, reference], seconds=0.0)
    assert order.count(0) == 6
    # The companion keeps running beyond its own minimum, up to the last
    # unit of work, and stops with it.
    last_work = max(i for i, task in enumerate(order) if task == 0)
    assert order.count(1) >= 3
    assert 1 in order[last_work - 2 : last_work]
    assert order[-1] == 0
