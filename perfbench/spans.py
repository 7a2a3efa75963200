"""In-memory spans recorded by the benchmark around calls into the program.

The program itself carries no tracing.  :class:`Instrumentation` swaps the
program's public layer functions for recording wrappers in every module
that binds them, and restores the originals on exit; :class:`TracedTester`
is a delegating proxy that records ``feed``, ``decide`` and
``state_bits``.  Spans live in flat typed arrays (a few tens of bytes
each) until :meth:`Tracer.dump` writes them out.

A span's self time is its duration minus the durations of its direct
children, so self times over all spans add up to the time covered by
root spans.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

import numpy as np

STATUS_OK = 0
STATUS_LIMIT = 1  # the program refused with its state-limit error
STATUS_ERROR = 2

_clock = time.perf_counter


class Tracer:
    """Span store: name, start, end, parent span and trace id per span.

    A span opened with no span open starts a new trace; its children
    share its trace id.  ``enabled`` is False while the benchmark runs its
    own checks, so wrapped calls made by checks record nothing.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.status = array("b")
        self.trace_tags: dict[int, str] = {}
        self.values: dict[str, list[float]] = {}
        self.enabled = True
        self._stack: list[int] = []
        self._traces = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        if self._stack:
            parent = self._stack[-1]
            trace = self.trace[parent]
        else:
            parent = -1
            self._traces += 1
            trace = self._traces
        self.name.append(nid)
        self.parent.append(parent)
        self.trace.append(trace)
        self.status.append(STATUS_OK)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int, status: int = STATUS_OK) -> None:
        self.end[idx] = _clock()
        self._stack.pop()
        if status:
            self.status[idx] = status

    @contextmanager
    def span(self, name: str, tag: str | None = None) -> Iterator[None]:
        """Span around a call made from benchmark code; ``tag`` labels the
        trace when the span is a root."""
        if not self.enabled:
            yield
            return
        idx = self.open(self.name_id(name))
        if tag is not None and self.parent[idx] < 0:
            self.trace_tags[self.trace[idx]] = tag
        try:
            yield
        except BaseException:
            self.close(idx, STATUS_ERROR)
            raise
        self.close(idx)

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Record nothing inside."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def observe(self, key: str, value: float) -> None:
        if self.enabled:
            self.values.setdefault(key, []).append(float(value))

    def __len__(self) -> int:
        return len(self.name)

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
            status=np.frombuffer(self.status, dtype=np.int8),
        )


def self_times(start, end, parent) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span; ``parent`` is -1 for roots."""
    start = np.asarray(start, dtype=np.float64)
    dur = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    children = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], dur[has_parent])
    return dur, dur - children


def nearest_ancestor(parent, is_target) -> np.ndarray:
    """Index of the nearest span (itself included) whose ``is_target`` is
    set, or -1."""
    parent = np.asarray(parent, dtype=np.int64)
    flags = np.asarray(is_target, dtype=bool)
    found = np.where(flags, np.arange(len(parent)), -1)
    idx = np.nonzero(~flags & (parent >= 0))[0]
    cur = parent[idx]
    while idx.size:  # one step up the tree per iteration, all spans at once
        hit = flags[cur]
        found[idx[hit]] = cur[hit]
        idx, cur = idx[~hit], parent[cur[~hit]]
        keep = cur >= 0
        idx, cur = idx[keep], cur[keep]
    return found


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    limit_error: type[BaseException],
    observe: Callable[[Tracer, object], None] | None = None,
    materialize: bool = False,
) -> Callable:
    """Wrapper recording one span per call of ``fn``.  ``materialize``
    turns a returned iterator into a list inside the span, so the span
    covers the work of a generator function."""
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
            if materialize:
                result = list(result)
        except limit_error:
            tracer.close(idx, STATUS_LIMIT)
            raise
        except BaseException:
            tracer.close(idx, STATUS_ERROR)
            raise
        tracer.close(idx)
        if observe is not None:
            observe(tracer, result)
        return result

    return wrapper


class Instrumentation:
    """Context manager that replaces each target function with its
    wrapper under every module attribute bound to it, and puts the
    originals back on exit."""

    def __init__(self, modules: Iterable[object], wrappers: dict[Callable, Callable]):
        self._modules = list(modules)
        self._wrappers = wrappers
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumentation":
        by_id = {id(fn): wrapper for fn, wrapper in self._wrappers.items()}
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()


class TracedTester:
    """Delegating tester proxy recording one span per feed, decide and
    state_bits call, named ``tester.<op>.<kind>``."""

    __slots__ = ("_inner", "_tracer", "_ids", "window_size")

    def __init__(self, inner, tracer: Tracer, kind: str):
        self._inner = inner
        self._tracer = tracer
        self._ids = tuple(tracer.name_id(f"tester.{op}.{kind}") for op in ("feed", "decide", "state_bits"))
        self.window_size = inner.window_size

    @property
    def inner(self):
        return self._inner

    def _call(self, which: int, method: Callable, *args):
        tracer = self._tracer
        if not tracer.enabled:
            return method(*args)
        idx = tracer.open(self._ids[which])
        try:
            result = method(*args)
        except BaseException:
            tracer.close(idx, STATUS_ERROR)
            raise
        tracer.close(idx)
        return result

    def feed(self, symbol: str) -> None:
        self._call(0, self._inner.feed, symbol)

    def decide(self) -> bool:
        return self._call(1, self._inner.decide)

    def state_bits(self) -> int:
        return self._call(2, self._inner.state_bits)
