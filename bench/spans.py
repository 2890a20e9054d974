"""In-memory span tracer for the benchmark harness.

A span records name, start, end, parent and thread.  Spans are opened around
calls into the library's modules by wrappers that the harness installs on
module attributes (see :func:`patched`), kept in memory, and written out when
the run ends.  Functions called once per quadrature node or per time step are
aggregated instead -- a call count plus total time -- so that tracing them
costs two clock reads, not a span object.

Self time is a span's duration minus the part of its interval covered by its
child spans, minus the time of aggregated calls made directly under it.
Aggregated functions must not call each other: their time is charged to the
innermost open span only.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = float("nan")
    agg_child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    """Per-thread open-span stack and accumulators; merged when read."""

    def __init__(self):
        self.stack = []
        self.aggregates = defaultdict(lambda: [0, 0.0])
        self.counters = defaultdict(float)
        self.maxima = {}


class Tracer:
    """Collects spans, aggregated calls and counters from any thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = self._state().stack
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None):
        """Open a span; its parent is ``parent`` or this thread's open span."""
        state = self._state()
        if parent is None and state.stack:
            parent = state.stack[-1]
        sp = Span(next(self._ids), name, parent.id if parent else None,
                  threading.get_ident(), self.clock())
        state.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            state.stack.pop()
            self.spans.append(sp)

    def count(self, name: str, value: float) -> None:
        self._state().counters[name] += value

    def note_max(self, name: str, value: float) -> None:
        maxima = self._state().maxima
        maxima[name] = max(maxima.get(name, value), value)

    def _record(self, counts, args, kwargs, out) -> None:
        if counts is not None:
            for name, value in counts(args, kwargs, out):
                self.count(name, value)

    def wrap_span(self, name: str, fn, counts=None):
        """``fn`` with a span around every call.

        ``counts(args, kwargs, result)`` yields (counter, increment) pairs.
        """
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._record(counts, args, kwargs, out)
            return out
        return traced

    def wrap_aggregate(self, name: str, fn, counts=None):
        """``fn`` timed into a per-name call count and total, without spans."""
        clock = self.clock

        def timed(*args, **kwargs):
            state = self._state()
            t0 = clock()
            out = fn(*args, **kwargs)
            dt = clock() - t0
            agg = state.aggregates[name]
            agg[0] += 1
            agg[1] += dt
            if state.stack:
                state.stack[-1].agg_child_s += dt
            self._record(counts, args, kwargs, out)
            return out
        return timed

    def aggregates(self) -> dict:
        """name -> (calls, seconds), summed over threads."""
        out = defaultdict(lambda: [0, 0.0])
        for state in self._states:
            for name, (calls, secs) in state.aggregates.items():
                out[name][0] += calls
                out[name][1] += secs
        return {name: tuple(v) for name, v in out.items()}

    def counters(self) -> dict:
        out = defaultdict(float)
        for state in self._states:
            for name, value in state.counters.items():
                out[name] += value
        for state in self._states:
            for name, value in state.maxima.items():
                out[name] = max(out.get(name, value), value)
        return dict(out)

    def to_json_dict(self) -> dict:
        return {"spans": [asdict(sp) for sp in self.spans],
                "aggregates": {k: {"calls": c, "s": s}
                               for k, (c, s) in self.aggregates().items()},
                "counters": self.counters()}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict:
    """span id -> duration minus child-covered time and aggregated calls."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.id: sp.duration - covered(children[sp.id], sp.start, sp.end)
            - sp.agg_child_s for sp in spans}


def layer_self_times(tracer: Tracer) -> dict:
    """layer -> self seconds; the layer is a name's prefix before the first dot.

    Aggregated calls count whole, since nothing traced runs inside them.
    """
    out = defaultdict(float)
    selfs = self_times(tracer.spans)
    for sp in tracer.spans:
        out[sp.name.split(".", 1)[0]] += selfs[sp.id]
    for name, (_, secs) in tracer.aggregates().items():
        out[name.split(".", 1)[0]] += secs
    return dict(out)


@contextmanager
def patched(targets):
    """Set each (object, attribute, replacement) for the duration; restore after."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
