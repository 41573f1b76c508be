"""Hierarchical span tracing with a near-zero-cost disabled default.

The refutation pipeline is instrumented with *spans* — named, timed,
nested intervals::

    from repro.obs import trace

    with trace.span("executor.search", edge=str(edge)):
        ...

By default no tracer is installed and ``trace.span(...)`` returns a shared
no-op context manager: the only cost at every instrumentation point is one
function call and an attribute check, so the hot paths stay hot (the
``benchmarks/obs_overhead.py`` guard keeps it honest).

Installing a :class:`Tracer` (the CLI does this for ``--trace FILE``)
turns every span into a *Chrome trace event*: the export of
:meth:`Tracer.to_chrome_trace` loads directly in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_, showing the per-phase breakdown of
a run — driver jobs, backwards searches, loop-invariant inference, solver
calls — one lane per worker thread.

Span identity is thread-aware: each thread keeps its own span stack, so
spans opened by driver worker threads nest under that worker's lane, never
under another thread's open span. Sinks subscribed with
:meth:`Tracer.add_sink` observe every finished span (the refutation
driver forwards them onto its :class:`~repro.engine.events.EventBus`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Optional

#: The span/metric naming scheme (see docs/observability.md): dotted,
#: ``<layer>.<operation>`` — e.g. ``driver.job``, ``executor.search``,
#: ``solver.check_sat``, ``pointsto.solve``.

SpanSink = Callable[["SpanRecord"], None]


class SpanRecord:
    """One finished span: the unit handed to sinks and the trace export."""

    __slots__ = ("name", "start", "duration", "thread_id", "thread_name",
                 "span_id", "parent_id", "attrs", "pid", "kind")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        thread_id: int,
        thread_name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: dict,
        pid: Optional[int] = None,
        kind: str = "span",
    ) -> None:
        self.name = name
        self.start = start  # seconds since the tracer's epoch
        self.duration = duration  # seconds
        self.thread_id = thread_id  # small per-tracer ordinal, not get_ident()
        self.thread_name = thread_name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        #: Originating process, set only on spans absorbed from a worker
        #: process; None means "this process".
        self.pid = pid
        #: ``"span"`` (a timed interval) or ``"instant"`` (a point event —
        #: rung escalations; Chrome ``ph: i``).
        self.kind = kind

    def to_chrome_event(self, pid: int) -> dict:
        """A Chrome trace event, microseconds: 'complete' (``ph: X``) for
        spans, thread-scoped 'instant' (``ph: i``) for point events."""
        args = dict(self.attrs)
        args["span_id"] = self.span_id
        if self.parent_id is not None:
            args["parent_id"] = self.parent_id
        event = {
            "name": self.name,
            "cat": self.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(self.start * 1e6, 3),
            "dur": round(self.duration * 1e6, 3),
            "pid": self.pid if self.pid is not None else pid,
            "tid": self.thread_id,
            "args": args,
        }
        if self.kind == "instant":
            event["ph"] = "i"
            event["s"] = "t"  # scope: the emitting worker's thread lane
            del event["dur"]
        return event

    def to_dict(self) -> dict:
        """Plain-data form for shipping across a process boundary."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
            "kind": self.kind,
        }


class _NoopSpan:
    """The shared do-nothing context manager returned when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs) -> None:
        """Attribute updates on a disabled span are dropped."""


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "_state", "name", "attrs", "span_id", "parent_id",
                 "_start")

    def __init__(self, tracer: "Tracer", state: "_ThreadState", name: str,
                 attrs: dict) -> None:
        self._tracer = tracer
        self._state = state
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes after the span opened (e.g. the verdict)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        state = self._state
        self.span_id = self._tracer._next_id()
        self.parent_id = state.stack[-1] if state.stack else None
        state.stack.append(self.span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        state = self._state
        if state.stack and state.stack[-1] == self.span_id:
            state.stack.pop()
        self._tracer._record(
            SpanRecord(
                name=self.name,
                start=self._start - self._tracer.epoch,
                duration=end - self._start,
                thread_id=state.ordinal,
                thread_name=state.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                attrs=self.attrs,
            )
        )


class _ThreadState(threading.local):
    """Per-thread span stack plus a stable small ordinal for trace lanes."""

    def __init__(self) -> None:  # called once per thread by threading.local
        self.stack: list[int] = []
        self.ordinal = -1
        self.name = ""


class Tracer:
    """Collects spans; exports Chrome trace-event JSON.

    Parameters
    ----------
    max_spans:
        Retention cap: beyond it, finished spans are counted but dropped
        (``dropped_spans``) so a pathological run cannot exhaust memory.
        Sinks still observe every span.
    """

    def __init__(self, max_spans: int = 500_000) -> None:
        self.epoch = time.perf_counter()
        #: Wall-clock time of the epoch: ``perf_counter`` epochs are
        #: per-process, so merging worker spans rebases through this.
        self.wall_epoch = time.time()
        self.max_spans = max_spans
        self.dropped_spans = 0
        self._records: list[SpanRecord] = []
        self._sinks: list[SpanSink] = []
        self._lock = threading.Lock()
        self._id_counter = 0
        self._thread_counter = 0
        self._tls = _ThreadState()

    # -- span creation ------------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        state = self._tls
        if state.ordinal < 0:
            with self._lock:
                state.ordinal = self._thread_counter
                self._thread_counter += 1
            state.name = threading.current_thread().name
        return _Span(self, state, name, attrs)

    def _next_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            return self._id_counter

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration point event in the calling thread's lane
        (Chrome ``ph: i``): rung escalations. Routes
        through :meth:`_record`, so sinks observe it — sinks that roll up
        durations must skip ``kind == "instant"`` records."""
        state = self._tls
        if state.ordinal < 0:
            with self._lock:
                state.ordinal = self._thread_counter
                self._thread_counter += 1
            state.name = threading.current_thread().name
        self._record(
            SpanRecord(
                name=name,
                start=time.perf_counter() - self.epoch,
                duration=0.0,
                thread_id=state.ordinal,
                thread_name=state.name,
                span_id=self._next_id(),
                parent_id=state.stack[-1] if state.stack else None,
                attrs=attrs,
                kind="instant",
            )
        )

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self._records) < self.max_spans:
                self._records.append(record)
            else:
                self.dropped_spans += 1
            sinks = list(self._sinks)
        for sink in sinks:
            sink(record)

    # -- sinks --------------------------------------------------------------

    def add_sink(self, sink: SpanSink) -> None:
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: SpanSink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    # -- introspection / export --------------------------------------------

    def spans(self) -> list[SpanRecord]:
        with self._lock:
            return list(self._records)

    def drain(self) -> list[SpanRecord]:
        """Hand over (and clear) the retained spans — a worker process
        calls this after each job so spans ship to the parent exactly
        once."""
        with self._lock:
            out = self._records
            self._records = []
        return out

    def absorb(
        self, span_dicts: list[dict], pid: int, wall_epoch: float
    ) -> None:
        """Merge spans drained from a worker process (``SpanRecord.to_dict``
        rows) into this tracer.

        Start times are rebased from the worker's epoch onto ours via the
        wall clock, span ids are remapped through this tracer's counter so
        they stay unique, and records keep the worker ``pid`` so the
        Chrome export shows one process row per worker. Parent links that
        point outside the batch (a span whose parent shipped in an earlier
        drain) are cut rather than left dangling. Absorbed spans route
        through :meth:`_record`, so sinks observe them like local spans."""
        offset = wall_epoch - self.wall_epoch
        remap: dict[int, int] = {}
        for row in span_dicts:
            remap[row["span_id"]] = self._next_id()
        for row in span_dicts:
            self._record(
                SpanRecord(
                    name=row["name"],
                    start=row["start"] + offset,
                    duration=row["duration"],
                    thread_id=row["thread_id"],
                    thread_name=row["thread_name"],
                    span_id=remap[row["span_id"]],
                    parent_id=remap.get(row["parent_id"]),
                    attrs=row.get("attrs", {}),
                    pid=pid,
                    kind=row.get("kind", "span"),
                )
            )

    def phase_totals(self) -> dict[str, float]:
        """Summed seconds per span name — the per-phase timing rollup."""
        totals: dict[str, float] = {}
        for record in self.spans():
            if record.kind == "instant":
                continue
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
        return totals

    def to_chrome_trace(self) -> dict:
        pid = os.getpid()
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro refutation pipeline"},
            }
        ]
        records = self.spans()
        worker_pids: list[int] = sorted(
            {r.pid for r in records if r.pid is not None and r.pid != pid}
        )
        for wpid in worker_pids:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": wpid,
                    "tid": 0,
                    "args": {"name": f"repro worker {wpid}"},
                }
            )
        seen_threads: dict[tuple[int, int], str] = {}
        for record in records:
            rpid = record.pid if record.pid is not None else pid
            seen_threads.setdefault((rpid, record.thread_id), record.thread_name)
        for (rpid, tid), name in sorted(seen_threads.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": rpid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        events.extend(r.to_chrome_event(pid) for r in records)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped_spans},
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1, sort_keys=True)
            fh.write("\n")


class _DisabledTracer:
    """The default: every span request returns the shared no-op span."""

    __slots__ = ()

    def span(self, name: str, **attrs) -> _NoopSpan:
        return _NOOP_SPAN

    def instant(self, name: str, **attrs) -> None:
        return None


_DISABLED = _DisabledTracer()
_active: object = _DISABLED


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Make ``tracer`` (or a fresh one) the process-wide active tracer."""
    global _active
    tracer = tracer or Tracer()
    _active = tracer
    return tracer


def disable() -> None:
    """Return to the no-op default."""
    global _active
    _active = _DISABLED


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or None when tracing is disabled."""
    return _active if isinstance(_active, Tracer) else None


def enabled() -> bool:
    return _active is not _DISABLED


def span(name: str, **attrs):
    """Open a span on the active tracer (no-op when tracing is disabled)."""
    return _active.span(name, **attrs)


def instant(name: str, **attrs) -> None:
    """Record a point event on the active tracer (no-op when disabled)."""
    _active.instant(name, **attrs)
