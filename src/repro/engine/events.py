"""Live progress events emitted by the refutation driver.

Every scheduling decision and every finished edge job produces one event.
Consumers subscribe a plain callable (``on_event``) — the CLI attaches a
:class:`ProgressPrinter` for live terminal output, the reporting layer can
attach collectors, and tests attach plain lists. Events are immutable
dataclasses so they can be fanned out to several sinks safely.

Emission is serialized under a lock: worker threads finish edges
concurrently, but sinks observe a single, totally-ordered stream.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Callable, List, Optional, TextIO

Event = object
EventSink = Callable[[Event], None]


@dataclass(frozen=True)
class RunStarted:
    """A batch of edge-refutation jobs is about to be scheduled."""

    total_jobs: int
    jobs: int  # worker count
    backend: str  # "serial" | "thread" | "process"
    deadline: Optional[float] = None  # per-edge wall-clock seconds


@dataclass(frozen=True)
class EdgeScheduled:
    """One edge job was handed to the worker pool."""

    description: str  # human-readable edge / fact description
    index: int  # 0-based position within the batch
    total: int


@dataclass(frozen=True)
class EdgeEscalated:
    """One portfolio job timed out at a rung and carries over to the next
    (see :func:`repro.engine.schedule.rung_ladder`). Emitted only for
    non-final rungs — a final-rung timeout is an :class:`EdgeFinished`."""

    description: str
    rung: int  # the rung that timed out (0-based)
    next_budget: Optional[int] = None  # None = the full configured budget
    next_deadline: Optional[float] = None


@dataclass(frozen=True)
class EdgeFinished:
    """One edge job completed (in completion order, not schedule order)."""

    description: str
    status: str  # refuted | witnessed | timeout
    seconds: float
    path_programs: int
    worker: str  # e.g. "serial", "thread-0", "process-3"
    index: int
    total: int
    cached: bool = False  # served from the driver's result cache


@dataclass(frozen=True)
class RunFinished:
    """The batch completed; aggregate counts for quick consumption."""

    refuted: int
    witnessed: int
    timeouts: int
    seconds: float


@dataclass(frozen=True)
class SpanFinished:
    """One tracing span closed somewhere inside the pipeline.

    Emitted only when a tracer is installed (``--trace``): the driver
    forwards every finished span from :mod:`repro.obs.trace` onto its bus,
    which is how the progress printer and the JSON run report acquire
    per-phase timing without bespoke plumbing in each layer.
    """

    name: str  # span name, e.g. "executor.search"
    seconds: float
    thread: str  # name of the thread that ran the span
    attrs: dict


class EventBus:
    """Thread-safe fan-out of driver events to any number of sinks."""

    def __init__(self, sinks: Optional[List[EventSink]] = None) -> None:
        self._sinks: List[EventSink] = list(sinks or [])
        self._lock = threading.Lock()

    def subscribe(self, sink: EventSink) -> None:
        with self._lock:
            self._sinks.append(sink)

    def emit(self, event: Event) -> None:
        with self._lock:
            for sink in self._sinks:
                sink(event)


class ProgressPrinter:
    """An :class:`EventSink` rendering one line per finished edge::

        [  3/ 17] refuted    Vec.table -> activity0  (0.04s, 12 pp, thread-1)

    Attach with ``RefutationDriver(..., on_event=ProgressPrinter())``.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream or sys.stderr
        #: Per-phase totals accumulated from SpanFinished events (only
        #: populated when tracing is on); printed after RunFinished.
        self.phase_seconds: dict[str, float] = {}

    def __call__(self, event: Event) -> None:
        if isinstance(event, SpanFinished):
            self.phase_seconds[event.name] = (
                self.phase_seconds.get(event.name, 0.0) + event.seconds
            )
        elif isinstance(event, RunStarted):
            deadline = (
                f", deadline {event.deadline}s/edge" if event.deadline else ""
            )
            print(
                f"refuting {event.total_jobs} edge(s) on {event.jobs}"
                f" {event.backend} worker(s){deadline}",
                file=self.stream,
            )
        elif isinstance(event, EdgeFinished):
            cached = " [cached]" if event.cached else ""
            print(
                f"[{event.index + 1:3d}/{event.total:3d}]"
                f" {event.status:9s} {event.description}"
                f"  ({event.seconds:.2f}s, {event.path_programs} pp,"
                f" {event.worker}){cached}",
                file=self.stream,
            )
        elif isinstance(event, RunFinished):
            print(
                f"done: {event.refuted} refuted, {event.witnessed} witnessed,"
                f" {event.timeouts} timeout(s) in {event.seconds:.2f}s",
                file=self.stream,
            )
            if self.phase_seconds:
                top = sorted(
                    self.phase_seconds.items(), key=lambda kv: -kv[1]
                )[:6]
                breakdown = ", ".join(f"{n} {s:.2f}s" for n, s in top)
                print(f"phases: {breakdown}", file=self.stream)
