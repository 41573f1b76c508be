"""Live progress events emitted by the refutation driver.

Every scheduling decision and every finished edge job produces one event,
handed to the driver's one sink, a plain callable (``on_event``): the CLI
attaches a :class:`ProgressPrinter` for live terminal output, and tests
attach ``list.append``. Events are immutable dataclasses.

The driver emits under a lock: concurrent serve requests share one
driver, but the sink observes a single, totally-ordered stream.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

from ..obs import trace

Event = object
EventSink = Callable[[Event], None]


@dataclass(frozen=True)
class RunStarted:
    """A batch of edge-refutation jobs is about to be scheduled."""

    total_jobs: int
    jobs: int  # worker count
    backend: str  # "serial" | "process"
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
    worker: str  # e.g. "serial", "process-3"
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


class ProgressPrinter:
    """An :class:`EventSink` rendering one line per finished edge::

        [  3/ 17] refuted    Vec.table -> activity0  (0.04s, 12 pp, process-41)

    Attach with ``RefutationDriver(..., on_event=ProgressPrinter())``.
    When a tracer is installed, each ``RunFinished`` is followed by a
    ``phases:`` line: the tracer's per-span-name seconds since the first
    ``RunStarted`` this printer saw.
    """

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream or sys.stderr
        #: The tracer's phase totals at the first RunStarted.
        self._phase_base: Optional[dict[str, float]] = None

    def __call__(self, event: Event) -> None:
        if isinstance(event, RunStarted):
            tracer = trace.get_tracer()
            if self._phase_base is None and tracer is not None:
                self._phase_base = tracer.phase_totals()
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
            tracer = trace.get_tracer()
            phases = (
                tracer.phase_totals(since=self._phase_base)
                if tracer is not None and self._phase_base is not None
                else None
            )
            if phases:
                top = sorted(phases.items(), key=lambda kv: -kv[1])[:6]
                breakdown = ", ".join(f"{n} {s:.2f}s" for n, s in top)
                print(f"phases: {breakdown}", file=self.stream)
