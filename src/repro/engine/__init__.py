"""The parallel refutation driver: schedules independent edge-refutation
jobs over a worker pool, enforces per-edge wall-clock deadlines, and emits
structured run reports plus a live progress event stream.

This is the seam between the single-edge search engine
(:mod:`repro.symbolic`) and every client that refutes *many* edges
(:mod:`repro.android.leaks`, :mod:`repro.clients`, :mod:`repro.reporting`).
"""

from .diff import diff_reports, render_diff
from .driver import PROCESS, SERIAL, THREAD, RefutationDriver
from .events import (
    EdgeEscalated,
    EdgeFinished,
    EdgeScheduled,
    ProgressPrinter,
    RunFinished,
    RunStarted,
)
from .report import RunReport

__all__ = [
    "RefutationDriver",
    "SERIAL",
    "THREAD",
    "PROCESS",
    "EdgeEscalated",
    "EdgeFinished",
    "EdgeScheduled",
    "ProgressPrinter",
    "RunFinished",
    "RunStarted",
    "RunReport",
    "diff_reports",
    "render_diff",
]
