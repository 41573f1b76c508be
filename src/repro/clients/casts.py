"""Downcast-safety checking — one of the clients the paper's introduction
motivates ("precise heap reachability information improves ... cast
checking").

For every ``(T) x`` in the program, the flow-insensitive points-to set of
``x`` may contain abstract locations incompatible with ``T`` — a potential
``ClassCastException``. The refutation engine then asks, for each cast:
*can execution reach this cast with* ``x`` *holding an incompatible
instance?* A refutation proves the cast safe; a witness is a concrete path
program to a potential failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import RefutationDriver
from ..ir import instructions as ins
from ..pointsto import PointsToResult
from ..pointsto.graph import AbsLoc
from ..symbolic import SearchConfig
from ..symbolic.stats import REFUTED, WITNESSED
from .reachability import _driver_for
from .result import AnalysisResult, AnalysisStats, make_result

SAFE = "safe"
POSSIBLY_UNSAFE = "possibly-unsafe"
UNKNOWN = "unknown"  # search timed out


@dataclass
class CastReport:
    label: int
    method: str
    cast: ins.CastCmd
    #: Incompatible abstract locations per the points-to analysis.
    suspects: frozenset
    status: str  # safe | possibly-unsafe | unknown
    path_programs: int = 0
    witness_trace: Optional[list[int]] = None

    def __str__(self) -> str:
        return f"({self.cast.class_name}) {self.cast.src} in {self.method}: {self.status}"


def _check_casts(
    pta: PointsToResult, driver: RefutationDriver
) -> list[CastReport]:
    """Check every reachable cast in the program.

    Each suspicious cast is an independent fact-refutation query, and the
    driver runs them as one batch (over its process pool under ``jobs >
    1, backend="process"``). Reports come back in program order."""
    table = pta.program.class_table
    reports: list[Optional[CastReport]] = []
    # First pass: classify trivially-safe casts, collect the rest as jobs.
    jobs_to_run: list[tuple] = []  # (report index, cmd, qname, suspects)
    for qname in sorted(pta.call_graph.reachable_methods):
        method = pta.program.methods.get(qname)
        if method is None:
            continue
        for cmd in pta.program.commands_of(qname):
            if not isinstance(cmd, ins.CastCmd):
                continue
            suspects = frozenset(
                loc
                for loc in pta.pt_local(qname, cmd.src)
                if not table.site_is_instance(loc.site, cmd.class_name)
            )
            if not suspects:
                reports.append(
                    CastReport(cmd.label, qname, cmd, suspects, SAFE)
                )
                continue
            jobs_to_run.append((len(reports), cmd, qname, suspects))
            reports.append(None)
    # Second pass: run the batch and fill reports back in program order.
    results = driver.refute_facts(
        [
            (
                cmd.label,
                [(cmd.src, suspects)],
                f"cast@L{cmd.label} ({cmd.class_name}) {cmd.src} in {qname}",
            )
            for _, cmd, qname, suspects in jobs_to_run
        ]
    )
    for (index, cmd, qname, suspects), result in zip(jobs_to_run, results):
        if result.status == REFUTED:
            status = SAFE
        elif result.status == WITNESSED:
            status = POSSIBLY_UNSAFE
        else:
            status = UNKNOWN
        reports[index] = CastReport(
            cmd.label,
            qname,
            cmd,
            suspects,
            status,
            result.path_programs,
            result.witness_trace,
        )
    return [r for r in reports if r is not None]


def analyze_casts(
    pta: PointsToResult,
    *,
    config: Optional[SearchConfig] = None,
    engine: Optional[RefutationDriver] = None,
) -> AnalysisResult:
    """Normalized downcast-safety client: check every reachable cast and
    report through the shared :class:`~repro.clients.result.AnalysisResult`
    protocol. ``results`` are the familiar :class:`CastReport` objects in
    program order."""
    with _driver_for(pta, config, engine) as driver:
        reports = _check_casts(pta, driver)
        report = driver.build_report(command="casts")
    stats = AnalysisStats(items=len(reports))
    for r in reports:
        if r.status == SAFE:
            stats.verified_items += 1
        elif r.status == POSSIBLY_UNSAFE:
            stats.violated_items += 1
        else:
            stats.inconclusive_items += 1
    return make_result("casts", reports, stats, report)
