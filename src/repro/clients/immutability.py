"""Immutability assertions — the last of the paper-intro clients.

"...statically checkable assertions about, for example, object lifetimes,
encapsulation of fields, or **immutability of objects**."

A class is (shallowly) immutable after construction when no field write
outside its own constructors can target one of its instances. The
flow-insensitive points-to sets flag every write whose base *may* be such
an instance; the refutation engine then checks each flagged write: *can
execution reach this write with the base holding an instance of the
class?* All refuted ⇒ immutability verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..engine import RefutationDriver
from ..ir import instructions as ins
from ..ir.program import INIT
from ..pointsto import PointsToResult
from ..symbolic import SearchConfig
from ..symbolic.stats import REFUTED, WITNESSED
from .reachability import _driver_for
from .result import AnalysisResult, AnalysisStats, make_result

IMMUTABLE = "immutable"
MUTATED = "mutated"
UNKNOWN = "unknown"


@dataclass
class MutationSite:
    label: int
    method: str
    write: Union[ins.FieldWrite, ins.ArrayWrite]
    status: str  # refuted | witnessed | timeout
    witness_trace: Optional[list[int]] = None


@dataclass
class ImmutabilityReport:
    class_name: str
    status: str  # immutable | mutated | unknown
    sites: list[MutationSite]

    @property
    def verified(self) -> bool:
        return self.status == IMMUTABLE


def _check_immutable(
    pta: PointsToResult, class_name: str, driver: RefutationDriver
) -> ImmutabilityReport:
    """Check that instances of ``class_name`` are never mutated outside
    their own constructors. Each flagged write is an independent
    fact-refutation query; the driver runs them as one batch."""
    table = pta.program.class_table
    targets = frozenset(
        loc
        for loc in pta.graph.all_abs_locs()
        if loc.site.kind == "object"
        and table.site_is_instance(loc.site, class_name)
    )
    # First pass: collect every flagged write as one refutation job.
    jobs_to_run: list[tuple] = []  # (cmd, qname, suspects)
    for qname in sorted(pta.call_graph.reachable_methods):
        method = pta.program.methods.get(qname)
        if method is None:
            continue
        # Writes inside the class's own constructors are initialization.
        if method.name == INIT and table.is_subclass(method.class_name, class_name):
            continue
        for cmd in pta.program.commands_of(qname):
            if not isinstance(cmd, (ins.FieldWrite, ins.ArrayWrite)):
                continue
            suspects = targets & pta.pt_local(qname, cmd.base)
            if not suspects:
                continue
            jobs_to_run.append((cmd, qname, suspects))
    # Second pass: refute the batch, then fold verdicts in program order.
    results = driver.refute_facts(
        [
            (cmd.label, [(cmd.base, suspects)], f"write@L{cmd.label} in {qname}")
            for cmd, qname, suspects in jobs_to_run
        ]
    )
    sites: list[MutationSite] = []
    overall = IMMUTABLE
    for (cmd, qname, suspects), result in zip(jobs_to_run, results):
        if result.status == REFUTED:
            status = "refuted"
        elif result.status == WITNESSED:
            status = "witnessed"
            overall = MUTATED
        else:
            status = "timeout"
            if overall == IMMUTABLE:
                overall = UNKNOWN
        sites.append(
            MutationSite(cmd.label, qname, cmd, status, result.witness_trace)
        )
    return ImmutabilityReport(class_name, overall, sites)


def analyze_immutability(
    pta: PointsToResult,
    class_name: str,
    *,
    config: Optional[SearchConfig] = None,
    engine: Optional[RefutationDriver] = None,
) -> AnalysisResult:
    """Normalized immutability client. ``results`` are the flagged
    :class:`MutationSite` objects (``check_immutable(...).sites``); the
    rollup status maps ``immutable``/``mutated``/``unknown`` onto the
    shared ``verified``/``violated``/``inconclusive`` vocabulary."""
    with _driver_for(pta, config, engine) as driver:
        inner = _check_immutable(pta, class_name, driver)
        report = driver.build_report(command="immutability")
    stats = AnalysisStats(items=len(inner.sites))
    for site in inner.sites:
        if site.status == "refuted":
            stats.verified_items += 1
        elif site.status == "witnessed":
            stats.violated_items += 1
        else:
            stats.inconclusive_items += 1
    return make_result("immutability", inner.sites, stats, report)
