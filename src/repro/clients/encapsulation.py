"""Encapsulation assertions: "objects stored in this field never escape".

The paper's introduction lists "encapsulation of fields" among the
assertions a heap-reachability checker enables. The check here: for a
given instance field ``Owner.f`` (the *representation* of Owner), no
object that ``Owner.f`` may hold is reachable from any static field or
from any *other* class's fields — i.e. the representation is owned.

The flow-insensitive graph reports candidate exposure paths; the
refutation engine then filters the spurious ones exactly as in the leak
client."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..engine import RefutationDriver
from ..pointsto import PointsToResult, reachable_from, static_roots
from ..pointsto.graph import AbsLoc, HeapEdge, StaticFieldNode
from ..symbolic import SearchConfig
from .reachability import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    _driver_for,
    _refute_reachability,
)
from .result import AnalysisResult, AnalysisStats, make_result


@dataclass
class ExposureResult:
    owner_class: str
    field: str
    rep_loc: AbsLoc
    root: StaticFieldNode
    status: str
    witnessed_path: Optional[list[HeapEdge]]


def _check_encapsulation(
    pta: PointsToResult, owner_class: str, field: str, driver: RefutationDriver
) -> list[ExposureResult]:
    """Check that the representation objects held in ``owner_class.field``
    are not reachable from any static field. Returns an
    :class:`ExposureResult` for each candidate exposure the
    flow-insensitive graph reports; an empty list (or all ``holds``) means
    the representation is encapsulated against static exposure."""
    table = pta.program.class_table
    # Representation: everything field `field` of Owner instances may hold.
    rep_locs: set[AbsLoc] = set()
    for loc in pta.graph.all_abs_locs():
        if loc.is_array or loc.site.kind != "object":
            continue
        if loc.class_name in table.classes and table.is_subclass(
            loc.class_name, owner_class
        ):
            rep_locs.update(pta.pt_field(loc, field))
    reach = {
        root: reachable_from(pta.graph, root) for root in static_roots(pta.graph)
    }
    shared: set[HeapEdge] = set()
    results = []
    for rep in sorted(rep_locs, key=str):
        for root, reached in reach.items():
            if rep not in reached:
                continue
            inner = _refute_reachability(pta, driver, root, rep, shared)
            results.append(
                ExposureResult(
                    owner_class,
                    field,
                    rep,
                    root,
                    inner.status,
                    inner.witnessed_path,
                )
            )
    return results


def analyze_encapsulation(
    pta: PointsToResult,
    owner_class: str,
    field: str,
    *,
    config: Optional[SearchConfig] = None,
    engine: Optional[RefutationDriver] = None,
) -> AnalysisResult:
    """Normalized encapsulation client. ``results`` are the candidate
    :class:`ExposureResult` objects; ``verified`` means every candidate
    exposure of ``owner_class.field``'s representation was refuted."""
    with _driver_for(pta, config, engine) as driver:
        results = _check_encapsulation(pta, owner_class, field, driver)
        report = driver.build_report(command="encapsulation")
    stats = AnalysisStats(items=len(results))
    for r in results:
        if r.status == HOLDS:
            stats.verified_items += 1
        elif r.status == VIOLATED:
            stats.violated_items += 1
        else:
            stats.inconclusive_items += 1
    return make_result("encapsulation", results, stats, report)
