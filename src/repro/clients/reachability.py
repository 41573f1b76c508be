"""Generic heap-reachability assertions.

The paper's introduction: "A heap reachability checker would also enable a
developer to write statically checkable assertions about, for example,
object lifetimes, encapsulation of fields, or immutability of objects."

This module provides that checker over arbitrary programs (no Android
library or harness required): assert that no instance of a target class —
or of a specific allocation site — is ever reachable from a given static
field. The verification loop is the same edge-refutation / re-routing loop
as the leak client (Section 2 of the paper), scheduled through the
parallel :class:`repro.engine.RefutationDriver`."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..engine import RefutationDriver
from ..pointsto import (
    PointsToResult,
    find_heap_path,
    reachable_from,
    static_roots,
)
from ..pointsto.graph import AbsLoc, HeapEdge, StaticFieldNode
from ..symbolic import SearchConfig
from .result import AnalysisResult, AnalysisStats, make_result

HOLDS = "holds"  # the assertion is verified (all paths refuted)
VIOLATED = "violated"  # a fully witnessed heap path exists
INCONCLUSIVE = "inconclusive"  # timeouts prevented a verdict


@dataclass
class ReachabilityResult:
    root: StaticFieldNode
    target: AbsLoc
    status: str
    witnessed_path: Optional[list[HeapEdge]] = None
    refuted_edges: int = 0
    timeouts: int = 0


@contextmanager
def _driver_for(
    pta: PointsToResult,
    config: Optional[SearchConfig],
    engine: Optional[RefutationDriver],
) -> Iterator[RefutationDriver]:
    """The caller's driver (``engine=``; its lifecycle is theirs), or a
    fresh one on ``config`` that is closed on exit."""
    if engine is not None:
        yield engine
        return
    driver = RefutationDriver(pta, config or SearchConfig())
    try:
        yield driver
    finally:
        driver.close()


def _refute_reachability(
    pta: PointsToResult,
    driver: RefutationDriver,
    root: StaticFieldNode,
    target: AbsLoc,
    shared_refuted: Optional[set] = None,
) -> ReachabilityResult:
    """The Section 2 loop: find a heap path, refute its edges through the
    driver (:meth:`RefutationDriver.refute_path`), re-route."""
    refuted: set[HeapEdge] = shared_refuted if shared_refuted is not None else set()
    refuted_count = 0
    timeouts = 0
    while True:
        path = find_heap_path(pta.graph, root, target, refuted)
        if path is None:
            return ReachabilityResult(root, target, HOLDS, None, refuted_count, timeouts)
        progressed = False
        # A path's timeouts count only when no edge broke the path: a
        # path-mate's timeout next to a refuted edge decided nothing (and
        # under the portfolio it is a provisional rung result).
        path_timeouts = 0
        for edge, result in driver.refute_path(path):
            if result.refuted:
                refuted.add(edge)
                refuted_count += 1
                progressed = True
                break
            if result.timed_out:
                path_timeouts += 1
        if not progressed:
            timeouts += path_timeouts
            status = INCONCLUSIVE if path_timeouts else VIOLATED
            return ReachabilityResult(
                root, target, status, path, refuted_count, timeouts
            )


def assert_unreachable(
    pta: PointsToResult,
    root_class: str,
    root_field: str,
    target_class: str,
    config: Optional[SearchConfig] = None,
    engine: Optional[RefutationDriver] = None,
) -> list[ReachabilityResult]:
    """Check "no instance of ``target_class`` is ever reachable from the
    static field ``root_class.root_field``". Returns one result per target
    abstract location connected in the flow-insensitive graph (empty list
    means the points-to analysis already proves the assertion)."""
    root = StaticFieldNode(root_class, root_field)
    table = pta.program.class_table
    targets = [
        loc
        for loc in pta.graph.all_abs_locs()
        if not loc.is_array
        and loc.site.kind == "object"
        and table.site_is_instance(loc.site, target_class)
    ]
    reach = reachable_from(pta.graph, root)
    shared: set[HeapEdge] = set()
    results = []
    with _driver_for(pta, config, engine) as driver:
        for target in sorted(targets, key=str):
            if target not in reach:
                continue  # not even flow-insensitively reachable
            results.append(
                _refute_reachability(pta, driver, root, target, shared)
            )
    return results


def assert_not_leaked(
    pta: PointsToResult,
    site_hint: str,
    config: Optional[SearchConfig] = None,
    engine: Optional[RefutationDriver] = None,
) -> list[ReachabilityResult]:
    """Escape-to-static check for one allocation site: is any instance
    allocated at the site named ``site_hint`` (e.g. ``"box0"``) reachable
    from *any* static field? The lifetime-assertion flavor of the client."""
    targets = [
        loc for loc in pta.graph.all_abs_locs() if loc.site.hint == site_hint
    ]
    shared: set[HeapEdge] = set()
    results = []
    with _driver_for(pta, config, engine) as driver:
        for root in static_roots(pta.graph):
            reach = reachable_from(pta.graph, root)
            for target in sorted(targets, key=str):
                if target not in reach:
                    continue
                results.append(
                    _refute_reachability(pta, driver, root, target, shared)
                )
    return results


def verified(results: list[ReachabilityResult]) -> bool:
    """True when the assertion holds: every connected pair was refuted."""
    return all(r.status == HOLDS for r in results)


def _tally_reachability(results: list[ReachabilityResult]) -> AnalysisStats:
    stats = AnalysisStats(items=len(results))
    for r in results:
        if r.status == HOLDS:
            stats.verified_items += 1
        elif r.status == VIOLATED:
            stats.violated_items += 1
        else:
            stats.inconclusive_items += 1
    return stats


def analyze_reachability(
    pta: PointsToResult,
    root_class: Optional[str] = None,
    root_field: Optional[str] = None,
    target_class: Optional[str] = None,
    *,
    site: Optional[str] = None,
    config: Optional[SearchConfig] = None,
    engine: Optional[RefutationDriver] = None,
) -> AnalysisResult:
    """Normalized heap-reachability client.

    Two flavors share one entry point: pass ``root_class``/``root_field``/
    ``target_class`` to assert "no ``target_class`` instance is reachable
    from the static field ``root_class.root_field``"
    (:func:`assert_unreachable`), or pass ``site=`` to assert "nothing
    allocated at this site escapes to any static field"
    (:func:`assert_not_leaked`). Returns an
    :class:`~repro.clients.result.AnalysisResult` whose ``results`` are the
    familiar :class:`ReachabilityResult` objects."""
    if site is None and None in (root_class, root_field, target_class):
        raise ValueError(
            "analyze_reachability needs either site=... or all of"
            " root_class/root_field/target_class"
        )
    with _driver_for(pta, config, engine) as driver:
        if site is not None:
            results = assert_not_leaked(pta, site, engine=driver)
        else:
            results = assert_unreachable(
                pta, root_class, root_field, target_class, engine=driver
            )
        report = driver.build_report(command="reachability")
    return make_result(
        "reachability", results, _tally_reachability(results), report
    )
