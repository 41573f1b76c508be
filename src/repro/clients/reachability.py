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

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..engine import RefutationDriver
from ..pointsto import (
    PointsToResult,
    find_heap_path,
    reachable_from,
    static_roots,
)
from ..pointsto.graph import AbsLoc, HeapEdge, StaticFieldNode
from ..symbolic import Engine, SearchConfig
from .result import AnalysisResult, AnalysisStats, make_result

HOLDS = "holds"  # the assertion is verified (all paths refuted)
VIOLATED = "violated"  # a fully witnessed heap path exists
INCONCLUSIVE = "inconclusive"  # timeouts prevented a verdict

#: Every client entry point accepts either a bare serial engine or the
#: parallel driver; bare engines keep the seed's one-edge-at-a-time walk.
Refuter = Union[Engine, RefutationDriver]


@dataclass
class ReachabilityResult:
    root: StaticFieldNode
    target: AbsLoc
    status: str
    witnessed_path: Optional[list[HeapEdge]] = None
    refuted_edges: int = 0
    timeouts: int = 0


def _resolve_refuter(
    pta: PointsToResult,
    config: Optional[SearchConfig],
    engine: Optional[Refuter],
    jobs: int,
    deadline: Optional[float],
) -> Refuter:
    if engine is not None:
        return engine
    return RefutationDriver(
        pta, config or SearchConfig(), jobs=jobs, deadline=deadline
    )


def _refute_path(
    refuter: Refuter, path: list[HeapEdge]
) -> Iterable[tuple[HeapEdge, "object"]]:
    if isinstance(refuter, RefutationDriver):
        return refuter.refute_path(path)
    return ((edge, refuter.refute_edge(edge)) for edge in path)


def _refute_reachability(
    pta: PointsToResult,
    engine: Refuter,
    root: StaticFieldNode,
    target: AbsLoc,
    shared_refuted: Optional[set] = None,
) -> ReachabilityResult:
    """The Section 2 loop: find a heap path, refute edges, re-route.

    ``engine`` may be a serial :class:`Engine` or a
    :class:`RefutationDriver`; with a driver the edges of each candidate
    path are refuted across the worker pool."""
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
        for edge, result in _refute_path(engine, path):
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
    engine: Optional[Refuter] = None,
    jobs: int = 1,
    deadline: Optional[float] = None,
) -> list[ReachabilityResult]:
    """Check "no instance of ``target_class`` is ever reachable from the
    static field ``root_class.root_field``". Returns one result per target
    abstract location connected in the flow-insensitive graph (empty list
    means the points-to analysis already proves the assertion)."""
    refuter = _resolve_refuter(pta, config, engine, jobs, deadline)
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
    for target in sorted(targets, key=str):
        if target not in reach:
            continue  # not even flow-insensitively reachable
        results.append(_refute_reachability(pta, refuter, root, target, shared))
    return results


def assert_not_leaked(
    pta: PointsToResult,
    site_hint: str,
    config: Optional[SearchConfig] = None,
    engine: Optional[Refuter] = None,
    jobs: int = 1,
    deadline: Optional[float] = None,
) -> list[ReachabilityResult]:
    """Escape-to-static check for one allocation site: is any instance
    allocated at the site named ``site_hint`` (e.g. ``"box0"``) reachable
    from *any* static field? The lifetime-assertion flavor of the client."""
    refuter = _resolve_refuter(pta, config, engine, jobs, deadline)
    targets = [
        loc for loc in pta.graph.all_abs_locs() if loc.site.hint == site_hint
    ]
    shared: set[HeapEdge] = set()
    results = []
    for root in static_roots(pta.graph):
        reach = reachable_from(pta.graph, root)
        for target in sorted(targets, key=str):
            if target not in reach:
                continue
            results.append(_refute_reachability(pta, refuter, root, target, shared))
    return results


def verified(results: list[ReachabilityResult]) -> bool:
    """True when the assertion holds: every connected pair was refuted."""
    return all(r.status == HOLDS for r in results)


def _finalize(
    refuter: Refuter, engine: Optional[Refuter], command: str
) -> Optional["object"]:
    """Snapshot the run report and release the pool when we own the driver.

    Every normalized ``analyze_*`` entry point funnels through here: if the
    refuter is a :class:`RefutationDriver` its structured
    :class:`~repro.engine.report.RunReport` is attached to the result, and
    the worker pool is shut down unless the caller supplied the driver
    (then its lifecycle is theirs)."""
    report = None
    if isinstance(refuter, RefutationDriver):
        report = refuter.build_report(command=command)
        if engine is None:
            refuter.close()
    return report


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
    engine: Optional[Refuter] = None,
    jobs: int = 1,
    deadline: Optional[float] = None,
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
    refuter = _resolve_refuter(pta, config, engine, jobs, deadline)
    if site is not None:
        results = assert_not_leaked(pta, site, config, refuter)
    else:
        results = assert_unreachable(
            pta, root_class, root_field, target_class, config, refuter
        )
    report = _finalize(refuter, engine, "reachability")
    return make_result(
        "reachability", results, _tally_reachability(results), report
    )
