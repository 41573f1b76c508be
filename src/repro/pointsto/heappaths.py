"""Heap-path enumeration over the points-to graph.

An *alarm* for the leak client is a points-to path from a static field to an
Activity abstract location (Section 2: "an alarm is a points-to path between
a static field and an Activity object"). The refutation driver repeatedly
asks for a path, tries to refute its edges, removes refuted edges, and asks
again until the source and sink are disconnected or a fully witnessed path
is found.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..lang.types import ClassTable
from .graph import AbsLoc, HeapEdge, PointsToGraph, StaticFieldNode


def find_heap_path(
    graph: PointsToGraph,
    root: StaticFieldNode,
    target: AbsLoc,
    removed: Optional[set[HeapEdge]] = None,
) -> Optional[list[HeapEdge]]:
    """Shortest points-to path ``root ↪ ... ↪ target`` avoiding ``removed``
    edges, or None when disconnected."""
    parents = _bfs(graph, root, removed or set(), target)
    if target not in parents:
        return None
    return _reconstruct(parents, target)


def reachable_from(graph: PointsToGraph, root: StaticFieldNode) -> set[AbsLoc]:
    """Every abstract location some points-to path from ``root`` reaches."""
    return set(_bfs(graph, root, set()))


def _bfs(
    graph: PointsToGraph,
    root: StaticFieldNode,
    removed: set[HeapEdge],
    target: Optional[AbsLoc] = None,
) -> dict[AbsLoc, HeapEdge]:
    """BFS over abstract locations from ``root`` avoiding ``removed`` edges:
    each reached location's parent edge, set once when it is first reached.
    Stops as soon as ``target`` is reached, so its path is final."""
    parents: dict[AbsLoc, HeapEdge] = {}
    queue: deque[AbsLoc] = deque()
    for loc in graph.pt_static(root.class_name, root.field):
        edge = HeapEdge(root, root.field, loc)
        if edge in removed or loc in parents:
            continue
        parents[loc] = edge
        if loc == target:
            return parents
        queue.append(loc)
    while queue:
        loc = queue.popleft()
        # Field successors come from the graph's per-solve adjacency index.
        for field, targets in graph.out_fields(loc):
            for dst in targets:
                if dst in parents:
                    continue
                edge = HeapEdge(loc, field, dst)
                if edge in removed:
                    continue
                parents[dst] = edge
                if dst == target:
                    return parents
                queue.append(dst)
    return parents


def _reconstruct(parents: dict[AbsLoc, HeapEdge], loc: AbsLoc) -> list[HeapEdge]:
    path: list[HeapEdge] = []
    current: Optional[AbsLoc] = loc
    while current is not None:
        edge = parents[current]
        path.append(edge)
        if edge.is_static_root:
            break
        current = edge.src  # type: ignore[assignment]
    path.reverse()
    return path


def reaches(
    graph: PointsToGraph,
    root: StaticFieldNode,
    target: AbsLoc,
    removed: Optional[set[HeapEdge]] = None,
) -> bool:
    return find_heap_path(graph, root, target, removed) is not None


def target_locations(
    graph: PointsToGraph, class_table: ClassTable, target_class: str
) -> list[AbsLoc]:
    """All abstract locations whose class is ``target_class`` or a subclass."""
    result = []
    for loc in graph.all_abs_locs():
        if loc.is_array or loc.site.kind == "string":
            continue
        if loc.class_name not in class_table.classes:
            continue
        if class_table.is_subclass(loc.class_name, target_class):
            result.append(loc)
    return sorted(result, key=str)


def static_roots(graph: PointsToGraph) -> list[StaticFieldNode]:
    roots = {
        node
        for node in graph.pts
        if isinstance(node, StaticFieldNode) and graph.pts[node]
    }
    return sorted(roots, key=str)


def find_alarms(
    graph: PointsToGraph, class_table: ClassTable, target_class: str = "Activity"
) -> list[tuple[StaticFieldNode, AbsLoc]]:
    """All (static field, target location) pairs connected in the graph —
    the flow-insensitive alarms the refuter will attempt to filter."""
    alarms = []
    targets = target_locations(graph, class_table, target_class)
    for root in static_roots(graph):
        reach = reachable_from(graph, root)
        alarms.extend((root, target) for target in targets if target in reach)
    return alarms
