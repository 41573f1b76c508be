"""Indexed path search vs the full-scan search it replaced.

``find_heap_path`` reads field successors from the graph's per-solve
adjacency index, and ``find_alarms`` runs one BFS per root. The oracles
below are the earlier code, kept verbatim: a BFS that scans every node of
``graph.pts`` for each location it pops, and ``find_alarms`` asking one
path per (root, target) pair. Both versions must return identical paths
(same edges, same order) and identical alarm lists, on the seven
benchmark apps, the ``layered``/``lifecycle`` workload programs and a
small program of diamonds (several shortest paths per target), with
no edges removed, with seeded random removed-edge sets, and along a
Section 2 walk that removes one edge of each path found.
"""

from __future__ import annotations

import functools
import random
from collections import deque
from typing import Iterable, Optional

import pytest

from repro.android.leaks import LeakChecker
from repro.bench.apps import APPS, app_by_name
from repro.bench.workloads import layered_app, lifecycle_app
from repro.ir import compile_program
from repro.pointsto import (
    analyze,
    find_alarms,
    find_heap_path,
    static_roots,
    target_locations,
)
from repro.pointsto.graph import AbsLoc, FieldNode, HeapEdge, StaticFieldNode
from repro.pointsto.heappaths import _reconstruct


def _full_scan_out_edges(graph, loc: AbsLoc) -> Iterable[HeapEdge]:
    for node, targets in graph.pts.items():
        if isinstance(node, FieldNode) and node.loc == loc:
            for dst in targets:
                yield HeapEdge(loc, node.field, dst)


def oracle_find_heap_path(
    graph,
    root: StaticFieldNode,
    target: AbsLoc,
    removed: Optional[set[HeapEdge]] = None,
) -> Optional[list[HeapEdge]]:
    removed = removed or set()
    start_edges = [
        HeapEdge(root, root.field, loc)
        for loc in graph.pt_static(root.class_name, root.field)
    ]
    parents: dict[AbsLoc, HeapEdge] = {}
    queue: deque[AbsLoc] = deque()
    for edge in start_edges:
        if edge in removed:
            continue
        if edge.dst not in parents:
            parents[edge.dst] = edge
            queue.append(edge.dst)
    while queue:
        loc = queue.popleft()
        if loc == target:
            return _reconstruct(parents, loc)
        for edge in _full_scan_out_edges(graph, loc):
            if edge in removed or edge.dst in parents:
                continue
            parents[edge.dst] = edge
            queue.append(edge.dst)
    return None


def oracle_find_alarms(graph, class_table, target_class):
    alarms = []
    targets = target_locations(graph, class_table, target_class)
    for root in static_roots(graph):
        for target in targets:
            if oracle_find_heap_path(graph, root, target) is not None:
                alarms.append((root, target))
    return alarms


#: Program name -> the target classes its alarms are enumerated for.
PROGRAMS = {
    **{
        f"{app.name}-{ann}": ("Activity", "Object")
        for app in APPS
        for ann in ("N", "Y")
    },
    "layered": ("Item", "Object"),
    "lifecycle": ("Item", "Object"),
    "diamonds": ("N", "Object"),
}

#: Several shortest paths to most locations, so the order in which the
#: search visits fields and targets decides which path it returns.
DIAMONDS = """
class N { N a; N b; Object item; }
class M {
    static N head; static N tail;
    static void main() {
        N x = new N(); N y = new N(); N z = new N(); N w = new N();
        Object t = new Object(); Object u = new Object();
        x.a = y; x.b = z; y.a = w; y.b = z; z.b = w; z.a = y; w.a = x;
        w.item = t; z.item = t; y.item = u; w.item = u;
        M.head = x; M.tail = z; M.tail = y;
    }
}
"""


@functools.lru_cache(maxsize=None)
def _pta(name: str):
    if name == "layered":
        return analyze(compile_program(layered_app(8, hard_branches=10)))
    if name == "diamonds":
        return analyze(compile_program(DIAMONDS))
    if name == "lifecycle":
        return analyze(compile_program(lifecycle_app(12, leaky=1, branches=6)))
    app_name, ann = name.rsplit("-", 1)
    app = app_by_name(app_name)
    return LeakChecker(app.source, app.name, annotated=ann == "Y").pta


def _removed_sets(graph, rng: random.Random) -> list[set[HeapEdge]]:
    edges = sorted([*graph.static_edges(), *graph.heap_edges()], key=str)
    sets: list[set[HeapEdge]] = [set()]
    for fraction in (0.05, 0.15, 0.3, 0.5):
        for _ in range(2):
            sets.append(set(rng.sample(edges, round(fraction * len(edges)))))
    return sets


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_paths_match_the_full_scan_search(name):
    graph = _pta(name).graph
    rng = random.Random(name)
    locs = sorted(graph.all_abs_locs(), key=str)
    roots = static_roots(graph)
    connected = 0
    for removed in _removed_sets(graph, rng):
        for root in roots:
            for target in locs:
                path = find_heap_path(graph, root, target, removed)
                assert path == oracle_find_heap_path(graph, root, target, removed)
                connected += path is not None
    assert connected


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_section2_walks_match_the_full_scan_search(name):
    graph = _pta(name).graph
    rng = random.Random(f"walk-{name}")
    table = _pta(name).program.class_table
    for root, target in oracle_find_alarms(graph, table, "Object"):
        removed: set[HeapEdge] = set()
        while True:
            path = find_heap_path(graph, root, target, removed)
            assert path == oracle_find_heap_path(graph, root, target, removed)
            if path is None:
                break
            removed.add(rng.choice(path))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_alarms_match_the_per_pair_enumeration(name):
    pta = _pta(name)
    for target_class in PROGRAMS[name]:
        alarms = find_alarms(pta.graph, pta.program.class_table, target_class)
        assert alarms == oracle_find_alarms(
            pta.graph, pta.program.class_table, target_class
        )
