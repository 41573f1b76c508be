"""Flow-insensitive Andersen points-to analysis with on-the-fly call graph,
context-sensitivity policies, mod/ref, edge producers, and heap paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ir.program import IRProgram
from .andersen import AndersenSolver, CallGraph, solve
from .context import (
    CallSiteSensitive,
    ContainerSensitive,
    ContextInsensitive,
    ContextPolicy,
    ObjectSensitive,
)
from .graph import (
    ELEMS,
    AbsLoc,
    FieldNode,
    HeapEdge,
    Node,
    PointsToGraph,
    StaticFieldNode,
    VarNode,
)
from .heappaths import (
    find_alarms,
    find_heap_path,
    reachable_from,
    reaches,
    static_roots,
    target_locations,
)
from .incremental import DeltaReport, extend_solution
from .modref import ModRefAnalysis, ModSet, RefSet
from .producers import EdgeKey, ProducerMap, edge_key
from .termination import NormalCompletion


@dataclass
class PointsToResult:
    """Everything downstream phases need from the up-front analysis."""

    program: IRProgram
    graph: PointsToGraph
    call_graph: CallGraph
    policy: ContextPolicy
    suppressed: set[AbsLoc]
    producers: ProducerMap
    modref: ModRefAnalysis
    completion: NormalCompletion
    #: The live constraint solver behind ``graph``/``call_graph`` when the
    #: caller asked for it (``analyze(..., retain_solver=True)``); required
    #: by :func:`reanalyze` for edit-level incremental re-solving. ``None``
    #: for one-shot runs so results stay lean and picklable.
    solver: Optional[AndersenSolver] = None

    # -- delegation helpers used heavily by the symbolic executor -----------

    def pt_local(self, method: str, var: str) -> frozenset[AbsLoc]:
        return self.graph.pt_local(method, var)

    def pt_static(self, class_name: str, field_name: str) -> frozenset[AbsLoc]:
        return self.graph.pt_static(class_name, field_name)

    def pt_field(self, loc: AbsLoc, field_name: str) -> frozenset[AbsLoc]:
        return self.graph.pt_field(loc, field_name)

    def pt_field_of_set(
        self, locs: frozenset[AbsLoc], field_name: str
    ) -> frozenset[AbsLoc]:
        return self.graph.pt_field_of_set(locs, field_name)

    def producers_of(self, edge: HeapEdge) -> list[int]:
        return self.producers.get(edge_key(edge), [])

    def callees_of(self, label: int) -> set[str]:
        return self.call_graph.callees_of(label)

    def callers_of(self, qname: str) -> set[tuple[str, int]]:
        return self.call_graph.callers_of(qname)


def analyze(
    program: IRProgram,
    policy: Optional[ContextPolicy] = None,
    empty_statics: Optional[set[tuple[str, str]]] = None,
    roots: Optional[list[str]] = None,
    retain_solver: bool = False,
) -> PointsToResult:
    """Run the full up-front analysis pipeline: points-to + call graph +
    mod/ref + edge producers. ``retain_solver=True`` keeps the live
    :class:`AndersenSolver` on the result so :func:`reanalyze` can extend
    the solution after an additive edit instead of starting over."""
    policy = policy or ContextInsensitive()
    if retain_solver:
        solver_obj = AndersenSolver(program, policy)
        solver_obj.solve(roots)
        suppressed: set[AbsLoc] = set()
        if empty_statics:
            for class_name, field_name in empty_statics:
                suppressed.update(
                    solver_obj.graph.pt_static(class_name, field_name)
                )
            solver_obj = AndersenSolver(
                program, policy, suppressed_contents=suppressed
            )
            solver_obj.solve(roots)
        graph, call_graph = solver_obj.graph, solver_obj.call_graph
    else:
        solver_obj = None
        graph, call_graph, suppressed = solve(
            program, policy, empty_statics, roots
        )
    producers = ProducerMap(program, graph, call_graph)
    modref = ModRefAnalysis(program, call_graph)
    completion = NormalCompletion(modref)
    return PointsToResult(
        program,
        graph,
        call_graph,
        policy,
        suppressed,
        producers,
        modref,
        completion,
        solver_obj,
    )


def reanalyze(
    prev: PointsToResult, changed_methods: set[str]
) -> tuple[PointsToResult, DeltaReport]:
    """Extend a retained solution after an *additive* edit.

    ``prev`` must carry its live solver (``analyze(..., retain_solver=
    True)``) and its program must already have the changed method bodies
    grafted in. Only the changed methods' constraints are re-generated;
    the delta worklist drains their consequences. The summaries are then
    refreshed in place, for what the edit can move: producers and each
    method's own mod/ref facts for the dirty methods (edited, grown or
    newly reachable), and the transitive mod/ref sets and normal
    completion for those and their transitive callers. Returns ``prev``,
    refreshed, plus the :class:`DeltaReport` of where the solution grew."""
    if prev.solver is None:
        raise ValueError(
            "reanalyze needs a retained solver: run"
            " analyze(..., retain_solver=True) first"
        )
    delta = extend_solution(prev.solver, changed_methods)
    dirty = delta.dirty_methods
    prev.producers.refresh(dirty)
    prev.completion.update(prev.modref.update(dirty))
    return prev, delta


__all__ = [
    "AndersenSolver",
    "CallGraph",
    "solve",
    "analyze",
    "reanalyze",
    "DeltaReport",
    "extend_solution",
    "PointsToResult",
    "RefSet",
    "ContextPolicy",
    "ContextInsensitive",
    "ObjectSensitive",
    "ContainerSensitive",
    "CallSiteSensitive",
    "ELEMS",
    "AbsLoc",
    "FieldNode",
    "HeapEdge",
    "Node",
    "PointsToGraph",
    "StaticFieldNode",
    "VarNode",
    "ModRefAnalysis",
    "ModSet",
    "NormalCompletion",
    "EdgeKey",
    "ProducerMap",
    "edge_key",
    "find_alarms",
    "find_heap_path",
    "reachable_from",
    "reaches",
    "static_roots",
    "target_locations",
]
