"""Edge producer map: which statements can produce each points-to edge.

The paper (Section 2, "Formulate Queries") needs, for every points-to edge
``e`` to refute, the set of statements that could produce ``e``; it obtains
this by "simple post-processing or instrumentation of the up-front
points-to analysis" (citing the authors' SAS'11 study). We implement the
post-processing variant: for every reachable field/array/static write,
pair up the points-to sets of the base and the stored value.
"""

from __future__ import annotations

from ..ir import instructions as ins
from ..ir.program import IRProgram
from ..ir.stmts import walk_commands
from .andersen import CallGraph
from .graph import ELEMS, AbsLoc, HeapEdge, PointsToGraph, StaticFieldNode

# Producer-map key: a heap edge identified structurally.
EdgeKey = tuple  # ("heap", AbsLoc, field, AbsLoc) | ("static", class, field, AbsLoc)


def edge_key(edge: HeapEdge) -> EdgeKey:
    if edge.is_static_root:
        src = edge.src
        assert isinstance(src, StaticFieldNode)
        return ("static", src.class_name, src.field, edge.dst)
    return ("heap", edge.src, edge.field, edge.dst)


def method_producers(
    program: IRProgram, graph: PointsToGraph, qname: str
) -> dict[EdgeKey, list[int]]:
    """One method's share of the producer map: every heap/static edge its
    writes may produce, each with the producing labels in body walk order.
    Only edges present in the solved graph get entries (a write into a
    suppressed location produces nothing)."""
    share: dict[EdgeKey, list[int]] = {}
    for cmd in walk_commands(program.methods[qname].body):
        if isinstance(cmd, (ins.FieldWrite, ins.ArrayWrite)) and isinstance(
            cmd.rhs, ins.VarAtom
        ):
            field = ELEMS if isinstance(cmd, ins.ArrayWrite) else cmd.field_name
            values = graph.pt_local(qname, cmd.rhs.name)
            for base in graph.pt_local(qname, cmd.base):
                for value in values & graph.pt_field(base, field):
                    share.setdefault(("heap", base, field, value), []).append(
                        cmd.label
                    )
        elif isinstance(cmd, ins.StaticWrite) and isinstance(cmd.rhs, ins.VarAtom):
            values = graph.pt_local(qname, cmd.rhs.name)
            targets = graph.pt_static(cmd.class_name, cmd.field_name)
            for value in values & targets:
                key = ("static", cmd.class_name, cmd.field_name, value)
                share.setdefault(key, []).append(cmd.label)
    return share


class ProducerMap(dict):
    """Every heap/static points-to edge mapped to the labels of the
    statements that may produce it.

    A label list runs over the reachable methods in
    ``CallGraph.reachable_methods`` order and over each body in walk
    order; :meth:`Engine.refute_edge` searches roots in list order. Each
    method's share is kept, so after an additive re-solve :meth:`refresh`
    re-derives only the methods whose share can have moved: a write's
    stored values already flow into the written field, so its edges change
    only when its own method's locals grow. A fresh map is one refresh
    with every reachable method dirty."""

    def __init__(
        self, program: IRProgram, graph: PointsToGraph, call_graph: CallGraph
    ) -> None:
        super().__init__()
        self.program, self.graph, self.call_graph = program, graph, call_graph
        self._shares: dict[str, dict[EdgeKey, list[int]]] = {}
        self.refresh(call_graph.reachable_methods)

    def refresh(self, dirty) -> None:
        touched: set = set()
        for qname in dirty:
            touched.update(self._shares.pop(qname, ()))
            if qname in self.program.methods:
                share = method_producers(self.program, self.graph, qname)
                if share:
                    self._shares[qname] = share
                    touched.update(share)
        for key in touched:
            self.pop(key, None)
        for qname in self.call_graph.reachable_methods:
            for key, labels in self._shares.get(qname, {}).items():
                if key in touched:
                    self.setdefault(key, []).extend(labels)
