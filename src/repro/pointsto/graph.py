"""Points-to graph: nodes, abstract locations, and the result structure.

The graph follows Section 3.1 of the paper: vertices are program variables
and abstract locations (``V ⊆ Var ∪ AbsLoc``); edges are ``x ↪ a`` (a
variable may point to an abstract location) and ``a0.f ↪ a1`` (a field of
some object abstracted by ``a0`` may point to an object abstracted by
``a1``). Static fields are modelled as global variables. Array contents use
the pseudo-field ``"@elems"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Union

from ..ir.instructions import AllocSite

ELEMS = "@elems"

Context = tuple  # a tuple of AllocSite, possibly empty


@dataclass(frozen=True, slots=True)
class AbsLoc:
    """An abstract heap location: an allocation site plus a heap context."""

    site: AllocSite
    hctx: Context = ()

    def __str__(self) -> str:
        if not self.hctx:
            return str(self.site)
        ctx = ".".join(str(s) for s in self.hctx)
        return f"{ctx}.{self.site}"

    @property
    def class_name(self) -> str:
        return self.site.class_name

    @property
    def is_array(self) -> bool:
        return self.site.is_array


@dataclass(frozen=True, slots=True)
class VarNode:
    """A local variable of a method analyzed in a calling context."""

    method: str
    var: str
    ctx: Context = ()

    def __str__(self) -> str:
        suffix = f"@{'.'.join(str(s) for s in self.ctx)}" if self.ctx else ""
        return f"{self.method}:{self.var}{suffix}"


@dataclass(frozen=True, slots=True)
class StaticFieldNode:
    class_name: str
    field: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.field}"


@dataclass(frozen=True, slots=True)
class FieldNode:
    """The field ``field`` of objects abstracted by ``loc``."""

    loc: AbsLoc
    field: str

    def __str__(self) -> str:
        return f"{self.loc}.{self.field}"


Node = Union[VarNode, StaticFieldNode, FieldNode]


@dataclass(frozen=True, slots=True)
class HeapEdge:
    """A may points-to edge between heap locations: ``src.field ↪ dst``.

    ``src`` is an :class:`AbsLoc` or, for the root edges of an alarm path,
    a :class:`StaticFieldNode` (in which case ``field`` is the static field
    name itself).
    """

    src: Union[AbsLoc, StaticFieldNode]
    field: str
    dst: AbsLoc

    def __str__(self) -> str:
        if isinstance(self.src, StaticFieldNode):
            return f"{self.src} -> {self.dst}"
        return f"{self.src}.{self.field} -> {self.dst}"

    @property
    def is_static_root(self) -> bool:
        return isinstance(self.src, StaticFieldNode)


class PointsToGraph:
    """The solved flow-insensitive points-to relation."""

    def __init__(self) -> None:
        self.pts: dict[Node, set[AbsLoc]] = {}
        # Local pt sets collapsed over contexts: (method, var) -> set.
        self._local_union: dict[tuple[str, str], frozenset[AbsLoc]] = {}
        # pt_field_of_set answers; seal() drops those a grown field moves.
        self._field_of_set: dict[tuple[frozenset, str], frozenset[AbsLoc]] = {}
        # Heap adjacency for path search: loc -> (field, targets) pairs in
        # pts order, the targets aliasing the live sets. Built on first
        # use; seal() appends the field nodes created since, which come
        # last in pts order. Readers racing on the first use each build
        # the same index.
        self._out: Optional[dict[AbsLoc, list[tuple[str, set[AbsLoc]]]]] = None
        self._indexed = 0  # how many pts entries _out covers

    # -- construction (used by the solver) -----------------------------------

    def points_to(self, node: Node) -> set[AbsLoc]:
        return self.pts.setdefault(node, set())

    def seal(self, grown: Iterable[Node]) -> None:
        """Fold the nodes that grew since the last seal into the derived
        views: the per-variable unions over contexts, the answers of
        :meth:`pt_field_of_set` on a grown field, and the adjacency index.
        Sets only grow, so a variable's new union is its old one plus its
        grown nodes' sets."""
        unions: dict[tuple[str, str], set[AbsLoc]] = {}
        fields: set[str] = set()
        for node in grown:
            if isinstance(node, VarNode):
                key = (node.method, node.var)
                union = unions.get(key)
                if union is None:
                    union = unions[key] = set(self._local_union.get(key, ()))
                union |= self.pts[node]
            elif isinstance(node, FieldNode):
                fields.add(node.field)
        for key, union in unions.items():
            self._local_union[key] = frozenset(union)
        if fields and self._field_of_set:
            self._field_of_set = {
                key: locs
                for key, locs in self._field_of_set.items()
                if key[1] not in fields
            }
        if self._out is not None:
            self._index(self._out, self._indexed)

    def _index(self, out: dict, start: int) -> None:
        """Add the field nodes from the ``start``-th pts entry on."""
        for node in islice(self.pts, start, None):
            if isinstance(node, FieldNode):
                out.setdefault(node.loc, []).append((node.field, self.pts[node]))
        self._indexed = len(self.pts)

    # -- queries ----------------------------------------------------------------

    def pt_local(self, method: str, var: str) -> frozenset[AbsLoc]:
        """pt(x): the context-collapsed points-to set of a local."""
        return self._local_union.get((method, var), frozenset())

    def pt_static(self, class_name: str, field: str) -> frozenset[AbsLoc]:
        return frozenset(self.pts.get(StaticFieldNode(class_name, field), frozenset()))

    def pt_field(self, loc: AbsLoc, field: str) -> frozenset[AbsLoc]:
        return frozenset(self.pts.get(FieldNode(loc, field), frozenset()))

    def pt_field_of_set(self, locs: frozenset[AbsLoc], field: str) -> frozenset[AbsLoc]:
        """pt(y.f) for y with points-to set ``locs``: the union over the set."""
        key = (locs, field)
        cached = self._field_of_set.get(key)
        if cached is None:
            result: set[AbsLoc] = set()
            for loc in locs:
                result.update(self.pts.get(FieldNode(loc, field), ()))
            cached = self._field_of_set[key] = frozenset(result)
        return cached

    def out_fields(self, loc: AbsLoc) -> list[tuple[str, set[AbsLoc]]]:
        """The ``(field, pt(loc.field))`` pairs of ``loc``, in ``pts`` order."""
        out = self._out
        if out is None:
            out = {}
            self._index(out, 0)
            self._out = out
        return out.get(loc, [])

    def heap_edges(self) -> Iterator[HeapEdge]:
        """All ``a.f ↪ b`` edges."""
        for node, locs in self.pts.items():
            if isinstance(node, FieldNode):
                for dst in locs:
                    yield HeapEdge(node.loc, node.field, dst)

    def static_edges(self) -> Iterator[HeapEdge]:
        """All ``C.f ↪ a`` root edges."""
        for node, locs in self.pts.items():
            if isinstance(node, StaticFieldNode):
                for dst in locs:
                    yield HeapEdge(node, node.field, dst)

    def all_abs_locs(self) -> set[AbsLoc]:
        locs: set[AbsLoc] = set()
        for node, targets in self.pts.items():
            locs.update(targets)
            if isinstance(node, FieldNode):
                locs.add(node.loc)
        return locs

    def size(self) -> tuple[int, int]:
        """(number of nodes, number of edges)."""
        nodes = len(self.pts)
        edges = sum(len(v) for v in self.pts.values())
        return nodes, edges

    def to_dot(self) -> str:
        """Render the heap portion of the graph in Graphviz dot format
        (matches the style of Figure 2 in the paper)."""
        lines = ["digraph pointsto {"]
        for edge in self.static_edges():
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [style=bold];')
        for edge in self.heap_edges():
            lines.append(f'  "{edge.src}" -> "{edge.dst}" [label="{edge.field}"];')
        lines.append("}")
        return "\n".join(lines)
