"""Edge-case tests for heap-path enumeration (cycles, diamonds, removal)."""

import pytest

from repro.ir import compile_program
from repro.pointsto import (
    StaticFieldNode,
    analyze,
    find_heap_path,
    reachable_from,
    reaches,
    reanalyze,
    static_roots,
    target_locations,
)
from repro.serve.invalidation import graft_method


def pta_of(source):
    return analyze(compile_program(source))


class TestCyclicHeaps:
    CYCLE = (
        "class Node { Node next; Object item; }"
        " class M { static Node head; static void main() {"
        "   Node a = new Node(); Node b = new Node();"
        "   a.next = b; b.next = a;"
        "   b.item = new Object();"
        "   M.head = a; } }"
    )

    def test_path_through_cycle_terminates(self):
        pta = pta_of(self.CYCLE)
        root = StaticFieldNode("M", "head")
        target = next(
            l for l in pta.graph.all_abs_locs() if l.class_name == "Object"
        )
        path = find_heap_path(pta.graph, root, target)
        assert path is not None
        assert path[0].is_static_root
        assert path[-1].field == "item"

    def test_self_loop(self):
        pta = pta_of(
            "class Node { Node self; } class M { static Node n;"
            " static void main() { Node x = new Node(); x.self = x; M.n = x; } }"
        )
        root = StaticFieldNode("M", "n")
        (node_loc,) = pta.pt_static("M", "n")
        assert reaches(pta.graph, root, node_loc)

    def test_removal_in_diamond_keeps_other_branch(self):
        pta = pta_of(
            "class D { Object a; Object b; } class M { static D d;"
            " static void main() {"
            "   D x = new D(); Object t = new Object();"
            "   x.a = t; x.b = t; M.d = x; } }"
        )
        root = StaticFieldNode("M", "d")
        (target,) = pta.pt_static("M", "d")
        obj = next(l for l in pta.graph.all_abs_locs() if l.class_name == "Object")
        first = find_heap_path(pta.graph, root, obj)
        assert first is not None
        second = find_heap_path(pta.graph, root, obj, removed={first[-1]})
        assert second is not None and second[-1] != first[-1]
        both_removed = find_heap_path(
            pta.graph, root, obj, removed={first[-1], second[-1]}
        )
        assert both_removed is None


class TestEnumerationHelpers:
    def test_static_roots_sorted_and_nonempty_only(self):
        pta = pta_of(
            "class M { static Object a; static Object b; static Object unused;"
            " static void main() { M.b = new Object(); M.a = new String(); } }"
        )
        roots = [str(r) for r in static_roots(pta.graph)]
        assert roots == ["M.a", "M.b"]  # `unused` holds nothing

    def test_target_locations_filters_arrays_and_strings(self):
        pta = pta_of(
            "class T { } class M { static void main() {"
            ' T t = new T(); Object[] xs = new Object[1]; Object s = "x"; } }'
        )
        locs = target_locations(pta.graph, pta.program.class_table, "T")
        assert [l.class_name for l in locs] == ["T"]

    def test_target_includes_subclasses(self):
        pta = pta_of(
            "class T { } class S extends T { } class M { static void main() {"
            " T a = new T(); S b = new S(); } }"
        )
        locs = target_locations(pta.graph, pta.program.class_table, "T")
        assert {l.class_name for l in locs} == {"T", "S"}

    def test_unconnected_target_unreachable(self):
        pta = pta_of(
            "class M { static Object a; static void main() {"
            " M.a = new Object(); Object island = new String(); } }"
        )
        root = StaticFieldNode("M", "a")
        island = next(
            l for l in pta.graph.all_abs_locs() if l.class_name == "String"
        )
        assert not reaches(pta.graph, root, island)


class TestAdjacencyIndex:
    SOURCE = (
        "class Box { Object v; Box next; }"
        " class M { static Box root;"
        "   static void main() { Box a = new Box(); Box b = new Box();"
        "     Object o = new Object(); M.root = a; a.next = b; M.fill(a, b, o); }"
        "   static void fill(Box a, Box b, Object o) { b.v = o; } }"
    )

    def test_reanalysis_drops_the_index(self):
        program = compile_program(self.SOURCE)
        pta = analyze(program, retain_solver=True)
        root = StaticFieldNode("M", "root")
        obj = next(l for l in pta.graph.all_abs_locs() if l.class_name == "Object")
        # The first query builds the index.
        before = find_heap_path(pta.graph, root, obj)
        assert [e.field for e in before] == ["root", "next", "v"]
        # An additive edit adds the field edge a.v -> o on the path.
        edited = compile_program(self.SOURCE.replace("b.v = o;", "b.v = o; a.v = o;"))
        graft_method(program, edited.methods["M.fill"])
        after_pta, delta = reanalyze(pta, {"M.fill"})
        assert after_pta.graph is pta.graph and delta.grown_fields == {"v"}
        after = find_heap_path(after_pta.graph, root, obj)
        assert [e.field for e in after] == ["root", "v"]
        assert after[0] == before[0] and after[1].src == before[0].dst

    def test_reachable_from_collects_every_reached_location(self):
        pta = pta_of(self.SOURCE)
        root = StaticFieldNode("M", "root")
        reach = reachable_from(pta.graph, root)
        assert {l.class_name for l in reach} == {"Box", "Object"}
        assert all(reaches(pta.graph, root, loc) for loc in reach)
        assert len(reach) == len(pta.graph.all_abs_locs())
