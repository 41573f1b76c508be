"""Unit tests for the Andersen points-to analysis and its companions."""

import pytest

from repro.ir import compile_program
from repro.pointsto import (
    ELEMS,
    ContainerSensitive,
    ContextInsensitive,
    ObjectSensitive,
    StaticFieldNode,
    analyze,
    find_alarms,
    find_heap_path,
    reaches,
)


def pta(source, **kwargs):
    prog = compile_program(source)
    return analyze(prog, **kwargs)


def loc_names(locs):
    return {str(loc) for loc in locs}


class TestBasicFlow:
    def test_new_flows_to_var(self):
        res = pta("class A { static void main() { Object o = new Object(); } }")
        assert loc_names(res.pt_local("A.main", "o")) == {"object0"}

    def test_copy_propagation(self):
        res = pta(
            "class A { static void main() {"
            " Object o = new Object(); Object p = o; } }"
        )
        assert res.pt_local("A.main", "p") == res.pt_local("A.main", "o")

    def test_field_store_load(self):
        res = pta(
            "class Box { Object v; } class A { static void main() {"
            " Box b = new Box(); b.v = new Object(); Object x = b.v; } }"
        )
        assert loc_names(res.pt_local("A.main", "x")) == {"object0"}

    def test_static_store_load(self):
        res = pta(
            "class A { static Object cache; static void main() {"
            " A.cache = new Object(); Object x = A.cache; } }"
        )
        assert loc_names(res.pt_static("A", "cache")) == {"object0"}
        assert loc_names(res.pt_local("A.main", "x")) == {"object0"}

    def test_array_store_load(self):
        res = pta(
            "class A { static void main() {"
            " Object[] xs = new Object[2]; xs[0] = new Object(); Object x = xs[1]; } }"
        )
        (arr,) = res.pt_local("A.main", "xs")
        assert loc_names(res.pt_field(arr, ELEMS)) == {"object0"}
        assert loc_names(res.pt_local("A.main", "x")) == {"object0"}

    def test_flow_insensitivity_merges_strong_updates(self):
        # Flow-insensitive analysis cannot see that v is overwritten.
        res = pta(
            "class Box { Object v; } class A { static void main() {"
            " Box b = new Box(); b.v = new Object(); b.v = new String(); } }"
        )
        (box,) = res.pt_local("A.main", "b")
        assert loc_names(res.pt_field(box, "v")) == {"object0", "string0"}

    def test_null_contributes_nothing(self):
        res = pta("class A { static void main() { Object o = null; } }")
        assert res.pt_local("A.main", "o") == frozenset()


class TestFieldOfSet:
    SOURCE = (
        "class Box { Object v; } class A { static void main() {"
        " Box b = new Box(); Box c = new Box(); b.v = new Object();"
        " c.v = new String(); } }"
    )

    def test_union_over_the_set(self):
        res = pta(self.SOURCE)
        boxes = res.pt_local("A.main", "b") | res.pt_local("A.main", "c")
        union = frozenset().union(*(res.pt_field(box, "v") for box in boxes))
        assert loc_names(union) == {"object0", "string0"}
        assert res.pt_field_of_set(boxes, "v") == union
        assert res.pt_field_of_set(boxes, "v") is res.pt_field_of_set(boxes, "v")
        assert res.pt_field_of_set(frozenset(), "v") == frozenset()

    def test_seal_forgets_answers(self):
        # A re-solve (serve's incremental update) grows the graph and ends
        # in seal(), which must drop every remembered answer on a grown
        # field and keep the others.
        from repro.pointsto.graph import FieldNode

        res = pta(self.SOURCE)
        (b,) = res.pt_local("A.main", "b")
        (c,) = res.pt_local("A.main", "c")
        before = res.pt_field_of_set(frozenset({b}), "v")
        other = res.pt_field_of_set(frozenset({b}), "w")
        res.graph.points_to(FieldNode(b, "v")).update(res.pt_field(c, "v"))
        res.graph.seal({FieldNode(b, "v"): 1})
        after = res.pt_field_of_set(frozenset({b}), "v")
        assert after == before | res.pt_field(c, "v")
        assert after != before
        assert res.pt_field_of_set(frozenset({b}), "w") is other

    def test_seal_folds_grown_locals_into_the_union(self):
        from repro.pointsto.graph import VarNode

        res = pta(self.SOURCE)
        (c,) = res.pt_local("A.main", "c")
        node = VarNode("A.main", "b")
        res.graph.points_to(node).add(c)
        res.graph.seal({node: 1})
        assert c in res.pt_local("A.main", "b")
        assert res.pt_local("A.main", "c") == frozenset({c})


class TestCallsAndCallGraph:
    def test_param_and_return_flow(self):
        res = pta(
            "class A { static Object id(Object x) { return x; }"
            " static void main() { Object o = A.id(new Object()); } }"
        )
        assert loc_names(res.pt_local("A.main", "o")) == {"object0"}

    def test_virtual_dispatch_by_points_to(self):
        res = pta(
            "class Base { Object make() { return new Object(); } }"
            " class Sub extends Base { Object make() { return new String(); } }"
            " class M { static void main() {"
            "   Base b = new Sub(); Object o = b.make(); } }"
        )
        # Only Sub.make is a target, so only string0 flows to o.
        assert loc_names(res.pt_local("M.main", "o")) == {"string0"}

    def test_imprecise_dispatch_unions_targets(self):
        res = pta(
            "class Base { Object make() { return new Object(); } }"
            " class Sub extends Base { Object make() { return new String(); } }"
            " class M { static void main() {"
            "   Base b = new Base(); Base c = new Sub();"
            "   if (nondet()) { b = c; }"
            "   Object o = b.make(); } }"
        )
        assert loc_names(res.pt_local("M.main", "o")) == {"object0", "string0"}

    def test_unreachable_method_not_analyzed(self):
        res = pta(
            "class A { static void dead() { Object o = new Object(); }"
            " static void main() { } }"
        )
        assert "A.dead" not in res.call_graph.reachable_methods

    def test_callers_recorded(self):
        res = pta(
            "class A { static void h() { } static void main() { A.h(); A.h(); } }"
        )
        callers = res.callers_of("A.h")
        assert {qname for qname, _ in callers} == {"A.main"}
        assert len(callers) == 2  # two distinct call sites

    def test_ctor_treated_as_call(self):
        res = pta(
            "class Box { Object v; Box(Object o) { this.v = o; } }"
            " class A { static void main() { Box b = new Box(new Object()); } }"
        )
        (box,) = res.pt_local("A.main", "b")
        assert loc_names(res.pt_field(box, "v")) == {"object0"}

    def test_recursion_terminates(self):
        res = pta(
            "class A { static Object f(Object x, int n) {"
            "   if (n == 0) { return x; } return A.f(x, n - 1); }"
            " static void main() { Object o = A.f(new Object(), 3); } }"
        )
        assert loc_names(res.pt_local("A.main", "o")) == {"object0"}


class TestContextSensitivity:
    TWO_BOXES = (
        "class Box { Object v; void set(Object o) { this.v = o; } }"
        " class A { static void main() {"
        "   Box b1 = new Box(); Box b2 = new Box();"
        "   b1.set(new Object()); b2.set(new String());"
        "   Object x = b1.v; } }"
    )

    def test_context_insensitive_conflates_receivers(self):
        res = pta(self.TWO_BOXES, policy=ContextInsensitive())
        assert loc_names(res.pt_local("A.main", "x")) == {"object0", "string0"}

    def test_object_sensitive_separates_receivers(self):
        res = pta(self.TWO_BOXES, policy=ObjectSensitive(1))
        assert loc_names(res.pt_local("A.main", "x")) == {"object0"}

    def test_container_policy_separates_only_containers(self):
        res = pta(
            self.TWO_BOXES,
            policy=ContainerSensitive(containers={"Box"}),
        )
        assert loc_names(res.pt_local("A.main", "x")) == {"object0"}

    def test_container_policy_ignores_non_containers(self):
        res = pta(
            self.TWO_BOXES,
            policy=ContainerSensitive(containers={"SomethingElse"}),
        )
        assert loc_names(res.pt_local("A.main", "x")) == {"object0", "string0"}

    def test_heap_context_names_allocations_per_receiver(self):
        source = (
            "class Vec { Object[] tbl; void grow() { this.tbl = new Object[4]; } }"
            " class A { static void main() {"
            "   Vec v1 = new Vec(); Vec v2 = new Vec(); v1.grow(); v2.grow(); } }"
        )
        res = pta(source, policy=ContainerSensitive(containers={"Vec"}))
        locs = set()
        for v in ("v1", "v2"):
            (vec,) = res.pt_local("A.main", v)
            locs |= res.pt_field(vec, "tbl")
        # Two distinct array locations, one per receiver: vec0.arr0 / vec1.arr0.
        assert len(locs) == 2
        assert {str(l) for l in locs} == {"vec0.arr0", "vec1.arr0"}


class TestAnnotations:
    SHARED_EMPTY = (
        "class Vec { static Object[] EMPTY; Object[] tbl;"
        "   Vec() { if (Vec.EMPTY == null) { Vec.EMPTY = new Object[1]; }"
        "           this.tbl = Vec.EMPTY; }"
        "   void add(Object o) { this.tbl[0] = o; } }"
        " class A { static void main() {"
        "   Vec v = new Vec(); v.add(new String()); } }"
    )

    def test_unannotated_pollutes_shared_array(self):
        res = pta(self.SHARED_EMPTY)
        (empty,) = res.pt_static("Vec", "EMPTY")
        assert loc_names(res.pt_field(empty, ELEMS)) == {"string0"}

    def test_annotation_suppresses_contents(self):
        res = pta(self.SHARED_EMPTY, empty_statics={("Vec", "EMPTY")})
        (empty,) = res.pt_static("Vec", "EMPTY")
        assert res.pt_field(empty, ELEMS) == frozenset()
        assert empty in res.suppressed


class TestProducers:
    def test_field_write_producer_recorded(self):
        res = pta(
            "class Box { Object v; } class A { static void main() {"
            " Box b = new Box(); b.v = new Object(); } }"
        )
        edges = [e for e in res.graph.heap_edges() if e.field == "v"]
        assert len(edges) == 1
        labels = res.producers_of(edges[0])
        assert len(labels) == 1
        assert str(res.program.commands[labels[0]]).startswith("b.v :=")

    def test_static_write_producer_recorded(self):
        res = pta(
            "class A { static Object o; static void main() { A.o = new Object(); } }"
        )
        edges = list(res.graph.static_edges())
        assert len(edges) == 1
        assert len(res.producers_of(edges[0])) == 1

    def test_multiple_producers(self):
        res = pta(
            "class Box { Object v; } class A { static void main() {"
            " Box b = new Box(); Object o = new Object();"
            " if (nondet()) { b.v = o; } else { b.v = o; } } }"
        )
        edges = [e for e in res.graph.heap_edges() if e.field == "v"]
        assert len(res.producers_of(edges[0])) == 2


class TestModRef:
    def test_direct_field_write(self):
        res = pta(
            "class Box { Object v; void set(Object o) { this.v = o; } }"
            " class A { static void main() { new Box().set(null); } }"
        )
        mod = res.modref.method_mod("Box.set")
        assert mod.writes_field("v")
        assert not mod.writes_field("w")

    def test_transitive_mod_through_call(self):
        res = pta(
            "class Box { Object v; void set(Object o) { this.v = o; } }"
            " class A { static void go(Box b) { b.set(null); }"
            " static void main() { A.go(new Box()); } }"
        )
        assert res.modref.method_mod("A.go").writes_field("v")

    def test_static_mod(self):
        res = pta(
            "class A { static Object o; static void touch() { A.o = null; }"
            " static void main() { A.touch(); } }"
        )
        assert res.modref.method_mod("A.touch").writes_static("A", "o")

    def test_pure_method_has_empty_mod(self):
        res = pta(
            "class A { static int f(int x) { return x + 1; }"
            " static void main() { int y = A.f(2); } }"
        )
        assert res.modref.method_mod("A.f").is_empty()


class TestHeapPaths:
    LEAKY = (
        "class Activity { }"
        " class Act extends Activity { }"
        " class Holder { Object item; }"
        " class A { static Holder root; static void main() {"
        "   Holder h = new Holder(); A.root = h; h.item = new Act(); } }"
    )

    def test_path_found_static_to_activity(self):
        res = pta(self.LEAKY)
        alarms = find_alarms(res.graph, res.program.class_table, "Activity")
        assert len(alarms) == 1
        root, target = alarms[0]
        assert root == StaticFieldNode("A", "root")
        path = find_heap_path(res.graph, root, target)
        assert path is not None and len(path) == 2
        assert path[0].is_static_root
        assert path[1].field == "item"

    def test_removing_edge_disconnects(self):
        res = pta(self.LEAKY)
        root, target = find_alarms(res.graph, res.program.class_table, "Activity")[0]
        path = find_heap_path(res.graph, root, target)
        removed = {path[1]}
        assert find_heap_path(res.graph, root, target, removed) is None
        assert not reaches(res.graph, root, target, removed)

    def test_alternative_path_survives_removal(self):
        res = pta(
            "class Activity { } class Act extends Activity { }"
            " class Holder { Object a; Object b; }"
            " class M { static Holder root; static void main() {"
            "   Holder h = new Holder(); M.root = h;"
            "   Act act = new Act(); h.a = act; h.b = act; } }"
        )
        root, target = find_alarms(res.graph, res.program.class_table, "Activity")[0]
        path = find_heap_path(res.graph, root, target)
        removed = {path[1]}
        other = find_heap_path(res.graph, root, target, removed)
        assert other is not None
        assert other[1] != path[1]

    def test_no_alarm_without_static_root(self):
        res = pta(
            "class Activity { } class Act extends Activity { }"
            " class M { static void main() { Act a = new Act(); } }"
        )
        assert find_alarms(res.graph, res.program.class_table, "Activity") == []

    def test_dot_rendering(self):
        res = pta(self.LEAKY)
        dot = res.graph.to_dot()
        assert dot.startswith("digraph")
        assert "item" in dot


class TestCallSiteSensitivity:
    FACTORY = (
        "class Box { Object v; }"
        " class F { static Box make(Object o) {"
        "   Box b = new Box(); b.v = o; return b; } }"
        " class M { static void main() {"
        "   Box b1 = F.make(new Object());"
        "   Box b2 = F.make(new String());"
        "   Object x = b1.v; } }"
    )

    def test_zero_cfa_conflates_call_sites(self):
        from repro.pointsto import ContextInsensitive

        res = pta(self.FACTORY, policy=ContextInsensitive())
        assert loc_names(res.pt_local("M.main", "x")) == {"object0", "string0"}

    def test_one_cfa_separates_call_sites(self):
        from repro.pointsto import CallSiteSensitive

        res = pta(self.FACTORY, policy=CallSiteSensitive(1))
        hints = {loc.site.hint for loc in res.pt_local("M.main", "x")}
        assert hints == {"object0"}

    def test_object_sensitivity_cannot_help_static_factories(self):
        from repro.pointsto import ObjectSensitive

        # The factory is static: no receiver to discriminate on.
        res = pta(self.FACTORY, policy=ObjectSensitive(1))
        assert loc_names(res.pt_local("M.main", "x")) == {"object0", "string0"}

    def test_kcfa_refutation_still_sound(self):
        from repro.pointsto import CallSiteSensitive
        from repro.symbolic import Engine
        from repro.symbolic.stats import WITNESSED

        res = pta(self.FACTORY, policy=CallSiteSensitive(1))
        engine = Engine(res)
        for edge in res.graph.heap_edges():
            # Every remaining edge under 1-CFA is real: must be witnessed.
            assert engine.refute_edge(edge).status == WITNESSED

    def test_k_must_be_positive(self):
        from repro.pointsto import CallSiteSensitive

        with pytest.raises(ValueError):
            CallSiteSensitive(0)
