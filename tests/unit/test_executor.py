"""End-to-end tests of the witness-refutation engine on small programs.

Each test compiles a mini-Java program, runs the points-to analysis, picks
a heap edge, and checks whether the engine refutes or witnesses it.
"""

import pytest

from repro.engine import RefutationDriver
from repro.ir import compile_program
from repro.pointsto import ELEMS, ContainerSensitive, analyze
from repro.symbolic import Engine, Representation, SearchConfig
from repro.symbolic.stats import REFUTED, TIMEOUT, WITNESSED


def setup(source, config=None, **pta_kwargs):
    prog = compile_program(source)
    pta = analyze(prog, **pta_kwargs)
    return pta, Engine(pta, config or SearchConfig())


def find_edge(pta, field_name, dst_hint=None, src_hint=None):
    edges = [
        e
        for e in list(pta.graph.heap_edges()) + list(pta.graph.static_edges())
        if e.field == field_name
        and (dst_hint is None or str(e.dst) == dst_hint)
        and (src_hint is None or str(e.src) == src_hint)
    ]
    assert len(edges) == 1, f"expected one edge, got {edges}"
    return edges[0]


class TestWitnessing:
    def test_straightline_store_witnessed(self):
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); b.v = new Object(); } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == WITNESSED

    def test_static_store_witnessed(self):
        pta, engine = setup(
            "class M { static Object o; static void main() { M.o = new Object(); } }"
        )
        result = engine.refute_edge(find_edge(pta, "o"))
        assert result.status == WITNESSED

    def test_witness_trace_is_forward_ordered(self):
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); b.v = new Object(); } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.witness_trace
        # Labels along one path program should be increasing-ish in program
        # order; at minimum the producing write is the last step.
        prod_label = pta.producers_of(result.edge.__class__(**{}) if False else result.edge)[0]
        assert result.witness_trace[-1] == prod_label

    def test_store_through_call_witnessed(self):
        pta, engine = setup(
            "class Box { Object v; void set(Object o) { this.v = o; } }"
            " class M { static void main() {"
            " Box b = new Box(); b.set(new Object()); } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == WITNESSED

    def test_array_store_witnessed(self):
        pta, engine = setup(
            "class M { static void main() {"
            " Object[] xs = new Object[2]; xs[0] = new Object(); } }"
        )
        result = engine.refute_edge(find_edge(pta, ELEMS))
        assert result.status == WITNESSED


class TestValueCorrelationRefutation:
    """Flow-insensitive pt merges both branches; path sensitivity splits."""

    SOURCE = (
        "class Box { Object v; } class M { static void main() {"
        "  int flag = 0;"
        "  Object o = new String();"
        "  if (flag == 1) { o = new Object(); }"
        "  Box b = new Box();"
        "  b.v = o; } }"
    )

    def test_infeasible_branch_value_refuted(self):
        pta, engine = setup(self.SOURCE)
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="object0"))
        assert result.status == REFUTED

    def test_feasible_branch_value_witnessed(self):
        pta, engine = setup(self.SOURCE)
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="string0"))
        assert result.status == WITNESSED


class TestAllocationSiteRefutation:
    def test_wit_new_conflicting_site(self):
        # The write stores the String freshly overwritten into o; the
        # points-to set of o still contains object0 from the first
        # assignment, so the flow-insensitive edge v -> object0 exists but
        # the strong update refutes it.
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " Object o = new Object();"
            " o = new String();"
            " Box b = new Box(); b.v = o; } }"
        )
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="object0"))
        assert result.status == REFUTED
        result2 = engine.refute_edge(find_edge(pta, "v", dst_hint="string0"))
        assert result2.status == WITNESSED


class TestArgumentBindingRefutation:
    """The paper's objs.push("hello") pattern: a call site whose argument
    cannot be the queried instance (WIT-NEW via parameter binding)."""

    SOURCE = (
        "class Activity { }"
        " class Box { Object v; void set(Object o) { this.v = o; } }"
        " class M { static void main() {"
        "   Box b1 = new Box(); Box b2 = new Box();"
        '   b1.set(new Activity()); b2.set("hello"); } }'
    )

    def test_per_receiver_contents_separated_with_context(self):
        pta, engine = setup(
            self.SOURCE, policy=ContainerSensitive(containers={"Box"})
        )
        # With container context, b2's box never holds the Activity.
        edges = [
            e
            for e in pta.graph.heap_edges()
            if e.field == "v" and str(e.dst) == "activity0"
        ]
        assert len(edges) == 1  # precise points-to already separates

    def test_refutes_wrong_receiver_flow_without_context(self):
        # Context-insensitively, `this` in Box.set points to both boxes and
        # `o` to both values, so the graph has the spurious edge
        # box1.v -> activity0. The backwards search refutes it: on the
        # b2.set("hello") path the argument is a String (WIT-NEW at the
        # string literal), and on the b1.set(activity) path the receiver is
        # box0 (conflicts with the queried box1 instance).
        pta, engine = setup(self.SOURCE)
        by_src = {
            str(e.src): e
            for e in pta.graph.heap_edges()
            if e.field == "v" and str(e.dst) == "activity0"
        }
        assert set(by_src) == {"box0", "box1"}
        assert engine.refute_edge(by_src["box1"]).status == REFUTED
        assert engine.refute_edge(by_src["box0"]).status == WITNESSED


class TestStaticGuardRefutation:
    """The StandupTimer latent-leak pattern: a flag that is never enabled
    guards the leaking store."""

    SOURCE = (
        "class Activity { }"
        " class Prefs { static boolean cache = false; }"
        " class M { static Object hold;"
        "   static void main() {"
        "     Activity a = new Activity();"
        "     if (Prefs.cache) { M.hold = a; } } }"
    )

    def test_flag_never_set_refutes_leak(self):
        pta, engine = setup(self.SOURCE)
        result = engine.refute_edge(find_edge(pta, "hold"))
        assert result.status == REFUTED

    def test_flag_enabled_witnesses_leak(self):
        source = self.SOURCE.replace("static boolean cache = false", "static boolean cache = true")
        pta, engine = setup(source)
        result = engine.refute_edge(find_edge(pta, "hold"))
        assert result.status == WITNESSED

    def test_flag_nondet_witnesses_leak(self):
        source = (
            "class Activity { }"
            " class M { static Object hold;"
            "   static void main() {"
            "     Activity a = new Activity();"
            "     if (nondet()) { M.hold = a; } } }"
        )
        pta, engine = setup(source)
        result = engine.refute_edge(find_edge(pta, "hold"))
        assert result.status == WITNESSED


class TestInterprocedural:
    def test_callee_constant_refutes(self):
        # The guard constant comes from a callee's return value.
        pta, engine = setup(
            "class Activity { }"
            " class M { static Object hold;"
            "   static int zero() { return 0; }"
            "   static void main() {"
            "     Activity a = new Activity();"
            "     int z = M.zero();"
            "     if (z == 1) { M.hold = a; } } }"
        )
        result = engine.refute_edge(find_edge(pta, "hold"))
        assert result.status == REFUTED

    def test_two_callers_one_feasible(self):
        pta, engine = setup(
            "class Activity { }"
            " class Box { Object v; }"
            " class M { static Box box;"
            "   static void put(Box b, Object o) { b.v = o; }"
            "   static void main() {"
            "     M.box = new Box();"
            '     M.put(M.box, "s");'
            "     M.put(M.box, new Activity()); } }"
        )
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="activity0"))
        assert result.status == WITNESSED
        result2 = engine.refute_edge(find_edge(pta, "v", dst_hint="str0"))
        assert result2.status == WITNESSED

    def test_deep_call_chain_witnessed_within_depth(self):
        pta, engine = setup(
            "class Box { Object v; }"
            " class M {"
            "   static void l1(Box b, Object o) { M.l2(b, o); }"
            "   static void l2(Box b, Object o) { b.v = o; }"
            "   static void main() { M.l1(new Box(), new Object()); } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == WITNESSED

    def test_skipped_callee_never_refutes_unsoundly(self):
        # With call depth 0, every callee is skipped: queries weaken to
        # `any` and the edge must be witnessed, never refuted.
        pta, engine = setup(
            "class Box { Object v; void set(Object o) { this.v = o; } }"
            " class M { static void main() {"
            " Box b = new Box(); b.set(new Object()); } }",
            config=SearchConfig(max_call_depth=0),
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == WITNESSED


class TestLoops:
    def test_loop_irrelevant_to_query(self):
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " int i = 0; while (i < 3) { i = i + 1; }"
            " Box b = new Box(); b.v = new Object(); } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == WITNESSED

    def test_store_inside_loop_witnessed(self):
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); int i = 0;"
            " while (i < 3) { b.v = new Object(); i = i + 1; } } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == WITNESSED

    def test_guarded_store_inside_loop_refuted(self):
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); int i = 0; int flag = 0;"
            " while (i < 3) {"
            "   if (flag == 1) { b.v = new Object(); }"
            "   i = i + 1; } } }"
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == REFUTED

    def test_array_copy_loop_witnessed(self):
        pta, engine = setup(
            "class M { static void main() {"
            " Object[] src = new Object[2]; Object[] dst = new Object[2];"
            " src[0] = new Object();"
            " for (int i = 0; i < 2; i++) { dst[i] = src[i]; } } }"
        )
        edges = [
            e
            for e in pta.graph.heap_edges()
            if e.field == ELEMS and str(e.src) == "arr1"
        ]
        assert len(edges) == 1
        result = engine.refute_edge(edges[0])
        assert result.status == WITNESSED


class TestBudget:
    def test_tiny_budget_times_out(self):
        pta, engine = setup(
            "class Box { Object v; } class M {"
            " static void put(Box b, Object o) { b.v = o; }"
            " static void main() {"
            "   Box b = new Box(); Object o = new Object();"
            "   if (nondet()) { M.put(b, o); } else { M.put(b, o); }"
            "   if (nondet()) { M.put(b, o); } else { M.put(b, o); } } }",
            config=SearchConfig(path_budget=1),
        )
        result = engine.refute_edge(find_edge(pta, "v"))
        assert result.status == TIMEOUT

    def test_edge_results_cached(self):
        pta, engine = setup(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); b.v = new Object(); } }"
        )
        edge = find_edge(pta, "v")
        # The engine caches nothing: each call searches afresh.
        assert engine.refute_edge(edge) is not engine.refute_edge(edge)
        # The driver keeps the final verdict and answers the repeat.
        driver = RefutationDriver(pta)
        r1 = driver.refute_edge(edge)
        r2 = driver.refute_edge(edge)
        assert r1 is r2
        assert driver.cache_hits == 1


class TestRepresentations:
    SOURCE = TestValueCorrelationRefutation.SOURCE

    @pytest.mark.parametrize(
        "rep",
        [Representation.MIXED, Representation.FULLY_SYMBOLIC, Representation.FULLY_EXPLICIT],
    )
    def test_feasible_edge_witnessed_in_all_representations(self, rep):
        pta, engine = setup(self.SOURCE, config=SearchConfig(representation=rep))
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="string0"))
        assert result.status == WITNESSED

    @pytest.mark.parametrize(
        "rep",
        [Representation.MIXED, Representation.FULLY_EXPLICIT],
    )
    def test_infeasible_edge_refuted_with_regions(self, rep):
        pta, engine = setup(self.SOURCE, config=SearchConfig(representation=rep))
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="object0"))
        assert result.status == REFUTED

    def test_fully_symbolic_still_refutes_via_alloc_check(self):
        pta, engine = setup(
            self.SOURCE,
            config=SearchConfig(representation=Representation.FULLY_SYMBOLIC),
        )
        result = engine.refute_edge(find_edge(pta, "v", dst_hint="object0"))
        # The initial query vars keep their singleton regions, so WIT-NEW
        # still refutes the infeasible branch; the flag constant kills the
        # feasible one.
        assert result.status == REFUTED
