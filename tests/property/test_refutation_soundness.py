"""Refutation soundness (Theorem 1), tested against executable ground truth.

Hypothesis generates small mini-Java programs over a fixed class universe;
the bounded concrete interpreter enumerates their executions and records
every heap points-to edge actually produced. The witness-refutation engine
must never refute an edge that some concrete run produced.

(The converse — refuting every absent edge — is *precision*, not soundness,
and is intentionally not asserted here.)
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import RefutationDriver
from repro.ir import Interpreter, Limits, compile_program
from repro.pointsto import analyze
from repro.pointsto.graph import HeapEdge, StaticFieldNode
from repro.pointsto.heappaths import find_heap_path
from repro.pointsto.producers import edge_key
from repro.symbolic import Engine, SearchConfig
from repro.symbolic.stats import REFUTED

HEADER = """
class Box { Object v; Box next; int n; }
class M {
    static Box s;
    static Object o;
    static void main() {
        Box b0 = null; Box b1 = null; Box b2 = null;
        Object o0 = null; Object o1 = null;
        int i0 = 0; int i1 = 0;
"""
FOOTER = """
    }
}
"""

BOX_VARS = ["b0", "b1", "b2"]
OBJ_VARS = ["o0", "o1"]
INT_VARS = ["i0", "i1"]


@st.composite
def simple_stmt(draw):
    # Weighted toward allocations and stores so most generated programs
    # actually create heap edges for the refuter to examine.
    kind = draw(
        st.sampled_from(
            [
                "new_box",
                "new_box",
                "new_box",
                "new_obj",
                "new_obj",
                "copy_box",
                "null_box",
                "store_v",
                "store_v",
                "store_v",
                "store_next",
                "store_next",
                "store_n",
                "load_v",
                "load_next",
                "static_store_s",
                "static_store_s",
                "static_store_o",
                "static_load",
                "int_set",
                "int_inc",
                "recipe_store",
                "recipe_store",
                "recipe_chain",
                "recipe_static",
                "cast",
                "obj_from_box",
            ]
        )
    )
    b = draw(st.sampled_from(BOX_VARS))
    b2 = draw(st.sampled_from(BOX_VARS))
    o = draw(st.sampled_from(OBJ_VARS))
    i = draw(st.sampled_from(INT_VARS))
    k = draw(st.integers(0, 3))
    return {
        # Multi-statement recipes that guarantee heap edges exist.
        "recipe_store": f"{b} = new Box(); {o} = new Object(); {b}.v = {o};",
        "recipe_chain": f"{b} = new Box(); {b2}.next = {b}; M.s = {b2};",
        "recipe_static": f"{b} = new Box(); M.s = {b}; {b2} = M.s;",
        **{
        "new_box": f"{b} = new Box();",
        "new_obj": f"{o} = new Object();",
        "copy_box": f"{b} = {b2};",
        "null_box": f"{b} = null;",
        "store_v": f"{b}.v = {o};",
        "store_next": f"{b}.next = {b2};",
        "store_n": f"{b}.n = {k};",
        "load_v": f"{o} = {b2}.v;",
        "load_next": f"{b} = {b2}.next;",
        "static_store_s": f"M.s = {b};",
        "static_store_o": f"M.o = {o};",
        "static_load": f"{b} = M.s;",
        "int_set": f"{i} = {k};",
        "int_inc": f"{i} = {i} + 1;",
        "cast": f"{b} = (Box) {o};",
        "obj_from_box": f"{o} = {b2};",
        },
    }[kind]


@st.composite
def block(draw, depth):
    n = draw(st.integers(1, 4))
    stmts = []
    for _ in range(n):
        if depth > 0 and draw(st.booleans()) and draw(st.booleans()):
            stmts.append(draw(compound_stmt(depth - 1)))
        else:
            stmts.append(draw(simple_stmt()))
    return " ".join(stmts)


@st.composite
def compound_stmt(draw, depth):
    kind = draw(
        st.sampled_from(
            ["if_nondet", "if_null", "if_cmp", "if_refeq", "if_instanceof", "loop"]
        )
    )
    body = draw(block(depth))
    if kind == "if_nondet":
        orelse = draw(block(depth))
        return f"if (nondet()) {{ {body} }} else {{ {orelse} }}"
    if kind == "if_null":
        b = draw(st.sampled_from(BOX_VARS))
        return f"if ({b} == null) {{ {body} }}"
    if kind == "if_refeq":
        b1, b2 = draw(st.sampled_from(BOX_VARS)), draw(st.sampled_from(BOX_VARS))
        return f"if ({b1} == {b2}) {{ {body} }}"
    if kind == "if_instanceof":
        o = draw(st.sampled_from(OBJ_VARS))
        return f"if ({o} instanceof Box) {{ {body} }}"
    if kind == "if_cmp":
        i = draw(st.sampled_from(INT_VARS))
        k = draw(st.integers(0, 3))
        op = draw(st.sampled_from(["<", "<=", "==", ">="]))
        return f"if ({i} {op} {k}) {{ {body} }}"
    # Bounded loop with a guaranteed increment.
    i = draw(st.sampled_from(INT_VARS))
    k = draw(st.integers(1, 3))
    return f"{i} = 0; while ({i} < {k}) {{ {body} {i} = {i} + 1; }}"


@st.composite
def programs(draw):
    return HEADER + draw(block(2)) + FOOTER


def concrete_edge_keys(program):
    """(src-site-or-static, field, dst-site) triples over all bounded runs."""
    interp = Interpreter(
        program,
        Limits(max_loop_iterations=4, max_steps=6_000, max_paths=400),
    )
    keys = set()
    for edge in interp.produced_edges():
        keys.add((edge.src, edge.field_name, edge.dst))
    return keys


def graph_edge_key(edge: HeapEdge):
    if edge.is_static_root:
        src = edge.src
        assert isinstance(src, StaticFieldNode)
        return (("static", src.class_name, src.field), edge.field, edge.dst.site)
    return (edge.src.site, edge.field, edge.dst.site)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_concretely_produced_edges_never_refuted(source):
    program = compile_program(source)
    produced = concrete_edge_keys(program)
    pta = analyze(program)
    engine = Engine(pta, SearchConfig(path_budget=3_000))
    all_edges = list(pta.graph.heap_edges()) + list(pta.graph.static_edges())
    for edge in all_edges:
        result = engine.refute_edge(edge)
        if result.status == REFUTED:
            assert graph_edge_key(edge) not in produced, (
                f"UNSOUND: refuted edge {edge} is produced concretely\n"
                f"program:\n{source}"
            )


def _driver_paths_never_refute_produced_edges(source, **driver_args):
    """Theorem 1 through the driver: the heap paths from ``M.s``/``M.o``
    run as portfolio path batches, where the jobs dispatch cheapest first.
    As in the Section 2 loop, each target's paths are re-routed around the
    edges refuted so far until none is left or one is not broken."""
    program = compile_program(source)
    produced = concrete_edge_keys(program)
    pta = analyze(program)
    config = SearchConfig(path_budget=3_000, portfolio=True)
    with RefutationDriver(pta, config, **driver_args) as driver:
        for field in ("s", "o"):
            root = StaticFieldNode("M", field)
            for target in sorted(pta.graph.all_abs_locs(), key=str):
                refuted: set = set()
                while True:
                    path = find_heap_path(pta.graph, root, target, refuted)
                    if path is None:
                        break
                    broken = {
                        edge
                        for edge, result in driver.refute_path(path)
                        if result.status == REFUTED
                    }
                    for edge in broken:
                        assert graph_edge_key(edge) not in produced, (
                            f"UNSOUND: driver refuted edge {edge} on a path"
                            f" to {target}, produced concretely\n"
                            f"program:\n{source}"
                        )
                    if not broken:
                        break
                    refuted |= broken


#: A three-edge path M.s -> box -> box -> object whose middle edge only a
#: dead branch writes: both driver legs run it, so each reaches a portfolio
#: rung on a multi-edge path at least once.
THREE_EDGE_PATH = (
    HEADER
    + "b0 = new Box(); o0 = new Object(); b0.v = o0; b1 = new Box();"
    " if (i0 == 1) { b1.next = b0; } M.s = b1; b2 = new Box(); b2.next = b0;"
    + FOOTER
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
@example(THREE_EDGE_PATH)
def test_driver_portfolio_paths_never_refute_produced_edges(source):
    """In-process (``backend="thread"``): the rung ceiling cuts path-mates
    live."""
    _driver_paths_never_refute_produced_edges(source, jobs=2, backend="thread")


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
@example(THREE_EDGE_PATH)
def test_driver_process_pool_edges_never_refute_produced_edges(source):
    """On the process pool: every heap and static edge of the program runs
    as one flat portfolio batch (``refute_edges``, the batch ``witness``
    issues), and the pool runs whenever two or more edges are searched."""
    program = compile_program(source)
    produced = concrete_edge_keys(program)
    pta = analyze(program)
    edges = list(pta.graph.heap_edges()) + list(pta.graph.static_edges())
    config = SearchConfig(path_budget=3_000, portfolio=True)
    with RefutationDriver(pta, config, jobs=2, backend="process") as driver:
        results = driver.refute_edges(edges)
        records = driver.build_report().records
    for edge in edges:
        if results[edge_key(edge)].status == REFUTED:
            assert graph_edge_key(edge) not in produced, (
                f"UNSOUND: pool refuted edge {edge}, produced concretely\n"
                f"program:\n{source}"
            )
    if len(records) >= 2:
        assert any(r.worker.startswith("process-") for r in records), records


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_flow_insensitive_graph_covers_concrete_edges(source):
    """Sanity of the substrate itself: the Andersen graph must contain every
    concretely produced edge (its own soundness)."""
    program = compile_program(source)
    produced = concrete_edge_keys(program)
    pta = analyze(program)
    graph_keys = {
        graph_edge_key(e)
        for e in list(pta.graph.heap_edges()) + list(pta.graph.static_edges())
    }
    missing = produced - graph_keys
    assert not missing, f"points-to analysis missed edges {missing}\n{source}"
