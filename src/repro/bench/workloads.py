"""Workload utilities: executable ground truth and scaling generators.

``concrete_leaks`` runs the bounded concrete interpreter over the harnessed
app and reports which static fields genuinely reach an Activity — the
ground truth behind the TruA/FalA columns of Table 1 (the paper determined
these manually; we determine them by execution).

``chain_app``/``branchy_app`` generate parameterized programs for the
scaling micro-benchmarks.
"""

from __future__ import annotations

from ..ir import Interpreter, Limits, build_program, heap_reaches
from ..api import frontend_app
from .apps import BenchApp


_TRUTH_CACHE: dict = {}


def concrete_leak_pairs(
    app: BenchApp, limits: Limits | None = None
) -> set[tuple[tuple[str, str], object]]:
    """Ground truth at alarm granularity: ((class, field), activity
    allocation site) pairs genuinely reachable in some bounded concrete
    execution — the paper's "(static field, Activity) alarm pairs".
    Cached per app for the default limits (the tables query it often)."""
    if limits is None and app.name in _TRUTH_CACHE:
        return set(_TRUTH_CACHE[app.name])
    program = build_program(frontend_app(app.source))
    interp = Interpreter(
        program,
        limits
        or Limits(max_loop_iterations=4, max_call_depth=32, max_steps=60_000, max_paths=600),
    )
    pairs: set[tuple[tuple[str, str], object]] = set()
    for run in interp.explore():
        for (key, site) in heap_reaches(run.statics, program.class_table, {"Activity"}):
            pairs.add((key, site))
    if limits is None:
        _TRUTH_CACHE[app.name] = set(pairs)
    return pairs


def concrete_leaks(app: BenchApp, limits: Limits | None = None) -> set[tuple[str, str]]:
    """Field-level ground truth (the coarse view used in app metadata)."""
    return {key for key, _ in concrete_leak_pairs(app, limits)}


# ---------------------------------------------------------------------------
# Scaling generators
# ---------------------------------------------------------------------------


def chain_app(depth: int) -> str:
    """An app whose leak flows through a call chain of ``depth`` helpers —
    stresses interprocedural propagation and callee skipping."""
    helpers = []
    for i in range(depth):
        callee = f"Chain.h{i + 1}(a)" if i + 1 < depth else "Chain.sink(a)"
        helpers.append(f"    static void h{i}(Activity a) {{ {callee}; }}")
    helpers.append("    static void sink(Activity a) { Chain.hold = a; }")
    body = "\n".join(helpers)
    entry = "Chain.h0(this);" if depth > 0 else "Chain.sink(this);"
    return f"""
class ChainActivity extends Activity {{
    void onCreate() {{ {entry} }}
}}
class Chain {{
    static Activity hold;
{body}
}}
"""


def branchy_app(branches: int, leaky: bool) -> str:
    """An app with ``branches`` sequential nondeterministic branches before
    a (guarded or unguarded) leaking store — stresses path enumeration."""
    lines = ["        int x = 0;"]
    for i in range(branches):
        lines.append(f"        if (nondet()) {{ x = x + 1; }} else {{ x = x + 2; }}")
    guard = "true" if leaky else f"x > {3 * branches}"
    lines.append(f"        if ({guard}) {{ Sink.hold = this; }}")
    body = "\n".join(lines)
    return f"""
class BranchActivity extends Activity {{
    void onCreate() {{
{body}
    }}
}}
class Sink {{
    static Activity hold;
}}
"""


def entailed_app(branches: int) -> str:
    """An app with ``branches`` nondeterministic branches feeding a
    *redundant* disjunctive leak guard: each backwards assume split turns
    ``(x > B && x > 1) || x > B`` into same-continuation sibling states
    where the first disjunct structurally entails the second — the shape
    the worklist-subsumption pruner (``Engine._prune_batch``) exists for
    (the dominated sibling must precede its weaker mate in the successor
    batch), so ``worklist_subsumed``/``entails_calls`` demonstrably fire.
    The bound ``B = 3*branches`` is unreachable (each branch adds at most
    2), so the store is refutable and the search explores every path."""
    bound = 3 * branches
    lines = ["        int x = 0;"]
    for _ in range(branches):
        lines.append("        if (nondet()) { x = x + 1; } else { x = x + 2; }")
    lines.append(
        f"        if ((x > {bound} && x > 1) || x > {bound})"
        " { Keep.hold = this; }"
    )
    body = "\n".join(lines)
    return f"""
class EntailActivity extends Activity {{
    void onCreate() {{
{body}
    }}
}}
class Keep {{
    static Activity hold;
}}
"""


def lattice_app(branches: int) -> str:
    """An app interleaving ``branches`` nondeterministic updates to *each*
    of two independent counters before a conjunctive leak guard over both.

    The backwards path constraints are a product lattice: every path is an
    (x-history, y-history) pair, so a whole-query cache sees O(N^2)
    distinct atom sets while relevance partitioning sees two variable-
    disjoint components with only O(N) distinct fragments each — the shape
    where per-component verdict caching collapses the key space. The bound
    ``3*branches`` is unreachable (each update adds at most 2), so every
    alarm is refutable and the search explores the full product."""
    bound = 3 * branches
    lines = ["        int x = 0;", "        int y = 0;"]
    for _ in range(branches):
        lines.append("        if (nondet()) { x = x + 1; } else { x = x + 2; }")
        lines.append("        if (nondet()) { y = y + 1; } else { y = y + 2; }")
    lines.append(
        f"        if (x > {bound} && y > {bound}) {{ Grid.hold = this; }}"
    )
    body = "\n".join(lines)
    return f"""
class LatticeActivity extends Activity {{
    void onCreate() {{
{body}
    }}
}}
class Grid {{
    static Activity hold;
}}
"""


def lifecycle_app(n_screens: int, leaky: int = 0, branches: int = 0) -> str:
    """The serve benchmark's workload: ``n_screens`` independent
    lifecycle-style components, each allocating its own payload class and
    conditionally storing it into a shared static registry — one refutable
    edge per screen (the first ``leaky`` screens store unconditionally and
    are witnessed instead).

    Built for *edit-level* incremental re-analysis: the screens share no
    code, so an edit to one screen's ``onStart`` leaves every other
    screen's verdict footprint untouched. Each ``onStart`` carries a
    ``/*edit-i*/`` marker and already bumps ``this.pad``, so the canonical
    edit (:func:`lifecycle_edit`) appends another bump: additive at the
    pointer-fact level (no new allocations, fields, or callees), hence
    eligible for the graft + delta-worklist path, and summary-preserving
    for every method that transitively calls it. Runs without the Android
    harness — pass ``include_library=False``.

    ``branches`` adds that many sequential nondeterministic updates to a
    counter ahead of each screen's (unreachable-bound) store guard, so the
    per-edge refutation cost scales like :func:`branchy_app` — the knob
    that makes search time dominate the pipeline front half, which is what
    the incremental-vs-cold benchmark measures."""
    classes = ["class Item { }", "class Registry { static Item hold; }"]
    main_lines = []
    for i in range(n_screens):
        guard_lines = []
        if branches:
            guard_lines.append("        int x = 0;")
            guard_lines.extend(
                "        if (nondet()) { x = x + 1; } else { x = x + 2; }"
                for _ in range(branches)
            )
            guard = f"x > {3 * branches}"  # unreachable: each step adds <= 2
        else:
            guard_lines.append("        int gate = 0;")
            guard = "gate == 1"
        store = (
            "Registry.hold = o;"
            if i < leaky
            else f"if ({guard}) {{ Registry.hold = o; }}"
        )
        body = "\n".join(guard_lines)
        classes.append(
            f"""
class Obj{i} extends Item {{ }}
class Screen{i} {{
    int pad;
    Item make() {{ Item o = new Obj{i}(); return o; }}
    void onStart() {{
        this.pad = this.pad + 1; /*edit-{i}*/
        Item o = this.make();
{body}
        {store}
    }}
    void onStop() {{ this.pad = 0; }}
}}"""
        )
        main_lines.append(
            f"        Screen{i} s{i} = new Screen{i}();"
            f" s{i}.onStart(); s{i}.onStop();"
        )
    body = "\n".join(main_lines)
    classes.append(f"class M {{\n    static void main() {{\n{body}\n    }}\n}}")
    return "\n".join(classes)


def lifecycle_edit(source: str, screen: int = 0) -> str:
    """The canonical one-method edit for :func:`lifecycle_app`: one more
    ``pad`` bump in ``Screen{screen}.onStart``. Additive (old facts all
    preserved) and summary-preserving (``pad`` was already in the mod
    set), so a serve session re-analyzes exactly that screen's edge."""
    marker = f"/*edit-{screen}*/"
    if marker not in source:
        raise ValueError(f"no {marker} marker: not a lifecycle_app source?")
    return source.replace(marker, f"this.pad = this.pad + 1; {marker}")


def mixed_app(
    easy: int,
    hard: int,
    easy_branches: int = 2,
    hard_branches: int = 10,
) -> str:
    """The scheduling benchmark's workload: ``easy`` cheap screens plus
    ``hard`` expensive ones, every edge refutable (no witnesses), with the
    hard screens *last* in program order.

    Each screen is an independent :func:`lifecycle_app`-style component
    whose store guard sits behind ``branches`` nondeterministic updates
    with an unreachable bound, so per-edge search cost scales with the
    branch count while every verdict stays REFUTED — verdicts are
    schedule- and portfolio-independent by construction (the
    path-program budget, not wall clock, bounds each search). Putting the
    hard screens at the tail gives naive FIFO dispatch its worst case:
    the tail serializes on the expensive edges exactly when the pool has
    nothing left to overlap them with — the shape cost-ordered dispatch
    and portfolio rungs each attack."""
    counts = [easy_branches] * easy + [hard_branches] * hard
    classes = ["class Thing { }", "class Registry { static Thing hold; }"]
    main_lines = []
    for i, branches in enumerate(counts):
        bound = 3 * branches  # unreachable: each step adds <= 2
        lines = ["        int x = 0;"]
        lines.extend(
            "        if (nondet()) { x = x + 1; } else { x = x + 2; }"
            for _ in range(branches)
        )
        body = "\n".join(lines)
        classes.append(
            f"""
class Mix{i} extends Thing {{ }}
class Job{i} {{
    Thing make() {{ Thing o = new Mix{i}(); return o; }}
    void run() {{
        Thing o = this.make();
{body}
        if (x > {bound}) {{ Registry.hold = o; }}
    }}
}}"""
        )
        main_lines.append(f"        Job{i} j{i} = new Job{i}(); j{i}.run();")
    body = "\n".join(main_lines)
    classes.append(f"class M {{\n    static void main() {{\n{body}\n    }}\n}}")
    return "\n".join(classes)


def layered_app(n: int, hard_branches: int = 10) -> str:
    """Two-edge heap paths with the *expensive* edge first: the
    cheap-first portfolio's best case.

    Each job stores a fresh ``Holder`` into ``Registry.hold`` behind
    ``hard_branches`` nondeterministic updates with an unreachable bound
    (expensive to refute — the search must exhaust the branch tree), and
    stores an ``Item`` into the holder behind a constant-false guard
    (refuted in a handful of path programs). Every reachability path
    ``Registry.hold -> holderN0 -> itemN0`` therefore breaks at either
    edge, but the fixed Section 2 walk pays the expensive first edge,
    while the portfolio's path-level rung ladder refutes the cheap
    second edge at the small budget rung and never escalates the
    expensive one. All verdicts are REFUTED by construction, so client
    outcomes are schedule- and portfolio-independent."""
    classes = [
        "class Item { }",
        "class Holder { Item item; }",
        "class Registry { static Holder hold; }",
    ]
    main_lines = []
    for i in range(n):
        bound = 3 * hard_branches  # unreachable: each step adds <= 2
        branch_lines = "\n".join(
            "        if (nondet()) { x = x + 1; } else { x = x + 2; }"
            for _ in range(hard_branches)
        )
        classes.append(
            f"""
class Job{i} {{
    void run() {{
        Holder h = new Holder();
        Item it = new Item();
        int g = 0;
        if (g > 0) {{ h.item = it; }}
        int x = 0;
{branch_lines}
        if (x > {bound}) {{ Registry.hold = h; }}
    }}
}}"""
        )
        main_lines.append(f"        Job{i} j{i} = new Job{i}(); j{i}.run();")
    body = "\n".join(main_lines)
    classes.append(f"class M {{\n    static void main() {{\n{body}\n    }}\n}}")
    return "\n".join(classes)


def container_app(n_activities: int) -> str:
    """``n`` activities each pushing themselves into local Vecs — the
    Figure 1 pattern replicated, stressing the null-object refutations."""
    classes = []
    for i in range(n_activities):
        classes.append(
            f"""
class LocalAct{i} extends Activity {{
    void onCreate() {{
        Vec v = new Vec();
        v.push(this);
        v.push("tag{i}");
    }}
}}
"""
        )
    return "\n".join(classes)
