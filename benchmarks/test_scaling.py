"""Scaling micro-benchmarks for the core engine.

Not a table in the paper, but the paper's Section 4 discusses where effort
goes (call-stack depth bounding, path-program budgets, the per-edge cost of
refutation vs witnessing). These sweeps characterize our reproduction the
same way:

* call-chain depth: sound callee-skipping keeps deep chains cheap;
* branch count: path programs grow with choices, the budget bounds them;
* container replication: the Figure 1 refutation, N times over.
"""

import json
import os
import time

import pytest

from repro.android.leaks import LeakChecker
from repro.bench.workloads import (
    branchy_app,
    chain_app,
    container_app,
    entailed_app,
    lattice_app,
)
from repro.obs import metrics
from repro.perf.memo import SOLVER_MEMO
from repro.symbolic import SearchConfig

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

#: Smoke mode (CI): the same ablation grid on a smaller workload so the
#: artifact is produced in seconds instead of a minute.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Strict mode: also *assert* wall-clock ratios. Wall-clock is only
#: meaningful on an otherwise-idle machine — under concurrent load the
#: ratios fail spuriously — so timing assertions are opt-in; the
#: deterministic counters (solver calls, states, hit rates) are asserted
#: unconditionally, and wall-clock is always still *recorded*.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")


@pytest.mark.parametrize("depth", [1, 4, 8])
def test_call_chain_scaling(benchmark, depth):
    source = chain_app(depth)

    def run():
        return LeakChecker(source, f"chain{depth}").run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    chain_alarms = [a for a in report.alarms if str(a.root) == "Chain.hold"]
    assert chain_alarms
    # The leak is real at every depth; beyond the stack bound the callee
    # skipping must degrade to witnessed, never to refuted.
    assert all(not a.refuted for a in chain_alarms)


@pytest.mark.parametrize("branches", [2, 5, 8])
@pytest.mark.parametrize("leaky", [True, False], ids=["leaky", "guarded"])
def test_branching_scaling(benchmark, branches, leaky):
    source = branchy_app(branches, leaky)

    def run():
        return LeakChecker(
            source, f"branchy{branches}", config=SearchConfig(path_budget=20_000)
        ).run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    alarms = [a for a in report.alarms if str(a.root) == "Sink.hold"]
    assert alarms
    if leaky:
        assert all(not a.refuted for a in alarms)
    else:
        # x can never exceed 3*branches (each branch adds at most 2):
        # path-sensitive reasoning refutes the guarded store... unless the
        # path-constraint cap makes the bound unprovable, in which case the
        # alarm must be (soundly) witnessed or timed out — never unsound.
        assert all(a.status in ("refuted", "confirmed") for a in alarms)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_container_replication_scaling(benchmark, tables, n):
    source = container_app(n)

    def run():
        return LeakChecker(source, f"containers{n}").run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    # Every alarm is Figure 1 pollution: all refutable.
    assert report.num_alarms >= n
    assert report.refuted_alarms == report.num_alarms
    tables.extra_sections.append(
        (
            f"scaling_containers_{n}",
            f"containers={n}: alarms={report.num_alarms}"
            f" refuted={report.refuted_alarms}"
            f" edgesR={report.edges_refuted} T={report.seconds:.2f}s",
        )
    )


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_parallel_driver_scaling(benchmark, tables, jobs):
    """The parallel refutation driver: same verdicts at every worker
    count, wall-clock characterized per ``jobs`` (edge refutations are
    independent, so the work units schedule freely)."""
    source = container_app(4)

    def run():
        return LeakChecker(source, f"par{jobs}", jobs=jobs).run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.refuted_alarms == report.num_alarms
    assert report.run_report is not None
    tables.extra_sections.append(
        (
            f"scaling_jobs_{jobs}",
            f"jobs={jobs}: edges={len(report.run_report.records)}"
            f" busy={report.run_report.busy_seconds:.2f}s"
            f" wall={report.seconds:.2f}s",
        )
    )


# -- memoization & subsumption ablation (emits BENCH_refute.json) -------------

_ABLATION_METRICS = (
    "solver.checks",
    "executor.entails_calls",
    "executor.states_explored",
    "solver.memo_hits",
    "solver.memo_misses",
    "solver.context_hits",
    "solver.component_memo_hits",
    "solver.component_memo_misses",
    "solver.fastpath_unsat",
    "solver.fm_giveups",
    "executor.worklist_subsumed",
)


def _registry_snapshot() -> dict:
    out = {}
    for name in _ABLATION_METRICS:
        instrument = metrics.REGISTRY.get(name)
        out[name] = instrument.value if instrument is not None else 0
    return out


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _ablation_run(source: str, name: str, budget: int, **toggles) -> dict:
    """One cold leak-check run; counter deltas + wall clock."""
    SOLVER_MEMO.clear()  # cold memo: runs must not feed each other
    before = _registry_snapshot()
    started = time.perf_counter()
    report = LeakChecker(
        source, name, config=SearchConfig(path_budget=budget, **toggles)
    ).run()
    wall = time.perf_counter() - started
    delta = {k: v - before[k] for k, v in _registry_snapshot().items()}
    return {
        "wall_seconds": round(wall, 4),
        # solver.checks counts *actual* decision-procedure runs (one per
        # component decided); every cache tier answers without
        # incrementing it.
        "solver_calls": delta["solver.checks"],
        # Structural query-entailment checks (worklist subsumption +
        # query histories).
        "entails_calls": delta["executor.entails_calls"],
        "states_explored": delta["executor.states_explored"],
        "memo_hit_rate": round(
            _rate(delta["solver.memo_hits"], delta["solver.memo_misses"]), 4
        ),
        "component_memo_hit_rate": round(
            _rate(
                delta["solver.component_memo_hits"],
                delta["solver.component_memo_misses"],
            ),
            4,
        ),
        "context_hits": delta["solver.context_hits"],
        "fastpath_unsat": delta["solver.fastpath_unsat"],
        # Fourier–Motzkin give-ups (conservative SATs past the atom budget).
        "fm_giveups": delta["solver.fm_giveups"],
        "worklist_subsumed": delta["executor.worklist_subsumed"],
        "alarms": report.num_alarms,
        "refuted": report.refuted_alarms,
        "toggles": toggles,
    }


def test_memoization_ablation_emits_bench_refute():
    """The canonical perf artifact: the largest scaling configuration run
    under the full toggle grid, written to ``benchmarks/out/BENCH_refute.json``
    so the trajectory (solver calls, states, wall clock, hit rates) is
    comparable across PRs.

    The acceptance bar for the repro.perf layer: caches-on must need at
    most half the solver calls of ``--no-memo --no-subsumption``."""
    branches, budget = (8, 20_000) if SMOKE else (12, 40_000)
    lattice = branches // 2 + 1
    # The largest workload: the branchy path-enumeration stress, the
    # entailed-siblings app whose redundant disjunctive guards make the
    # worklist-subsumption pruner demonstrably fire, and the two-counter
    # lattice whose product-shaped path constraints are where relevance
    # partitioning collapses the verdict key space.
    source = (
        branchy_app(branches, leaky=False)
        + entailed_app(branches)
        + lattice_app(lattice)
    )
    name = f"ablation-branchy{branches}"

    # Decision counts depend on symbolic-variable numbering, and so on
    # what ran earlier in the process: the grid always runs in this order.
    grid = {
        "cached": dict(memoize_solver=True, state_subsumption=True),
        "memo_only": dict(memoize_solver=True, state_subsumption=False),
        "subsumption_only": dict(memoize_solver=False, state_subsumption=True),
        "no_caches": dict(memoize_solver=False, state_subsumption=False),
    }
    results = {
        label: _ablation_run(source, f"{name}-{label}", budget, **toggles)
        for label, toggles in grid.items()
    }

    cached, baseline = results["cached"], results["no_caches"]
    # Verdict parity across the whole grid (the caches prune work, never
    # change answers).
    assert len({(r["alarms"], r["refuted"]) for r in results.values()}) == 1
    reduction = baseline["solver_calls"] / max(1, cached["solver_calls"])
    speedup = baseline["wall_seconds"] / max(1e-9, cached["wall_seconds"])
    assert reduction >= 2.0, (
        f"memoization+subsumption must at least halve solver calls, got"
        f" {reduction:.2f}x ({baseline['solver_calls']} ->"
        f" {cached['solver_calls']})"
    )
    # The entailed-siblings workload makes subsumption observable: the
    # subsumption_only config must show the pruner actually running.
    subs = results["subsumption_only"]
    assert subs["entails_calls"] > 0, "subsumption ran no entailment checks"
    assert subs["worklist_subsumed"] > 0, "worklist subsumption never fired"
    if STRICT and not SMOKE:
        # The full-size run is seconds long, so the wall-clock win is well
        # above timer noise — but only on an idle machine, hence the
        # REPRO_BENCH_STRICT gate.
        assert speedup > 1.0, f"no wall-clock win: {speedup:.2f}x"

    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "benchmark": "scaling_ablation",
        "workload": (
            f"branchy_app({branches}, leaky=False) + entailed_app({branches})"
            f" + lattice_app({lattice})"
        ),
        "path_budget": budget,
        "smoke": SMOKE,
        "configs": results,
        "summary": {
            "solver_call_reduction": round(reduction, 2),
            "wall_clock_speedup": round(speedup, 2),
        },
        "schema_version": 2,
    }
    targets = [os.path.join(OUT_DIR, "BENCH_refute.json")]
    if not SMOKE:
        # The full-size run refreshes the committed trajectory file at the
        # repo root (benchmarks/out/ is ephemeral and gitignored).
        targets.append(
            os.path.join(os.path.dirname(__file__), "..", "BENCH_refute.json")
        )
    for target in targets:
        with open(target, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
