"""The adaptive-scheduling perf artifact: fixed schedule vs cost-model
priorities + cheap-first portfolio, emitting
``BENCH_sched.json``.

The workload is ``repro.bench.workloads.layered_app``: two-edge heap
paths whose *expensive* refutable edge comes first and whose cheap
refutable edge comes second. The fixed Section 2 walk pays the
expensive edge on every path; the portfolio's path-level rung ladder
refutes the cheap edge at the small budget rung and never escalates the
expensive one. Every verdict is REFUTED by construction, so client
outcomes are schedule-independent and asserted identical across the
whole grid.

Deterministic axes (asserted always, smoke and full alike): verdict
parity, actual decision-procedure runs (the portfolio must cut them by
the same >= 1.3x bar), and rung-0 resolutions in the report's schedule
section. Wall-clock ratios are recorded always but asserted only under
``REPRO_BENCH_STRICT=1`` at full size — timings need an idle machine to
mean anything.
"""

import json
import os
import time

from repro.api import AnalysisRequest, analyze
from repro.bench.workloads import layered_app
from repro.obs import metrics
from repro.perf.memo import SOLVER_MEMO

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Opt-in wall-clock assertions (idle machine only); see module docstring.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")

#: The acceptance bar: the portfolio at --jobs 4 must beat the fixed
#: config by at least this factor (deterministically on decision runs,
#: and under STRICT on wall clock too).
SPEEDUP_BAR = 1.3


def _solver_checks() -> int:
    instrument = metrics.REGISTRY.get("solver.checks")
    return instrument.value if instrument is not None else 0


def _run(source: str, **knobs) -> dict:
    """One cold reachability analysis; counters, wall, and schedule."""
    SOLVER_MEMO.clear()  # cold memo: runs must not feed each other
    checks_before = _solver_checks()
    started = time.perf_counter()
    result = analyze(
        AnalysisRequest(
            source=source,
            client="reachability",
            root_class="Registry",
            root_field="hold",
            target_class="Item",
            include_library=False,
            **knobs,
        )
    )
    wall = time.perf_counter() - started
    stats = result.stats
    report = result.report
    entry = {
        "wall_seconds": round(wall, 4),
        "verdict": {
            "verified": result.verified,
            "status": result.status,
            "items": stats.items,
            "verified_items": stats.verified_items,
            "violated_items": stats.violated_items,
            "inconclusive_items": stats.inconclusive_items,
        },
        "schedule": report.schedule if report is not None else {},
        "knobs": knobs,
        # solver.checks counts *actual* decision-procedure runs — a
        # deterministic axis for serial and pool configs alike, so the
        # CI comparison guard can enforce it.
        "solver_calls": _solver_checks() - checks_before,
    }
    return entry


def test_adaptive_scheduling_emits_bench_sched():
    # hard_branches stays 10 even in smoke: the expensive edge must
    # exceed the first rung's budget (path_budget // 16 = 625 path
    # programs) or there is nothing for the ladder to truncate; smoke
    # shrinks the number of jobs instead.
    n, hard_branches = (2, 10) if SMOKE else (8, 10)
    source = layered_app(n, hard_branches=hard_branches)

    grid = {
        "fixed_serial": dict(),
        "portfolio_serial": dict(portfolio=True),
        "adaptive_jobs4": dict(portfolio=True, schedule="priority", jobs=4),
    }
    results = {
        name: _run(source, **knobs) for name, knobs in grid.items()
    }

    # Verdict parity across the whole grid: scheduling reorders and
    # stages work, never answers (every edge here is refutable well
    # under budget).
    verdicts = {json.dumps(r["verdict"], sort_keys=True) for r in results.values()}
    assert len(verdicts) == 1, results
    assert results["fixed_serial"]["verdict"]["status"] == "verified"

    fixed = results["fixed_serial"]
    ladder = results["portfolio_serial"]
    adaptive = results["adaptive_jobs4"]

    # The deterministic acceptance bar: the path-level rung ladder must
    # cut actual decision-procedure runs by the same factor the wall
    # bar demands — the expensive first edges are never escalated.
    call_reduction = fixed["solver_calls"] / max(1, ladder["solver_calls"])
    adaptive_reduction = fixed["solver_calls"] / max(1, adaptive["solver_calls"])
    assert call_reduction >= SPEEDUP_BAR, (
        f"portfolio must cut decision runs >= {SPEEDUP_BAR}x, got"
        f" {call_reduction:.2f}x ({fixed['solver_calls']} ->"
        f" {ladder['solver_calls']})"
    )
    assert adaptive_reduction >= SPEEDUP_BAR, (
        f"adaptive --jobs 4 must cut decision runs >= {SPEEDUP_BAR}x, got"
        f" {adaptive_reduction:.2f}x"
    )

    # The rung ladder must actually run: rung 0 resolves the cheap
    # edges, and some expensive edge is carried over, never escalated.
    rungs = {row["rung"]: row for row in ladder["schedule"]["rungs"]}
    assert rungs[0]["resolved"] >= n, rungs
    assert rungs[0]["carryover"] >= 1, rungs

    speedup = fixed["wall_seconds"] / max(1e-9, adaptive["wall_seconds"])
    serial_speedup = fixed["wall_seconds"] / max(
        1e-9, ladder["wall_seconds"]
    )
    if STRICT and not SMOKE:
        # The full-size fixed run is ~10s, so the ratio is far above
        # timer noise — but only on an idle machine, hence the gate.
        assert speedup >= SPEEDUP_BAR, (
            f"adaptive --jobs 4 wall-clock win below bar: {speedup:.2f}x"
            f" (fixed {fixed['wall_seconds']}s, adaptive"
            f" {adaptive['wall_seconds']}s)"
        )

    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "benchmark": "adaptive_scheduling",
        "workload": f"layered_app({n}, hard_branches={hard_branches})",
        "smoke": SMOKE,
        "configs": results,
        "summary": {
            "portfolio_decision_reduction": round(call_reduction, 2),
            "adaptive_decision_reduction": round(adaptive_reduction, 2),
            "portfolio_serial_wall_speedup": round(serial_speedup, 2),
            "adaptive_jobs4_wall_speedup": round(speedup, 2),
        },
        "schema_version": 1,
    }
    targets = [os.path.join(OUT_DIR, "BENCH_sched.json")]
    if not SMOKE:
        # Full-size runs refresh the committed trajectory file at the
        # repo root (benchmarks/out/ is ephemeral and gitignored).
        targets.append(
            os.path.join(os.path.dirname(__file__), "..", "BENCH_sched.json")
        )
    for target in targets:
        with open(target, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
