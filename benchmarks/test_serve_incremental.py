"""The serve daemon's perf artifact: edit-level incremental re-analysis
vs a cold start, on the lifecycle-leak workload (``BENCH_serve.json``).

The claim the daemon exists to make true: after a one-method edit, the
time to a fresh full verdict set is the cost of the *changed* screen's
refutation plus the diff/delta-solve plumbing — not the whole program.
Cold = construct a session (pipeline front half) + first analyze. Warm =
apply the edit to the live session + re-analyze. The workload's screens
are search-heavy (``branches`` nondeterministic splits each), so the
retained-verdict win dominates the fixed per-update costs.

Wall-clock ratios are asserted only under ``REPRO_BENCH_STRICT=1`` at
full size — both the smoke run (CI, ``REPRO_BENCH_SMOKE``) and default
full runs record them but assert just the deterministic counts
(invalidation scope, reuse, byte-identical parity), since a loaded
machine makes the timings meaningless.
"""

import json
import os
import time

from repro.bench.workloads import lifecycle_app, lifecycle_edit
from repro.serve.session import ProgramSession

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Opt-in wall-clock assertions (idle machine only); see module docstring.
STRICT = os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")

REACH_PARAMS = {
    "client": "reachability",
    "root_class": "Registry",
    "root_field": "hold",
    "target_class": "Item",
}


def test_incremental_reanalysis_emits_bench_serve():
    n_screens, branches = (6, 4) if SMOKE else (16, 6)
    edited_screen = n_screens // 2
    source = lifecycle_app(n_screens, leaky=1, branches=branches)
    edited = lifecycle_edit(source, screen=edited_screen)

    # Cold: a fresh session (frontend → IR → Andersen) plus the first
    # full analyze — what a CLI one-shot on the edited source would pay.
    started = time.perf_counter()
    session = ProgramSession(source, include_library=False)
    cold_result, cold_meta = session.analyze(REACH_PARAMS)
    cold_seconds = time.perf_counter() - started

    # Warm: the live session absorbs the edit and re-analyzes.
    started = time.perf_counter()
    update, update_meta = session.update({"source": edited})
    warm_result, warm_meta = session.analyze(REACH_PARAMS)
    warm_seconds = time.perf_counter() - started
    session.close()

    # Parity: the warm payload is byte-identical to a cold session built
    # directly on the edited source.
    reference = ProgramSession(edited, include_library=False)
    ref_result, ref_meta = reference.analyze(REACH_PARAMS)
    reference.close()
    warm_bytes = json.dumps(warm_result["verdicts"], sort_keys=True)
    ref_bytes = json.dumps(ref_result["verdicts"], sort_keys=True)
    assert warm_bytes == ref_bytes, "warm verdicts diverge from cold build"

    # Deterministic scope assertions, smoke and full alike.
    assert update["mode"] == "incremental"
    # The edit lies inside one class, so only that class was rebuilt.
    assert update_meta["build"] == "class"
    assert update["changed_methods"] == [f"Screen{edited_screen}.onStart"]
    assert cold_meta["jobs_run"] == n_screens
    assert 1 <= update_meta["invalidated_edges"] < n_screens
    assert warm_meta["jobs_run"] == update_meta["invalidated_edges"]
    assert warm_meta["verdicts_reused"] == update_meta["retained_verdicts"]
    assert warm_meta["verdicts_reused"] > 0

    speedup = cold_seconds / max(1e-9, warm_seconds)
    if STRICT and not SMOKE:
        # The acceptance bar: edit-level re-analysis at least halves the
        # time to fresh verdicts. (Full size is ~600ms cold, so the ratio
        # is well above timer noise on an idle machine.)
        assert speedup >= 2.0, (
            f"incremental must be >= 2x faster than cold, got {speedup:.2f}x"
            f" (cold {cold_seconds * 1000:.0f}ms, warm"
            f" {warm_seconds * 1000:.0f}ms)"
        )

    os.makedirs(OUT_DIR, exist_ok=True)
    payload = {
        "benchmark": "serve_incremental",
        "workload": (
            f"lifecycle_app({n_screens}, leaky=1, branches={branches})"
            f" edited at screen {edited_screen}"
        ),
        "smoke": SMOKE,
        "cold": {
            "seconds": round(cold_seconds, 4),
            "jobs_run": cold_meta["jobs_run"],
            "status": cold_result["status"],
        },
        "update": {
            "seconds": round(update_meta["seconds"], 4),
            "mode": update["mode"],
            "build": update_meta["build"],
            "changed_methods": update["changed_methods"],
            "invalidated_edges": update_meta["invalidated_edges"],
            "retained_verdicts": update_meta["retained_verdicts"],
        },
        "warm": {
            "seconds": round(warm_seconds, 4),
            "jobs_run": warm_meta["jobs_run"],
            "verdicts_reused": warm_meta["verdicts_reused"],
        },
        "summary": {
            "speedup": round(speedup, 2),
            "verdicts_byte_identical": warm_bytes == ref_bytes,
        },
        "schema_version": 1,
    }
    targets = [os.path.join(OUT_DIR, "BENCH_serve.json")]
    if not SMOKE:
        # Full-size runs refresh the committed trajectory file at the repo
        # root (benchmarks/out/ is ephemeral and gitignored).
        targets.append(
            os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")
        )
    for target in targets:
        with open(target, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
