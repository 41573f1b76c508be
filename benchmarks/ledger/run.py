"""The refutation ledger: end-to-end and per-layer metrics on four
workloads, one command.

    PYTHONPATH=src python benchmarks/ledger/run.py [--workload W] [--seed N]
        [--trace [0|1]] [--tiny] [--out DIR] [--seconds S]

Each workload runs in fresh child processes (``child.py``), one after
another: a closed loop with one client. With ``--trace 0`` (the default)
the run takes the median of three set-ups (two set-up-only children plus
the measuring child's own), then starts jobs for ``--seconds`` (default:
``BENCHMARK.json``'s ``run_seconds``; one round with ``--tiny``) and prints
every end-to-end metric. With ``--trace`` (or ``--trace 1``) it runs the
workload's fixed trace sample twice, untraced and with the layer wrappers
of ``spans.py`` installed, and prints every per-layer metric plus
``trace_overhead``; the Chrome trace lands in ``<out>/traces/``.

Every timing is taken at the reference host speed: the job's seconds
times ``PROBE_REF_S`` over the seconds ``child.HostClock``'s probe took
meanwhile (see :func:`steady`). The raw seconds are kept in the results
file.

Every job's output is checked here, in this process, so the oracle costs
no measured time or memory: ``table1`` against ``expected.json`` and the
concrete interpreter's leak pairs, ``ablation`` and ``layered`` against
their all-refuted/all-verified construction, and every tenth ``serve``
request against a cold session on the same source. A wrong or failed job
is counted, never raised.

Metric names, units and bounds come from ``BENCHMARK.json`` at the
repository root. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A results file with the
environment (nproc, Python, commit, load average) and every job record is
written to ``<out>/runs/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import child
import spans

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = tuple(child.WORKLOADS)
#: Set-ups per run whose median is ``setup_s`` (the measuring child's own
#: set-up is one of them).
SETUPS = 3
#: A run must end within this many seconds, children included.
RUN_LIMIT = 170.0
#: About the seconds ``child.HostClock``'s probe takes on a 2-vCPU x86 VM
#: with Python 3.11 when the host is quiet (its fastest 5% of readings).
#: A fixed constant, so it only sets the scale: at this probe speed a
#: steady time equals the raw one.
PROBE_REF_S = 0.0003
#: End-to-end metrics printed in the table but kept out of BENCHMARK.json:
#: a bound there is a share of the baseline median, and these read 0 on
#: correct code. Failures reject a run through ``correct`` and ``failed``.
EXTRA_E2E = {"fail_frac": "ratio", "timeout_frac": "ratio"}


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def isolate(env, tmp: str) -> None:
    """Prepare ``env`` (a mapping) for the ledger's processes: the package on the
    path, string hashing pinned (counters repeat across processes), the
    slow-query flight recorder off and its directory inside the checkout,
    and no inherited store, memo or eviction settings."""
    for name in ("REPRO_CACHE_DIR", "REPRO_MEMO_CAPACITY", "REPRO_CACHE_MAX_ENTRIES"):
        env.pop(name, None)
    env.update(
        PYTHONPATH=SRC,
        PYTHONHASHSEED="0",
        REPRO_FLIGHT_DISABLE="1",
        REPRO_FLIGHT_DIR=os.path.join(tmp, "flight"),
    )


class Children:
    """Runs child.py specs one at a time under the run's overall deadline,
    in the environment :func:`isolate` prepared."""

    def __init__(self, tmp: str, deadline: float) -> None:
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0

    def run(self, spec: dict) -> dict:
        self.count += 1
        tmp = os.path.join(self.tmp, f"child{self.count}")
        os.makedirs(tmp)
        spec = dict(spec, tmp=tmp)
        timeout = max(5.0, self.deadline - time.monotonic())
        proc = subprocess.run(
            [sys.executable, os.path.join(LEDGER, "child.py"), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(
                f"child {spec['workload']}/{spec['mode']} exited"
                f" {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Per-job correctness, computed outside the measured processes."""

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny
        with open(os.path.join(LEDGER, "expected.json")) as fh:
            self.expected = json.load(fh)
        self._truth: dict = {}
        self._cold: dict = {}

    def truth(self, app_name: str) -> set:
        """(root field, allocation site) pairs the bounded concrete
        interpreter shows leaking: the soundness reference for table1."""
        if app_name not in self._truth:
            from repro.bench import app_by_name
            from repro.bench.workloads import concrete_leak_pairs

            self._truth[app_name] = {
                (f"{cls}.{field}", f"{site.hint}@{site.site_id}")
                for (cls, field), site in concrete_leak_pairs(app_by_name(app_name))
            }
        return self._truth[app_name]

    def cold_payload(self, bumps: list) -> str:
        """The verdict payload of a cold session on the serve source."""
        key = tuple(bumps)
        if key not in self._cold:
            from repro.serve.session import ProgramSession

            session = ProgramSession(
                child.serve_source(bumps, self.tiny), include_library=False
            )
            try:
                payload, _ = session.analyze(dict(child.REACH))
            finally:
                session.close()
            self._cold[key] = json.dumps(payload["verdicts"], sort_keys=True)
        return self._cold[key]

    def check(self, workload: str, job: dict) -> str:
        """Why ``job`` is wrong, or "" when it is right."""
        if job.get("error"):
            return job["error"]
        verdict = job["verdict"]
        if workload == "table1":
            expected = self.expected["table1"].get(job["key"])
            if verdict != expected:
                return f"alarm verdicts differ from expected.json: {verdict}"
            truth = self.truth(job["key"].split("/")[0])
            for root, site, status in verdict:
                if status == "refuted" and (root, site) in truth:
                    return f"refuted a concrete leak {root} -> {site}"
            return ""
        if workload == "ablation":
            if not job["total"] or job["refuted"] != job["total"]:
                return f"refuted {job['refuted']} of {job['total']} alarms"
            return ""
        if workload == "layered":
            items = child.Layered.size(self.tiny)
            if verdict != ["verified", items, items]:
                return f"expected {items} of {items} verified, got {verdict}"
            return ""
        mode = {"edit": "incremental", "undo": "rebuild", "query": "none"}[job["key"]]
        if job["mode"] != mode:
            return f"{job['key']} took the {job['mode']} path"
        if job["refuted"] != job["total"] - 1 or verdict != "violated":
            return f"verified {job['refuted']} of {job['total']} ({verdict})"
        check = job.get("check")
        if check is not None and check["payload"] != self.cold_payload(check["bumps"]):
            return "warm verdict payload differs from a cold session"
        return ""


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


#: The tail percentile. Runs last ``--seconds``, so their job counts vary;
#: "the highest percentile with ten samples beyond it" would move with the
#: count, and on ``serve`` and ``table1``, whose job kinds have separate
#: latencies, jump from one kind to another (ten runs spread by 16-92%).
#: A fixed percentile stays on the same kinds: ``serve``'s rebuilds (a
#: quarter of its requests) and ``table1``'s two slowest apps.
TAIL = 90


def tail(values: list) -> tuple[float, int]:
    """``(value, samples beyond it)`` at the :data:`TAIL` percentile,
    interpolated between neighbours. One sample is its own tail."""
    if len(values) == 1:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[TAIL - 1]
    return value, sum(1 for v in values if v > value)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def steady(seconds: float, clock: dict) -> float:
    """``seconds`` at the reference host speed: less what the host clock's
    probes took from them, scaled by how much slower than
    :data:`PROBE_REF_S` the probe ran meanwhile (``clock`` is
    ``child.HostClock.over``'s reading). On a shared host the same job's
    raw time drifts by up to 2x within minutes, and ten runs of a workload
    spread by 13-58%; the probe follows that drift, and steady times
    spread by 3-11%."""
    return (seconds - clock["sampler_s"]) * PROBE_REF_S / clock["probe_s"]


def e2e_metrics(setups: list, measured: dict, failures: list) -> tuple[dict, dict]:
    """End-to-end values plus the notes printed beside them. ``setups`` are
    ``(seconds, host clock reading)`` pairs; every timing is :func:`steady`.

    Latency is per job kind, because kinds differ and runs hold different
    numbers of each: the median latency is the median over kinds of each
    kind's median (``table1``'s 14 kinds have separated latencies, so a
    pooled median would fall between two kinds and follow their extremes;
    ``serve``'s is its edits' median), and the throughputs are those of a
    median round, a round of the workload's job mix with every job taking
    its kind's median time and edge count. With no job done, the
    latencies read NaN, the throughputs 0, and the failures say why."""
    jobs = measured["jobs"]
    done = [j for j in jobs if not j.get("error")]
    latencies = [steady(j["seconds"], j) for j in done]
    nan = float("nan")
    tail_value, beyond = tail(latencies) if done else (nan, 0)
    by_kind: dict = {}
    for job, seconds in zip(done, latencies):
        by_kind.setdefault(job["key"], []).append((seconds, job["edges"]))
    medians = {
        key: (
            statistics.median(s for s, _ in samples),
            statistics.median(e for _, e in samples),
        )
        for key, samples in by_kind.items()
    }
    mix = Counter(j["key"] for j in jobs if j["round"] == 0)
    round_jobs = sum(mix[key] for key in medians)
    round_s = sum(mix[key] * s for key, (s, _) in medians.items())
    round_edges = sum(mix[key] * e for key, (_, e) in medians.items())
    first: dict = {}
    for job in done:
        first.setdefault(job["key"], job)
    refuted = sum(j["refuted"] for j in first.values())
    total = sum(j["total"] for j in first.values())
    edges = sum(j["edges"] for j in done)
    timeouts = sum(j["timeouts"] for j in done)
    failed = sum(1 for f in failures if f)
    raw_s = sum(j["seconds"] for j in done)
    values = {
        "setup_s": statistics.median(steady(s, clock) for s, clock in setups),
        "job_p50_s": statistics.median(s for s, _ in medians.values())
        if medians
        else nan,
        "job_tail_s": tail_value,
        "jobs_per_s": ratio(round_jobs, round_s),
        "edges_per_s": ratio(round_edges, round_s),
        "fail_frac": ratio(failed, len(jobs)),
        "refuted_frac": ratio(refuted, total),
        "timeout_frac": ratio(timeouts, edges),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "job_p50_s": f"median over {len(by_kind)} job kinds of each kind's"
        f" median (n={len(latencies)})",
        "job_tail_s": f"p{TAIL} (n={len(latencies)}, {beyond} beyond it)",
        "jobs_per_s": f"median round of {round_jobs} jobs; {len(done)} jobs"
        f" ran {raw_s:.1f} s raw of a {measured['loop_s']:.1f} s loop",
        "edges_per_s": f"median round of {round_edges:g} edge searches",
        "fail_frac": f"{failed} of {len(jobs)} jobs",
        "refuted_frac": f"{refuted} of {total} over distinct jobs",
        "timeout_frac": f"{timeouts} of {edges} edges",
        "peak_rss_mb": "measuring child, set-up and first round",
        "host_slowdown": ratio(raw_s, sum(latencies)),
    }
    return values, notes


def layer_metrics(plain: dict, traced: dict) -> tuple[dict, dict]:
    """Per-layer values per job: self times and call counts from the traced
    sample, registry counters and job records from the untraced one."""
    layers = traced["layers"]
    n = len(traced["jobs"])
    counters = plain["counters"]
    jobs = [j for j in plain["jobs"] if not j.get("error")]
    values = {
        f"{layer}.self_s": layers["self_s"].get(layer, 0.0) / n for layer in spans.HOOKS
    }
    calls = layers["calls"]
    values.update(
        {
            "symbolic.transfer.calls": calls.get("symbolic.transfer", 0) / n,
            "solver.check_sat.calls": calls.get("solver.check_sat", 0) / n,
            "solver.cache_answer_ratio": ratio(
                layers["free"] - traced["counters"]["solver.fastpath_unsat"],
                calls.get("solver.check_sat", 0),
            ),
            "symbolic.states": counters["executor.states_explored"] / n,
            "symbolic.worklist_subsumed": counters["executor.worklist_subsumed"] / n,
            "solver.decisions": counters["solver.checks"] / n,
            "solver.component_memo.hit_ratio": ratio(
                counters["solver.component_memo_hits"],
                counters["solver.component_memo_hits"]
                + counters["solver.component_memo_misses"],
            ),
            "perf.store.hit_ratio": ratio(
                counters["store.hits"], counters["store.hits"] + counters["store.misses"]
            ),
            "perf.refuted_cache.hit_ratio": ratio(
                counters["executor.refuted_cache_hits"],
                counters["executor.refuted_cache_hits"]
                + counters["executor.refuted_cache_misses"],
            ),
            "engine.rung0_resolved_ratio": ratio(
                counters["driver.rung.resolved.0"], counters["driver.rung.scheduled.0"]
            ),
            # Busy search seconds are every refute_edge call on every
            # thread, portfolio rungs that timed out included.
            "engine.parallel_efficiency": ratio(
                layers["total_s"].get("symbolic.refute_edge", 0.0),
                sum(j.get("workers", 1) * j.get("seconds", 0.0) for j in traced["jobs"]),
            ),
            "serve.reuse_ratio": ratio(
                sum(j.get("reused", 0) for j in jobs),
                sum(j.get("reused", 0) + j["edges"] for j in jobs),
            ),
            "serve.rebuilds": sum(1 for j in jobs if j.get("mode") == "rebuild") / n,
            # Both samples run the same jobs in the same order: the median
            # of the paired ratios of steady times shrugs off a slow spell.
            "trace_overhead": statistics.median(
                [
                    steady(t["seconds"], t) / steady(p["seconds"], p)
                    for t, p in zip(traced["jobs"], plain["jobs"])
                    if not (t.get("error") or p.get("error"))
                ]
                or [float("nan")]
            )
            - 1.0,
        }
    )
    traced_wall = sum(j.get("seconds", 0.0) for j in traced["jobs"])
    notes = {
        "other.self_s": layers["self_s"].get(spans.JOB, 0.0) / n,
        "self_time_coverage": ratio(sum(layers["self_s"].values()), traced_wall),
        "counters_match": plain["counters"] == traced["counters"],
        "fired": layers["fired"],
        "jobs": n,
    }
    return values, notes


def select(declared: list, values: dict) -> dict:
    """The JSON ``metrics`` object: every declared metric, by name and
    unit. A declared metric the ledger does not compute is an error."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg": list(os.getloadavg()),
    }


def run_workload(args, workload: str, children: Children, oracle: Oracle, spec: dict):
    base = {
        "workload": workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "trace": False,
        "trace_path": None,
    }
    if args.trace:
        trace_path = os.path.join(args.out, "traces", f"{workload}-seed{args.seed}.json")
        plain = children.run(dict(base, mode="sample"))
        traced = children.run(dict(base, mode="sample", trace=True, trace_path=trace_path))
        raw = {"plain": plain, "traced": traced}
        docs = [plain, traced]
        jobs = plain["jobs"] + traced["jobs"]
    else:
        setup_only = [children.run(dict(base, mode="setup")) for _ in range(SETUPS - 1)]
        measured = children.run(dict(base, mode="measure"))
        docs = setup_only + [measured]
        setups = [(doc["setup_s"], doc["setup_clock"]) for doc in docs]
        raw = {"setups": setups, "setup_only": setup_only, "measured": measured}
        jobs = measured["jobs"]
    failures = [oracle.check(workload, job) for job in jobs]
    if args.trace:
        values, notes = layer_metrics(plain, traced)
        notes["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        values, notes = e2e_metrics(setups, measured, failures)
    failed = sum(1 for f in failures if f)
    setup_errors = [doc["setup_error"] for doc in docs if doc["setup_error"]]
    result = {
        "correct": failed == 0 and not setup_errors,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": select(spec["per_layer" if args.trace else "end_to_end"], values),
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "result": result,
        "values": values,
        "notes": notes,
        "failures": [{"key": "setup", "why": why} for why in setup_errors]
        + [{"key": job["key"], "why": why} for job, why in zip(jobs, failures) if why],
        "children": raw,
    }
    return record


def print_report(record: dict, env: dict, spec: dict) -> None:
    values, notes = record["values"], record["notes"]
    traced = record["trace"]
    mode = "per-layer, traced sample" if traced else "end-to-end"
    print(f"== ledger {record['workload']} seed={record['seed']} ({mode})")
    print(
        f"   nproc={env['nproc']} python={env['python']}"
        f" commit={(env['commit'] or '-')[:12]} src={env['src_sha256'][:12]}"
        f" loadavg={'/'.join(f'{x:.2f}' for x in env['loadavg'])}"
    )
    if "host_slowdown" in notes:
        print(
            f"   raw job seconds were {notes['host_slowdown']:.3f} x the steady"
            f" ones (reference probe {PROBE_REF_S * 1e3:g} ms)"
        )
    rows = [(m["name"], m["unit"]) for m in spec["per_layer" if traced else "end_to_end"]]
    shown = notes
    if traced:
        rows.append(("other.self_s", "s"))
        values = dict(values, **{"other.self_s": notes["other.self_s"]})
        shown = {"other.self_s": "job time outside every hooked layer"}
    else:
        rows += list(EXTRA_E2E.items())
    for name, unit in rows:
        print(f"   {name:34s} {values[name]:>12.6g} {unit:6s} {shown.get(name, '')}")
    if traced:
        print(
            f"   self times cover {notes['self_time_coverage']:.3f} of the traced"
            f" job wall; counters equal untraced vs traced:"
            f" {notes['counters_match']}; trace: {notes['trace_file']}"
        )
    for failure in record["failures"]:
        print(f"   FAILED {failure['key']}: {failure['why']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="how long jobs are started (default: run_seconds)"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--tiny", action="store_true", help="self-test sizes (test_ledger.py)"
    )
    parser.add_argument(
        "--out", default=os.path.join(ROOT, "benchmarks", "out", "ledger")
    )
    args = parser.parse_args(argv)
    # Exit through the normal path on SIGTERM, so a running child is killed
    # and waited for and the temporary directory removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ledger: no package at {SRC}/repro; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, SRC)
    args.out = os.path.abspath(args.out)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT * len(workloads)
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)
    tmp = os.path.join(args.out, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    isolate(os.environ, tmp)  # inherited by every child; the oracle runs here
    results = {}
    runs = os.path.join(args.out, "runs")
    os.makedirs(runs, exist_ok=True)
    try:
        children = Children(tmp, deadline)
        oracle = Oracle(args.tiny)
        for workload in workloads:
            env = environment()
            record = run_workload(args, workload, children, oracle, spec)
            env["loadavg_end"] = list(os.getloadavg())
            record["env"] = env
            print_report(record, env, spec)
            name = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
            with open(os.path.join(runs, name), "w") as fh:
                json.dump(record, fh, indent=1)
            results[workload] = record["result"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if len(results) == 1:
        line = results[workloads[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric
                for w, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
