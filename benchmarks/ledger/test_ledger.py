"""Self-test of the ledger at tiny sizes (well under a minute).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

Checks that every layer hook still resolves and fires where it should (a
rename in ``src/`` fails here, loudly), that self times add up to the
traced wall time, that counters repeat exactly across fresh processes,
that the printed metric names are exactly those of ``BENCHMARK.json``, and
that a wrong verdict is caught by the oracle.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(LEDGER))
sys.path.insert(0, LEDGER)

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: Layers each workload must exercise.
FIRES = {
    "table1": {
        "lang.frontend",
        "ir.build_program",
        "pointsto.analyze",
        "pointsto.find_heap_path",
        "engine.refute_path",
        "symbolic.refute_edge",
        "symbolic.transfer",
        "symbolic.loops",
        "symbolic.simplification",
        "solver.check_sat",
    },
    "ablation": {
        "lang.frontend",
        "pointsto.analyze",
        "symbolic.refute_edge",
        "symbolic.transfer",
        "solver.check_sat",
    },
    "layered": {
        "lang.frontend",
        "ir.build_program",
        "pointsto.analyze",
        "pointsto.find_heap_path",
        "engine.refute_path",
        "symbolic.refute_edge",
        "symbolic.transfer",
        "solver.check_sat",
    },
    "serve": {
        "lang.frontend",
        "ir.build_program",
        "pointsto.analyze",
        "pointsto.incremental",
        "serve.invalidation",
        "perf.store",
        "engine.refute_path",
        "symbolic.refute_edge",
        "solver.check_sat",
    },
}
SERIAL = ("table1", "ablation", "serve")


def ledger(out: str, *args: str) -> dict:
    """Run the ledger at tiny size; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, os.path.join(LEDGER, "run.py"), "--tiny", "--out", out, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def records(out: str) -> dict:
    found = {}
    for name in glob.glob(os.path.join(out, "runs", "*.json")):
        with open(name) as fh:
            record = json.load(fh)
        found[record["workload"]] = record
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of every workload with one seed."""
    outs = [str(tmp_path_factory.mktemp(f"traced{i}")) for i in range(2)]
    for out in outs:
        ledger(out, "--trace", "--seed", "3")
    return [records(out) for out in outs]


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One untraced run of every workload: a single round each."""
    out = str(tmp_path_factory.mktemp("measured"))
    line = ledger(out)
    return line, records(out)


def _current(target: str):
    owner, attr = spans.resolve(target)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_hooks_resolve_and_uninstall():
    targets = [t for targets in spans.HOOKS.values() for t in targets]
    originals = {target: _current(target) for target in targets}
    recorder = spans.Recorder()
    recorder.install()
    try:
        for target, original in originals.items():
            assert _current(target).__wrapped__ is original, target
    finally:
        recorder.uninstall()
    for target, original in originals.items():
        assert _current(target) is original, target


def test_resolve_fails_loudly_on_a_rename():
    with pytest.raises(AttributeError):
        spans.resolve("repro.symbolic.executor:Engine.no_such_method")
    with pytest.raises(AttributeError):
        spans.resolve("repro.android.leaks:no_such_function")


def test_every_hook_fires_where_expected(traced):
    fired = set()
    for workload, record in traced[0].items():
        layer_calls = record["children"]["traced"]["layers"]["calls"]
        missing = {layer for layer in FIRES[workload] if not layer_calls.get(layer)}
        assert not missing, f"{workload}: {sorted(missing)} never fired"
        fired |= set(record["notes"]["fired"])
    targets = {t for targets in spans.HOOKS.values() for t in targets}
    # New verdicts reach the store only after the in-memory memo evicts,
    # which the full-size serve session does and the tiny one never does.
    targets.discard("repro.perf.store:VerdictStore.put")
    assert targets <= fired, f"never fired anywhere: {sorted(targets - fired)}"


def test_self_times_sum_to_traced_wall(traced):
    for workload in SERIAL:
        coverage = traced[0][workload]["notes"]["self_time_coverage"]
        assert abs(coverage - 1.0) <= 0.05, (workload, coverage)


def test_counters_repeat_across_fresh_processes(traced):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = traced
    for workload, record in first.items():
        assert record["notes"]["counters_match"], workload
        for name in counts:
            a = record["result"]["metrics"][name]["value"]
            b = second[workload]["result"]["metrics"][name]["value"]
            assert a == b, (workload, name, a, b)


def test_metric_names_match_benchmark_json(traced, measured):
    line, runs = measured
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [f"{w}.{n}" for w in run.WORKLOADS for n in E2E]
    for record in runs.values():
        assert list(record["result"]["metrics"]) == E2E
        for name, metric in record["result"]["metrics"].items():
            assert isinstance(metric["value"], float), name
    for record in traced[0].values():
        assert list(record["result"]["metrics"]) == PER_LAYER


def test_single_workload_line(tmp_path):
    line = ledger(
        str(tmp_path), "--workload", "serve", "--seed", "5", "--seconds", "10", "--trace", "0"
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == E2E
    assert all(m["unit"] for m in line["metrics"].values())
    assert line["attempted"] >= 1 and line["failed"] == 0


def _fail_frac(workload: str, record: dict) -> float:
    oracle = run.Oracle(tiny=True)
    measured = record["children"]["measured"]
    failures = [oracle.check(workload, job) for job in measured["jobs"]]
    values, _ = run.e2e_metrics(record["children"]["setups"], measured, failures)
    return values["fail_frac"]


def test_injected_wrong_verdict_counts_as_failure(measured):
    _, runs = measured
    for workload in run.WORKLOADS:
        assert _fail_frac(workload, runs[workload]) == 0.0, workload

    table1 = copy.deepcopy(runs["table1"])
    alarm = next(
        a for j in table1["children"]["measured"]["jobs"] for a in j["verdict"]
        if a[2] == "confirmed"
    )
    alarm[2] = "refuted"
    assert _fail_frac("table1", table1) > 0

    serve = copy.deepcopy(runs["serve"])
    job = next(j for j in serve["children"]["measured"]["jobs"] if "check" in j)
    job["check"]["payload"] = job["check"]["payload"].replace("refuted", "witnessed", 1)
    assert _fail_frac("serve", serve) > 0


class _Broken:
    """A workload whose set-up and jobs raise, as after a rename in ``src/``."""

    rounds = sample_rounds = 1

    def __init__(self, seed, tiny, tmp):
        pass

    def setup(self):
        raise AttributeError("renamed")

    def next_round(self):
        return ["job"]

    def prepare(self, key):
        pass

    def execute(self, key):
        self.setup()

    def close(self):
        pass


def test_failing_setup_is_reported_and_the_jobs_still_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(child.WORKLOADS, "broken", _Broken)
    spec = {"workload": "broken", "seed": 1, "tiny": True, "mode": "measure",
            "trace": False, "trace_path": None, "tmp": str(tmp_path)}
    assert child.main(["child.py", json.dumps(spec)]) == 0
    doc = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert doc["setup_error"] == "AttributeError: renamed"
    assert [job["error"] for job in doc["jobs"]] == ["AttributeError: renamed"]


def test_all_jobs_failing_is_counted_not_raised(measured):
    _, runs = measured
    measured_child = copy.deepcopy(runs["ablation"]["children"]["measured"])
    for job in measured_child["jobs"]:
        job.clear()
        job.update(key="ablation", error="AttributeError: renamed", round=0)
    oracle = run.Oracle(tiny=True)
    failures = [oracle.check("ablation", job) for job in measured_child["jobs"]]
    values, _ = run.e2e_metrics(
        [(1.0, {"probe_s": run.PROBE_REF_S, "sampler_s": 0.0})], measured_child, failures
    )
    assert values["fail_frac"] == 1.0
    for name in ("job_p50_s", "job_tail_s"):
        assert values[name] != values[name], name  # NaN: nothing was timed


@pytest.mark.parametrize("n, beyond", [(1, 0), (8, 1), (11, 1), (67, 7), (101, 10)])
def test_tail_is_the_fixed_percentile_whatever_the_count(n, beyond):
    values = [float(i) for i in range(n)]
    value, counted = run.tail(values)
    assert value == pytest.approx(run.TAIL / 100 * (n - 1))
    assert counted == beyond == sum(1 for v in values if v > value)
