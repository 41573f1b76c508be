"""Unit tests for the Prometheus exposition (:mod:`repro.obs.telemetry`),
run-report diffing (:mod:`repro.engine.diff`) and the scheduler metrics a
process pool merges."""

import json

import pytest

from repro.bench.workloads import mixed_app
from repro.engine import RefutationDriver, diff_reports, render_diff
from repro.ir import compile_program
from repro.obs import metrics
from repro.obs.telemetry import (
    CONTENT_TYPE,
    EXPOSITION_VERSION,
    render_prometheus,
)
from repro.pointsto import analyze
from repro.symbolic import SearchConfig

PORTFOLIO = dict(path_budget=10_000, portfolio=True, portfolio_rungs=(1000,))


@pytest.fixture(scope="module")
def pta():
    # The scheduler-test workload: cheap jobs plus one expensive one.
    return analyze(
        compile_program(mixed_app(3, 1, easy_branches=1, hard_branches=6))
    )


@pytest.fixture(scope="module")
def edges(pta):
    return sorted(pta.graph.static_edges(), key=str)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


GOLDEN = """\
# repro-exposition-version 6
# HELP repro_driver_rung_jobs_total Portfolio-ladder jobs, by lifecycle event and rung.
# TYPE repro_driver_rung_jobs_total counter
repro_driver_rung_jobs_total{event="carryover",rung="0"} 1
repro_driver_rung_jobs_total{event="scheduled",rung="0"} 4
# HELP repro_executor_kills_total Path states killed, by kill-taxonomy reason.
# TYPE repro_executor_kills_total counter
repro_executor_kills_total{reason="solver-unsat"} 3
# HELP repro_pool_workers Current pool.workers.
# TYPE repro_pool_workers gauge
repro_pool_workers 2
# HELP repro_solver_answers_total Solver queries answered, by cache tier.
# TYPE repro_solver_answers_total counter
repro_solver_answers_total{tier="context"} 2
repro_solver_answers_total{tier="decision"} 5
# HELP repro_store_entries Current store.entries.
# TYPE repro_store_entries gauge
repro_store_entries 7
# HELP repro_store_ops_total Persistent verdict-store operations, by outcome.
# TYPE repro_store_ops_total counter
repro_store_ops_total{op="hit"} 6
repro_store_ops_total{op="miss"} 1
"""


class TestExposition:
    def test_golden(self):
        """The full exposition of a small synthetic registry, pinned
        byte for byte — scrapers depend on this shape."""
        reg = metrics.MetricsRegistry()
        reg.counter("executor.kill.solver-unsat").inc(3)
        reg.counter("solver.context_hits").inc(2)
        reg.counter("solver.checks").inc(5)
        reg.counter("driver.rung.scheduled.0").inc(4)
        reg.counter("driver.rung.carryover.0").inc(1)
        reg.counter("store.hits").inc(6)
        reg.counter("store.misses").inc(1)
        reg.gauge("store.entries").set(7)
        reg.gauge("pool.workers").set(2)
        assert render_prometheus(reg) == GOLDEN

    def test_histogram_renders_as_summary(self):
        reg = metrics.MetricsRegistry()
        reg.histogram("executor.search_seconds").observe(2.0)
        assert render_prometheus(reg).splitlines()[1:] == [
            "# HELP repro_executor_search_seconds"
            " Distribution of executor.search_seconds.",
            "# TYPE repro_executor_search_seconds summary",
            "repro_executor_search_seconds_count 1",
            "repro_executor_search_seconds_sum 2",
            'repro_executor_search_seconds{quantile="0.5"} 2',
            'repro_executor_search_seconds{quantile="0.95"} 2',
        ]

    def test_version_line_and_content_type(self):
        text = render_prometheus(metrics.MetricsRegistry())
        assert text == f"# repro-exposition-version {EXPOSITION_VERSION}\n"
        assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_every_kill_reason_folds_into_one_family(self):
        reg = metrics.MetricsRegistry()
        reg.counter("executor.kill.budget-timeout").inc(7)
        reg.counter("executor.kill.loop-bound").inc(2)
        text = render_prometheus(reg)
        assert text.count("# TYPE repro_executor_kills_total counter") == 1
        assert 'repro_executor_kills_total{reason="budget-timeout"} 7' in text
        assert 'repro_executor_kills_total{reason="loop-bound"} 2' in text

    def test_tier_mapping_matches_cache_report_names(self):
        reg = metrics.MetricsRegistry()
        for name in (
            "solver.context_hits",
            "solver.component_memo_hits",
            "solver.memo_hits",
            "solver.fastpath_unsat",
            "solver.checks",
        ):
            reg.counter(name).inc()
        text = render_prometheus(reg)
        for tier in (
            "context",
            "component_memo",
            "whole_query_memo",
            "fastpath_unsat",
            "decision",
        ):
            assert f'repro_solver_answers_total{{tier="{tier}"}} 1' in text

    def test_store_counters_fold_into_one_family(self):
        reg = metrics.MetricsRegistry()
        for name in (
            "store.hits",
            "store.misses",
            "store.writes",
            "store.evictions",
            "store.errors",
        ):
            reg.counter(name).inc()
        text = render_prometheus(reg)
        assert text.count("# TYPE repro_store_ops_total counter") == 1
        for op in ("hit", "miss", "write", "evict", "error"):
            assert f'repro_store_ops_total{{op="{op}"}} 1' in text

    def test_unlabeled_counters_get_total_suffix(self):
        reg = metrics.MetricsRegistry()
        reg.counter("serve.requests").inc(9)
        assert "repro_serve_requests_total 9" in render_prometheus(reg)

    def test_deterministic(self):
        reg = metrics.MetricsRegistry()
        reg.counter("b.two").inc()
        reg.counter("a.one").inc()
        assert render_prometheus(reg) == render_prometheus(reg)
        a = render_prometheus(reg).splitlines()
        samples = [l for l in a if not l.startswith("#")]
        assert samples == sorted(samples)


# ---------------------------------------------------------------------------
# Run-report diffing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report_a(pta, edges):
    with RefutationDriver(pta, SearchConfig(), jobs=1) as driver:
        driver.refute_edges(edges)
        return driver.build_report(app="app.mj", command="check")


class TestDiffReports:
    def test_injected_timeout_regression_attributed(self, pta, edges, report_a):
        """Rerunning with an instant deadline flips every verdict to
        TIMEOUT; the diff must attribute each flip by edge token."""
        config = SearchConfig(deadline_seconds=0.0)
        with RefutationDriver(pta, config, jobs=1) as driver:
            driver.refute_edges(edges)
            report_b = driver.build_report(app="app.mj", command="check")
        diff = diff_reports(report_a, report_b)
        assert len(diff["records"]) == len(edges)
        assert len(diff["verdict_changes"]) == len(edges)
        assert all(
            r["status_b"] == "timeout" for r in diff["verdict_changes"]
        )
        assert diff["only_in_a"] == [] and diff["only_in_b"] == []
        rendered = render_diff(diff)
        assert "verdict changes:" in rendered
        assert "-> timeout" in rendered
        assert "wall delta" in rendered

    def test_tier_deltas_attributed_for_no_memo(self, pta, edges, report_a):
        config = SearchConfig(memoize_solver=False)
        with RefutationDriver(pta, config, jobs=1) as driver:
            driver.refute_edges(edges)
            report_b = driver.build_report(app="app.mj", command="check")
        diff = diff_reports(report_a, report_b)
        assert diff["verdict_changes"] == []
        # Memo off: the component-memo tier cannot have grown.
        assert diff["tiers"]["component_memo_hits"]["delta"] <= 0
        assert "decisions" in diff["tiers"]

    def test_disjoint_reports_listed_not_joined(self, report_a):
        from repro.engine.report import RunReport

        empty = RunReport.from_json(
            json.dumps(
                {
                    "schema_version": report_a.to_dict()["schema_version"],
                    "app": "other.mj",
                    "command": "check",
                    "records": [],
                }
            )
        )
        diff = diff_reports(report_a, empty)
        assert diff["records"] == []
        assert [tuple(t) for t in diff["only_in_a"]] == sorted(
            (r.kind, r.description) for r in report_a.records
        )


# ---------------------------------------------------------------------------
# Scheduler metrics under the process pool (drain/merge)
# ---------------------------------------------------------------------------


class TestProcessPoolSchedulerMetrics:
    def test_synthetic_worker_snapshots_merge_to_sums(self):
        """Counters add — merged totals must equal the per-worker sums for
        every scheduler family — and gauges, one process's own levels,
        are not shipped."""
        names = (
            "driver.rung.resolved.1",
            "driver.rung.scheduled.0",
            "driver.rung.resolved.0",
            "driver.rung.carryover.0",
            "driver.rung.scheduled.1",
        )
        workers = []
        for w in range(3):
            reg = metrics.MetricsRegistry()
            for i, name in enumerate(names):
                reg.counter(name).inc(w + i)
            reg.gauge("pool.workers").set(w)
            workers.append(reg)
        parent = metrics.MetricsRegistry()
        for reg in workers:
            parent.merge_snapshot(reg.drain())
            # A drain zeroes what it ships: the next one carries nothing.
            assert {snap["value"] for snap in reg.drain().values()} == {0}
        for i, name in enumerate(names):
            expected = sum(w + i for w in range(3))
            assert parent.counter(name).value == expected, name
        assert parent.get("pool.workers") is None
        # And the merged registry folds into labeled exposition series.
        text = render_prometheus(parent)
        assert (
            'repro_driver_rung_jobs_total{event="scheduled",rung="0"}'
            f" {sum(w + 1 for w in range(3))}" in text
        )

    def test_process_backend_portfolio_rung_counters_match_schedule(
        self, pta, edges
    ):
        """Under --backend process the rung ladder of a flat batch runs
        in the parent: the registry's per-rung counter deltas must equal
        the report's schedule table exactly (merged totals == per-worker
        sums is covered above; this pins the end-to-end accounting)."""

        def rung_counts():
            out = {}
            for event in ("scheduled", "resolved", "carryover"):
                for rung in (0, 1):
                    name = f"driver.rung.{event}.{rung}"
                    inst = metrics.REGISTRY.get(name)
                    out[(event, rung)] = inst.value if inst is not None else 0
            return out

        before = rung_counts()
        config = SearchConfig(**PORTFOLIO)
        with RefutationDriver(
            pta, config, jobs=2, backend="process"
        ) as driver:
            driver.refute_edges(edges)
            report = driver.build_report(command="check")
        after = rung_counts()
        rungs = {row["rung"]: row for row in report.schedule["rungs"]}
        for (event, rung), value in before.items():
            assert after[(event, rung)] - value == rungs.get(rung, {}).get(
                event, 0
            ), (event, rung)
        # The ladder did real work: everything scheduled at rung 0,
        # survivors carried into rung 1.
        assert rungs[0]["scheduled"] == len(edges)
        assert rungs[0]["resolved"] + rungs[0]["carryover"] == len(edges)
        if rungs[0]["carryover"]:
            assert rungs[1]["scheduled"] == rungs[0]["carryover"]
