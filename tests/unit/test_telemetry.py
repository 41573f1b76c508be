"""Unit tests for the operational-telemetry layer
(:mod:`repro.obs.telemetry` + :mod:`repro.engine.diff`): Prometheus
exposition, the lifecycle hub, the slow-query flight recorder, periodic
metric streaming, and run-report diffing."""

import itertools
import json
import time

import pytest

from repro.bench.workloads import mixed_app
from repro.engine import RefutationDriver, diff_reports, render_diff
from repro.engine.events import (
    EdgeEscalated,
    EdgeFinished,
    EdgeScheduled,
    RunFinished,
    RunStarted,
    SpanFinished,
)
from repro.ir import compile_program
from repro.obs import metrics, provenance, telemetry
from repro.obs.telemetry import (
    CONTENT_TYPE,
    EXPOSITION_VERSION,
    FlightRecorder,
    MetricsStreamer,
    TelemetryHub,
    render_prometheus,
)
from repro.pointsto import analyze
from repro.symbolic import Engine, SearchConfig

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
# repro-exposition-version 2
# HELP repro_driver_job_seconds Distribution of driver.job_seconds.
# TYPE repro_driver_job_seconds summary
repro_driver_job_seconds_count 1
repro_driver_job_seconds_sum 2
repro_driver_job_seconds{quantile="0.5"} 2
repro_driver_job_seconds{quantile="0.95"} 2
# HELP repro_driver_rung_jobs_total Portfolio-ladder jobs, by lifecycle event and rung.
# TYPE repro_driver_rung_jobs_total counter
repro_driver_rung_jobs_total{event="carryover",rung="0"} 1
repro_driver_rung_jobs_total{event="scheduled",rung="0"} 4
# HELP repro_driver_sched_events_total Scheduler events: priority inversions.
# TYPE repro_driver_sched_events_total counter
repro_driver_sched_events_total{event="priority_inversion"} 1
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
        reg.counter("driver.priority_inversions").inc(1)
        reg.counter("driver.rung.scheduled.0").inc(4)
        reg.counter("driver.rung.carryover.0").inc(1)
        reg.counter("store.hits").inc(6)
        reg.counter("store.misses").inc(1)
        reg.gauge("store.entries").set(7)
        reg.gauge("pool.workers").set(2)
        reg.histogram("driver.job_seconds").observe(2.0)
        assert render_prometheus(reg) == GOLDEN

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
# TelemetryHub
# ---------------------------------------------------------------------------


def _finish(description, status="refuted", worker="w0", cached=False):
    return EdgeFinished(
        description=description,
        status=status,
        seconds=0.01,
        path_programs=2,
        worker=worker,
        index=0,
        total=1,
        cached=cached,
    )


class TestTelemetryHub:
    def test_lifecycle_fold(self):
        hub = TelemetryHub()
        hub.sink(RunStarted(total_jobs=2, jobs=2, backend="thread"))
        hub.sink(EdgeScheduled(description="e1", index=0, total=2))
        hub.sink(EdgeScheduled(description="e2", index=1, total=2))
        snap = hub.snapshot()
        assert snap["totals"]["scheduled"] == 2
        assert [e["description"] for e in snap["in_flight"]] == ["e1", "e2"]

        hub.sink(EdgeEscalated(description="e1", rung=0, next_budget=10_000))
        snap = hub.snapshot()
        entry = snap["in_flight"][0]
        assert entry["rung"] == 1
        assert snap["totals"]["escalated"] == 1

        hub.sink(_finish("e1"))
        hub.sink(_finish("e2", status="witnessed", worker="w1"))
        hub.sink(RunFinished(refuted=1, witnessed=1, timeouts=0, seconds=0.1))
        snap = hub.snapshot()
        assert snap["in_flight"] == []
        assert snap["totals"]["refuted"] == 1
        assert snap["totals"]["witnessed"] == 1
        assert snap["workers"]["w0"] >= 1 and snap["workers"]["w1"] >= 1
        assert snap["run"]["finished"] is not None

    def test_cached_results_counted_separately(self):
        hub = TelemetryHub()
        hub.sink(_finish("e1", cached=True))
        totals = hub.snapshot()["totals"]
        assert totals["cached"] == 1 and totals["refuted"] == 0

    def test_non_lifecycle_events_ignored(self):
        hub = TelemetryHub()
        hub.sink(
            SpanFinished(name="driver.job", seconds=0.1, thread=0, attrs={})
        )
        hub.sink(object())
        assert hub.events_since(0) == (0, [])

    def test_cursor_resume_and_limit(self):
        hub = TelemetryHub()
        for i in range(5):
            hub.sink(EdgeScheduled(description=f"e{i}", index=i, total=5))
        cursor, rows = hub.events_since(0, limit=2)
        assert [r["description"] for r in rows] == ["e0", "e1"]
        cursor, rows = hub.events_since(cursor)
        assert [r["description"] for r in rows] == ["e2", "e3", "e4"]
        assert hub.events_since(cursor) == (cursor, [])

    def test_ring_drops_oldest_but_keeps_cursor_monotonic(self):
        hub = TelemetryHub(capacity=3)
        for i in range(10):
            hub.sink(EdgeScheduled(description=f"e{i}", index=i, total=10))
        cursor, rows = hub.events_since(0)
        assert [r["description"] for r in rows] == ["e7", "e8", "e9"]
        assert cursor == 10


# ---------------------------------------------------------------------------
# FlightRecorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(size=3)
        for i in range(7):
            rec.record({"description": f"s{i}"})
        assert [r["description"] for r in rec.recent()] == ["s4", "s5", "s6"]
        assert [r["description"] for r in rec.recent(limit=1)] == ["s6"]
        rec.reset()
        assert rec.recent() == []

    def test_capture_via_replay_persists_journal(self, tmp_path, pta, edges):
        """With no run journal installed, capture replays the search on a
        fresh engine and persists journal + meta (the zero-flags path)."""
        assert provenance.get_journal() is None
        rec = FlightRecorder()
        edge = edges[0]
        summary = telemetry.search_summary(
            "edge", str(edge), Engine(pta, SearchConfig()).refute_edge(edge)
        )
        meta = rec.capture(
            str(edge),
            summary,
            replay=lambda: Engine(pta, SearchConfig()).refute_edge(edge),
            directory=str(tmp_path),
        )
        assert meta is not None
        assert meta["attribution"], "capture carried no kill attribution"
        captures = telemetry.list_captures(str(tmp_path))
        assert len(captures) == 1
        capture = captures[0]
        assert capture["description"] == str(edge)
        lines = open(capture["path"]).read().splitlines()
        assert json.loads(lines[0])["schema_version"] >= 1
        assert len(lines) >= 2, "journal persisted no searches"
        # The replay's temporary journal/tracer installs were restored.
        assert provenance.get_journal() is None

    def test_capture_reuses_installed_journal_without_rerunning(
        self, tmp_path, pta, edges
    ):
        """With a run journal installed the capture must extract from it —
        never re-run (double-counting kills would corrupt attribution)."""
        edge = edges[0]
        book = provenance.install()
        try:
            result = Engine(pta, SearchConfig()).refute_edge(edge)
            searches_before = len(book.searches)
            calls = []
            meta = FlightRecorder().capture(
                str(edge),
                telemetry.search_summary("edge", str(edge), result),
                replay=lambda: calls.append(1),
                directory=str(tmp_path),
            )
            assert meta is not None
            assert calls == [], "capture re-ran despite an installed journal"
            assert len(book.searches) == searches_before
        finally:
            provenance.disable()
        assert telemetry.list_captures(str(tmp_path))

    def test_env_veto(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DISABLE", "1")
        rec = FlightRecorder()
        assert not rec.capture_enabled()
        assert rec.capture("x", {}, directory=str(tmp_path)) is None
        assert telemetry.list_captures(str(tmp_path)) == []

    def test_capture_cap(self, tmp_path, pta, edges):
        rec = FlightRecorder(max_captures=1)
        edge = edges[0]
        replay = lambda: Engine(pta, SearchConfig()).refute_edge(edge)  # noqa: E731
        summary = {"status": "refuted"}
        first = rec.capture(
            str(edge), summary, replay=replay, directory=str(tmp_path)
        )
        second = rec.capture(
            str(edge), summary, replay=replay, directory=str(tmp_path)
        )
        assert first is not None and second is None
        assert len(telemetry.list_captures(str(tmp_path))) == 1

    def test_flight_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "fr"))
        assert telemetry.flight_dir() == str(tmp_path / "fr")


class TestDriverAutoCapture:
    def test_slow_search_captured_with_zero_flags(
        self, tmp_path, monkeypatch, pta, edges
    ):
        """The acceptance path: no --journal, no --trace — a search over
        the slow-query threshold still leaves a loadable journal."""
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_FLIGHT_DISABLE", raising=False)
        monkeypatch.setattr(telemetry, "RECORDER", FlightRecorder())
        config = SearchConfig(slow_query_ms=0.000001)
        with RefutationDriver(pta, config, jobs=2) as driver:
            driver.refute_edges(edges)
        rows = telemetry.RECORDER.recent()
        assert len(rows) == len(edges)
        captures = telemetry.list_captures(str(tmp_path))
        assert captures, "no slow-query capture was persisted"
        for capture in captures:
            assert capture["summary"]["seconds"] * 1000.0 >= 0.000001
            assert open(capture["path"]).read().strip()

    def test_fast_searches_not_captured(self, tmp_path, monkeypatch, pta, edges):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(telemetry, "RECORDER", FlightRecorder())
        config = SearchConfig(slow_query_ms=60_000.0)
        with RefutationDriver(pta, config, jobs=1) as driver:
            driver.refute_edges(edges)
        # Summaries always recorded; nothing crossed the capture bar.
        assert telemetry.RECORDER.recent()
        assert telemetry.list_captures(str(tmp_path)) == []

    @pytest.mark.parametrize("workload", ["leak_checker", "layered"])
    def test_captured_run_counts_like_an_uncaptured_one(
        self, tmp_path, monkeypatch, workload
    ):
        """Every search is captured and replayed, yet the registry deltas
        equal an uncaptured run's. ``leak_checker`` catches the replay
        counting itself; ``layered`` catches a replay that warms the
        solver memo or advances the variable numbering, either of which
        changes the work of the searches after it."""
        from repro.android.leaks import LeakChecker
        from repro.api import AnalysisRequest
        from repro.api import analyze as run_analysis
        from repro.bench.workloads import branchy_app, layered_app
        from repro.perf.memo import SOLVER_MEMO
        from repro.symbolic import symvar

        def run():
            if workload == "leak_checker":
                LeakChecker(
                    branchy_app(4, leaky=False),
                    config=SearchConfig(slow_query_ms=0),
                ).run()
            else:
                run_analysis(
                    AnalysisRequest(
                        source=layered_app(2, hard_branches=4),
                        client="reachability",
                        root_class="Registry",
                        root_field="hold",
                        target_class="Item",
                        include_library=False,
                        slow_query_ms=0,
                    )
                )

        def deltas(capture: bool) -> dict:
            if capture:
                monkeypatch.delenv("REPRO_FLIGHT_DISABLE", raising=False)
            else:
                monkeypatch.setenv("REPRO_FLIGHT_DISABLE", "1")
            monkeypatch.setattr(telemetry, "RECORDER", FlightRecorder())
            # Both runs start from a cold memo and the same numbering.
            SOLVER_MEMO.clear()
            monkeypatch.setattr(symvar, "_ids", itertools.count())
            before = metrics.REGISTRY.snapshot()
            run()
            after = metrics.REGISTRY.snapshot()
            out = {}
            for name, snap in after.items():
                old = before.get(name, {})
                if snap["type"] == "counter":
                    out[name] = snap["value"] - old.get("value", 0)
                elif snap["type"] == "histogram":
                    out[name] = snap["count"] - old.get("count", 0)
            return {name: n for name, n in out.items() if n}

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        uncaptured = deltas(capture=False)
        captured = deltas(capture=True)
        assert telemetry.list_captures(str(tmp_path)), "nothing was captured"
        assert captured == uncaptured
        assert uncaptured["executor.states_explored"] > 0

    def test_muted_thread_keeps_other_threads_counting(self):
        import threading

        counter = metrics.counter("test.muted_probe")
        start = counter.value
        with metrics.muted():
            counter.inc()  # dropped: this thread is muted
            worker = threading.Thread(target=counter.inc, args=(5,))
            worker.start()
            worker.join()
        counter.inc(2)
        assert counter.value - start == 7

    def test_private_ids_leave_the_shared_numbering_alone(self):
        import threading

        from repro.symbolic.symvar import fresh_data, private_ids

        first = fresh_data().vid
        shared = []
        with private_ids():
            inside = [fresh_data().vid for _ in range(3)]
            worker = threading.Thread(
                target=lambda: shared.append(fresh_data().vid)
            )
            worker.start()
            worker.join()
        assert inside == [0, 1, 2]
        assert shared == [first + 1]  # other threads draw from the shared counter
        assert fresh_data().vid == first + 2

    def test_none_disables_recording_threshold(
        self, tmp_path, monkeypatch, pta, edges
    ):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(telemetry, "RECORDER", FlightRecorder())
        config = SearchConfig(slow_query_ms=None)
        with RefutationDriver(pta, config, jobs=1) as driver:
            driver.refute_edges(edges)
        assert telemetry.list_captures(str(tmp_path)) == []


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
# MetricsStreamer
# ---------------------------------------------------------------------------


class TestMetricsStreamer:
    def test_appends_snapshots_and_final_flush(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        reg = metrics.MetricsRegistry()
        reg.counter("probe.count").inc(3)
        streamer = MetricsStreamer(str(path), interval=0.01, registry=reg)
        streamer.start()
        time.sleep(0.05)
        streamer.stop()
        rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert rows, "streamer wrote nothing"
        seqs = [row["seq"] for row in rows]
        assert seqs == sorted(seqs)
        assert all(
            row["metrics"]["probe.count"]["value"] == 3 for row in rows
        )
        assert all("ts" in row for row in rows)

    def test_stop_is_idempotent(self, tmp_path):
        streamer = MetricsStreamer(str(tmp_path / "s.jsonl"), interval=5.0)
        streamer.start()
        streamer.stop()
        streamer.stop()


# ---------------------------------------------------------------------------
# Scheduler metrics under the process pool (snapshot/merge)
# ---------------------------------------------------------------------------


class TestProcessPoolSchedulerMetrics:
    def test_synthetic_worker_snapshots_merge_to_sums(self):
        """Counters add, gauges take the max — merged totals must equal
        the per-worker sums for every scheduler family."""
        names = (
            "driver.priority_inversions",
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
            parent.merge_snapshot(reg.snapshot())
        for i, name in enumerate(names):
            expected = sum(w + i for w in range(3))
            assert parent.counter(name).value == expected, name
        assert parent.gauge("pool.workers").value == 2
        # And the merged registry folds into labeled exposition series.
        text = render_prometheus(parent)
        assert (
            'repro_driver_rung_jobs_total{event="scheduled",rung="0"}'
            f" {sum(w + 1 for w in range(3))}" in text
        )

    def test_process_backend_portfolio_rung_counters_match_schedule(
        self, pta, edges
    ):
        """Under --backend process the rung ladder runs in the parent:
        the registry's per-rung counter deltas must equal the report's
        schedule table exactly (merged totals == per-worker sums is
        covered above; this pins the end-to-end accounting)."""

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
