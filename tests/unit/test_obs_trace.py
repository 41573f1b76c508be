"""Tests for the hierarchical span tracer (:mod:`repro.obs.trace`)."""

import json
import threading
import time

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer


@pytest.fixture(autouse=True)
def _restore_disabled():
    """Every test leaves the process-wide tracer back at the no-op default."""
    yield
    trace.disable()


class TestDisabledDefault:
    def test_disabled_by_default(self):
        assert not trace.enabled()
        assert trace.get_tracer() is None

    def test_noop_span_is_shared_and_inert(self):
        a = trace.span("anything", key="value")
        b = trace.span("else")
        assert a is b  # one shared object: no allocation on the hot path
        with a as sp:
            sp.set(status="ignored")  # must not raise

    def test_install_disable_round_trip(self):
        tracer = trace.install()
        assert trace.enabled()
        assert trace.get_tracer() is tracer
        trace.disable()
        assert not trace.enabled()


class TestSpanRecording:
    def test_span_records_name_attrs_duration(self):
        tracer = trace.install()
        with trace.span("phase.one", edge="a->b") as sp:
            sp.set(status="refuted")
        (record,) = tracer.spans()
        assert record.name == "phase.one"
        assert record.attrs == {"edge": "a->b", "status": "refuted"}
        assert record.duration >= 0.0
        assert record.parent_id is None

    def test_nesting_sets_parent_ids(self):
        tracer = trace.install()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
            with trace.span("inner2"):
                pass
        by_name = {r.name: r for r in tracer.spans()}
        outer = by_name["outer"]
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["inner2"].parent_id == outer.span_id
        assert outer.parent_id is None
        # Children close before the parent, so they are recorded first.
        assert [r.name for r in tracer.spans()] == ["inner", "inner2", "outer"]

    def test_threads_get_separate_lanes(self):
        tracer = trace.install()

        def worker():
            with trace.span("worker.span"):
                pass

        with trace.span("main.span"):
            t = threading.Thread(target=worker, name="lane-test")
            t.start()
            t.join()
        by_name = {r.name: r for r in tracer.spans()}
        # The worker's span must NOT nest under main's open span...
        assert by_name["worker.span"].parent_id is None
        # ...and it sits on its own thread lane.
        assert by_name["worker.span"].thread_id != by_name["main.span"].thread_id
        assert by_name["worker.span"].thread_name == "lane-test"

    def test_max_spans_cap_counts_drops(self):
        tracer = trace.install(Tracer(max_spans=3))
        for i in range(5):
            with trace.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 3
        assert tracer.dropped_spans == 2

    def test_phase_totals(self):
        tracer = trace.install()
        for _ in range(3):
            with trace.span("x"):
                pass
        totals = tracer.phase_totals()
        assert set(totals) == {"x"}
        assert totals["x"] >= 0.0

    def test_phase_totals_count_spans_past_the_cap(self):
        tracer = trace.install(Tracer(max_spans=2))
        for _ in range(5):
            with trace.span("x"):
                time.sleep(0.001)
        assert len(tracer.spans()) == 2 and tracer.dropped_spans == 3
        retained = sum(r.duration for r in tracer.spans())
        assert tracer.phase_totals()["x"] > retained
        assert tracer.phase_totals()["x"] >= 0.005

    def test_phase_totals_since_a_snapshot(self):
        tracer = trace.install()
        with trace.span("x"):
            pass
        with trace.span("y"):
            pass
        base = tracer.phase_totals()
        with trace.span("x"):
            pass
        with trace.span("z"):
            pass
        assert tracer.phase_totals(since=base) == pytest.approx(
            {r.name: r.duration for r in tracer.spans()[2:]}
        )


class TestChromeExport:
    def _spans(self, payload):
        return [e for e in payload["traceEvents"] if e["ph"] == "X"]

    def test_export_shape(self):
        tracer = trace.install()
        with trace.span("outer", kind="test"):
            with trace.span("inner"):
                pass
        payload = tracer.to_chrome_trace()
        events = payload["traceEvents"]
        # Metadata names the process and each thread lane.
        metas = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        assert any(e["name"] == "thread_name" for e in metas)
        spans = self._spans(payload)
        assert {e["name"] for e in spans} == {"outer", "inner"}
        for e in spans:
            assert set(e) >= {"name", "cat", "ph", "ts", "dur", "pid", "tid"}
            assert e["ts"] >= 0 and e["dur"] >= 0  # microseconds
        inner = next(e for e in spans if e["name"] == "inner")
        outer = next(e for e in spans if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert outer["args"]["kind"] == "test"
        assert outer["cat"] == "outer"  # category = name prefix

    def test_export_timestamps_nest(self):
        tracer = trace.install()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        spans = self._spans(tracer.to_chrome_trace())
        inner = next(e for e in spans if e["name"] == "inner")
        outer = next(e for e in spans if e["name"] == "outer")
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_write_round_trips_through_json(self, tmp_path):
        tracer = trace.install()
        with trace.span("a", n=1):
            pass
        path = tmp_path / "trace.json"
        tracer.write(str(path))
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["dropped_spans"] == 0
        assert self._spans(payload)[0]["name"] == "a"


class TestPipelineIntegration:
    """The acceptance shape: driver.batch -> executor.search -> solver
    spans."""

    def test_refutation_run_produces_nested_pipeline_spans(self):
        from repro.api import analyze
        from repro.perf.memo import SOLVER_MEMO

        # The canonical-signature component memo is process-wide and its
        # keys recur across tests (unlike fresh-symvar whole-query keys):
        # a warmed table would answer every query without a real decision,
        # and this test asserts the *decision* spans exist.
        SOLVER_MEMO.clear()
        tracer = trace.install()
        result = analyze(
            client="casts",
            source=(
                "class A { } class B { } class M { static void main() {"
                " int tag = 0;"
                " Object o = new A();"
                " if (tag == 1) { o = new B(); }"
                " A a = (A) o; } }"
            ),
        )
        assert result.verified
        by_id = {r.span_id: r for r in tracer.spans()}
        names = {r.name for r in by_id.values()}
        assert {"driver.batch", "executor.search",
                "solver.check_sat", "pointsto.solve"} <= names
        assert "driver.job" not in names

        def ancestors(record):
            chain = []
            while record.parent_id is not None:
                record = by_id[record.parent_id]
                chain.append(record.name)
            return chain

        searches = [r for r in by_id.values() if r.name == "executor.search"]
        assert searches
        for search in searches:
            assert ancestors(search)[0] == "driver.batch"
            assert search.attrs["kind"] == "fact"
            assert search.attrs["description"].startswith("cast@L")
        checks = [r for r in by_id.values() if r.name == "solver.check_sat"]
        assert checks
        for check in checks:
            assert "executor.search" in ancestors(check)

    def test_portfolio_trace_has_one_job_span_per_rung_attempt(self):
        """Escalations show in the trace as the job's ``executor.search``
        spans, one per rung it ran at, each with that rung's budget."""
        from repro.bench.workloads import mixed_app
        from repro.engine import EdgeEscalated, RefutationDriver
        from repro.engine.schedule import rung_ladder
        from repro.ir import compile_program
        from repro.pointsto import analyze
        from repro.symbolic import SearchConfig

        pta = analyze(
            compile_program(mixed_app(3, 1, easy_branches=1, hard_branches=6))
        )
        config = SearchConfig(
            path_budget=10_000, portfolio=True, portfolio_rungs=(1000,)
        )
        budgets = [
            config.path_budget if budget is None else budget
            for budget, _ in rung_ladder(config)
        ]
        events = []
        tracer = trace.install()
        with RefutationDriver(pta, config, on_event=events.append) as driver:
            driver.refute_edges(sorted(pta.graph.static_edges(), key=str))
            records = driver.build_report().records
        jobs = [
            e["args"]
            for e in tracer.to_chrome_trace()["traceEvents"]
            if e["name"] == "executor.search"
        ]
        escalated = [e for e in events if isinstance(e, EdgeEscalated)]
        assert escalated, "no job climbed the ladder"
        assert len(jobs) == len(records) + len(escalated)
        for record in records:
            assert [
                job["budget"] for job in jobs
                if job["description"] == record.description
            ] == budgets[: record.rung + 1]
        assert {e["ph"] for e in tracer.to_chrome_trace()["traceEvents"]} == {
            "M", "X"
        }
