"""Unit tests for the parallel refutation driver (``repro.engine``)."""

import importlib.util
import json
import os

import repro.engine.driver as driver_module

import pytest

from repro.android.leaks import LeakChecker
from repro.engine import (
    EdgeFinished,
    ProgressPrinter,
    RefutationDriver,
    RunFinished,
    RunReport,
    RunStarted,
)
from repro.ir import compile_program
from repro.pointsto import analyze
from repro.symbolic import Engine, SearchConfig
from repro.symbolic.stats import REFUTED, TIMEOUT, WITNESSED

SOURCE = """
class Box { Object v; }
class Main {
    static void main() {
        int flag = 0;
        Object o = new String();
        if (flag == 1) { o = new Object(); }   // dead branch
        Box b = new Box();
        b.v = o;
    }
}
"""

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def _example_app(name: str) -> str:
    """Load the ``APP`` source string from an ``examples/*.py`` script."""
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", os.path.join(EXAMPLES, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.APP


@pytest.fixture(scope="module")
def pta():
    return analyze(compile_program(SOURCE))


@pytest.fixture(scope="module")
def edges(pta):
    return sorted(pta.graph.heap_edges(), key=str)


class TestSerialDriver:
    def test_matches_bare_engine(self, pta, edges):
        engine = Engine(pta, SearchConfig())
        driver = RefutationDriver(pta, SearchConfig(), jobs=1)
        for edge in edges:
            assert driver.refute_edge(edge).status == engine.refute_edge(edge).status

    def test_backend_is_serial(self, pta):
        assert RefutationDriver(pta, jobs=1).backend == "serial"

    def test_rejects_zero_jobs(self, pta):
        with pytest.raises(ValueError):
            RefutationDriver(pta, jobs=0)

    def test_refute_path_stops_at_first_refuted(self, pta, edges):
        driver = RefutationDriver(pta, jobs=1)
        examined = driver.refute_path(edges)
        # Path order: the refuted object-edge sorts first, so the serial
        # walk must stop there without touching the second edge.
        statuses = [r.status for _, r in examined]
        assert statuses[-1] == REFUTED
        assert len(examined) <= len(edges)

    def test_cache_shared_with_engine(self, pta, edges):
        driver = RefutationDriver(pta, jobs=1)
        driver.refute_edges(edges)
        assert len(driver.engine.edge_results()) == len(edges)


class TestParallelDriver:
    def test_verdicts_match_serial(self, pta, edges):
        serial = RefutationDriver(pta, jobs=1).refute_edges(edges)
        with RefutationDriver(pta, jobs=4) as driver:
            parallel = driver.refute_edges(edges)
        assert {k: v.status for k, v in serial.items()} == {
            k: v.status for k, v in parallel.items()
        }

    def test_jobs_parity_on_singleton_leak_example(self):
        """``--jobs 1`` and ``--jobs 4`` agree on examples/singleton_leak.py."""
        app = _example_app("singleton_leak")
        r1 = LeakChecker(app, "k9", jobs=1).run()
        r4 = LeakChecker(app, "k9", jobs=4).run()
        verdicts1 = {(str(a.root), str(a.target)): a.status for a in r1.alarms}
        verdicts4 = {(str(a.root), str(a.target)): a.status for a in r4.alarms}
        assert verdicts1 == verdicts4
        # Per-edge verdicts agree on every edge both runs examined.
        s1 = r1.run_report.statuses()
        s4 = r4.run_report.statuses()
        common = set(s1) & set(s4)
        assert common
        assert all(s1[d] == s4[d] for d in common)

    def test_events_stream(self, pta, edges):
        events = []
        with RefutationDriver(pta, jobs=2, on_event=events.append) as driver:
            driver.refute_edges(edges)
        kinds = [type(e).__name__ for e in events]
        assert kinds[0] == "RunStarted"
        assert kinds[-1] == "RunFinished"
        assert kinds.count("EdgeFinished") == len(edges)
        finished = [e for e in events if isinstance(e, EdgeFinished)]
        assert {e.status for e in finished} == {REFUTED, WITNESSED}

    def test_cached_results_not_recomputed(self, pta, edges):
        with RefutationDriver(pta, jobs=2) as driver:
            driver.refute_edges(edges)
            events = []
            driver.events.subscribe(events.append)
            driver.refute_edges(edges)
        finished = [e for e in events if isinstance(e, EdgeFinished)]
        assert all(e.cached for e in finished)


def _exit_worker(job, budget, deadline):
    """A process-pool job that kills its worker mid-job."""
    os._exit(1)


def _box_facts(pta):
    """Fact jobs on ``b.v = o``: one per object ``o`` may hold."""
    cmd = next(
        c for c in pta.program.commands.values() if type(c).__name__ == "FieldWrite"
    )
    var = getattr(cmd.rhs, "name", cmd.rhs)
    locs = sorted(pta.pt_local("Main.main", var), key=str)
    return [(cmd.label, [(var, frozenset({loc}))], f"fact {loc}") for loc in locs]


class TestBrokenPool:
    """A process worker dying mid-job must not crash the run: its
    in-flight jobs come back TIMEOUT (never REFUTED), stay out of the
    shared edge cache, and the dead pool is replaced for the next batch."""

    def _kill_workers(self, monkeypatch):
        monkeypatch.setattr(driver_module, "_process_run", _exit_worker)

    def test_edge_batch_then_recovery(self, pta, edges, monkeypatch):
        serial = RefutationDriver(pta, jobs=1).refute_edges(edges)
        with RefutationDriver(pta, jobs=2, backend="process") as driver:
            self._kill_workers(monkeypatch)
            lost = driver.refute_edges(edges)
            assert {r.status for r in lost.values()} == {TIMEOUT}
            assert all(driver._cached(key) is None for key in lost)
            assert driver._pool is None
            report = driver.build_report(command="check")
            assert {(r.status, r.worker) for r in report.records} == {
                (TIMEOUT, "lost")
            }
            monkeypatch.undo()
            again = driver.refute_edges(edges)
            report = driver.build_report(command="check")
        assert {k: r.status for k, r in again.items()} == {
            k: r.status for k, r in serial.items()
        }
        assert {r.status for r in report.records} == {REFUTED, WITNESSED}

    def test_fact_batch_then_recovery(self, pta, monkeypatch):
        requests = _box_facts(pta)
        assert len(requests) == 2
        serial = RefutationDriver(pta, jobs=1).refute_facts(requests)
        with RefutationDriver(pta, jobs=2, backend="process") as driver:
            self._kill_workers(monkeypatch)
            lost = driver.refute_facts(requests)
            assert [r.status for r in lost] == [TIMEOUT, TIMEOUT]
            assert driver._pool is None
            monkeypatch.undo()
            again = driver.refute_facts(requests)
            report = driver.build_report(command="casts")
        assert [r.status for r in again] == [r.status for r in serial]
        assert {REFUTED, WITNESSED} == {r.status for r in again}
        assert sorted(r.worker == "lost" for r in report.records) == [
            False, False, True, True
        ]


class TestDeadline:
    def test_deadline_fires_timeout(self):
        """A tiny wall-clock deadline converts searched edges to TIMEOUT."""
        app = _example_app("singleton_leak")
        checker = LeakChecker(app, "k9", deadline=0.0)
        report = checker.run()
        statuses = {r.status for r in report.edge_results.values()}
        assert TIMEOUT in statuses
        # TIMEOUT is not-refuted: no alarm may be filtered by a timeout.
        assert all(not a.refuted or a.status == "refuted" for a in report.alarms)

    def test_deadline_recorded_in_report(self, pta, edges):
        driver = RefutationDriver(pta, jobs=1, deadline=0.5)
        driver.refute_edges(edges)
        report = driver.build_report(app="t", command="check")
        assert report.deadline == 0.5

    def test_no_deadline_means_no_timeout_here(self, pta, edges):
        driver = RefutationDriver(pta, jobs=1)
        results = driver.refute_edges(edges)
        assert all(not r.timed_out for r in results.values())

    def test_engine_level_deadline(self, pta, edges):
        engine = Engine(pta, SearchConfig(deadline_seconds=0.0))
        # Any edge whose refutation needs at least one search step times out.
        statuses = {engine.refute_edge(e).status for e in edges}
        assert statuses == {TIMEOUT}


class TestRunReport:
    def test_json_round_trip(self, pta, edges):
        driver = RefutationDriver(pta, jobs=1, deadline=2.0)
        driver.refute_edges(edges)
        report = driver.build_report(app="roundtrip", command="check")
        payload = json.loads(report.to_json())
        assert payload["app"] == "roundtrip"
        assert payload["summary"]["refuted"] == report.edges_refuted
        clone = RunReport.from_json(report.to_json())
        assert clone.statuses() == report.statuses()
        assert clone.deadline == report.deadline
        assert clone.jobs == report.jobs
        assert len(clone.records) == len(edges)

    def test_write_and_read_file(self, pta, edges, tmp_path):
        driver = RefutationDriver(pta, jobs=1)
        driver.refute_edges(edges)
        path = tmp_path / "report.json"
        driver.build_report().write(str(path))
        clone = RunReport.from_json(path.read_text())
        assert clone.statuses() == driver.build_report().statuses()

    def test_leak_report_carries_run_report(self):
        app = _example_app("singleton_leak")
        report = LeakChecker(app, "k9").run()
        assert report.run_report is not None
        assert report.run_report.app == "k9"
        assert len(report.run_report.records) == len(report.edge_results)
        assert report.run_report.wall_seconds == report.seconds


class TestFactJobs:
    def test_refute_facts_order_preserved(self):
        from repro.clients import analyze_casts

        source = """
        class A { void m() {} }
        class B extends A {}
        class Main {
            static void main() {
                A x = new B();
                B y = (B) x;
                A z = new A();
                A w = (A) z;
            }
        }
        """
        pta = analyze(compile_program(source))
        serial = analyze_casts(pta).results
        with RefutationDriver(pta, jobs=3) as driver:
            parallel = analyze_casts(pta, engine=driver).results
        assert [(r.label, r.status) for r in serial] == [
            (r.label, r.status) for r in parallel
        ]


class TestBudgetBaseline:
    def test_refute_fact_at_budget_zero_uses_zero_baseline(self, pta):
        """``budget=0`` must not silently fall back to the config budget
        (the ``budget or default`` falsy bug): the search gets zero path
        programs, and the explored count is computed from the 0 baseline."""
        program = pta.program
        label = next(
            cmd.label
            for cmd in program.commands.values()
            if type(cmd).__name__ == "FieldWrite"
        )
        loc = next(iter(pta.graph.all_abs_locs()))
        engine = Engine(pta, SearchConfig(path_budget=10_000))
        result = engine.refute_fact_at(label, [("b", frozenset({loc}))], budget=0)
        # With the falsy fallback this reported ~10_000 explored paths.
        assert result.path_programs <= 1

    def test_refute_fact_at_none_budget_uses_config(self, pta):
        program = pta.program
        label = next(
            cmd.label
            for cmd in program.commands.values()
            if type(cmd).__name__ == "FieldWrite"
        )
        loc = next(iter(pta.graph.all_abs_locs()))
        engine = Engine(pta, SearchConfig(path_budget=50))
        result = engine.refute_fact_at(label, [("b", frozenset({loc}))])
        assert result.path_programs <= 50


class TestProgressPrinter:
    def test_renders_all_event_kinds(self, pta, edges, capsys):
        import sys

        printer = ProgressPrinter(stream=sys.stderr)
        driver = RefutationDriver(pta, jobs=1, on_event=printer)
        driver.refute_edges(edges)
        err = capsys.readouterr().err
        assert "refuting" in err
        assert "done:" in err
        assert "refuted" in err
