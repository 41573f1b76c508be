"""Unit tests for the ``thresher`` command-line interface."""

import pytest

from repro.cli import main

LEAKY_APP = """
class A extends Activity {
    static Activity cache;
    void onCreate() { A.cache = this; }
}
"""

CLEAN_APP = """
class A extends Activity {
    static boolean keep = false;
    static Activity cache;
    void onCreate() { if (A.keep) { A.cache = this; } }
}
"""


@pytest.fixture
def leaky_file(tmp_path):
    path = tmp_path / "leaky.mj"
    path.write_text(LEAKY_APP)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.mj"
    path.write_text(CLEAN_APP)
    return str(path)


class TestCheck:
    def test_leaky_app_exits_nonzero(self, leaky_file, capsys):
        code = main(["check", leaky_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "confirmed" in out
        assert "A.cache" in out

    def test_clean_app_exits_zero(self, clean_file, capsys):
        code = main(["check", clean_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "refuted" in out

    def test_witnesses_flag_prints_trace(self, leaky_file, capsys):
        code = main(["check", leaky_file, "--witnesses"])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness for" in out

    def test_budget_flag_accepted(self, clean_file):
        assert main(["check", clean_file, "--budget", "100"]) in (0, 1)

    def test_annotated_flag(self, clean_file):
        assert main(["check", clean_file, "--annotated"]) == 0


class TestGraph:
    def test_dot_output(self, leaky_file, capsys):
        assert main(["graph", leaky_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "cache" in out

    def test_no_library_mode(self, tmp_path, capsys):
        path = tmp_path / "standalone.mj"
        path.write_text(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); b.v = new Object(); } }"
        )
        assert main(["graph", str(path), "--no-library"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestWitness:
    def test_witness_for_field(self, leaky_file, capsys):
        assert main(["witness", leaky_file, "A.cache"]) == 0
        out = capsys.readouterr().out
        assert "WITNESSED" in out

    def test_refuted_field(self, clean_file, capsys):
        assert main(["witness", clean_file, "A.cache"]) == 0
        assert "REFUTED" in capsys.readouterr().out

    def test_missing_dot_rejected(self, leaky_file):
        assert main(["witness", leaky_file, "nodot"]) == 2

    def test_unknown_field_reports_no_edges(self, leaky_file, capsys):
        assert main(["witness", leaky_file, "A.nothing"]) == 0
        assert "no points-to edges" in capsys.readouterr().out


class TestBench:
    def test_bench_single_app_table1(self, capsys):
        assert main(["bench", "--app", "DroidLife"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "DroidLife" in out

    def test_bench_single_app_table2(self, capsys):
        assert main(["bench", "--table", "2", "--app", "DroidLife"]) == 0
        assert "Table 2" in capsys.readouterr().out


class TestDriverFlags:
    """The parallel-driver flags shared by check/witness/casts/bench."""

    def test_jobs_flag_same_verdict(self, leaky_file, clean_file, capsys):
        for path, expected in ((leaky_file, 1), (clean_file, 0)):
            serial = main(["check", path, "--jobs", "1"])
            capsys.readouterr()
            parallel = main(["check", path, "--jobs", "4"])
            capsys.readouterr()
            assert serial == parallel == expected

    def test_json_report_written(self, leaky_file, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "run.json")
        code = main(["check", leaky_file, "--jobs", "2", "--json-report", report_path])
        capsys.readouterr()
        assert code == 1
        data = json.loads(open(report_path).read())
        assert data["jobs"] == 2
        assert data["records"]
        assert {r["status"] for r in data["records"]} <= {
            "refuted", "witnessed", "timeout"
        }

    def test_deadline_flag_converts_to_timeout(self, leaky_file, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "run.json")
        code = main(
            ["check", leaky_file, "--deadline", "0.0", "--json-report", report_path]
        )
        capsys.readouterr()
        assert code == 1  # timeout is not-refuted: the alarm is still reported
        data = json.loads(open(report_path).read())
        assert data["deadline"] == 0.0
        assert data["summary"]["timeouts"] >= 1

    def test_progress_flag(self, leaky_file, capsys):
        code = main(["check", leaky_file, "--progress"])
        captured = capsys.readouterr()
        assert code == 1
        assert "done:" in captured.err

    def test_witness_with_driver_flags(self, leaky_file, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "wit.json")
        code = main(
            ["witness", leaky_file, "A.cache", "--jobs", "2",
             "--json-report", report_path]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "WITNESSED" in out
        assert json.loads(open(report_path).read())["command"] == "witness"

    def test_bench_with_jobs(self, capsys):
        assert main(["bench", "--app", "DroidLife", "--jobs", "2"]) == 0
        assert "Table 1" in capsys.readouterr().out


#: Two points-to edges out of ``A.hold``: a ``witness`` batch of two jobs,
#: enough to start a process pool.
TWO_EDGE_APP = """
class A extends Activity {
    static Object hold;
    void onCreate() { A.hold = new Object(); A.hold = this; }
}
"""


@pytest.fixture
def two_edge_file(tmp_path):
    path = tmp_path / "two.mj"
    path.write_text(TWO_EDGE_APP)
    return str(path)


class TestBackendThatRan:
    """The progress line and the report name the backend that ran: a path
    batch runs inline even under ``--backend process``."""

    def test_check_path_batches_run_serial(self, two_edge_file, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "run.json")
        code = main(
            ["check", two_edge_file, "--jobs", "2", "--backend", "process",
             "--progress", "--json-report", report_path]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "on 1 serial worker(s)" in err
        assert "process worker" not in err
        data = json.loads(open(report_path).read())
        assert data["backend"] == "serial"
        assert {r["worker"] for r in data["records"]} == {"serial"}

    def test_witness_flat_batch_runs_on_the_pool(
        self, two_edge_file, tmp_path, capsys
    ):
        import json

        report_path = str(tmp_path / "wit.json")
        code = main(
            ["witness", two_edge_file, "A.hold", "--jobs", "2", "--backend",
             "process", "--progress", "--json-report", report_path]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "on 2 process worker(s)" in err
        data = json.loads(open(report_path).read())
        assert data["backend"] == "process"
        assert all(r["worker"].startswith("process-") for r in data["records"])


class TestPhaseRollup:
    """``RunReport.phase_seconds`` is the tracer's per-name rollup of the
    spans, worker spans included, recorded from the driver's construction
    to its report: the oracle sums exactly those spans."""

    def _run(self, argv, monkeypatch):
        import json

        from repro.engine import RefutationDriver
        from repro.obs import trace

        tracers, marks = [], []
        install, init, build = (
            trace.install, RefutationDriver.__init__, RefutationDriver.build_report
        )

        def spans_now() -> int:
            return len(tracers[0].spans())

        def installed(*args):
            tracers.append(install(*args))
            return tracers[-1]

        def built(self, *args, **kwargs):
            init(self, *args, **kwargs)
            marks.append(spans_now())

        def reported(self, *args, **kwargs):
            marks.append(spans_now())
            return build(self, *args, **kwargs)

        monkeypatch.setattr(trace, "install", installed)
        monkeypatch.setattr(RefutationDriver, "__init__", built)
        monkeypatch.setattr(RefutationDriver, "build_report", reported)
        main(argv)
        (tracer,) = tracers
        start, end = marks
        window = tracer.spans()[start:end]
        oracle: dict = {}
        for record in window:
            oracle[record.name] = oracle.get(record.name, 0.0) + record.duration
        report = json.loads(open(argv[argv.index("--json-report") + 1]).read())
        assert oracle and report["phase_seconds"] == pytest.approx(oracle)
        return window

    def test_traced_check(self, leaky_file, tmp_path, monkeypatch, capsys):
        self._run(
            ["check", leaky_file, "--progress", "--trace",
             str(tmp_path / "t.json"), "--json-report", str(tmp_path / "r.json")],
            monkeypatch,
        )
        assert "phases: " in capsys.readouterr().err

    def test_traced_witness_on_the_pool(
        self, two_edge_file, tmp_path, monkeypatch, capsys
    ):
        window = self._run(
            ["witness", two_edge_file, "A.hold", "--jobs", "2", "--backend",
             "process", "--trace", str(tmp_path / "t.json"),
             "--json-report", str(tmp_path / "r.json")],
            monkeypatch,
        )
        capsys.readouterr()
        assert any(r.pid is not None for r in window), "no worker spans"


class TestExplainDiff:
    def _reports(self, leaky_file, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(["check", leaky_file, "--json-report", a]) == 1
        # The injected regression: an instant per-edge deadline flips
        # every verdict to TIMEOUT in report B.
        assert main(
            ["check", leaky_file, "--deadline", "0", "--json-report", b]
        ) in (0, 1)
        capsys.readouterr()
        return a, b

    def test_diff_attributes_injected_regression(
        self, leaky_file, tmp_path, capsys
    ):
        a, b = self._reports(leaky_file, tmp_path, capsys)
        assert main(["explain", "--diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "run diff:" in out
        assert "verdict changes:" in out
        assert "-> timeout" in out

    def test_report_from_before_the_single_schedule_loads_and_diffs(
        self, leaky_file, tmp_path, capsys
    ):
        """Reports written while the schedule policy existed carry
        ``policy`` and ``priority_inversions`` in their ``schedule``
        section; they still load, diff and print, with no scheduler
        section."""
        import json

        from repro.engine import RunReport

        a, b = self._reports(leaky_file, tmp_path, capsys)
        data = json.loads(open(a).read())
        assert sorted(data["schedule"]) == ["portfolio", "resolved_at_rung", "rungs"]
        data["schedule"].update(policy="priority", priority_inversions=3)
        old = str(tmp_path / "old.json")
        with open(old, "w") as fh:
            json.dump(data, fh)
        report = RunReport.from_json(open(old).read())
        assert report.schedule["priority_inversions"] == 3
        assert main(["explain", "--diff", old, b]) == 0
        out = capsys.readouterr().out
        assert "run diff:" in out and "-> timeout" in out
        assert "scheduler" not in out and "inversion" not in out
        assert main(["explain", "--report", old, "--status"]) == 0
        out = capsys.readouterr().out
        assert "scheduling: portfolio=off" in out
        assert "policy" not in out and "inversion" not in out

    def test_explain_requires_a_mode(self, capsys):
        assert main(["explain"]) == 2
        err = capsys.readouterr().err
        assert "--report" in err and "--diff" in err and "--slow" not in err


class TestExplainStatusTiers:
    def test_partitioned_report_prints_tier_rows(
        self, clean_file, tmp_path, capsys
    ):
        report = str(tmp_path / "r.json")
        assert main(["check", clean_file, "--json-report", report]) == 0
        capsys.readouterr()
        assert main(["explain", "--report", report, "--status"]) == 0
        out = capsys.readouterr().out
        assert "solver context hits" in out
