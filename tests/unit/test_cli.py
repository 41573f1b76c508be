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

    def test_explain_requires_a_mode(self, capsys):
        assert main(["explain"]) == 2
        err = capsys.readouterr().err
        assert "--report" in err and "--diff" in err and "--slow" in err


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


class TestExplainSlow:
    def test_lists_captures_from_flight_dir(
        self, leaky_file, tmp_path, capsys, monkeypatch
    ):
        from repro.obs import telemetry

        flight = str(tmp_path / "flight")
        monkeypatch.setenv("REPRO_FLIGHT_DIR", flight)
        monkeypatch.delenv("REPRO_FLIGHT_DISABLE", raising=False)
        monkeypatch.setattr(
            telemetry, "RECORDER", telemetry.FlightRecorder()
        )
        # Zero observability flags; every search trips the threshold.
        assert main(["check", leaky_file, "--slow-query-ms", "0.000001"]) == 1
        capsys.readouterr()
        assert main(["explain", "--slow"]) == 0
        out = capsys.readouterr().out
        assert "slow-query capture(s)" in out
        assert "journal:" in out
        assert main(["explain", "--slow", "--flight-dir", flight]) == 0
        assert "slow-query capture(s)" in capsys.readouterr().out

    def test_empty_dir_reports_none(self, tmp_path, capsys):
        assert main(
            ["explain", "--slow", "--flight-dir", str(tmp_path / "none")]
        ) == 0
        assert "no flight-recorder captures" in capsys.readouterr().out

    def test_slow_query_zero_disables(self, leaky_file, tmp_path, monkeypatch):
        from repro.obs import telemetry

        flight = str(tmp_path / "flight")
        monkeypatch.setenv("REPRO_FLIGHT_DIR", flight)
        monkeypatch.setattr(
            telemetry, "RECORDER", telemetry.FlightRecorder()
        )
        assert main(["check", leaky_file, "--slow-query-ms", "0"]) == 1
        assert telemetry.list_captures(flight) == []


class TestTop:
    def test_render_top_is_pure_and_complete(self):
        from repro.cli import _render_top

        frame = _render_top(
            {
                "program": {"methods": 12, "commands": 80},
                "metrics": {"serve.requests": 3,
                            "driver.priority_inversions": 1},
                "schedule": {
                    "rungs": [
                        {"rung": 0, "budget": 1000, "scheduled": 6,
                         "resolved": 4, "carryover": 2}
                    ]
                },
                "cache_tiers": {"context_hits": 6, "decisions": 2},
                "telemetry": {
                    "run": {"total_jobs": 6, "jobs": 2, "backend": "thread",
                            "finished": None},
                    "totals": {"scheduled": 6, "refuted": 3},
                    "in_flight": [
                        {"description": "Registry.hold -> it", "rung": 1,
                         "since": 0.0}
                    ],
                    "workers": {"w0": 2, "w1": 1},
                },
            }
        )
        assert "12 methods" in frame
        assert "running" in frame
        assert "rung 1  Registry.hold -> it" in frame
        assert "rung 0 @ 1000: 6/4/2" in frame
        assert "w0: 2 (67%)" in frame
        assert "6/8 solver questions answered from cache (75%)" in frame
        assert "1 inversion(s)" in frame

    def test_render_top_empty_payload(self):
        from repro.cli import _render_top

        frame = _render_top({})
        assert frame.startswith("thresher top")
        assert "in flight (0):" in frame

    def test_top_unreachable_daemon_fails_cleanly(self, capsys):
        assert main(
            ["top", "--url", "http://127.0.0.1:9", "--once"]
        ) == 1
        assert "cannot reach" in capsys.readouterr().err
