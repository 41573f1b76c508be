"""Tests for search-journal provenance (:mod:`repro.obs.provenance`):
kill-reason classification, per-query journals, prune attribution,
exporters, certificates, and journal survival across worker pools."""

import json

import pytest

from repro.engine import RefutationDriver
from repro.ir import compile_program
from repro.obs import metrics, provenance, trace
from repro.obs.provenance import (
    BUDGET_TIMEOUT,
    CALLEE_SKIP_DROP,
    CONTROL_UNREACHABLE,
    INSTANCE_CONSTRAINT,
    KILL_REASONS,
    LOOP_INVARIANT_DROP,
    SOLVER_UNSAT,
    WORKLIST_SUBSUMED,
    RunJournal,
    SearchJournal,
    classify_kill,
    render_certificate,
    to_dot,
)
from repro.pointsto import analyze
from repro.symbolic import Engine, SearchConfig

# The PR 1 dead-branch program: Box.v -> object0 is refuted (the branch
# assigning `new Object()` is dead), Box.v -> string0 is witnessed.
DEAD_BRANCH = """
class Box { Object v; }
class Main {
    static void main() {
        int flag = 0;
        Object o = new String();
        if (flag == 1) { o = new Object(); }
        Box b = new Box();
        b.v = o;
    }
}
"""

# Refuted purely by instance constraints: the overwrite o := new String()
# kills the Object binding before it can reach the heap write.
PURE_INSTANCE = """
class Box { Object v; }
class Main {
    static void main() {
        Box b = new Box();
        Object o = new Object();
        o = new String();
        b.v = o;
    }
}
"""

# Needs loop-invariant inference: the producer is inside a loop, behind a
# dead guard; the irrelevant j-choice sends two states through the loop
# head, so the fixpoint drops the second (loop-invariant-drop), and the
# dead guard contradicts flag := 0 outside the loop (solver-unsat).
LOOP_INVARIANT = """
class Box { Object v; }
class Main {
    static void main() {
        Box b = new Box();
        int flag = 0;
        int i = 0;
        int j = 0;
        while (i < 3) {
            if (j == 0) { j = 1; } else { j = 2; }
            if (flag == 1) { b.v = new Object(); }
            i = i + 1;
        }
        b.v = new String();
    }
}
"""


@pytest.fixture(autouse=True)
def no_leftover_journal():
    provenance.disable()
    yield
    provenance.disable()


def _pta(source):
    return analyze(compile_program(source))


def _refute_all(source, config=None, journal=True):
    """Run every heap edge of ``source`` through one engine; returns
    (results-by-str(edge), journal-or-None). ``journal`` may also be the
    :class:`RunJournal` to install."""
    if isinstance(journal, RunJournal):
        book = provenance.install(journal)
    else:
        book = provenance.install() if journal else None
    pta = _pta(source)
    engine = Engine(pta, config or SearchConfig())
    results = {}
    for edge in sorted(pta.graph.heap_edges(), key=str):
        results[str(edge)] = engine.refute_edge(edge)
    provenance.disable()
    return results, book


# ---------------------------------------------------------------------------
# classify_kill
# ---------------------------------------------------------------------------


class TestClassifyKill:
    def test_taxonomy_is_closed(self):
        assert set(KILL_REASONS) == {
            INSTANCE_CONSTRAINT,
            SOLVER_UNSAT,
            LOOP_INVARIANT_DROP,
            WORKLIST_SUBSUMED,
            CALLEE_SKIP_DROP,
            BUDGET_TIMEOUT,
            CONTROL_UNREACHABLE,
            provenance.HISTORY_SUBSUMED,
        }

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("instance constraint: a0 from ∅", INSTANCE_CONSTRAINT),
            ("separation: strong update", INSTANCE_CONSTRAINT),
            ("kind mismatch", INSTANCE_CONSTRAINT),
            ("pure constraints unsatisfiable", SOLVER_UNSAT),
            ("control: callee never completes normally", CONTROL_UNREACHABLE),
            ("entry: initial values contradict query", SOLVER_UNSAT),
            ("entry: constraint on uninitialized local", INSTANCE_CONSTRAINT),
            (None, SOLVER_UNSAT),
        ],
    )
    def test_raw_reason_mapping(self, raw, expected):
        assert classify_kill(raw) == expected

    def test_every_classification_is_in_the_taxonomy(self):
        for raw in ("instance constraint", "pure constraints", "control",
                    "entry: x", "dispatch", "narrow", None, "???"):
            assert classify_kill(raw) in KILL_REASONS


# ---------------------------------------------------------------------------
# SearchJournal / RunJournal mechanics
# ---------------------------------------------------------------------------


class TestSearchJournal:
    def test_spawn_kill_witness_events(self):
        sj = SearchJournal("e")
        a = sj.new_state(0, 1)
        b = sj.new_state(a, 2)
        sj.kill(b, 2, SOLVER_UNSAT, "contradiction")
        sj.witness(a, 1)
        tally = {SOLVER_UNSAT: 1}
        sj.close("witnessed", tally)
        assert sj.states == 2
        assert sj.kills == 1
        assert sj.kill_counts == tally
        assert sj.kill_counts is not tally  # the engine's dict stays its own
        assert sj.witness_sid == a
        fates = sj.fates()
        assert fates[b].reason == SOLVER_UNSAT

    def test_kill_counts_exact_beyond_event_cap(self):
        # The engine's tally, not the retained events, sets kill_counts.
        uncapped, _ = _refute_all(LOOP_INVARIANT, journal=False)
        capped, book = _refute_all(
            LOOP_INVARIANT, journal=RunJournal(max_events_per_search=3)
        )
        for sj in book.searches:
            assert len(sj.events) <= 3
            assert sj.kill_counts == capped[sj.description].kill_reasons
        assert any(sj.dropped_events for sj in book.searches)
        assert {d: r.kill_reasons for d, r in capped.items()} == {
            d: r.kill_reasons for d, r in uncapped.items()
        }

    def test_to_dict_round_trip(self):
        sj = SearchJournal("edge x", kind="edge")
        sid = sj.new_state(0, 7, detail="producer")
        sj.kill(sid, 7, INSTANCE_CONSTRAINT, "boom")
        sj.close("refuted", {INSTANCE_CONSTRAINT: 1})
        back = SearchJournal.from_dict(sj.to_dict())
        assert back.description == "edge x"
        assert back.status == "refuted"
        assert back.kill_counts == sj.kill_counts
        assert [e.to_row() for e in back.events] == [
            e.to_row() for e in sj.events
        ]


class TestRunJournal:
    def test_install_disable_enabled(self):
        assert not provenance.enabled()
        book = provenance.install()
        assert provenance.enabled()
        assert provenance.get_journal() is book
        provenance.disable()
        assert provenance.get_journal() is None

    def test_drain_and_absorb(self):
        a = RunJournal()
        sj = a.open_search("e1")
        sj.kill(sj.new_state(0, 1), 1, SOLVER_UNSAT)
        sj.close("refuted", {SOLVER_UNSAT: 1})
        payloads = a.drain()
        assert a.searches == []
        b = RunJournal()
        b.absorb(payloads)
        assert [s.description for s in b.searches] == ["e1"]
        assert b.attribution() == {SOLVER_UNSAT: 1}

    def test_jsonl_round_trip(self, tmp_path):
        book = RunJournal()
        sj = book.open_search("edge a")
        sj.kill(sj.new_state(0, 3), 3, INSTANCE_CONSTRAINT)
        sj.close("refuted", {INSTANCE_CONSTRAINT: 1})
        path = tmp_path / "journal.jsonl"
        book.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["attribution"] == {INSTANCE_CONSTRAINT: 1}
        back = RunJournal.read_jsonl(str(path))
        assert back.attribution() == book.attribution()
        assert [s.description for s in back.searches] == ["edge a"]

    def test_reads_journal_with_retired_kill_reason(self, tmp_path):
        # Written by a build that still had the cross-search refuted-state
        # cache, whose drops carried the ``refuted-cache-hit`` reason.
        path = tmp_path / "old.jsonl"
        path.write_text(OLD_JOURNAL)
        back = RunJournal.read_jsonl(str(path))
        assert "refuted-cache-hit" not in KILL_REASONS
        assert back.attribution() == {"refuted-cache-hit": 1, SOLVER_UNSAT: 1}
        dot = to_dot(back.searches)
        assert dot.startswith("digraph")
        assert "refuted-cache-hit" in dot


OLD_JOURNAL = (
    '{"attribution": {"refuted-cache-hit": 1, "solver-unsat": 1},'
    ' "journal": "repro.obs.provenance", "schema_version": 1, "searches": 1}\n'
    '{"description": "box0.v -> object0", "dropped_events": 0, "events":'
    ' [["spawned", 1, 0, 4, null, "producer"], ["spawned", 2, 1, 9, null, ""],'
    ' ["killed", 2, null, 9, "refuted-cache-hit", "loop L9: an earlier refuted'
    ' search already proved this state a dead end"], ["killed", 1, null, 4,'
    ' "solver-unsat", "pure constraints unsatisfiable"]], "kill_counts":'
    ' {"refuted-cache-hit": 1, "solver-unsat": 1}, "kind": "edge", "states": 2,'
    ' "status": "refuted", "witness_sid": null}\n'
)


# ---------------------------------------------------------------------------
# Engine integration: journaling the backwards search
# ---------------------------------------------------------------------------


class TestEngineJournaling:
    def test_kill_reasons_without_a_journal_equal_the_journaled_run(self):
        for source in (DEAD_BRANCH, LOOP_INVARIANT):
            bare, book = _refute_all(source, journal=False)
            assert book is None
            journaled, book = _refute_all(source)
            assert any(r.kill_reasons for r in bare.values())
            assert {d: r.kill_reasons for d, r in bare.items()} == {
                d: r.kill_reasons for d, r in journaled.items()
            }
            for sj in book.searches:
                assert sj.kill_counts == journaled[sj.description].kill_reasons

    def test_kill_metrics_rise_without_a_journal(self):
        names = [f"executor.kill.{reason}" for reason in KILL_REASONS]
        before = {name: metrics.counter(name).value for name in names}
        results, _ = _refute_all(LOOP_INVARIANT, journal=False)
        kills: dict = {}
        for result in results.values():
            for reason, n in result.kill_reasons.items():
                kills[reason] = kills.get(reason, 0) + n
        assert kills
        for reason in KILL_REASONS:
            name = f"executor.kill.{reason}"
            assert metrics.counter(name).value - before[name] == kills.get(
                reason, 0
            )

    def test_refuted_edge_every_dead_branch_has_a_typed_kill(self):
        results, book = _refute_all(DEAD_BRANCH)
        (sj,) = book.searches_for("box0.v -> object0")
        assert sj.status == "refuted"
        assert sj.kills >= 1
        for event in sj.events:
            if event.kind == provenance.KILLED:
                assert event.reason in KILL_REASONS
                assert event.detail  # every kill says why
        # Leaves of the spawn tree are exactly the killed states.
        children = sj.children()
        leaves = {
            e.sid
            for e in sj.events
            if e.kind == provenance.SPAWNED and e.sid not in children
        }
        assert leaves == set(sj.fates())

    def test_witnessed_edge_records_the_witness(self):
        results, book = _refute_all(DEAD_BRANCH)
        (sj,) = book.searches_for("box0.v -> string0")
        assert sj.status == "witnessed"
        assert sj.witness_sid is not None

    def test_stats_roll_up_kill_reasons(self):
        book = provenance.install()
        pta = _pta(DEAD_BRANCH)
        engine = Engine(pta, SearchConfig())
        kills: dict = {}
        for edge in sorted(pta.graph.heap_edges(), key=str):
            for reason, n in engine.refute_edge(edge).kill_reasons.items():
                kills[reason] = kills.get(reason, 0) + n
        provenance.disable()
        assert kills and kills == book.attribution()

    def test_pinned_kill_counts_pure_instance_constraints(self):
        for journal in (True, False):
            results, book = _refute_all(PURE_INSTANCE, journal=journal)
            refuted = results["box0.v -> object0"]
            assert refuted.status == "refuted"
            assert refuted.kill_reasons == {INSTANCE_CONSTRAINT: 1}

    def test_pinned_kill_counts_loop_invariant_inference(self):
        for journal in (True, False):
            results, book = _refute_all(LOOP_INVARIANT, journal=journal)
            refuted = results["box0.v -> object0"]
            assert refuted.status == "refuted"
            assert refuted.kill_reasons == {
                SOLVER_UNSAT: 1,
                LOOP_INVARIANT_DROP: 1,
            }

    def test_budget_timeout_kills_are_journaled(self):
        for journal in (True, False):
            results, book = _refute_all(
                LOOP_INVARIANT, SearchConfig(path_budget=2), journal=journal
            )
            result = results["box0.v -> object0"]
            assert result.status == "timeout"
            assert BUDGET_TIMEOUT in result.kill_reasons

    def test_fact_searches_carry_the_description(self):
        from repro.clients import analyze_casts

        book = provenance.install()
        pta = _pta(
            """
            class Main { static void main() {
                int flag = 0;
                Object o = new String();
                if (flag == 1) { o = new Object(); }
                String s = (String) o;
            } }
            """
        )
        analyze_casts(pta)
        provenance.disable()
        kinds = {sj.kind for sj in book.searches}
        assert kinds == {"fact"}
        assert all("cast" in sj.description for sj in book.searches)


# ---------------------------------------------------------------------------
# Attribution: journal == stats == report (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestAttribution:
    def _run_driver(self, jobs=1, backend=None):
        book = provenance.install()
        pta = _pta(LOOP_INVARIANT)
        driver = RefutationDriver(
            pta, SearchConfig(), jobs=jobs, backend=backend
        )
        driver.refute_edges(sorted(pta.graph.heap_edges(), key=str))
        report = driver.build_report(app="t", command="check")
        driver.close()
        provenance.disable()
        return report, book

    def test_report_attribution_equals_journal_kill_events(self):
        report, book = self._run_driver()
        attribution = report.attribution
        journal_kills = book.attribution()
        assert attribution["kills"] == journal_kills
        assert attribution["total_kills"] == sum(journal_kills.values())
        # ... and both equal a recount of the raw journal kill events.
        recount = {}
        for sj in book.searches:
            for event in sj.events:
                if event.kind == provenance.KILLED:
                    recount[event.reason] = recount.get(event.reason, 0) + 1
        assert recount == journal_kills

    def test_attribution_survives_the_thread_pool(self):
        report, book = self._run_driver(jobs=2, backend="thread")
        assert report.attribution["kills"] == book.attribution()
        assert report.attribution["total_kills"] >= 1

    def test_attribution_in_report_json_round_trip(self):
        from repro.engine import RunReport

        report, _ = self._run_driver()
        back = RunReport.from_json(report.to_json())
        assert back.attribution == report.attribution
        assert json.loads(report.to_json())["attribution"] == report.attribution


# ---------------------------------------------------------------------------
# Exporters and certificates
# ---------------------------------------------------------------------------


class TestExporters:
    def test_dot_export_names_kill_reasons_on_leaves(self):
        _, book = _refute_all(DEAD_BRANCH)
        searches = book.searches_for("box0.v -> object0")
        dot = to_dot(searches)
        assert dot.startswith("digraph")
        assert "fillcolor=salmon" in dot  # killed leaves are colored
        assert INSTANCE_CONSTRAINT in dot and SOLVER_UNSAT in dot

    def test_dot_export_marks_the_witness(self):
        _, book = _refute_all(DEAD_BRANCH)
        dot = to_dot(book.searches_for("box0.v -> string0"))
        assert "witnessed" in dot and "fillcolor=palegreen" in dot

    def test_certificate_names_every_dead_branch_reason(self):
        _, book = _refute_all(DEAD_BRANCH)
        text = render_certificate("box0.v -> object0", book, status="refuted")
        (sj,) = book.searches_for("box0.v -> object0")
        assert "refutation certificate" in text
        for reason in sj.kill_counts:
            assert reason in text
        # The per-branch lines carry the human detail, not just the type.
        assert "killed" in text

    def test_certificate_for_witnessed_search(self):
        _, book = _refute_all(DEAD_BRANCH)
        text = render_certificate(
            "box0.v -> string0", book, status="witnessed"
        )
        assert "WITNESSED" in text


# ---------------------------------------------------------------------------
# Worker pools: journals, metrics, and spans survive process hops
# ---------------------------------------------------------------------------


SEARCH_VERDICTS = ("executor.refuted", "executor.witnessed", "executor.timeout")


class TestProcessPoolObservability:
    @pytest.fixture()
    def process_run(self):
        # Forked workers inherit the process-wide solver memo; start cold
        # so the searches genuinely run (and count) inside the workers
        # instead of being served from tables warmed by earlier tests.
        from repro.perf.memo import SOLVER_MEMO

        SOLVER_MEMO.clear()
        tracer = trace.install()
        book = provenance.install()
        pta = _pta(DEAD_BRANCH)
        driver = RefutationDriver(
            pta, SearchConfig(), jobs=2, backend="process"
        )
        if driver.backend != "process":
            trace.disable()
            provenance.disable()
            pytest.skip("process backend unavailable on this platform")
        before = {
            name: metrics.counter(name).value
            for name in (
                "executor.states_explored",
                "solver.checks",
                *SEARCH_VERDICTS,
            )
        }
        driver.refute_edges(sorted(pta.graph.heap_edges(), key=str))
        report = driver.build_report(app="t", command="check")
        driver.close()
        trace.disable()
        provenance.disable()
        return report, book, tracer, before

    def test_pool_records_and_kill_counters_match_serial(self):
        # No journal: the kill tally rides in each record and the worker's
        # executor.kill.* increments merge into the parent registry.
        names = [f"executor.kill.{reason}" for reason in KILL_REASONS]
        pta = _pta(LOOP_INVARIANT)
        edges = sorted(pta.graph.heap_edges(), key=str)
        runs = []
        for jobs, backend in ((1, None), (2, "process")):
            before = {name: metrics.counter(name).value for name in names}
            with RefutationDriver(
                pta, SearchConfig(), jobs=jobs, backend=backend
            ) as driver:
                if backend and driver.backend != backend:
                    pytest.skip("process backend unavailable on this platform")
                driver.refute_edges(edges)
                records = driver.build_report().records
            runs.append((
                {r.description: r.kill_reasons for r in records},
                {n: metrics.counter(n).value - before[n] for n in names},
                {r.worker.split("-")[0] for r in records},
            ))
        (serial, serial_kills, _), (pooled, pooled_kills, workers) = runs
        assert workers == {"process"}
        assert any(serial.values())
        assert pooled == serial
        assert pooled_kills == serial_kills
        assert sum(pooled_kills.values()) == sum(
            sum(k.values()) for k in serial.values()
        )

    def test_worker_metrics_merge_into_parent_registry(self, process_run):
        report, book, tracer, before = process_run
        # The searches ran in worker processes; without the snapshot merge
        # the parent's executor/solver counters would not move at all.
        assert (
            metrics.counter("executor.states_explored").value
            > before["executor.states_explored"]
        )
        assert metrics.counter("solver.checks").value > before["solver.checks"]
        # Each of the two worker jobs counts as one search verdict, as inline.
        searches = sum(
            metrics.counter(name).value - before[name] for name in SEARCH_VERDICTS
        )
        assert searches == 2

    def test_worker_journals_merge_into_parent(self, process_run):
        report, book, tracer, before = process_run
        assert {sj.description for sj in book.searches} == {
            "box0.v -> object0",
            "box0.v -> string0",
        }
        assert report.attribution["kills"] == book.attribution()

    def test_worker_spans_merge_with_distinct_pids(self, process_run):
        report, book, tracer, before = process_run
        chrome = tracer.to_chrome_trace()
        events = chrome["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert len(pids) >= 2  # parent + at least one worker row
        names = {
            e["args"]["name"]
            for e in events
            if e["name"] == "process_name"
        }
        assert any(n.startswith("repro worker") for n in names)
        # Worker searches appear as spans with remapped, unique ids.
        span_ids = [
            e["args"]["span_id"] for e in events if e["ph"] == "X"
        ]
        assert len(span_ids) == len(set(span_ids))
        assert any(
            e["name"] == "executor.search" and e["pid"] != chrome_pid(chrome)
            for e in events
            if e["ph"] == "X"
        )


def chrome_pid(chrome) -> int:
    """The parent pid of a Chrome trace (its first process_name meta)."""
    return next(
        e["pid"]
        for e in chrome["traceEvents"]
        if e["name"] == "process_name"
        and e["args"]["name"] == "repro refutation pipeline"
    )


# ---------------------------------------------------------------------------
# CLI: --journal and the explain subcommand
# ---------------------------------------------------------------------------


APP = """
class A extends Activity {
    static boolean keep = false;
    static Activity cache;
    static Activity leaked;
    void onCreate() { if (A.keep) { A.cache = this; } A.leaked = this; }
}
"""


#: ``A.cache`` has two guarded edges: a flat ``witness`` batch of two jobs.
GUARDED_TWICE = """
class A extends Activity {
    static boolean keep = false;
    static Object cache;
    void onCreate() {
        if (A.keep) { A.cache = this; }
        if (A.keep) { A.cache = new Object(); }
    }
}
"""


class TestExplainCli:
    @pytest.fixture()
    def run_artifacts(self, tmp_path):
        from repro.cli import main

        app = tmp_path / "app.mj"
        app.write_text(APP)
        report = tmp_path / "report.json"
        journal = tmp_path / "journal.jsonl"
        code = main(
            [
                "check",
                str(app),
                "--json-report",
                str(report),
                "--journal",
                str(journal),
            ]
        )
        assert code == 1  # the leaked alarm survives
        return app, report, journal, tmp_path

    def test_explain_refuted_edge_renders_certificate(
        self, run_artifacts, capsys
    ):
        from repro.cli import main

        app, report, journal, tmp_path = run_artifacts
        dot = tmp_path / "refuted.dot"
        code = main(
            [
                "explain",
                "--report",
                str(report),
                "--journal",
                str(journal),
                "--status",
                "refuted",
                "--dot",
                str(dot),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "refutation certificate" in out
        assert "A.cache" in out
        assert "killed" in out
        assert dot.read_text().startswith("digraph")

    def test_explain_witnessed_edge_renders_path_narrative(
        self, run_artifacts, capsys
    ):
        from repro.cli import main

        app, report, journal, _ = run_artifacts
        code = main(
            [
                "explain",
                "--report",
                str(report),
                "--status",
                "witnessed",
                "--source",
                str(app),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "witness for A.leaked" in out
        assert "A.leaked := this" in out

    def test_process_pool_metrics_flag_reports_worker_counters(
        self, tmp_path
    ):
        from repro.cli import main

        app = tmp_path / "app.mj"
        app.write_text(GUARDED_TWICE)
        metrics_file = tmp_path / "metrics.json"
        report_file = tmp_path / "report.json"
        before = metrics.counter("executor.states_explored").value
        main(
            [
                "witness",
                str(app),
                "A.cache",
                "--jobs",
                "2",
                "--backend",
                "process",
                "--json-report",
                str(report_file),
                "--metrics",
                str(metrics_file),
            ]
        )
        report = json.loads(report_file.read_text())
        assert all(r["worker"].startswith("process-") for r in report["records"])
        dump = json.loads(metrics_file.read_text())
        # The searches ran in worker processes; the dump must include the
        # effort their payloads carried back.
        assert dump["executor.states_explored"]["value"] > before
        assert dump["solver.checks"]["value"] > 0

    def test_explain_list_and_bad_edge(self, run_artifacts, capsys):
        from repro.cli import main

        app, report, journal, _ = run_artifacts
        assert main(["explain", "--report", str(report), "--list"]) == 0
        out = capsys.readouterr().out
        assert "A.cache" in out and "A.leaked" in out
        assert (
            main(
                ["explain", "--report", str(report), "--edge", "no-such-edge"]
            )
            == 2
        )


# ---------------------------------------------------------------------------
# Facade: AnalysisRequest(journal=True) -> result.certificate(...)
# ---------------------------------------------------------------------------


DEAD_CAST = """
class Main { static void main() {
    int flag = 0;
    Object o = new String();
    if (flag == 1) { o = new Object(); }
    String s = (String) o;
} }
"""


class TestFacadeJournal:
    def test_analyze_attaches_journal_and_certificate(self):
        from repro.api import analyze

        result = analyze(client="casts", source=DEAD_CAST, journal=True)
        assert result.journal is not None
        assert not provenance.enabled()  # facade cleans up after itself
        refuted = next(
            r for r in result.report.records if r.status == "refuted"
        )
        text = result.certificate(refuted.description)
        assert "refutation certificate" in text
        assert "killed" in text

    def test_certificate_without_journal_raises(self):
        from repro.api import analyze

        result = analyze(client="casts", source=DEAD_CAST)
        assert result.journal is None
        with pytest.raises(ValueError):
            result.certificate("anything")
