"""Integration tests for the serve daemon: a full analyze → edit →
update → analyze lifecycle against :class:`ProgramSession`, plus the
stdio transport end to end.

The central claims of the incremental re-analysis design, as tested here:

* an edit to one screen of the lifecycle workload invalidates *only* the
  verdicts whose recorded search footprint intersects the changed method
  (``invalidated_edges`` ≥ 1 but strictly less than the total edge count);
* the warm re-analysis answers every untouched edge from retained state
  (``verdicts_reused`` > 0, ``jobs_run`` equals the invalidated count);
* the warm session's verdict payload is byte-identical to a cold session
  built directly on the edited source.
"""

import io
import json

import pytest

from repro.bench.workloads import lifecycle_app, lifecycle_edit
from repro.obs import provenance
from repro.serve.server import handle_request, serve_stdio
from repro.serve.protocol import Request
from repro.serve.session import ProgramSession
from repro.serve.invalidation import method_fingerprints

N_SCREENS = 6
EDITED = 2  # the screen the canonical edit touches

REACH_PARAMS = {
    "client": "reachability",
    "root_class": "Registry",
    "root_field": "hold",
    "target_class": "Item",
}


@pytest.fixture(scope="module")
def lifecycle_source():
    return lifecycle_app(N_SCREENS, leaky=1)


class TestLifecycle:
    def test_analyze_edit_update_analyze(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            cold, cold_meta = session.analyze(REACH_PARAMS)
            assert cold["status"] == "violated"  # screen 0 really leaks
            total_edges = len(cold["verdicts"])
            assert total_edges == N_SCREENS
            assert cold_meta["jobs_run"] == N_SCREENS
            assert cold_meta["verdicts_reused"] == 0

            # A repeated identical request re-runs nothing.
            again, again_meta = session.analyze(REACH_PARAMS)
            assert again_meta["jobs_run"] == 0
            assert again_meta["verdicts_reused"] == N_SCREENS
            assert again["verdicts"] == cold["verdicts"]

            # The canonical one-method edit: incremental, footprint-scoped.
            edited = lifecycle_edit(lifecycle_source, screen=EDITED)
            update, update_meta = session.update({"source": edited})
            assert update["mode"] == "incremental"
            assert update["changed_methods"] == [f"Screen{EDITED}.onStart"]
            assert 1 <= update_meta["invalidated_edges"] < total_edges
            assert (
                update_meta["retained_verdicts"]
                == total_edges - update_meta["invalidated_edges"]
            )

            # Warm re-analysis: only the invalidated footprint re-runs.
            warm, warm_meta = session.analyze(REACH_PARAMS)
            assert warm_meta["jobs_run"] == update_meta["invalidated_edges"]
            assert warm_meta["verdicts_reused"] == update_meta["retained_verdicts"]
            assert warm_meta["verdicts_reused"] > 0
            assert warm["status"] == "violated"

            # Byte-identical parity with a cold session on the edited source.
            cold_session = ProgramSession(edited, include_library=False)
            try:
                cold_edited, _ = cold_session.analyze(REACH_PARAMS)
            finally:
                cold_session.close()
            assert json.dumps(warm["verdicts"], sort_keys=True) == json.dumps(
                cold_edited["verdicts"], sort_keys=True
            )
        finally:
            session.close()

    def test_fact_verdicts_survive_an_unrelated_edit(self, lifecycle_source):
        """Fact verdicts live in the same retained table as edges: an edit
        to another screen keeps every one, an edit to the class's own
        screen re-runs its facts."""
        params = {"client": "immutability", "class_name": "Screen0"}
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            cold, cold_meta = session.analyze(params)
            facts = cold["stats"]["items"]
            assert facts >= 1 and cold_meta["jobs_run"] == facts
            assert session.status()[0]["retained_facts"] == facts

            edited = lifecycle_edit(lifecycle_source, screen=3)
            update, update_meta = session.update({"source": edited})
            assert update["mode"] == "incremental"
            assert update_meta["invalidated_facts"] == 0
            warm, warm_meta = session.analyze(params)
            assert warm_meta["jobs_run"] == 0
            assert warm_meta["verdicts_reused"] == facts
            assert (warm["status"], warm["results"]) == (
                cold["status"],
                cold["results"],
            )

            own = lifecycle_edit(edited, screen=0)
            update, update_meta = session.update({"source": own})
            assert update["changed_methods"] == ["Screen0.onStart"]
            assert update_meta["invalidated_facts"] == facts
            rerun, rerun_meta = session.analyze(params)
            assert rerun_meta["verdicts_reused"] == 0
            assert rerun_meta["jobs_run"] == rerun["stats"]["items"] > facts
        finally:
            session.close()

    def test_every_update_reports_the_facts_it_drops(self, lifecycle_source):
        """``invalidated_facts`` is in every update's meta: 0 on a no-op,
        and on a rebuild every fact verdict the table held."""
        params = {"client": "immutability", "class_name": "Screen0"}
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(params)
            session.analyze(REACH_PARAMS)
            status = session.status()[0]
            facts, edges = status["retained_facts"], status["retained_verdicts"]
            assert facts >= 1 and edges >= 1

            _, noop_meta = session.update({"source": lifecycle_source})
            assert noop_meta["invalidated_facts"] == 0

            declared = lifecycle_source.replace("int pad;", "int pad; int extra;", 1)
            update, meta = session.update({"source": declared})
            assert update["mode"] == "rebuild"
            assert meta["invalidated_facts"] == facts
            assert meta["invalidated_edges"] == edges
            assert session.status()[0]["retained_facts"] == 0
        finally:
            session.close()

    def test_noop_and_classes_update_flavors(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            # Re-sending the loaded source changes nothing.
            noop, noop_meta = session.update({"source": lifecycle_source})
            assert noop["mode"] == "noop"
            assert noop_meta["invalidated_edges"] == 0

            # The classes= flavor splices one class body.
            from repro.serve.session import split_classes

            name = f"Screen{EDITED}"
            edited_cls = split_classes(
                lifecycle_edit(lifecycle_source, screen=EDITED)
            )[name]
            update, meta = session.update({"classes": {name: edited_cls}})
            assert update["mode"] == "incremental"
            assert update["changed_methods"] == [f"{name}.onStart"]
            assert meta["invalidated_edges"] >= 1
        finally:
            session.close()

    def test_declaration_edit_takes_rebuild_path(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            edited = lifecycle_source.replace(
                "class Registry { static Item hold; }",
                "class Registry { static Item hold; static Item spare; }",
            )
            update, meta = session.update({"source": edited})
            assert update["mode"] == "rebuild"
            assert update["reason"] == "declarations"
            assert meta["retained_verdicts"] == 0
            # The session still answers correctly after the rebuild.
            warm, warm_meta = session.analyze(REACH_PARAMS)
            assert warm["status"] == "violated"
            assert warm_meta["verdicts_reused"] == 0
        finally:
            session.close()

    def test_non_additive_edit_takes_rebuild_path(
        self, lifecycle_source, monkeypatch
    ):
        import repro.serve.session as session_module

        session = ProgramSession(lifecycle_source, include_library=False)
        calls = {"frontend": 0, "build_program": 0}

        def counted(name):
            original = getattr(session_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        try:
            session.analyze(REACH_PARAMS)
            # Deleting a statement cannot ride the monotone solver.
            edited = lifecycle_source.replace(
                f"this.pad = this.pad + 1; /*edit-{EDITED}*/", f"/*edit-{EDITED}*/"
            )
            for name in calls:
                monkeypatch.setattr(session_module, name, counted(name))
            update, _ = session.update({"source": edited})
            monkeypatch.undo()
            assert update["mode"] == "rebuild"
            assert update["reason"] == "non-additive edit"
            # The rebuild starts from the program the diff already built.
            assert calls == {"frontend": 1, "build_program": 1}
            warm, _ = session.analyze(REACH_PARAMS)
        finally:
            session.close()
        cold_session = ProgramSession(edited, include_library=False)
        try:
            cold, _ = cold_session.analyze(REACH_PARAMS)
        finally:
            cold_session.close()
        assert warm["status"] == cold["status"]
        assert json.dumps(warm["verdicts"], sort_keys=True) == json.dumps(
            cold["verdicts"], sort_keys=True
        )

    def test_error_paths(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            with pytest.raises(ValueError, match="use the update op"):
                session.analyze({"client": "casts", "source": "class A { }"})
            with pytest.raises(ValueError, match="unknown analyze param"):
                session.analyze({"client": "casts", "sauce": 1})
            with pytest.raises(ValueError, match="unknown client"):
                session.analyze({"client": "nonsense"})
            with pytest.raises(ValueError, match="takes no selectors"):
                session.analyze({"client": "casts", "class_name": "Item"})
            with pytest.raises(ValueError, match="exactly one of source="):
                session.update({})
            with pytest.raises(ValueError, match="exactly one of source="):
                session.update({"source": "x", "classes": {}})
            with pytest.raises(ValueError, match="--journal"):
                session.explain({"description": "whatever"})
        finally:
            session.close()

    def test_explain_with_journal(self, lifecycle_source):
        session = ProgramSession(
            lifecycle_source, include_library=False, journal=True
        )
        try:
            result, _ = session.analyze(REACH_PARAMS)
            refuted = next(
                desc
                for desc, r in (
                    (rec["description"], rec)
                    for rec in result["report"]["records"]
                )
                if r["status"] == "refuted"
            )
            explained, _ = session.explain({"description": refuted})
            assert explained["status"] == "refuted"
            assert explained["certificate"]
        finally:
            session.close()

    def test_close_uninstalls_the_journal_it_installed(self, lifecycle_source):
        previous = provenance.get_journal()
        provenance.disable()
        try:
            session = ProgramSession(
                lifecycle_source, include_library=False, journal=True
            )
            try:
                assert provenance.get_journal() is not None
            finally:
                session.close()
            assert provenance.get_journal() is None

            # A journal that was already active is the caller's: it stays.
            mine = provenance.install()
            session = ProgramSession(
                lifecycle_source, include_library=False, journal=True
            )
            session.close()
            assert provenance.get_journal() is mine
        finally:
            if previous is None:
                provenance.disable()
            else:
                provenance.install(previous)

    def test_incremental_update_keeps_the_program_fingerprints(
        self, lifecycle_source
    ):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            edited = lifecycle_edit(lifecycle_source, screen=EDITED)
            update, _ = session.update({"source": edited})
            assert update["mode"] == "incremental"
            assert session._fingerprints == method_fingerprints(session._program)
        finally:
            session.close()


class TestStdioTransport:
    def _drive(self, session, requests):
        stdin = io.StringIO(
            "".join(json.dumps(r) + "\n" for r in requests)
        )
        stdout = io.StringIO()
        assert serve_stdio(session, stdin=stdin, stdout=stdout) == 0
        lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
        ready, responses = lines[0], lines[1:]
        assert ready["ready"] and ready["ok"]
        return responses

    def test_full_round_trip(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        edited = lifecycle_edit(lifecycle_source, screen=EDITED)
        try:
            responses = self._drive(
                session,
                [
                    {"id": 1, "op": "analyze", "params": REACH_PARAMS},
                    {"id": 2, "op": "update", "params": {"source": edited}},
                    {"id": 3, "op": "analyze", "params": REACH_PARAMS},
                    {"id": 4, "op": "status"},
                    {"id": 5, "op": "not-an-op"},
                    {"id": 6, "op": "shutdown"},
                ],
            )
            by_id = {r["id"]: r for r in responses}
            assert by_id[1]["ok"] and by_id[1]["result"]["status"] == "violated"
            assert by_id[2]["ok"]
            assert by_id[2]["result"]["mode"] == "incremental"
            assert by_id[3]["ok"]
            assert by_id[3]["meta"]["verdicts_reused"] > 0
            assert by_id[3]["meta"]["jobs_run"] == (
                by_id[2]["meta"]["invalidated_edges"]
            )
            status = by_id[4]["result"]
            assert status["updates_applied"] == 1
            assert status["metrics"]["serve.requests"] >= 4
            assert not by_id[5]["ok"]
            assert by_id[5]["error"]["type"] == "ProtocolError"
            assert by_id[6]["ok"] and by_id[6]["result"]["stopping"]
        finally:
            session.close()

    def test_errors_keep_the_daemon_alive(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            stdin = io.StringIO(
                "{bad json\n"
                + json.dumps(
                    {"id": 2, "op": "analyze", "params": {"client": "nope"}}
                )
                + "\n"
                + json.dumps({"id": 3, "op": "status"})
                + "\n"
            )
            stdout = io.StringIO()
            serve_stdio(session, stdin=stdin, stdout=stdout)
            lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
            responses = lines[1:]
            assert [r["ok"] for r in responses] == [False, False, True]
            assert responses[0]["error"]["type"] == "ProtocolError"
            assert "unknown client" in responses[1]["error"]["message"]
        finally:
            session.close()

    def test_handle_request_wraps_session_errors(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            response = handle_request(
                session, Request(op="update", id=9, params={})
            )
            assert not response["ok"]
            assert response["id"] == 9
            assert "exactly one of source=" in response["error"]["message"]
        finally:
            session.close()


class TestTelemetryOps:
    """The observability verbs: the ``metrics`` op, and the status
    payload's scheduling section."""

    def test_metrics_op_prometheus_and_json(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            response = handle_request(session, Request(op="metrics", id=1))
            assert response["ok"]
            result = response["result"]
            assert result["format"] == "prometheus"
            assert result["content_type"].startswith("text/plain")
            text = result["exposition"]
            assert text.startswith("# repro-exposition-version")
            assert "repro_serve_requests_total" in text
            assert 'repro_solver_answers_total{tier="decision"}' in text

            as_json = handle_request(
                session, Request(op="metrics", id=2, params={"format": "json"})
            )
            assert as_json["ok"]
            metrics_dump = as_json["result"]["metrics"]
            assert metrics_dump["serve.requests"]["type"] == "counter"

            bad = handle_request(
                session, Request(op="metrics", id=3, params={"format": "xml"})
            )
            assert not bad["ok"]
            assert "unknown metrics format" in bad["error"]["message"]
        finally:
            session.close()

    def test_http_get_serves_status_and_metrics_only(self, lifecycle_source):
        """``GET /v1/watch`` is gone: it is a 404 that names the GET
        routes left."""
        import socket
        import threading
        import time
        import urllib.error
        import urllib.request

        from repro.serve.server import serve_http

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        base = f"http://127.0.0.1:{port}"
        session = ProgramSession(lifecycle_source, include_library=False)
        server = threading.Thread(
            target=serve_http, args=(session, port), daemon=True
        )
        server.start()
        try:
            for _ in range(100):
                try:
                    with urllib.request.urlopen(
                        base + "/metrics", timeout=10
                    ) as resp:
                        assert resp.status == 200
                    break
                except urllib.error.URLError:
                    time.sleep(0.05)
            with urllib.request.urlopen(base + "/v1/status", timeout=10) as resp:
                assert json.loads(resp.read())["ok"]
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/v1/watch?since=0", timeout=10)
            assert err.value.code == 404
            body = json.loads(err.value.read())
            assert body["error"]["message"] == "GET serves /v1/status, /metrics"
        finally:
            shutdown = urllib.request.Request(
                base + "/v1", data=json.dumps({"op": "shutdown"}).encode()
            )
            urllib.request.urlopen(shutdown, timeout=10).close()
            server.join(timeout=10)
            session.close()
        assert not server.is_alive()

    def test_status_carries_schedule_and_telemetry(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            result, _ = session.status()
            assert sorted(result["schedule"]) == [
                "portfolio",
                "resolved_at_rung",
                "rungs",
            ]
            assert "serve.requests" in result["metrics"]
            assert "decisions" in result["cache_tiers"]
            # The live lifecycle snapshot is off the v1 wire.
            assert "telemetry" not in result
        finally:
            session.close()


class TestSharedStore:
    """Persistent verdict store across serve sessions: restarts resume
    from disk, and concurrent sessions share one store."""

    def test_sessions_share_one_store_across_restart_and_concurrently(
        self, lifecycle_source, tmp_path
    ):
        import threading

        from repro.perf import store as perf_store
        from repro.perf.memo import SOLVER_MEMO
        from repro.symbolic import SearchConfig

        config = SearchConfig(cache_dir=str(tmp_path))
        try:
            # A daemon starts with cold in-process memos, so its solver
            # decisions reach the store (the store sits under the memo).
            SOLVER_MEMO.clear()
            first = ProgramSession(
                lifecycle_source, include_library=False, config=config
            )
            try:
                baseline, _ = first.analyze(REACH_PARAMS)
                status, _ = first.status()
                assert status["store"]["enabled"], status["store"]
                assert perf_store.ACTIVE is not None
                perf_store.ACTIVE.flush()
                assert perf_store.ACTIVE.stats()["entries"] > 0
            finally:
                first.close()

            # "Restart": drop the process-wide store (closing the file)
            # and the in-process memos a new process would not have,
            # then two fresh client sessions attach the same directory
            # and analyze concurrently, sharing one reopened store.
            perf_store.deactivate()
            SOLVER_MEMO.clear()
            sessions = [
                ProgramSession(
                    lifecycle_source, include_library=False, config=config
                )
                for _ in range(2)
            ]
            results = {}

            def run(index: int) -> None:
                results[index] = sessions[index].analyze(REACH_PARAMS)[0]

            try:
                threads = [
                    threading.Thread(target=run, args=(i,)) for i in range(2)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
            finally:
                for session in sessions:
                    session.close()

            # Both clients saw the cold session's verdicts, unchanged.
            assert results[0]["verdicts"] == baseline["verdicts"]
            assert results[1]["verdicts"] == baseline["verdicts"]
            assert results[0]["status"] == baseline["status"]
            # And they really answered from the shared store.
            assert perf_store.ACTIVE is not None
            assert perf_store.ACTIVE.hits > 0, "no session hit the store"
        finally:
            perf_store.deactivate()
