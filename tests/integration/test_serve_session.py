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
from repro.serve.server import handle_request, serve_stdio
from repro.serve.protocol import Request
from repro.serve.session import ProgramSession

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
    """The observability verbs: ``metrics``, ``watch``, and the status
    payload's scheduling/telemetry sections."""

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

    def test_watch_op_streams_lifecycle_with_cursor(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            first = handle_request(
                session, Request(op="watch", id=1, params={"snapshot": True})
            )
            assert first["ok"]
            assert first["result"]["events"] == []
            assert first["result"]["snapshot"]["totals"]["scheduled"] == 0

            session.analyze(REACH_PARAMS)
            response = handle_request(session, Request(op="watch", id=2))
            assert response["ok"]
            events = response["result"]["events"]
            kinds = [e["event"] for e in events]
            assert kinds[0] == "RunStarted"
            assert "EdgeFinished" in kinds
            assert kinds[-1] == "RunFinished"
            finished = [e for e in events if e["event"] == "EdgeFinished"]
            assert len(finished) == N_SCREENS
            assert all(e["seq"] > 0 and "ts" in e for e in events)

            # Resuming from the returned cursor yields nothing new.
            cursor = response["result"]["cursor"]
            again = handle_request(
                session, Request(op="watch", id=3, params={"since": cursor})
            )
            assert again["result"]["events"] == []
            assert again["result"]["cursor"] == cursor
        finally:
            session.close()

    def test_hub_survives_driver_rebuild(self, lifecycle_source):
        """The hub is session-lifetime: a declaration edit rebuilds the
        driver, and events from the new driver keep arriving."""
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            cursor = session.hub.events_since(0)[0]
            edited = lifecycle_source.replace(
                "class Item { }", "class Item { int tag; }"
            )
            session.update({"source": edited})
            session.analyze(REACH_PARAMS)
            _, rows = session.hub.events_since(cursor)
            assert any(r["event"] == "RunFinished" for r in rows)
        finally:
            session.close()

    def test_status_carries_schedule_and_telemetry(self, lifecycle_source):
        session = ProgramSession(lifecycle_source, include_library=False)
        try:
            session.analyze(REACH_PARAMS)
            result, _ = session.status()
            assert "priority_inversions" in result["schedule"]
            assert "rungs" in result["schedule"]
            assert "driver.priority_inversions" in result["metrics"]
            assert "decisions" in result["cache_tiers"]
            telemetry_snap = result["telemetry"]
            assert telemetry_snap["totals"]["scheduled"] >= 0
            assert telemetry_snap["run"] is not None
            assert telemetry_snap["in_flight"] == []
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
        from repro.symbolic import SearchConfig

        config = SearchConfig(cache_dir=str(tmp_path))
        try:
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

            # "Restart": drop the process-wide store (closing the file),
            # then two fresh client sessions attach the same directory
            # and analyze concurrently, sharing one reopened store.
            perf_store.deactivate()
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
