"""Unit tests for the persistent verdict store (:mod:`repro.perf.store`):
key canonicalization, write-behind persistence, LRU eviction, stores
written by older builds, and the corruption/versioning fallback ("any
doubt about the file means a cold run, one warning, never an error")."""

import hashlib
import os
import pickle
import sqlite3
import time
import warnings

import pytest

from repro.ir.instructions import AllocSite
from repro.perf import store as perf_store
from repro.perf.store import (
    SCHEMA_VERSION,
    StoreInvalid,
    VerdictStore,
    encode_key,
    solver_fingerprint,
    store_path,
)
from repro.pointsto.graph import AbsLoc
from repro.symbolic import Query


@pytest.fixture(autouse=True)
def detached():
    """Every test starts and ends with no process-wide store and a clean
    rejection memo (attach warns only once per directory per process)."""
    perf_store.deactivate()
    perf_store._REJECTED.clear()
    yield
    perf_store.deactivate()
    perf_store._REJECTED.clear()


def loc(name):
    return AbsLoc(AllocSite(hash(name) % 99_991, "Object", "M.m", hint=name))


def query_with_region(region):
    q = Query("M.m")
    q.set_local("x", q.new_ref(region))
    return q


def open_store(tmp_path, **kwargs) -> VerdictStore:
    return VerdictStore(str(tmp_path / "verdicts.sqlite"), **kwargs)


def insert_refuted_row(path, scope, point_key, query):
    """Write one ``refuted`` row the way builds with a cross-search
    refuted-state cache did: a pickled ``(key, query)`` entry keyed by
    its digest, ``key`` being the point plus the query's stack signature."""
    key = (point_key, query.stack_signature())
    blob = pickle.dumps((key, query))
    db = sqlite3.connect(str(path))
    with db:
        db.execute(
            "INSERT OR IGNORE INTO refuted VALUES (?, ?, ?, ?, 0, ?)",
            (scope, repr(key).encode(), hashlib.sha256(blob).hexdigest(), blob,
             time.time()),
        )
    db.close()


CANON_A = ((("le", (1, 2)),), frozenset({0}))
CANON_B = ((("le", (3, 4)),), frozenset({0, 1}))


class TestKeys:
    def test_encode_key_is_deterministic_plain_bytes(self):
        assert encode_key(CANON_A) == encode_key(CANON_A)
        assert isinstance(encode_key(CANON_A), bytes)
        assert encode_key(CANON_A) != encode_key(CANON_B)

    def test_nonnull_set_order_does_not_matter(self):
        sig = (("le", (1, 2)),)
        assert encode_key((sig, frozenset({2, 0, 1}))) == encode_key(
            (sig, frozenset({1, 2, 0}))
        )

    def test_fingerprint_is_short_stable_hex(self):
        fp = solver_fingerprint()
        assert fp == solver_fingerprint()
        int(fp, 16)


class TestPersistence:
    def test_put_get_roundtrip_within_one_open(self, tmp_path):
        store = open_store(tmp_path)
        assert store.get("comp", CANON_A) is None
        store.put("comp", CANON_A, False)
        assert store.get("comp", CANON_A) is False
        assert store.hits == 1 and store.misses == 1
        store.close()

    def test_verdicts_survive_close_and_reopen(self, tmp_path):
        store = open_store(tmp_path)
        store.put("comp", CANON_A, False)
        store.put("comp", CANON_B, True)
        store.close()

        reopened = open_store(tmp_path)
        assert reopened.get("comp", CANON_A) is False
        assert reopened.get("comp", CANON_B) is True
        reopened.close()

    def test_kinds_are_separate_namespaces(self, tmp_path):
        # A row of another kind under the same key never answers a
        # ``comp`` probe.
        open_store(tmp_path).close()
        db = sqlite3.connect(str(tmp_path / "verdicts.sqlite"))
        with db:
            db.execute(
                "INSERT INTO verdicts VALUES (?, ?, ?, 0, 0.0)",
                ("part", encode_key(CANON_A), 0),
            )
        db.close()
        store = open_store(tmp_path)
        assert store.get("comp", CANON_A) is None
        store.close()

    def test_write_behind_flush_lands_in_sqlite(self, tmp_path):
        store = open_store(tmp_path)
        store.put("comp", CANON_A, True)
        store.get("comp", CANON_A)
        store.flush()
        db = sqlite3.connect(store.path)
        rows = db.execute(
            "SELECT kind, verdict, hits FROM verdicts"
        ).fetchall()
        db.close()
        store.close()
        assert rows == [("comp", 1, 1)]


class TestEviction:
    def test_lru_eviction_keeps_recently_hit_rows(self, tmp_path):
        store = open_store(tmp_path, max_entries=2)
        canons = [((("le", (i, i + 1)),), frozenset()) for i in range(3)]
        store.put("comp", canons[0], True)
        store.put("comp", canons[1], True)
        store.flush()
        # A hit bumps last_hit: row 0 becomes more recent than row 1.
        store.get("comp", canons[0])
        store.flush()
        store.put("comp", canons[2], True)
        store.flush()
        db = sqlite3.connect(store.path)
        (count,) = db.execute("SELECT count(*) FROM verdicts").fetchone()
        keys = {bytes(row[0]) for row in db.execute("SELECT key FROM verdicts")}
        db.close()
        assert count == 2
        assert encode_key(canons[0]) in keys, "the hit row was evicted"
        assert encode_key(canons[1]) not in keys, "the LRU row survived"
        assert store.evictions == 1
        store.close()

    def test_prune_returns_rows_deleted(self, tmp_path):
        store = open_store(tmp_path)
        for i in range(6):
            store.put("comp", ((("le", (i, 0)),), frozenset()), True)
        assert store.prune(2) == 4
        assert store.stats()["entries"] == 2
        # The configured cap is restored after the synchronous prune.
        assert store.max_entries != 2
        store.close()

    def test_clear_drops_everything(self, tmp_path):
        store = open_store(tmp_path)
        store.put("comp", CANON_A, True)
        insert_refuted_row(
            store.path, "s", ("loop", 1), query_with_region(frozenset({loc("a0")}))
        )
        assert store.stats()["refuted_entries"] == 1
        store.clear()
        stats = store.stats()
        assert stats["entries"] == 0 and stats["refuted_entries"] == 0
        assert store.get("comp", CANON_A) is None
        store.close()


class TestLegacyKinds:
    """A store written by older builds holds ``mono`` verdict rows (from
    the monolithic solver path), ``part`` rows (from the whole-query tier)
    and ``refuted`` rows (from the cross-search refuted-state cache): it
    opens warm, serves its ``comp`` rows, never loads the ``mono`` or
    ``part`` ones, still reads the ``refuted`` ones, and prune/clear still
    handle them all."""

    def _legacy_store(self, tmp_path):
        store = open_store(tmp_path)
        store.put("comp", CANON_A, False)
        store.close()
        path = tmp_path / "verdicts.sqlite"
        db = sqlite3.connect(str(path))
        with db:
            for kind, canon in (("part", CANON_B), ("mono", CANON_A)):
                db.execute(
                    "INSERT INTO verdicts VALUES (?, ?, ?, 0, 0.0)",
                    (kind, encode_key(canon), 1),
                )
        db.close()
        for name in ("a0", "b0"):
            insert_refuted_row(
                path, "scope-1", ("loop", 1), query_with_region(frozenset({loc(name)}))
            )

    def test_opens_warm_and_serves_live_kinds(self, tmp_path):
        self._legacy_store(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = open_store(tmp_path)
        assert store.get("comp", CANON_A) is False
        assert store.get("comp", CANON_B) is None
        assert list(store._mem) == ["comp"]
        stats = store.stats()
        assert stats["entries"] == 3 and stats["refuted_entries"] == 2
        loaded = store.load_refuted("scope-1")
        assert len(loaded) == 2
        for (point, _sig), query in loaded:
            assert point == ("loop", 1) and isinstance(query, Query)
        assert store.load_refuted("other-scope") == []
        store.close()

    def test_prune_and_clear_cover_legacy_rows(self, tmp_path, capsys):
        from repro.cli import main

        self._legacy_store(tmp_path)
        cache_dir = str(tmp_path)
        args = ["--cache-dir", cache_dir, "--max-entries", "1"]
        assert main(["cache", "prune", *args]) == 0
        # Two of three verdict rows and one of two refuted rows.
        assert "pruned 3 row(s)" in capsys.readouterr().out
        assert perf_store.stats_for_dir(cache_dir)["refuted_entries"] == 1
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        stats = perf_store.stats_for_dir(cache_dir)
        assert stats["entries"] == 0 and stats["refuted_entries"] == 0

    def test_run_writes_no_refuted_rows(self, tmp_path):
        from repro.android.leaks import LeakChecker
        from repro.bench import APPS
        from repro.symbolic import SearchConfig

        app = next(a for a in APPS if a.name == "DroidLife")
        report = LeakChecker(
            app.source, app.name, config=SearchConfig(cache_dir=str(tmp_path))
        ).run()
        perf_store.deactivate()  # flush before reading the file
        assert report.refuted_alarms > 0
        stats = perf_store.stats_for_dir(str(tmp_path))
        assert stats["entries"] > 0 and stats["refuted_entries"] == 0


class TestWarmthInvariance:
    def test_cold_and_warm_runs_report_the_same_unsat_tally(self, tmp_path):
        """``solver.unsat`` counts UNSAT verdicts whichever tier answered
        them, so a warm run that answers from the store reads the same as
        the cold run that decided."""
        from repro.android.leaks import LeakChecker
        from repro.bench import APPS
        from repro.obs import metrics
        from repro.perf.memo import SOLVER_MEMO
        from repro.symbolic import SearchConfig

        app = next(a for a in APPS if a.name == "DroidLife")
        config = SearchConfig(cache_dir=str(tmp_path))

        def run():
            SOLVER_MEMO.clear()
            counters = [metrics.counter(n) for n in ("solver.unsat", "solver.checks")]
            before = [c.value for c in counters]
            LeakChecker(app.source, app.name, config=config).run()
            perf_store.deactivate()  # flush; the next run reloads from disk
            return [c.value - b for c, b in zip(counters, before)]

        (cold_unsat, cold_checks), (warm_unsat, warm_checks) = run(), run()
        assert cold_checks > 0 and warm_checks == 0  # warm answered from disk
        assert cold_unsat > 0
        assert warm_unsat == cold_unsat


class TestValidation:
    def _meta_rewrite(self, tmp_path, key, value):
        store = open_store(tmp_path)
        store.put("comp", CANON_A, True)
        store.close()
        db = sqlite3.connect(str(tmp_path / "verdicts.sqlite"))
        with db:
            db.execute("UPDATE meta SET value=? WHERE key=?", (value, key))
        db.close()

    def test_schema_mismatch_raises_store_invalid(self, tmp_path):
        self._meta_rewrite(tmp_path, "schema_version", str(SCHEMA_VERSION + 1))
        with pytest.raises(StoreInvalid, match="schema version"):
            open_store(tmp_path)

    def test_fingerprint_mismatch_raises_store_invalid(self, tmp_path):
        self._meta_rewrite(tmp_path, "solver_fingerprint", "0" * 16)
        with pytest.raises(StoreInvalid, match="fingerprint"):
            open_store(tmp_path)

    def test_truncated_database_raises_store_invalid(self, tmp_path):
        path = tmp_path / "verdicts.sqlite"
        path.write_bytes(b"SQLite format 3\x00" + b"\x00" * 64)
        with pytest.raises(StoreInvalid, match="unreadable"):
            open_store(tmp_path)

    def test_attach_falls_back_cold_with_single_warning(self, tmp_path):
        """The acceptance behavior: a corrupt store must never fail the
        run — attach warns once for the directory and the process stays
        on cold in-memory caches."""
        (tmp_path / "verdicts.sqlite").write_bytes(b"not a database at all")
        with pytest.warns(RuntimeWarning, match="cold in-memory caches"):
            assert perf_store.attach(str(tmp_path)) is None
        assert perf_store.ACTIVE is None
        # Second engine construction against the same directory: silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert perf_store.attach(str(tmp_path)) is None

    def test_attach_warns_cold_on_fingerprint_mismatch(self, tmp_path):
        self._meta_rewrite(tmp_path, "solver_fingerprint", "f" * 16)
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            assert perf_store.attach(str(tmp_path)) is None
        assert perf_store.ACTIVE is None


class TestAttach:
    def test_attach_is_idempotent_for_same_dir(self, tmp_path):
        first = perf_store.attach(str(tmp_path))
        assert first is not None and perf_store.ACTIVE is first
        assert perf_store.attach(str(tmp_path)) is first

    def test_attach_none_deactivates(self, tmp_path):
        perf_store.attach(str(tmp_path))
        assert perf_store.ACTIVE is not None
        perf_store.attach(None)
        assert perf_store.ACTIVE is None

    def test_switching_dirs_closes_previous(self, tmp_path):
        first = perf_store.attach(str(tmp_path / "a"))
        second = perf_store.attach(str(tmp_path / "b"))
        assert second is not None and second is not first
        assert perf_store.ACTIVE is second

    def test_env_var_resolves_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert perf_store.resolve_cache_dir(None) == str(tmp_path / "env")
        assert perf_store.resolve_cache_dir("explicit") == "explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert perf_store.resolve_cache_dir(None) is None

    def test_stats_for_dir_missing_file_returns_none(self, tmp_path):
        assert perf_store.stats_for_dir(str(tmp_path)) is None
        assert not os.path.exists(store_path(str(tmp_path)))

    def test_stats_for_dir_reports_unreadable_store(self, tmp_path):
        (tmp_path / "verdicts.sqlite").write_bytes(b"garbage")
        stats = perf_store.stats_for_dir(str(tmp_path))
        assert stats is not None and "error" in stats

    def test_stats_shape(self, tmp_path):
        store = perf_store.attach(str(tmp_path))
        store.put("comp", CANON_A, False)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["fingerprint"] == solver_fingerprint()
        assert stats["bytes"] > 0
        assert stats["writes"] == 1
