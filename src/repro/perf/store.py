"""Persistent cross-run verdict store (sqlite, WAL mode).

The relevance-partitioned solver keys verdicts on canonical alpha-renamed
signatures (:func:`repro.solver.partition.canonical_key`) — plain data
built from first-occurrence variable indices, so the same constraint
fragment produces the same signature in any process, any run, under any
hash seed. That makes the signatures *persistable*: a verdict decided in
one ``repro`` invocation answers the identical fragment in the next one,
which is what turns warm CI re-runs and restarted ``repro serve`` daemons
from cold starts into cache hits.

Two verdict kinds are stored, mirroring the solver's tiers:

* ``comp`` — per-component verdicts (the in-memory component memo's
  persistent twin);
* ``part`` — whole-query verdicts. Kinds never mix: per-component FM
  give-ups can differ from whole-query ones.

Rows of any other kind (such as ``mono`` rows from stores written when a
monolithic solver path still existed) are never loaded or served; they
stay on disk until LRU eviction, ``repro cache prune`` or ``clear``
removes them.

Alongside verdicts, the store persists the :class:`RefutedStateCache`'s
proven dead ends (pickled ``(point key, query)`` snapshots), scoped by a
program fingerprint — queries reference program labels and allocation
sites, so an entry is only ever replayed into a run over the *same*
program, points-to policy, and search semantics.

Concurrency and crash safety:

* the hot path touches only in-memory mirror dicts; writes and hit-count
  bumps are queued and drained by a single background flusher thread in
  batched transactions (write-behind — the solver never blocks on fsync);
* the database runs in WAL mode with ``synchronous=NORMAL``: readers
  never block the writer, a crash loses at most the last unflushed batch,
  never the file;
* process-pool workers and concurrent ``repro serve`` sessions each open
  the same file; cross-process safety is sqlite's own locking plus a
  ``busy_timeout`` so batch writers queue instead of failing.

Invalidation is by fingerprint, never by patching rows: the file records
(schema version, solver fingerprint) at creation, and any mismatch —
including a truncated or corrupt file — disables the store for the run
with a single warning and falls back to the ordinary cold in-memory
caches. Stale verdicts are structurally impossible: a row can only be
read under the fingerprint it was written under.

Eviction is LRU-style by last-hit timestamp with a configurable row cap
(``REPRO_CACHE_MAX_ENTRIES``), applied after each flush; evicted rows
only cost a future re-derivation.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import sqlite3
import threading
import time
import warnings
from typing import Iterable, Optional

from ..obs import metrics

#: Bump when the sqlite layout or the key encoding changes.
SCHEMA_VERSION = 1

#: Bump when the decision procedure's semantics change in a way that can
#: flip a verdict for the same canonical signature (folded into the
#: solver fingerprint alongside the FM budget).
SOLVER_SEMANTICS_VERSION = 1

DB_NAME = "verdicts.sqlite"

#: Default row cap per table (verdicts / refuted) before LRU eviction.
DEFAULT_MAX_ENTRIES = 1 << 20

#: Seconds between background flushes; small enough that process-pool
#: workers rarely lose work even on abrupt shutdown.
FLUSH_INTERVAL = 0.25

_HITS = metrics.counter("store.hits")
_MISSES = metrics.counter("store.misses")
_WRITES = metrics.counter("store.writes")
_EVICTIONS = metrics.counter("store.evictions")
_ERRORS = metrics.counter("store.errors")

_VERDICT_KINDS = ("comp", "part")


def solver_fingerprint() -> str:
    """Hex fingerprint of everything that can change a verdict for a
    fixed canonical signature. Verdict rows written under a different
    fingerprint are never read."""
    from ..solver.core import FM_ATOM_BUDGET

    basis = {
        "semantics": SOLVER_SEMANTICS_VERSION,
        "fm_atom_budget": FM_ATOM_BUDGET,
    }
    return hashlib.sha256(
        json.dumps(basis, sort_keys=True).encode()
    ).hexdigest()[:16]


def encode_key(canon) -> bytes:
    """Deterministic byte encoding of a canonical signature.

    ``canonical_key`` returns ``(tuple of atom rows, frozenset of nonnull
    indices)``; the frozenset is normalized to a sorted tuple because
    frozenset ``repr`` order follows element hashes, which for ints is
    stable but is not a contract worth relying on."""
    sig, nonnull = canon
    return repr((sig, tuple(sorted(nonnull)))).encode()


def refuted_scope(pta, config) -> Optional[str]:
    """Fingerprint scoping persisted refuted states to one (program,
    points-to policy, search semantics) triple.

    Refuted-state entries embed program labels, allocation sites, and
    call-stack signatures, so unlike canonical solver signatures they are
    only meaningful for the exact program they were proven on. The scope
    covers the position-free declarations, every method body fingerprint,
    the label→method map (two programs with identical bodies but shifted
    labels must not share entries), the context policy, and the
    ``SearchConfig`` fields that affect which states are explored."""
    from ..serve.invalidation import method_fingerprints, program_signature

    program = getattr(pta, "program", None)
    if program is None:
        return None
    try:
        basis = (
            SCHEMA_VERSION,
            program_signature(program),
            tuple(sorted(method_fingerprints(program).items())),
            tuple(sorted(program.command_method.items())),
            repr(getattr(pta, "policy", None)),
            repr(config.representation),
            config.max_call_depth,
            config.max_path_constraints,
            config.materialization_bound,
            config.max_loop_passes,
            repr(config.loop_inference),
            config.max_array_case_splits,
        )
    except Exception:
        _ERRORS.inc()
        return None
    return hashlib.sha256(repr(basis).encode()).hexdigest()


class StoreInvalid(Exception):
    """The on-disk file cannot back this run (corrupt / wrong schema /
    wrong solver fingerprint). Callers fall back to cold in-memory
    caches; they never crash and never read a stale verdict."""


class VerdictStore:
    """One open verdict database: in-memory mirrors for the hot path, a
    write-behind queue drained by a background flusher thread."""

    def __init__(
        self,
        path: str,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        flush_interval: float = FLUSH_INTERVAL,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.path = path
        self.max_entries = max_entries
        self.fingerprint = fingerprint or solver_fingerprint()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self._mem: dict[str, dict[bytes, bool]] = {k: {} for k in _VERDICT_KINDS}
        self._plock = threading.Lock()
        self._pending_verdicts: list[tuple[str, bytes, bool]] = []
        self._pending_hits: dict[tuple[str, bytes], int] = {}
        self._pending_refuted: list[tuple[str, bytes, str, bytes]] = []
        self._pending_refuted_hits: dict[tuple[str, bytes], int] = {}
        self._db_lock = threading.Lock()
        self._db = self._open_db(path)
        self._load_mirrors()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._flush_interval = flush_interval
        self._flusher = threading.Thread(
            target=self._flush_loop, name="repro-store-flush", daemon=True
        )
        self._flusher.start()

    # -- open / validate ---------------------------------------------------

    def _open_db(self, path: str) -> sqlite3.Connection:
        db = sqlite3.connect(path, check_same_thread=False)
        try:
            db.execute("PRAGMA journal_mode=WAL")
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute("PRAGMA busy_timeout=5000")
            row = db.execute(
                "SELECT count(*) FROM sqlite_master WHERE name='meta'"
            ).fetchone()
            fresh = row[0] == 0
            if fresh:
                with db:
                    db.execute(
                        "CREATE TABLE IF NOT EXISTS meta"
                        " (key TEXT PRIMARY KEY, value TEXT)"
                    )
                    db.execute(
                        "CREATE TABLE IF NOT EXISTS verdicts ("
                        " kind TEXT NOT NULL, key BLOB NOT NULL,"
                        " verdict INTEGER NOT NULL,"
                        " hits INTEGER NOT NULL DEFAULT 0,"
                        " last_hit REAL NOT NULL,"
                        " PRIMARY KEY (kind, key))"
                    )
                    db.execute(
                        "CREATE TABLE IF NOT EXISTS refuted ("
                        " scope TEXT NOT NULL, point BLOB NOT NULL,"
                        " digest TEXT NOT NULL, entry BLOB NOT NULL,"
                        " hits INTEGER NOT NULL DEFAULT 0,"
                        " last_hit REAL NOT NULL,"
                        " PRIMARY KEY (scope, digest))"
                    )
                    db.execute(
                        "CREATE INDEX IF NOT EXISTS verdicts_last_hit"
                        " ON verdicts (last_hit)"
                    )
                    db.execute(
                        "CREATE INDEX IF NOT EXISTS refuted_last_hit"
                        " ON refuted (last_hit)"
                    )
                    db.execute(
                        "INSERT OR IGNORE INTO meta VALUES"
                        " ('schema_version', ?)",
                        (str(SCHEMA_VERSION),),
                    )
                    db.execute(
                        "INSERT OR IGNORE INTO meta VALUES"
                        " ('solver_fingerprint', ?)",
                        (self.fingerprint,),
                    )
            meta = dict(db.execute("SELECT key, value FROM meta"))
            if meta.get("schema_version") != str(SCHEMA_VERSION):
                raise StoreInvalid(
                    f"schema version {meta.get('schema_version')!r} !="
                    f" {SCHEMA_VERSION}"
                )
            if meta.get("solver_fingerprint") != self.fingerprint:
                raise StoreInvalid(
                    f"solver fingerprint {meta.get('solver_fingerprint')!r}"
                    f" != {self.fingerprint!r} (run `repro cache clear` to"
                    " rebuild it for the current solver)"
                )
        except sqlite3.Error as exc:
            db.close()
            raise StoreInvalid(f"unreadable database: {exc}") from exc
        except StoreInvalid:
            db.close()
            raise
        return db

    def _load_mirrors(self) -> None:
        for kind, key, verdict in self._db.execute(
            "SELECT kind, key, verdict FROM verdicts"
        ):
            mirror = self._mem.get(kind)
            if mirror is not None:
                mirror[bytes(key)] = bool(verdict)

    # -- hot path ----------------------------------------------------------

    def get(self, kind: str, canon) -> Optional[bool]:
        """Probe one verdict kind; a hit is queued for a batched
        ``hits``/``last_hit`` bump, a miss only counts."""
        enc = encode_key(canon)
        verdict = self._mem[kind].get(enc)
        if verdict is None:
            self.misses += 1
            _MISSES.inc()
            return None
        self.hits += 1
        _HITS.inc()
        with self._plock:
            pending = self._pending_hits
            pending[(kind, enc)] = pending.get((kind, enc), 0) + 1
        return verdict

    def put(self, kind: str, canon, verdict: bool) -> None:
        enc = encode_key(canon)
        mirror = self._mem[kind]
        if enc in mirror:
            return
        mirror[enc] = bool(verdict)
        self.writes += 1
        _WRITES.inc()
        with self._plock:
            self._pending_verdicts.append((kind, enc, bool(verdict)))

    # -- refuted states ----------------------------------------------------

    def load_refuted(self, scope: str) -> list[tuple[tuple, object]]:
        """Unpickle every persisted refuted state for ``scope``. Rows that
        fail to unpickle (e.g. written by an incompatible build that
        shares the schema) are skipped and counted, never fatal."""
        out: list[tuple[tuple, object]] = []
        with self._db_lock:
            rows = self._db.execute(
                "SELECT entry FROM refuted WHERE scope=?", (scope,)
            ).fetchall()
        for (blob,) in rows:
            try:
                out.append(pickle.loads(blob))
            except Exception:
                _ERRORS.inc()
        return out

    def put_refuted(
        self, scope: str, entries: Iterable[tuple[tuple, object]]
    ) -> int:
        """Queue proven dead ends for persistence. Entries must be private
        query snapshots; they are pickled immediately (before any later
        path compression can race the serializer). Unpicklable entries are
        skipped. Returns the number queued."""
        queued = 0
        for key, query in entries:
            try:
                blob = pickle.dumps((key, query))
            except Exception:
                _ERRORS.inc()
                continue
            digest = hashlib.sha256(blob).hexdigest()
            point = repr(key).encode()
            with self._plock:
                self._pending_refuted.append((scope, point, digest, blob))
            queued += 1
            self.writes += 1
            _WRITES.inc()
        return queued

    def note_refuted_hits(self, scope: str, point_hits: dict) -> None:
        """Queue per-point hit tallies against persisted refuted rows (the
        cross-run half of the LRU signal)."""
        if not point_hits:
            return
        with self._plock:
            pending = self._pending_refuted_hits
            for key, count in point_hits.items():
                pk = (scope, repr(key).encode())
                pending[pk] = pending.get(pk, 0) + count

    # -- write-behind ------------------------------------------------------

    def _flush_loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(self._flush_interval)
            self._wake.clear()
            try:
                self.flush()
            except sqlite3.Error:
                _ERRORS.inc()

    def flush(self) -> None:
        """Drain the write queue in one transaction, then evict. Called
        by the flusher thread, on close, and synchronously by tests/CLI."""
        with self._plock:
            verdicts = self._pending_verdicts
            hits = self._pending_hits
            refuted = self._pending_refuted
            refuted_hits = self._pending_refuted_hits
            self._pending_verdicts = []
            self._pending_hits = {}
            self._pending_refuted = []
            self._pending_refuted_hits = {}
        if not (verdicts or hits or refuted or refuted_hits):
            return
        now = time.time()
        with self._db_lock, self._db:
            if verdicts:
                self._db.executemany(
                    "INSERT OR IGNORE INTO verdicts VALUES (?, ?, ?, 0, ?)",
                    [(k, e, int(v), now) for k, e, v in verdicts],
                )
            if hits:
                self._db.executemany(
                    "UPDATE verdicts SET hits = hits + ?, last_hit = ?"
                    " WHERE kind=? AND key=?",
                    [(n, now, k, e) for (k, e), n in hits.items()],
                )
            if refuted:
                self._db.executemany(
                    "INSERT OR IGNORE INTO refuted VALUES (?, ?, ?, ?, 0, ?)",
                    [(s, p, d, b, now) for s, p, d, b in refuted],
                )
            if refuted_hits:
                self._db.executemany(
                    "UPDATE refuted SET hits = hits + ?, last_hit = ?"
                    " WHERE scope=? AND point=?",
                    [(n, now, s, p) for (s, p), n in refuted_hits.items()],
                )
            self._evict_locked()

    def _evict_locked(self) -> None:
        """LRU eviction by last-hit timestamp, oldest rows first, down to
        ``max_entries`` per table. Runs inside the flush transaction."""
        for table in ("verdicts", "refuted"):
            (count,) = self._db.execute(
                f"SELECT count(*) FROM {table}"
            ).fetchone()
            excess = count - self.max_entries
            if excess <= 0:
                continue
            self._db.execute(
                f"DELETE FROM {table} WHERE rowid IN (SELECT rowid FROM"
                f" {table} ORDER BY last_hit ASC, rowid ASC LIMIT ?)",
                (excess,),
            )
            self.evictions += excess
            _EVICTIONS.inc(excess)

    # -- maintenance / introspection ---------------------------------------

    def stats(self) -> dict:
        """Durable counts plus this process's session counters (flushes
        first so the durable side is current)."""
        try:
            self.flush()
        except sqlite3.Error:
            _ERRORS.inc()
        with self._db_lock:
            (verdict_rows,) = self._db.execute(
                "SELECT count(*) FROM verdicts"
            ).fetchone()
            (refuted_rows,) = self._db.execute(
                "SELECT count(*) FROM refuted"
            ).fetchone()
            (stored_hits,) = self._db.execute(
                "SELECT coalesce(sum(hits), 0) FROM verdicts"
            ).fetchone()
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        metrics.gauge("store.entries").set(verdict_rows + refuted_rows)
        metrics.gauge("store.bytes").set(size)
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "entries": verdict_rows,
            "refuted_entries": refuted_rows,
            "stored_hits": stored_hits,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }

    def prune(self, max_entries: int) -> int:
        """Synchronously evict down to ``max_entries`` rows per table;
        returns the number of rows deleted."""
        before = self.evictions
        old = self.max_entries
        self.max_entries = max_entries
        try:
            self.flush()
            with self._db_lock, self._db:
                self._evict_locked()
        finally:
            self.max_entries = old
        return self.evictions - before

    def clear(self) -> None:
        """Drop every stored verdict and refuted state (the recovery path
        after a solver upgrade changes the fingerprint)."""
        with self._plock:
            self._pending_verdicts = []
            self._pending_hits = {}
            self._pending_refuted = []
            self._pending_refuted_hits = {}
        for mirror in self._mem.values():
            mirror.clear()
        with self._db_lock, self._db:
            self._db.execute("DELETE FROM verdicts")
            self._db.execute("DELETE FROM refuted")

    def close(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._flusher.is_alive():
            self._flusher.join(timeout=5)
        try:
            self.flush()
        except sqlite3.Error:
            _ERRORS.inc()
        with self._db_lock:
            self._db.close()


# ---------------------------------------------------------------------------
# Process-wide activation (mirrors SOLVER_MEMO)
# ---------------------------------------------------------------------------

#: The store consulted by :mod:`repro.solver.core`; ``None`` when no cache
#: directory is configured (the default) or the on-disk file was rejected.
ACTIVE: Optional[VerdictStore] = None

#: Directories whose store already failed validation this process — warn
#: once, not once per engine construction.
_REJECTED: set[str] = set()


def resolve_cache_dir(configured: Optional[str]) -> Optional[str]:
    """The effective cache directory: explicit config first, then the
    ``REPRO_CACHE_DIR`` environment variable."""
    return configured or os.environ.get("REPRO_CACHE_DIR") or None


def store_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, DB_NAME)


def attach(cache_dir: Optional[str]) -> Optional[VerdictStore]:
    """Activate (or deactivate) the process-wide store for ``cache_dir``.

    Called from ``Engine.__init__`` exactly like the ``SOLVER_MEMO``
    enable flag, so one engine construction consistently governs a whole
    run — including process-pool workers, which replay the same config.
    Idempotent for the same directory; switching directories closes the
    previous store first. Any validation failure (corruption, schema or
    fingerprint mismatch) warns once per directory and leaves the run on
    cold in-memory caches."""
    global ACTIVE
    resolved = resolve_cache_dir(cache_dir)
    if resolved is None:
        deactivate()
        return None
    path = os.path.abspath(store_path(resolved))
    if ACTIVE is not None and ACTIVE.path == path:
        return ACTIVE
    deactivate()
    if path in _REJECTED:
        return None
    max_entries = DEFAULT_MAX_ENTRIES
    env_cap = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
    if env_cap:
        try:
            max_entries = max(1, int(env_cap))
        except ValueError:
            pass
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        ACTIVE = VerdictStore(path, max_entries=max_entries)
    except (StoreInvalid, OSError) as exc:
        _REJECTED.add(path)
        _ERRORS.inc()
        warnings.warn(
            f"persistent verdict store disabled ({exc}); continuing with"
            " cold in-memory caches",
            RuntimeWarning,
            stacklevel=2,
        )
        ACTIVE = None
        return None
    atexit.register(_close_if_active, ACTIVE)
    return ACTIVE


def deactivate() -> None:
    """Close and detach the process-wide store (no-op when inactive)."""
    global ACTIVE
    if ACTIVE is not None:
        store, ACTIVE = ACTIVE, None
        store.close()


def _close_if_active(store: VerdictStore) -> None:
    # atexit hook: flush the write-behind queue on interpreter shutdown
    # (process-pool workers exit without ever calling driver.close()).
    if ACTIVE is store:
        deactivate()


def stats_for_dir(cache_dir: str) -> Optional[dict]:
    """Read-only stats for ``repro cache stats`` without activating the
    store for the process (and without creating a missing file)."""
    path = os.path.abspath(store_path(cache_dir))
    if not os.path.exists(path):
        return None
    if ACTIVE is not None and ACTIVE.path == path:
        return ACTIVE.stats()
    try:
        store = VerdictStore(path)
    except StoreInvalid as exc:
        return {"path": path, "error": str(exc)}
    try:
        return store.stats()
    finally:
        store.close()
