"""The parallel refutation driver.

The paper's Section 4 observation makes edge refutation embarrassingly
parallel: each points-to edge on an alarm's heap path is refuted (or
witnessed) *independently* — a refutation is a fact about the whole
program, never about the alarm that asked. This module exploits that:

* :class:`RefutationDriver` schedules edge-refutation jobs across a
  ``concurrent.futures`` worker pool (``--jobs N``), thread- or
  process-backed;
* a per-edge **wall-clock deadline** (``--deadline S``) is enforced by the
  cooperative cancellation checks inside
  :class:`repro.symbolic.executor.Engine` (deadline exceeded ⇒ the edge is
  TIMEOUT / not-refuted, exactly the paper's treatment of its per-edge
  timeout);
* every job's outcome is recorded for the structured JSON
  :class:`repro.engine.report.RunReport`, and live
  :mod:`repro.engine.events` are emitted as jobs are scheduled and finish.

``jobs=1`` runs every job inline on one :class:`Engine` in submission
order — bit-identical to the sequential seed behavior, which keeps the
Table 1/2 reproduction deterministic. With ``jobs>1`` each worker owns a
private ``Engine`` (the search engine is single-threaded by design);
verdicts stay deterministic because the search itself is deterministic in
``(program, config)``, only completion *order* varies. Results are merged
into a shared cache so no edge is ever refuted twice.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

from .. import perf
from ..obs import metrics, provenance, telemetry, trace
from ..perf import store as perf_store
from ..perf.cache import RefutedStateCache
from ..pointsto import PointsToResult
from ..pointsto.graph import HeapEdge
from ..pointsto.producers import EdgeKey, edge_key
from ..symbolic import Engine, SearchConfig
from ..symbolic.stats import EdgeResult
from ..symbolic.symvar import private_ids
from .events import (
    EdgeEscalated,
    EdgeFinished,
    EdgeScheduled,
    EdgeStolen,
    EventBus,
    RunFinished,
    RunStarted,
    SpanFinished,
)
from .report import EdgeRecord, RunReport
from .schedule import (
    PRIORITY,
    CostModel,
    InversionMeter,
    StealRegistry,
    rung_ladder,
)

_CACHE_HITS = metrics.counter("driver.cache_hits")
_JOBS_DONE = metrics.counter("driver.jobs_completed")
_JOB_SECONDS = metrics.histogram("driver.job_seconds")
_BATCH_SECONDS = metrics.histogram("driver.batch_seconds")

SERIAL = "serial"
THREAD = "thread"
PROCESS = "process"

#: A fact-refutation request: (label, bindings, description) — the
#: arguments of :meth:`Engine.refute_fact_at` plus a display name.
FactJob = tuple  # (int, list[tuple[str, Optional[frozenset]]], str)


def _isolated_replay(search: Callable[[], object]) -> Callable[[], object]:
    """``search``, numbering its symbolic variables privately.

    The flight recorder re-runs a slow search only for its journal (and
    mutes the metrics registry while it does). Drawing the re-run's
    variables from the shared counter would shift the names of every
    later search's variables, and with them the order of their linear
    terms and the work their solver caches save."""

    def replay() -> object:
        with private_ids():
            return search()

    return replay


class RefutationDriver:
    """Schedules independent refutation jobs over a worker pool.

    Parameters
    ----------
    pta:
        The solved points-to analysis the engines search against.
    config:
        The search configuration shared by every worker engine.
    jobs:
        Worker count. ``1`` (the default) is the deterministic serial
        mode; ``N > 1`` fans edge jobs out over ``N`` workers.
    deadline:
        Per-edge wall-clock deadline in seconds (overrides
        ``config.deadline_seconds`` when given).
    backend:
        ``"thread"`` (default for ``jobs > 1``) or ``"process"``. The
        process backend re-builds one engine per worker process from a
        pickled analysis; when the analysis does not pickle it falls back
        to threads.
    on_event:
        Optional event sink (see :mod:`repro.engine.events`).
    """

    def __init__(
        self,
        pta: PointsToResult,
        config: Optional[SearchConfig] = None,
        jobs: int = 1,
        deadline: Optional[float] = None,
        backend: Optional[str] = None,
        on_event: Optional[Callable[[object], None]] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        config = config or SearchConfig()
        if deadline is not None:
            config = config.copy(deadline_seconds=deadline)
        self.pta = pta
        self.config = config
        self.jobs = jobs
        self.backend = self._resolve_backend(backend)
        self.events = EventBus([on_event] if on_event is not None else None)
        #: The run-scoped refuted-state cache: serial and thread-pool
        #: engines share one lock-striped store, so a dead end proven by
        #: any job prunes every other job's search. Process workers keep
        #: per-worker stores; their hit/miss tallies are merged into the
        #: run report instead (see :meth:`build_report`).
        self.refuted_states: Optional[RefutedStateCache] = (
            RefutedStateCache() if config.state_subsumption else None
        )
        #: The serial engine: runs every job when ``jobs == 1`` and serves
        #: as the shared result cache that parallel results merge into.
        #: Its construction also (re)binds the process-wide persistent
        #: verdict store to ``config.cache_dir``.
        self.engine = Engine(pta, config, refuted_cache=self.refuted_states)
        #: Persistent-store binding for the refuted-state cache: seed the
        #: dead ends earlier runs proved over this exact program
        #: fingerprint, and write-through everything this run proves.
        self._refuted_scope: Optional[str] = None
        if self.refuted_states is not None and perf_store.ACTIVE is not None:
            scope = perf_store.refuted_scope(pta, config)
            if scope is not None:
                self._refuted_scope = scope
                self.refuted_states.bind_store(perf_store.ACTIVE, scope)
        #: Latest refuted-state tallies per process worker (cumulative,
        #: latest wins); folded into :attr:`refuted_states` at close.
        self._worker_refuted: dict[str, dict] = {}
        self._lock = threading.Lock()
        self._records: dict = {}  # job key -> EdgeRecord, insertion-ordered
        #: Driver-lifetime count of jobs answered from the shared result
        #: cache (seeded or earlier-run verdicts). The serve session diffs
        #: this across a request to report ``verdicts_reused``.
        self.cache_hits = 0
        self._worker_snapshots: dict[str, dict] = {}
        #: Latest full metrics-registry snapshot per process worker
        #: (cumulative, latest wins); merged into the parent registry
        #: exactly once, at :meth:`close`.
        self._worker_metrics: dict[str, dict] = {}
        self._wall_seconds = 0.0
        self._pool: Optional[_FuturesExecutor] = None
        self._tls = threading.local()
        self._worker_counter = 0
        #: Summed seconds per span name, fed by the active tracer (if any);
        #: flows into RunReport.phase_seconds and SpanFinished bus events.
        self._phase_seconds: dict[str, float] = {}
        #: Scheduling state (repro.engine.schedule): the lazily-built cost
        #: model for priority ordering, per-rung portfolio stats, the
        #: priority-inversion count, and — thread backend with
        #: ``config.work_stealing`` — the steal registry idle workers use
        #: to assist in-flight searches.
        self._cost: Optional[CostModel] = None
        self._rungs: dict[int, dict] = {}
        self._inversions = 0
        self._steal_registry: Optional[StealRegistry] = (
            StealRegistry()
            if config.work_stealing and jobs > 1 and self.backend == THREAD
            else None
        )
        if self._steal_registry is not None:
            self._steal_registry.on_steal = self._on_steal
        self._tracer = trace.get_tracer()
        if self._tracer is not None:
            self._tracer.add_sink(self._on_span)
        metrics.gauge("driver.workers").set(jobs)

    # ------------------------------------------------------------------
    # Backend / pool management
    # ------------------------------------------------------------------

    def _resolve_backend(self, backend: Optional[str]) -> str:
        if self.jobs == 1:
            return SERIAL
        if backend is None or backend == THREAD:
            return THREAD
        if backend == PROCESS:
            try:
                pickle.dumps(self.pta)
            except Exception:
                return THREAD
            return PROCESS
        raise ValueError(f"unknown backend {backend!r}")

    def _get_pool(self) -> _FuturesExecutor:
        if self._pool is None:
            if self.backend == PROCESS:
                try:
                    payload = pickle.dumps(
                        (
                            self.pta,
                            self.config,
                            trace.enabled(),
                            provenance.enabled(),
                        )
                    )
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.jobs,
                        initializer=_process_init,
                        initargs=(payload,),
                    )
                except Exception:
                    # The analysis (or platform) does not support process
                    # workers; degrade to threads rather than failing the run.
                    self.backend = THREAD
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.jobs,
                    thread_name_prefix="refute",
                )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and fold pending process-worker
        metrics into the parent registry (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        with self._lock:
            worker_metrics = list(self._worker_metrics.values())
            self._worker_metrics = {}
            # The cache section of any later build_report must not re-add
            # counters that the registry merge below already folded in.
            self._worker_snapshots = {}
            worker_refuted = list(self._worker_refuted.values())
            self._worker_refuted = {}
        for snap in worker_metrics:
            metrics.REGISTRY.merge_snapshot(snap)
        if self.refuted_states is not None:
            # Fold process workers' refuted-state tallies in (summed, so
            # per-entry hit counts survive the pool), then hand the
            # accumulated per-point hits to the persistent store as its
            # cross-run LRU signal.
            for snap in worker_refuted:
                self.refuted_states.merge_snapshot(snap)
            self.refuted_states.flush_store_tallies()
        if perf_store.ACTIVE is not None:
            perf_store.ACTIVE.flush()
        if self._tracer is not None:
            self._tracer.remove_sink(self._on_span)
            self._tracer = None

    def __enter__(self) -> "RefutationDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _on_span(self, record) -> None:
        """Tracer sink: fold every finished span into the per-phase rollup
        and forward it onto the event bus (progress printer, collectors).
        Instant records (rung escalations, steals) are point events, not
        phases — they already reach the bus as typed lifecycle events."""
        if getattr(record, "kind", "span") == "instant":
            return
        with self._lock:
            self._phase_seconds[record.name] = (
                self._phase_seconds.get(record.name, 0.0) + record.duration
            )
        self.events.emit(
            SpanFinished(
                name=record.name,
                seconds=record.duration,
                thread=record.thread_name,
                attrs=record.attrs,
            )
        )

    def _on_steal(self, shard) -> None:
        """Steal observer (thread backend, ``config.work_stealing``): one
        call per stolen subtree, from the stealing thread, outside the
        worklist's lock. Emits the lifecycle event and drops an instant
        into the stealing worker's trace lane."""
        thread = threading.current_thread().name
        trace.instant(
            "driver.steal", description=shard.description, thread=thread
        )
        self.events.emit(
            EdgeStolen(
                description=shard.description,
                thread=thread,
                queued=shard.queued(),
            )
        )

    def _flight(
        self,
        kind: str,
        description: str,
        result: EdgeResult,
        worker: str,
        estimate: Optional[int] = None,
        replay: Optional[Callable[[], object]] = None,
    ) -> None:
        """Feed one finally-recorded search into the always-on flight
        recorder, capturing its journal when it crossed the slow-query
        threshold (``config.slow_query_ms``)."""
        summary = telemetry.search_summary(
            kind, description, result, worker=worker, estimate=estimate
        )
        telemetry.RECORDER.record(summary)
        threshold = self.config.slow_query_ms
        if threshold is not None and result.seconds * 1000.0 >= threshold:
            telemetry.RECORDER.capture(
                description,
                summary,
                replay=None if replay is None else _isolated_replay(replay),
            )

    @contextmanager
    def _timed_batch(self, total: int, jobs: int, backend: str, kind: str):
        """One batch of refutation jobs: RunStarted/RunFinished bracketing,
        wall-clock accounting, and the batch's root span — the single
        replacement for what used to be four copy-pasted
        ``perf_counter`` start/elapsed blocks.

        Yields the list the caller must append each job's
        :class:`EdgeResult` to; RunFinished aggregates are computed from
        it on exit.
        """
        self.events.emit(
            RunStarted(
                total_jobs=total,
                jobs=jobs,
                backend=backend,
                deadline=self.config.deadline_seconds,
            )
        )
        outcomes: list[EdgeResult] = []
        start = time.perf_counter()
        with trace.span("driver.batch", kind=kind, total=total, backend=backend):
            yield outcomes
        elapsed = time.perf_counter() - start
        with self._lock:
            self._wall_seconds += elapsed
        _BATCH_SECONDS.observe(elapsed)
        self.events.emit(
            RunFinished(
                refuted=sum(1 for r in outcomes if r.refuted),
                witnessed=sum(1 for r in outcomes if r.witnessed),
                timeouts=sum(1 for r in outcomes if r.timed_out),
                seconds=elapsed,
            )
        )

    @staticmethod
    def _job_span(kind: str, description: str):
        """The root span of one refutation job (``driver.job``); the
        engine's ``executor.search`` span nests directly under it."""
        return trace.span("driver.job", kind=kind, description=description)

    def _worker_engine(self) -> tuple[Engine, str]:
        """The calling thread's private engine (threads only)."""
        engine = getattr(self._tls, "engine", None)
        if engine is None:
            with self._lock:
                worker_id = self._worker_counter
                self._worker_counter += 1
            engine = Engine(
                self.pta, self.config, refuted_cache=self.refuted_states
            )
            if self._steal_registry is not None:
                engine.steal_registry = self._steal_registry
            self._tls.engine = engine
            self._tls.name = f"thread-{worker_id}"
        return engine, self._tls.name

    # ------------------------------------------------------------------
    # Scheduling (repro.engine.schedule)
    # ------------------------------------------------------------------

    def _cost_model(self) -> CostModel:
        if self._cost is None:
            self._cost = CostModel(self.pta)
        return self._cost

    def _priority_order_edges(self, todo: list) -> list:
        """Cheapest-first dispatch order under ``schedule == "priority"``
        (stable, with the edge token as tiebreak); input order otherwise."""
        if self.config.schedule != PRIORITY or len(todo) < 2:
            return todo
        model = self._cost_model()
        return sorted(
            todo, key=lambda kv: (model.edge_cost(kv[1]), str(kv[1]))
        )

    def _edge_meter(self, todo: list) -> Optional[InversionMeter]:
        """Inversion accounting for one parallel batch (priority only)."""
        if self.config.schedule != PRIORITY or len(todo) < 2:
            return None
        model = self._cost_model()
        return InversionMeter(
            {key: model.edge_cost(edge) for key, edge in todo}
        )

    def _rung_entry(self, rung_index: int, budget, deadline) -> dict:
        """The (run-cumulative) stats row for one portfolio rung."""
        with self._lock:
            entry = self._rungs.get(rung_index)
            if entry is None:
                entry = {
                    "rung": rung_index,
                    "budget": (
                        budget if budget is not None else self.config.path_budget
                    ),
                    "deadline": (
                        deadline
                        if deadline is not None
                        else self.config.deadline_seconds
                    ),
                    "scheduled": 0,
                    "resolved": 0,
                    "carryover": 0,
                }
                self._rungs[rung_index] = entry
            return entry

    def _rung_scheduled(self, stats: dict) -> None:
        """One job entered a rung. Mirrored into the metrics registry
        (``driver.rung.scheduled.<rung>``) so rung occupancy is visible to
        scrapes and merges across process-pool workers."""
        stats["scheduled"] += 1
        metrics.counter(f"driver.rung.scheduled.{stats['rung']}").inc()

    def _rung_carryover(
        self, stats: dict, description: str, ladder: list, rung_index: int
    ) -> None:
        """One job timed out at a non-final rung and escalates: count it,
        emit the lifecycle event, and drop a trace instant."""
        stats["carryover"] += 1
        metrics.counter(f"driver.rung.carryover.{stats['rung']}").inc()
        next_budget, next_deadline = ladder[rung_index + 1]
        trace.instant(
            "driver.rung_escalated", description=description, rung=rung_index
        )
        self.events.emit(
            EdgeEscalated(
                description=description,
                rung=rung_index,
                next_budget=next_budget,
                next_deadline=next_deadline,
            )
        )

    def _rung_resolved(
        self, stats: dict, result: EdgeResult, rung_index: int
    ) -> None:
        """One job got its final verdict at this rung."""
        result.rung = rung_index
        stats["resolved"] += 1
        stats[result.status] = stats.get(result.status, 0) + 1
        metrics.counter(f"driver.rung.resolved.{stats['rung']}").inc()

    def _submit_helpers(self) -> list:
        """Queue one steal-helper loop per pool slot *behind* the batch's
        edge jobs: a worker only picks a helper up once no queued job
        remains, i.e. exactly when it would otherwise idle through the
        batch's tail. No-op unless work stealing is active."""
        if self._steal_registry is None:
            return []
        self._steal_registry.reopen()
        pool = self._get_pool()
        return [pool.submit(self._steal_helper) for _ in range(self.jobs)]

    def _drain_helpers(self, helpers: list) -> None:
        if not helpers:
            return
        self._steal_registry.close()
        for fut in helpers:
            fut.result()

    def _steal_helper(self) -> None:
        """The idle-worker loop: assist the heaviest in-flight search
        (stealing unexplored path-state subtrees from its shared
        worklist) until the batch ends."""
        engine, _worker = self._worker_engine()
        registry = self._steal_registry
        while True:
            shard = registry.pick()
            if shard is None:
                return
            engine.assist(shard)

    def _schedule_section(self) -> dict:
        """The run report's ``schedule`` section (see RunReport)."""
        with self._lock:
            rungs = [dict(self._rungs[i]) for i in sorted(self._rungs)]
            inversions = self._inversions
        return {
            "policy": self.config.schedule,
            "portfolio": self.config.portfolio,
            "work_stealing": self.config.work_stealing,
            "rungs": rungs,
            "resolved_at_rung": {
                str(r["rung"]): r["resolved"] for r in rungs
            },
            "steals": (
                self._steal_registry.steals
                if self._steal_registry is not None
                else 0
            ),
            "priority_inversions": inversions,
        }

    # ------------------------------------------------------------------
    # Edge refutation
    # ------------------------------------------------------------------

    def refute_edge(self, edge: HeapEdge) -> EdgeResult:
        """Refute one edge inline (always serial; cache-aware).

        Under ``config.portfolio`` the inline job climbs the same
        cheap-first rung ladder as a batch, so serial path walks (the
        Section 2 loop) stage their budgets too; the final rung is the
        full configured budget, so the verdict is unchanged.
        """
        key = edge_key(edge)
        cached = self._cached(key)
        if cached is not None:
            _CACHE_HITS.inc()
            with self._lock:
                self.cache_hits += 1
            return cached
        if self.config.portfolio:
            result = self._refute_edge_ladder(edge)
        else:
            with self._job_span("edge", str(edge)):
                result = self.engine.refute_edge(edge)
            _JOBS_DONE.inc()
            _JOB_SECONDS.observe(result.seconds)
        self._store(key, edge, result, SERIAL)
        return result

    def _refute_edge_ladder(self, edge: HeapEdge) -> EdgeResult:
        """One inline edge through the portfolio rungs (see
        :meth:`_run_portfolio_edges` for the batch variant)."""
        ladder = rung_ladder(self.config)
        result = None
        for rung_index, (budget, deadline) in enumerate(ladder):
            final_rung = rung_index == len(ladder) - 1
            stats = self._rung_entry(rung_index, budget, deadline)
            self._rung_scheduled(stats)
            with self._job_span("edge", str(edge)):
                result = self.engine.refute_edge(
                    edge, budget=budget, deadline=deadline
                )
            _JOBS_DONE.inc()
            _JOB_SECONDS.observe(result.seconds)
            if result.timed_out and not final_rung:
                self._rung_carryover(stats, str(edge), ladder, rung_index)
                continue
            self._rung_resolved(stats, result, rung_index)
            break
        return result

    def refute_edges(
        self, edges: Sequence[HeapEdge]
    ) -> dict[EdgeKey, EdgeResult]:
        """Refute a batch of edges, fanning out over the worker pool.

        Duplicate and already-refuted edges are served from the shared
        cache; the rest run on the pool (or inline when ``jobs == 1``).
        Returns every requested edge's result keyed by its edge key.
        """
        ordered: list[tuple[EdgeKey, HeapEdge]] = []
        seen: set[EdgeKey] = set()
        for edge in edges:
            key = edge_key(edge)
            if key not in seen:
                seen.add(key)
                ordered.append((key, edge))
        results: dict[EdgeKey, EdgeResult] = {}
        todo: list[tuple[EdgeKey, HeapEdge]] = []
        for key, edge in ordered:
            cached = self._cached(key)
            if cached is not None:
                _CACHE_HITS.inc()
                with self._lock:
                    self.cache_hits += 1
                results[key] = cached
            else:
                todo.append((key, edge))
        todo = self._priority_order_edges(todo)
        total = len(ordered)
        with self._timed_batch(total, self.jobs, self.backend, "edges") as outcomes:
            done = 0
            for index, (key, edge) in enumerate(ordered):
                if key in results:
                    self._emit_finished(
                        str(edge), results[key], SERIAL, done, total, cached=True
                    )
                    done += 1
            if self.config.portfolio and todo:
                done = self._run_portfolio_edges(todo, results, done, total)
            elif self.jobs == 1 or len(todo) <= 1:
                for key, edge in todo:
                    with self._job_span("edge", str(edge)):
                        result = self.engine.refute_edge(edge)
                    _JOBS_DONE.inc()
                    _JOB_SECONDS.observe(result.seconds)
                    self._store(key, edge, result, SERIAL)
                    results[key] = result
                    self._emit_finished(str(edge), result, SERIAL, done, total)
                    done += 1
            else:
                done = self._run_parallel_edges(todo, results, done, total)
            outcomes.extend(results.values())
        return results

    def _run_parallel_edges(
        self,
        todo: list[tuple[EdgeKey, HeapEdge]],
        results: dict[EdgeKey, EdgeResult],
        done: int,
        total: int,
    ) -> int:
        from concurrent.futures import as_completed

        pool = self._get_pool()
        meter = self._edge_meter(todo)
        futures = {}
        for index, (key, edge) in enumerate(todo):
            self.events.emit(
                EdgeScheduled(description=str(edge), index=index, total=total)
            )
            if self.backend == PROCESS:
                fut = pool.submit(_process_refute_edge, edge)
            else:
                fut = pool.submit(self._thread_refute_edge, edge)
            futures[fut] = (key, edge)
        helpers = self._submit_helpers()
        try:
            for fut in as_completed(futures):
                key, edge = futures[fut]
                result, worker = self._unpack(fut.result())
                if meter is not None:
                    meter.complete(key)
                self._store(key, edge, result, worker)
                results[key] = result
                self._emit_finished(str(edge), result, worker, done, total)
                done += 1
        finally:
            self._drain_helpers(helpers)
        if meter is not None:
            with self._lock:
                self._inversions += meter.inversions
        return done

    def _run_portfolio_edges(
        self,
        todo: list[tuple[EdgeKey, HeapEdge]],
        results: dict[EdgeKey, EdgeResult],
        done: int,
        total: int,
    ) -> int:
        """Cheap-first portfolio dispatch: run the batch at the first
        (small) budget/deadline rung, then re-run only the TIMEOUT
        survivors at each escalating rung. Re-runs are warm — the
        refuted-state cache and solver memos persist across rungs. The
        final rung is the full configured budget/deadline, so every edge
        ends with exactly the verdict the fixed schedule would produce;
        only the final verdict is recorded (with the rung that resolved
        it), never the provisional carryover timeouts."""
        ladder = rung_ladder(self.config)
        pending = list(todo)
        for rung_index, (budget, deadline) in enumerate(ladder):
            final_rung = rung_index == len(ladder) - 1
            attempts = self._run_rung_edges(
                pending, budget, deadline, total
            )
            stats = self._rung_entry(rung_index, budget, deadline)
            survivors: list[tuple[EdgeKey, HeapEdge]] = []
            for (key, edge), (result, worker) in zip(pending, attempts):
                self._rung_scheduled(stats)
                if result.timed_out and not final_rung:
                    self._rung_carryover(stats, str(edge), ladder, rung_index)
                    survivors.append((key, edge))
                    continue
                self._rung_resolved(stats, result, rung_index)
                self._store(key, edge, result, worker)
                results[key] = result
                self._emit_finished(str(edge), result, worker, done, total)
                done += 1
            pending = survivors
            if not pending:
                break
        return done

    def _run_rung_edges(
        self,
        pending: list[tuple[EdgeKey, HeapEdge]],
        budget: Optional[int],
        deadline: Optional[float],
        total: int,
    ) -> list[tuple[EdgeResult, str]]:
        """One portfolio rung over ``pending``; results aligned with it."""
        out: list = [None] * len(pending)
        if self.jobs == 1 or len(pending) <= 1:
            for slot, (key, edge) in enumerate(pending):
                with self._job_span("edge", str(edge)):
                    result = self.engine.refute_edge(
                        edge, budget=budget, deadline=deadline
                    )
                _JOBS_DONE.inc()
                _JOB_SECONDS.observe(result.seconds)
                out[slot] = (result, SERIAL)
            return out
        from concurrent.futures import as_completed

        pool = self._get_pool()
        meter = self._edge_meter(pending)
        futures = {}
        for slot, (key, edge) in enumerate(pending):
            self.events.emit(
                EdgeScheduled(description=str(edge), index=slot, total=total)
            )
            if self.backend == PROCESS:
                fut = pool.submit(_process_refute_edge, edge, budget, deadline)
            else:
                fut = pool.submit(
                    self._thread_refute_edge, edge, budget, deadline
                )
            futures[fut] = slot
        helpers = self._submit_helpers()
        try:
            for fut in as_completed(futures):
                slot = futures[fut]
                out[slot] = self._unpack(fut.result())
                if meter is not None:
                    meter.complete(pending[slot][0])
        finally:
            self._drain_helpers(helpers)
        if meter is not None:
            with self._lock:
                self._inversions += meter.inversions
        return out

    def _thread_refute_edge(
        self,
        edge: HeapEdge,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> tuple[EdgeResult, str]:
        engine, worker = self._worker_engine()
        with self._job_span("edge", str(edge)):
            result = engine.refute_edge(edge, budget=budget, deadline=deadline)
        _JOBS_DONE.inc()
        _JOB_SECONDS.observe(result.seconds)
        return result, worker

    def refute_path(
        self, path: Sequence[HeapEdge]
    ) -> list[tuple[HeapEdge, EdgeResult]]:
        """Refute the edges of one heap path.

        Serial mode walks the path in order and stops at the first refuted
        edge — exactly the sequential Section 2 loop, so ``jobs=1`` runs
        are bit-identical to the seed. Parallel mode refutes every edge of
        the path concurrently (the extra edges are not wasted: their
        verdicts are program-wide facts that later paths and alarms reuse
        from the cache). Returns ``(edge, result)`` pairs for the edges
        actually examined, in path order.

        Under ``config.portfolio`` the path runs the cheap-first rung
        ladder *across* its edges: a path's verdict needs only one
        refuted edge, so every edge tries the small budget rung first
        and escalation stops as soon as any edge refutes — an expensive
        edge is never run at full budget when a cheap path-mate already
        broke the path. Edges left unresolved when the path breaks are
        returned with their provisional TIMEOUT results and are neither
        cached nor recorded (a later path can still resolve them).
        """
        if self.config.portfolio:
            return self._refute_path_portfolio(path)
        if self.jobs == 1:
            total = len(path)
            out = []
            with self._timed_batch(total, 1, SERIAL, "path") as outcomes:
                for index, edge in enumerate(path):
                    cached = self._cached(edge_key(edge)) is not None
                    result = self.refute_edge(edge)
                    out.append((edge, result))
                    self._emit_finished(
                        str(edge), result, SERIAL, index, total, cached=cached
                    )
                    if result.refuted:
                        break
                outcomes.extend(r for _, r in out)
            return out
        results = self.refute_edges(path)
        return [(edge, results[edge_key(edge)]) for edge in path]

    def _refute_path_portfolio(
        self, path: Sequence[HeapEdge]
    ) -> list[tuple[HeapEdge, EdgeResult]]:
        """The cheap-first rung ladder across one path's edges (see
        :meth:`refute_path`); works at any worker count — each rung's
        batch fans out over the pool when ``jobs > 1``."""
        ordered: list[tuple[EdgeKey, HeapEdge]] = []
        seen: set[EdgeKey] = set()
        for edge in path:
            key = edge_key(edge)
            if key not in seen:
                seen.add(key)
                ordered.append((key, edge))
        results: dict[EdgeKey, EdgeResult] = {}
        pending: list[tuple[EdgeKey, HeapEdge]] = []
        for key, edge in ordered:
            cached = self._cached(key)
            if cached is not None:
                _CACHE_HITS.inc()
                with self._lock:
                    self.cache_hits += 1
                results[key] = cached
            else:
                pending.append((key, edge))
        if self.config.schedule == PRIORITY:
            pending = self._priority_order_edges(pending)
        total = len(ordered)
        ladder = rung_ladder(self.config)
        provisional: dict[EdgeKey, EdgeResult] = {}
        with self._timed_batch(total, self.jobs, self.backend, "path") as outcomes:
            done = 0
            broken = any(r.refuted for r in results.values())
            for rung_index, (budget, deadline) in enumerate(ladder):
                if broken or not pending:
                    break
                final_rung = rung_index == len(ladder) - 1
                attempts = self._run_rung_edges(pending, budget, deadline, total)
                stats = self._rung_entry(rung_index, budget, deadline)
                survivors: list[tuple[EdgeKey, HeapEdge]] = []
                for (key, edge), (result, worker) in zip(pending, attempts):
                    self._rung_scheduled(stats)
                    if result.timed_out and not final_rung:
                        self._rung_carryover(
                            stats, str(edge), ladder, rung_index
                        )
                        provisional[key] = result
                        survivors.append((key, edge))
                        continue
                    self._rung_resolved(stats, result, rung_index)
                    self._store(key, edge, result, worker)
                    results[key] = result
                    provisional.pop(key, None)
                    self._emit_finished(str(edge), result, worker, done, total)
                    done += 1
                    if result.refuted:
                        broken = True
                pending = survivors
            out = []
            for key, edge in ordered:
                result = results.get(key) or provisional.get(key)
                if result is not None:
                    out.append((edge, result))
            outcomes.extend(r for _, r in out)
        return out

    # ------------------------------------------------------------------
    # Fact refutation (the casts / immutability clients)
    # ------------------------------------------------------------------

    def refute_facts(self, requests: Sequence[FactJob]) -> list[EdgeResult]:
        """Run a batch of :meth:`Engine.refute_fact_at` queries.

        ``requests`` is a sequence of ``(label, bindings, description)``
        triples; results come back in request order regardless of the
        dispatch order (priority scheduling) or completion order on the
        pool.
        """
        total = len(requests)
        order = list(range(total))
        if self.config.schedule == PRIORITY and total > 1:
            model = self._cost_model()
            costs = {
                i: model.fact_cost(requests[i][0], requests[i][1])
                for i in order
            }
            order.sort(key=lambda i: (costs[i], requests[i][2]))
        results: list[Optional[EdgeResult]] = [None] * total
        with self._timed_batch(total, self.jobs, self.backend, "facts") as outcomes:
            if self.config.portfolio and requests:
                self._run_portfolio_facts(requests, order, results, total)
            elif self.jobs == 1 or total <= 1:
                done = 0
                for i in order:
                    label, bindings, description = requests[i]
                    with self._job_span("fact", description):
                        result = self.engine.refute_fact_at(
                            label, bindings, description=description
                        )
                    _JOBS_DONE.inc()
                    _JOB_SECONDS.observe(result.seconds)
                    results[i] = result
                    self._record_fact(
                        description, result, SERIAL, job=requests[i]
                    )
                    self._emit_finished(description, result, SERIAL, done, total)
                    done += 1
            else:
                from concurrent.futures import as_completed

                pool = self._get_pool()
                futures = {}
                for i in order:
                    label, bindings, description = requests[i]
                    self.events.emit(
                        EdgeScheduled(description=description, index=i, total=total)
                    )
                    if self.backend == PROCESS:
                        fut = pool.submit(
                            _process_refute_fact, label, bindings, description
                        )
                    else:
                        fut = pool.submit(
                            self._thread_refute_fact, label, bindings, description
                        )
                    futures[fut] = i
                helpers = self._submit_helpers()
                done = 0
                try:
                    for fut in as_completed(futures):
                        i = futures[fut]
                        result, worker = self._unpack(fut.result())
                        results[i] = result
                        description = requests[i][2]
                        self._record_fact(
                            description, result, worker, job=requests[i]
                        )
                        self._emit_finished(description, result, worker, done, total)
                        done += 1
                finally:
                    self._drain_helpers(helpers)
            final = [r for r in results if r is not None]
            outcomes.extend(final)
        return final

    def _run_portfolio_facts(
        self,
        requests: Sequence[FactJob],
        order: list[int],
        results: list[Optional[EdgeResult]],
        total: int,
    ) -> None:
        """Portfolio rung loop over fact jobs (see
        :meth:`_run_portfolio_edges`); fills ``results`` in place."""
        ladder = rung_ladder(self.config)
        pending = list(order)
        done = 0
        for rung_index, (budget, deadline) in enumerate(ladder):
            final_rung = rung_index == len(ladder) - 1
            attempts = self._run_rung_facts(
                requests, pending, budget, deadline, total
            )
            stats = self._rung_entry(rung_index, budget, deadline)
            survivors: list[int] = []
            for i, (result, worker) in zip(pending, attempts):
                self._rung_scheduled(stats)
                if result.timed_out and not final_rung:
                    self._rung_carryover(
                        stats, requests[i][2], ladder, rung_index
                    )
                    survivors.append(i)
                    continue
                self._rung_resolved(stats, result, rung_index)
                results[i] = result
                description = requests[i][2]
                self._record_fact(description, result, worker, job=requests[i])
                self._emit_finished(description, result, worker, done, total)
                done += 1
            pending = survivors
            if not pending:
                break

    def _run_rung_facts(
        self,
        requests: Sequence[FactJob],
        pending: list[int],
        budget: Optional[int],
        deadline: Optional[float],
        total: int,
    ) -> list[tuple[EdgeResult, str]]:
        out: list = [None] * len(pending)
        if self.jobs == 1 or len(pending) <= 1:
            for slot, i in enumerate(pending):
                label, bindings, description = requests[i]
                with self._job_span("fact", description):
                    result = self.engine.refute_fact_at(
                        label,
                        bindings,
                        budget=budget,
                        description=description,
                        deadline=deadline,
                    )
                _JOBS_DONE.inc()
                _JOB_SECONDS.observe(result.seconds)
                out[slot] = (result, SERIAL)
            return out
        from concurrent.futures import as_completed

        pool = self._get_pool()
        futures = {}
        for slot, i in enumerate(pending):
            label, bindings, description = requests[i]
            self.events.emit(
                EdgeScheduled(description=description, index=slot, total=total)
            )
            if self.backend == PROCESS:
                fut = pool.submit(
                    _process_refute_fact,
                    label,
                    bindings,
                    description,
                    budget,
                    deadline,
                )
            else:
                fut = pool.submit(
                    self._thread_refute_fact,
                    label,
                    bindings,
                    description,
                    budget,
                    deadline,
                )
            futures[fut] = slot
        helpers = self._submit_helpers()
        try:
            for fut in as_completed(futures):
                slot = futures[fut]
                out[slot] = self._unpack(fut.result())
        finally:
            self._drain_helpers(helpers)
        return out

    def _thread_refute_fact(
        self,
        label,
        bindings,
        description: str = "<fact>",
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> tuple[EdgeResult, str]:
        engine, worker = self._worker_engine()
        with self._job_span("fact", description):
            result = engine.refute_fact_at(
                label,
                bindings,
                budget=budget,
                description=description,
                deadline=deadline,
            )
        _JOBS_DONE.inc()
        _JOB_SECONDS.observe(result.seconds)
        return result, worker

    # ------------------------------------------------------------------
    # Results, records, reports
    # ------------------------------------------------------------------

    def _unpack(self, payload: tuple) -> tuple[EdgeResult, str]:
        """Unpack a worker's return value. Process workers append their
        process-cumulative cache-counter snapshot (latest snapshot per
        worker wins — counters are cumulative, so summing per-job values
        would double-count; merged into the run report) plus an ``obs``
        dict: a cumulative metrics snapshot (latest wins, merged at
        :meth:`close`), drained span records (incremental, absorbed into
        the parent tracer now), and drained search journals (incremental,
        absorbed into the parent run journal now)."""
        if len(payload) == 4:
            result, worker, snapshot, obs = payload
            with self._lock:
                self._worker_snapshots[worker] = snapshot
                if "metrics" in obs:
                    self._worker_metrics[worker] = obs["metrics"]
                if "refuted" in obs:
                    self._worker_refuted[worker] = obs["refuted"]
            spans = obs.get("spans")
            if spans and self._tracer is not None:
                self._tracer.absorb(spans, obs["pid"], obs["wall_epoch"])
            journals = obs.get("journals")
            if journals:
                book = provenance.get_journal()
                if book is not None:
                    book.absorb(journals)
            return result, worker
        result, worker = payload
        return result, worker

    def _cached(self, key: EdgeKey) -> Optional[EdgeResult]:
        with self._lock:
            return self.engine._edge_cache.get(key)

    def _store(
        self, key: EdgeKey, edge: HeapEdge, result: EdgeResult, worker: str
    ) -> None:
        with self._lock:
            # Merge into the serial engine's cache so every consumer —
            # including direct Engine users like witness rendering — sees
            # one coherent result set.
            if key not in self.engine._edge_cache:
                self.engine._edge_cache[key] = result
            fresh = key not in self._records
            if fresh:
                self._records[key] = EdgeRecord.from_result(
                    result, worker=worker, description=str(edge), kind="edge"
                )
        if fresh:
            # Outside the lock: a slow-query capture may replay the search.
            self._flight(
                "edge",
                str(edge),
                result,
                worker,
                estimate=(
                    self._cost.edge_cost(edge)
                    if self._cost is not None
                    else None
                ),
                replay=lambda: Engine(self.pta, self.config).refute_edge(edge),
            )

    def _record_fact(
        self,
        description: str,
        result: EdgeResult,
        worker: str,
        job: Optional[FactJob] = None,
    ) -> None:
        with self._lock:
            key = ("fact", description, len(self._records))
            self._records[key] = EdgeRecord.from_result(
                result, worker=worker, description=description, kind="fact"
            )
        if worker == "cache":
            # A reused verdict (serve session's fact-table hit): no search
            # ran, so there is nothing for the flight recorder to time.
            return
        estimate = None
        replay = None
        if job is not None:
            label, bindings = job[0], job[1]
            if self._cost is not None:
                estimate = self._cost.fact_cost(label, bindings)
            replay = lambda: Engine(self.pta, self.config).refute_fact_at(
                label, bindings, description=description
            )
        self._flight(
            "fact", description, result, worker, estimate=estimate,
            replay=replay,
        )

    def _emit_finished(
        self,
        description: str,
        result: EdgeResult,
        worker: str,
        index: int,
        total: int,
        cached: bool = False,
    ) -> None:
        self.events.emit(
            EdgeFinished(
                description=description,
                status=result.status,
                seconds=result.seconds,
                path_programs=result.path_programs,
                worker=worker,
                index=index,
                total=total,
                cached=cached,
            )
        )

    def edge_results(self) -> dict:
        """All per-edge outcomes so far, keyed by edge key."""
        with self._lock:
            return dict(self.engine._edge_cache)

    def seed_results(self, results: dict) -> None:
        """Pre-populate the shared result cache with verdicts carried over
        from an earlier run (the serve session's surviving verdict table).
        Seeded edges are answered as cache hits without re-searching;
        existing entries are never overwritten."""
        with self._lock:
            for key, result in results.items():
                self.engine._edge_cache.setdefault(key, result)

    def mark(self) -> tuple[int, int]:
        """A per-request bookmark: ``(records so far, cache hits so far)``.
        Pass the first element to :meth:`build_report` as ``since`` to
        report just the jobs run after the mark; diff the second against
        :attr:`cache_hits` for the verdicts served from cache since."""
        with self._lock:
            return len(self._records), self.cache_hits

    def build_report(
        self, app: str = "", command: str = "", since: int = 0
    ) -> RunReport:
        """Snapshot the run so far as a structured :class:`RunReport`.

        The ``cache`` section merges this process's cache counters with the
        latest snapshot from each process-pool worker, and adds the shared
        refuted-state store's size/hit statistics. Records are sorted by a
        stable job token (kind, then description) so reports are
        byte-stable across ``--jobs``, backend, and schedule
        permutations."""
        with self._lock:
            snapshots = list(self._worker_snapshots.values())
            worker_refuted = list(self._worker_refuted.values())
        cache = perf.cache_report(snapshots)
        if self.refuted_states is not None:
            # Sum in any process-worker tallies not yet folded in at close
            # — worker hit counts add to the parent's, they never replace
            # them (per-entry history must survive the process pool).
            stats = self.refuted_states.stats()
            for snap in worker_refuted:
                stats["hits"] += snap.get("hits", 0)
                stats["misses"] += snap.get("misses", 0)
            cache["refuted_store"] = stats
        else:
            cache["refuted_store"] = None
        cache["memoize_solver"] = self.config.memoize_solver
        cache["state_subsumption"] = self.config.state_subsumption
        cache["partition_solver"] = self.config.partition_solver
        schedule = self._schedule_section()
        with self._lock:
            return RunReport(
                app=app,
                command=command,
                jobs=self.jobs,
                backend=self.backend,
                deadline=self.config.deadline_seconds,
                path_budget=self.config.path_budget,
                wall_seconds=self._wall_seconds,
                records=sorted(
                    list(self._records.values())[since:],
                    key=lambda r: (r.kind, r.description),
                ),
                phase_seconds=dict(self._phase_seconds),
                cache=cache,
                schedule=schedule,
            )


# ---------------------------------------------------------------------------
# Process-backend workers (module-level so they pickle by reference)
# ---------------------------------------------------------------------------

_PROCESS_ENGINE: Optional[Engine] = None


def _process_init(payload: bytes) -> None:
    global _PROCESS_ENGINE
    pta, config, trace_on, journal_on = pickle.loads(payload)
    _PROCESS_ENGINE = Engine(pta, config)
    # Bind the worker's private refuted-state cache to the shared on-disk
    # store (the engine construction above attached it): the worker seeds
    # the same proven dead ends as the parent and write-through-persists
    # its own — sqlite's locking makes the concurrent writers safe.
    if (
        perf_store.ACTIVE is not None
        and _PROCESS_ENGINE._refuted_cache is not None
    ):
        scope = perf_store.refuted_scope(pta, config)
        if scope is not None:
            _PROCESS_ENGINE._refuted_cache.bind_store(perf_store.ACTIVE, scope)
    # A forked worker inherits the parent's registry values; zero them in
    # place so the snapshot shipped back carries only this worker's own
    # increments — the parent merge would otherwise re-add its own
    # pre-fork counts once per worker.
    metrics.REGISTRY.zero()
    # Mirror the parent's observability setup so worker spans and search
    # journals exist to be drained back after each job.
    if trace_on:
        trace.install()
    if journal_on:
        provenance.install()


def _worker_obs_payload() -> dict:
    """Everything a process worker ships back besides the job result:
    a cumulative metrics snapshot, plus incremental drains of the span
    buffer and the search journals when those subsystems are on."""
    obs: dict = {
        "metrics": metrics.REGISTRY.snapshot(),
        "pid": os.getpid(),
    }
    if (
        _PROCESS_ENGINE is not None
        and _PROCESS_ENGINE._refuted_cache is not None
    ):
        # Cumulative like the metrics snapshot: the parent keeps the
        # latest per worker and *sums* them in, never replaces.
        obs["refuted"] = _PROCESS_ENGINE._refuted_cache.snapshot()
    tracer = trace.get_tracer()
    if tracer is not None:
        obs["spans"] = [r.to_dict() for r in tracer.drain()]
        obs["wall_epoch"] = tracer.wall_epoch
    book = provenance.get_journal()
    if book is not None:
        obs["journals"] = book.drain()
    return obs


def _process_refute_edge(
    edge: HeapEdge,
    budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> tuple[EdgeResult, str, dict, dict]:
    assert _PROCESS_ENGINE is not None
    result = _PROCESS_ENGINE.refute_edge(edge, budget=budget, deadline=deadline)
    worker = f"process-{os.getpid()}"
    return result, worker, perf.cache_stats_snapshot(), _worker_obs_payload()


def _process_refute_fact(
    label,
    bindings,
    description: str = "<fact>",
    budget: Optional[int] = None,
    deadline: Optional[float] = None,
) -> tuple[EdgeResult, str, dict, dict]:
    assert _PROCESS_ENGINE is not None
    result = _PROCESS_ENGINE.refute_fact_at(
        label, bindings, budget=budget, description=description, deadline=deadline
    )
    worker = f"process-{os.getpid()}"
    return result, worker, perf.cache_stats_snapshot(), _worker_obs_payload()
