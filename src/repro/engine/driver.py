"""The parallel refutation driver.

The paper's Section 4 observation makes edge refutation embarrassingly
parallel: each points-to edge on an alarm's heap path is refuted (or
witnessed) *independently* — a refutation is a fact about the whole
program, never about the alarm that asked. This module exploits that:

* :class:`RefutationDriver` runs refutation jobs — an edge, or a
  ``(label, bindings)`` fact — across a ``concurrent.futures`` worker
  pool (``--jobs N``), thread- or process-backed;
* a per-edge **wall-clock deadline** (``--deadline S``) is enforced by the
  cooperative cancellation checks inside
  :class:`repro.symbolic.executor.Engine` (deadline exceeded ⇒ the edge is
  TIMEOUT / not-refuted, exactly the paper's treatment of its per-edge
  timeout);
* every job's outcome is recorded for the structured JSON
  :class:`repro.engine.report.RunReport`, and live
  :mod:`repro.engine.events` are emitted as jobs are scheduled and finish.

Every entry point funnels into one path: a batch of :class:`Job`\\ s
climbs the rung ladder (:meth:`RefutationDriver._run_ladder`; a plain
run is the single full-budget rung), each rung runs on one runner
(:meth:`RefutationDriver._run_rung`, serial or on the pool), and each
final result passes one finish step (:meth:`RefutationDriver._finish`).

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
from concurrent.futures import BrokenExecutor, Future, as_completed
from concurrent.futures import Executor as _FuturesExecutor
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .. import perf
from ..obs import metrics, provenance, telemetry, trace
from ..perf import store as perf_store
from ..perf.cache import RefutedStateCache
from ..pointsto import PointsToResult
from ..pointsto.graph import HeapEdge
from ..pointsto.producers import EdgeKey, edge_key
from ..symbolic import Engine, SearchConfig
from ..symbolic.stats import TIMEOUT, EdgeResult
from ..symbolic.symvar import private_ids
from .events import (
    EdgeEscalated,
    EdgeFinished,
    EdgeScheduled,
    EventBus,
    RunFinished,
    RunStarted,
    SpanFinished,
)
from .report import EdgeRecord, RunReport
from .schedule import PRIORITY, CostModel, InversionMeter, rung_ladder

_CACHE_HITS = metrics.counter("driver.cache_hits")
_JOBS_DONE = metrics.counter("driver.jobs_completed")
_JOB_SECONDS = metrics.histogram("driver.job_seconds")
_BATCH_SECONDS = metrics.histogram("driver.batch_seconds")

SERIAL = "serial"
THREAD = "thread"
PROCESS = "process"
#: The worker name of a job whose process worker died mid-job: its result
#: is a TIMEOUT that no search produced, so it is never cached.
LOST = "lost"

#: A fact-refutation request: (label, bindings, description) — the
#: arguments of :meth:`Engine.refute_fact_at` plus a display name.
FactJob = tuple  # (int, list[tuple[str, Optional[frozenset]]], str)


@dataclass(frozen=True)
class Job:
    """One refutation job: a points-to edge, or a fact query (the
    ``label``/``bindings`` of :meth:`Engine.refute_fact_at`).

    ``key`` identifies the job within its batch — the edge key for edges
    (shared with the result cache), the request position for facts."""

    key: object
    description: str
    edge: Optional[HeapEdge] = None
    label: Optional[int] = None
    bindings: Sequence = ()

    @classmethod
    def of_edge(cls, edge: HeapEdge) -> "Job":
        return cls(edge_key(edge), str(edge), edge=edge)

    @property
    def kind(self) -> str:
        return "edge" if self.edge is not None else "fact"

    def run(
        self,
        engine: Engine,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> EdgeResult:
        if self.edge is not None:
            return engine.refute_edge(self.edge, budget=budget, deadline=deadline)
        return engine.refute_fact_at(
            self.label,
            self.bindings,
            budget=budget,
            description=self.description,
            deadline=deadline,
        )

    def cost(self, model: CostModel) -> int:
        if self.edge is not None:
            return model.edge_cost(self.edge)
        return model.fact_cost(self.label, self.bindings)


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
        #: model for priority ordering, per-rung portfolio stats, and the
        #: priority-inversion count.
        self._cost: Optional[CostModel] = None
        self._rungs: dict[int, dict] = {}
        self._inversions = 0
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
        Instant records (rung escalations) are point events, not phases —
        they already reach the bus as typed lifecycle events."""
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

    @contextmanager
    def _timed_batch(self, total: int, kind: str):
        """One batch of refutation jobs: RunStarted/RunFinished bracketing,
        wall-clock accounting, and the batch's root span.

        Yields the list the caller must append each job's
        :class:`EdgeResult` to; RunFinished aggregates are computed from
        it on exit.
        """
        self.events.emit(
            RunStarted(
                total_jobs=total,
                jobs=self.jobs,
                backend=self.backend,
                deadline=self.config.deadline_seconds,
            )
        )
        outcomes: list[EdgeResult] = []
        start = time.perf_counter()
        with trace.span(
            "driver.batch", kind=kind, total=total, backend=self.backend
        ):
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

    def _by_priority(self, jobs: list[Job]) -> list[Job]:
        """Cheapest-first dispatch order under ``schedule == "priority"``
        (stable, with the description as tiebreak); input order otherwise."""
        if self.config.schedule != PRIORITY or len(jobs) < 2:
            return jobs
        model = self._cost_model()
        return sorted(jobs, key=lambda job: (job.cost(model), job.description))

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

    def _schedule_section(self) -> dict:
        """The run report's ``schedule`` section (see RunReport)."""
        with self._lock:
            rungs = [dict(self._rungs[i]) for i in sorted(self._rungs)]
            inversions = self._inversions
        return {
            "policy": self.config.schedule,
            "portfolio": self.config.portfolio,
            "rungs": rungs,
            "resolved_at_rung": {
                str(r["rung"]): r["resolved"] for r in rungs
            },
            "priority_inversions": inversions,
        }

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def refute_edge(self, edge: HeapEdge) -> EdgeResult:
        """Refute one edge inline (always serial; cache-aware).

        Under ``config.portfolio`` the inline job climbs the same
        cheap-first rung ladder as a batch, so serial path walks (the
        Section 2 loop) stage their budgets too; the final rung is the
        full configured budget, so the verdict is unchanged.
        """
        job = Job.of_edge(edge)
        cached = self._hit(job)
        if cached is not None:
            return cached
        results: dict = {}
        self._run_ladder([job], results, total=1, emit=False)
        return results[job.key]

    def refute_edges(
        self, edges: Sequence[HeapEdge]
    ) -> dict[EdgeKey, EdgeResult]:
        """Refute a batch of edges, fanning out over the worker pool.

        Duplicate and already-refuted edges are served from the shared
        cache; the rest run on the pool (or inline when ``jobs == 1``).
        Returns every requested edge's result keyed by its edge key.
        """
        return self._run_batch(self._edge_jobs(edges), "edges")

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
        jobs = self._edge_jobs(path)
        walk = self.jobs == 1 and not self.config.portfolio
        results = self._run_batch(
            jobs, "path", stop_on_refute=walk or self.config.portfolio, walk=walk
        )
        return [(job.edge, results[job.key]) for job in jobs if job.key in results]

    def refute_facts(self, requests: Sequence[FactJob]) -> list[EdgeResult]:
        """Run a batch of :meth:`Engine.refute_fact_at` queries.

        ``requests`` is a sequence of ``(label, bindings, description)``
        triples; results come back in request order regardless of the
        dispatch order (priority scheduling) or completion order on the
        pool.
        """
        jobs = [
            Job(("fact", i), description, label=label, bindings=bindings)
            for i, (label, bindings, description) in enumerate(requests)
        ]
        results = self._run_batch(jobs, "facts")
        return [results[job.key] for job in jobs]

    # ------------------------------------------------------------------
    # The one job path: batch -> ladder -> rung runner -> finish
    # ------------------------------------------------------------------

    @staticmethod
    def _edge_jobs(edges: Sequence[HeapEdge]) -> list[Job]:
        """One job per distinct edge, in first-occurrence order."""
        jobs: dict = {}
        for edge in edges:
            job = Job.of_edge(edge)
            jobs.setdefault(job.key, job)
        return list(jobs.values())

    def _run_batch(
        self,
        jobs: list[Job],
        kind: str,
        stop_on_refute: bool = False,
        walk: bool = False,
    ) -> dict:
        """Run one batch of jobs; results keyed by job key.

        Jobs answered from the shared edge cache finish first; the rest
        climb the rung ladder, cheapest first under priority scheduling.
        ``walk`` takes the jobs one at a time in order instead (the serial
        Section 2 path walk). With ``stop_on_refute`` (a path), the batch
        ends once any result refutes; jobs left unresolved then keep their
        provisional TIMEOUT results."""
        total = len(jobs)
        results: dict = {}
        with self._timed_batch(total, kind) as outcomes:
            for group in [[job] for job in jobs] if walk else [jobs]:
                if stop_on_refute and any(r.refuted for r in results.values()):
                    break
                todo = []
                for job in group:
                    cached = self._hit(job)
                    if cached is None:
                        todo.append(job)
                        continue
                    results[job.key] = cached
                    self._finish(
                        job, cached, SERIAL, len(results) - 1, total, cached=True
                    )
                self._run_ladder(
                    self._by_priority(todo), results, total, stop_on_refute
                )
            outcomes.extend(results.values())
        return results

    def _run_ladder(
        self,
        jobs: list[Job],
        results: dict,
        total: int,
        stop_on_refute: bool = False,
        emit: bool = True,
    ) -> None:
        """Run ``jobs`` to their final results, filling ``results``.

        Under ``config.portfolio`` the jobs climb the cheap-first rung
        ladder: each rung re-runs only the previous rung's TIMEOUT
        survivors, warm (the refuted-state cache and solver memos persist
        across rungs). The final rung is the full configured
        budget/deadline, so every job ends with exactly the verdict the
        fixed schedule would produce; only final verdicts are finished
        (with the rung that resolved them), never provisional carryover
        timeouts. A plain run is the single full-budget rung, without
        rung bookkeeping. ``stop_on_refute`` ends the climb once any
        result — cached ones included — refutes."""
        portfolio = self.config.portfolio
        ladder = rung_ladder(self.config) if portfolio else [(None, None)]
        last = len(ladder) - 1
        broken = stop_on_refute and any(r.refuted for r in results.values())
        done = len(results)
        pending = jobs
        for rung, (budget, deadline) in enumerate(ladder):
            if broken or not pending:
                break
            stats = self._rung_entry(rung, budget, deadline) if portfolio else None
            carried: set = set()

            def settle(job: Job, result: EdgeResult, worker: str) -> None:
                nonlocal broken, done
                if stats is not None:
                    stats["scheduled"] += 1
                    metrics.counter(f"driver.rung.scheduled.{rung}").inc()
                    if result.timed_out and rung < last:
                        self._carry_over(stats, job, ladder, rung)
                        carried.add(job.key)
                        results[job.key] = result
                        return
                    result.rung = rung
                    stats["resolved"] += 1
                    stats[result.status] = stats.get(result.status, 0) + 1
                    metrics.counter(f"driver.rung.resolved.{rung}").inc()
                results[job.key] = result
                self._finish(job, result, worker, done if emit else None, total)
                done += 1
                broken = broken or (stop_on_refute and result.refuted)

            self._run_rung(pending, budget, deadline, total, settle)
            pending = [job for job in pending if job.key in carried]

    def _carry_over(
        self, stats: dict, job: Job, ladder: list, rung: int
    ) -> None:
        """One job timed out at a non-final rung and escalates: count it,
        emit the lifecycle event, and drop a trace instant."""
        stats["carryover"] += 1
        metrics.counter(f"driver.rung.carryover.{rung}").inc()
        next_budget, next_deadline = ladder[rung + 1]
        trace.instant(
            "driver.rung_escalated", description=job.description, rung=rung
        )
        self.events.emit(
            EdgeEscalated(
                description=job.description,
                rung=rung,
                next_budget=next_budget,
                next_deadline=next_deadline,
            )
        )

    def _run_rung(
        self,
        jobs: list[Job],
        budget: Optional[int],
        deadline: Optional[float],
        total: int,
        settle: Callable[[Job, EdgeResult, str], None],
    ) -> None:
        """Run every job once at ``budget``/``deadline`` and hand each
        result to ``settle``: inline on the serial engine when ``jobs ==
        1`` or only one job is left, else on the pool in completion order.

        A pool whose process worker dies breaks for every job still in
        flight: those jobs settle as :data:`LOST` TIMEOUTs (never
        REFUTED), and the pool is dropped so the next rung or batch gets
        a fresh one."""
        if self.jobs == 1 or len(jobs) <= 1:
            for job in jobs:
                settle(job, self._run_job(self.engine, job, budget, deadline), SERIAL)
            return
        pool = self._get_pool()
        meter = None
        if self.config.schedule == PRIORITY:
            model = self._cost_model()
            meter = InversionMeter(
                {slot: job.cost(model) for slot, job in enumerate(jobs)}
            )
        futures = {}
        for slot, job in enumerate(jobs):
            self.events.emit(
                EdgeScheduled(description=job.description, index=slot, total=total)
            )
            try:
                if self.backend == PROCESS:
                    fut = pool.submit(_process_run, job, budget, deadline)
                else:
                    fut = pool.submit(self._thread_run, job, budget, deadline)
            except BrokenExecutor as exc:
                # The pool died while this batch was still being queued.
                fut = Future()
                fut.set_exception(exc)
            futures[fut] = slot
        lost = False
        for fut in as_completed(futures):
            slot = futures[fut]
            job = jobs[slot]
            try:
                result, worker = self._unpack(fut.result())
            except BrokenExecutor:
                lost = True
                result = EdgeResult(edge=job.edge, status=TIMEOUT)
                worker = LOST
            if meter is not None:
                meter.complete(slot)
            settle(job, result, worker)
        if meter is not None:
            with self._lock:
                self._inversions += meter.inversions
        if lost:
            pool.shutdown(wait=True)
            self._pool = None

    def _run_job(
        self,
        engine: Engine,
        job: Job,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> EdgeResult:
        """One search on ``engine`` under the job's root span
        (``driver.job``; the engine's ``executor.search`` nests under it)."""
        with trace.span("driver.job", kind=job.kind, description=job.description):
            result = job.run(engine, budget, deadline)
        _JOBS_DONE.inc()
        _JOB_SECONDS.observe(result.seconds)
        return result

    def _thread_run(
        self, job: Job, budget: Optional[int], deadline: Optional[float]
    ) -> tuple[EdgeResult, str]:
        engine, worker = self._worker_engine()
        return self._run_job(engine, job, budget, deadline), worker

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

    def _hit(self, job: Job) -> Optional[EdgeResult]:
        """The shared edge cache's answer for ``job``, counted as a cache
        hit; ``None`` for a miss and for every fact job."""
        if job.edge is None:
            return None
        cached = self._cached(job.key)
        if cached is not None:
            _CACHE_HITS.inc()
            with self._lock:
                self.cache_hits += 1
        return cached

    def _finish(
        self,
        job: Job,
        result: EdgeResult,
        worker: str,
        index: Optional[int] = None,
        total: int = 0,
        cached: bool = False,
    ) -> None:
        """The one finish step for a final result.

        A fresh edge result joins the shared edge cache (unless its worker
        was lost) and the run records; a fact result is recorded. A search
        that ran also feeds the flight recorder, which captures its
        journal when it crossed the slow-query threshold
        (``config.slow_query_ms``). With an ``index`` the result is
        announced as ``EdgeFinished``. ``cached`` results were finished
        when first computed; ``worker == "cache"`` marks a verdict reused
        from outside the driver, recorded but never searched."""
        fresh = False
        if not cached:
            with self._lock:
                if job.edge is None:
                    key = ("fact", job.description, len(self._records))
                    fresh = True
                else:
                    # Merge into the serial engine's cache so every
                    # consumer — including direct Engine users like
                    # witness rendering — sees one coherent result set.
                    key = job.key
                    if worker != LOST:
                        self.engine._edge_cache.setdefault(key, result)
                    previous = self._records.get(key)
                    fresh = previous is None or previous.worker == LOST
                if fresh:
                    self._records[key] = EdgeRecord.from_result(
                        result, worker=worker, description=job.description,
                        kind=job.kind,
                    )
        if fresh and worker not in (LOST, "cache"):
            # Outside the lock: a slow-query capture may replay the search.
            summary = telemetry.search_summary(
                job.kind,
                job.description,
                result,
                worker=worker,
                estimate=None if self._cost is None else job.cost(self._cost),
            )
            telemetry.RECORDER.record(summary)
            threshold = self.config.slow_query_ms
            if threshold is not None and result.seconds * 1000.0 >= threshold:
                telemetry.RECORDER.capture(
                    job.description,
                    summary,
                    replay=_isolated_replay(
                        lambda: job.run(Engine(self.pta, self.config))
                    ),
                )
        if index is not None:
            self.events.emit(
                EdgeFinished(
                    description=job.description,
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


def _process_run(
    job: Job, budget: Optional[int], deadline: Optional[float]
) -> tuple[EdgeResult, str, dict, dict]:
    assert _PROCESS_ENGINE is not None
    result = job.run(_PROCESS_ENGINE, budget, deadline)
    worker = f"process-{os.getpid()}"
    return result, worker, perf.cache_stats_snapshot(), _worker_obs_payload()
