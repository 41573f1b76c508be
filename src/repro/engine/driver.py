"""The refutation driver.

The paper's Section 4 observation makes edge refutation embarrassingly
parallel: each points-to edge on an alarm's heap path is refuted (or
witnessed) *independently* — a refutation is a fact about the whole
program, never about the alarm that asked. This module exploits that:

* :class:`RefutationDriver` runs refutation jobs — an edge, or a
  ``(label, bindings)`` fact — in-process, and fans flat batches
  (:meth:`~RefutationDriver.refute_edges`,
  :meth:`~RefutationDriver.refute_facts`) out over a process pool under
  ``--jobs N --backend process``;
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
(:meth:`RefutationDriver._run_rung`, inline or on the pool), and each
final result passes one finish step (:meth:`RefutationDriver._finish`).

Every job runs inline on one :class:`Engine`, so a run is deterministic,
except a flat batch of two or more fresh jobs under ``backend="process"``
with ``jobs>1``; ``jobs=N, backend="thread"`` behaves exactly like
``jobs=1`` (under CPython's GIL threads cannot run two searches at once,
so no thread pool is started). A path batch (the Section 2 walk, and the
portfolio rung ladder under its :class:`RungCeiling`) never reaches the
pool: it stops at the first refuted edge, and its path-mates are cut by
the ceiling that the searches before them settle. Each pool worker owns a
private ``Engine`` and ships one payload per job, which the parent merges
once, on arrival (:func:`_process_run`). Verdicts stay deterministic
because the search itself is deterministic in ``(program, config)``;
only completion *order* varies. Final results join the driver's one
verdict cache, keyed by job key for edges and facts alike, so no job is
ever searched twice.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, Future, as_completed
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .. import perf
from ..obs import metrics, provenance, trace
from ..perf import store as perf_store
from ..pointsto import PointsToResult
from ..pointsto.graph import HeapEdge
from ..pointsto.producers import EdgeKey, edge_key
from ..symbolic import Engine, SearchConfig
from ..symbolic.stats import TIMEOUT, EdgeResult
from .events import (
    EdgeEscalated, EdgeFinished, EdgeScheduled, RunFinished, RunStarted
)
from .report import RunReport
from .schedule import CostModel, RungCeiling, rung_ladder

_CACHE_HITS = metrics.counter("driver.cache_hits")
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


def fact_key(request: FactJob) -> tuple:
    """The verdict-cache key of one fact request: its label, bindings (var
    name → suspect location set) and description. Labels and locations of
    unchanged methods survive additive grafts, so a serve session keeps
    the key across updates."""
    label, bindings, description = request
    canon = tuple(
        (var, None if locs is None else frozenset(locs)) for var, locs in bindings
    )
    return (label, canon, description)


@dataclass(frozen=True)
class Job:
    """One refutation job: a points-to edge, or a fact query (the
    ``label``/``bindings`` of :meth:`Engine.refute_fact_at`).

    ``key`` is the job's verdict-cache key: the edge key for edges,
    :func:`fact_key` for facts."""

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
        ceiling: Optional[RungCeiling] = None,
    ) -> EdgeResult:
        if self.edge is not None:
            return engine.refute_edge(self.edge, budget, deadline, ceiling)
        return engine.refute_fact_at(
            self.label, self.bindings, budget, self.description, deadline
        )

    def cost(self, model: CostModel) -> int:
        if self.edge is not None:
            return model.edge_cost(self.edge)
        return model.fact_cost(self.label, self.bindings)


class RefutationDriver:
    """Schedules independent refutation jobs, in-process or over a
    process pool.

    Parameters
    ----------
    pta:
        The solved points-to analysis the engines search against.
    config:
        The search configuration shared by every worker engine.
    jobs:
        Worker count. ``1`` (the default) runs in-process; ``N > 1`` fans
        flat batches out over ``N`` worker processes under
        ``backend="process"``.
    deadline:
        Per-edge wall-clock deadline in seconds (overrides
        ``config.deadline_seconds`` when given).
    backend:
        ``"thread"`` (the default) runs every job in-process on one
        engine, whatever ``jobs`` says; ``"process"`` re-builds one engine
        per worker process from a pickled analysis for flat batches, and
        runs path batches in-process. When the analysis does not pickle,
        or the pool cannot start, the process backend runs in-process
        too.
    on_event:
        Optional event sink (see :mod:`repro.engine.events`). It is called
        under a lock, so concurrent batches (serve's readers) emit one
        totally-ordered stream.
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
        self._on_event = on_event
        self._event_lock = threading.Lock()
        #: The serial engine: runs every in-process job. Its construction
        #: also (re)binds the process-wide persistent verdict store to
        #: ``config.cache_dir``.
        self.engine = Engine(pta, config)
        #: Held for each search on :attr:`engine`, which keeps its search
        #: state (budget, ceiling, query history, journal) on itself:
        #: concurrent callers (serve's readers) take turns.
        self._search_lock = threading.Lock()
        self._lock = threading.Lock()
        self._records: dict = {}  # job key -> EdgeResult, insertion-ordered
        #: The verdict cache: job key -> final EdgeResult, for edges and
        #: facts alike, whether searched here or on the pool, or seeded.
        self._verdicts: dict = {}
        #: Driver-lifetime count of jobs answered from the verdict cache
        #: (seeded or earlier-run verdicts). The serve session diffs this
        #: across a request to report ``verdicts_reused``.
        self.cache_hits = 0
        self._wall_seconds = 0.0
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Set once a pool has run a job: the backend the report names.
        self._pooled = False
        #: Scheduling state (repro.engine.schedule): the lazily-built cost
        #: model for dispatch order and per-rung portfolio stats.
        self._cost: Optional[CostModel] = None
        self._rungs: dict[int, dict] = {}
        #: The active tracer and its phase totals now: the report's
        #: ``phase_seconds`` are the spans recorded since.
        self._tracer = trace.get_tracer()
        self._phase_base = (
            self._tracer.phase_totals() if self._tracer is not None else None
        )
        #: The workers that actually run: one, until a pool starts.
        metrics.gauge("driver.workers").set(1)

    # ------------------------------------------------------------------
    # Backend / pool management
    # ------------------------------------------------------------------

    def _resolve_backend(self, backend: Optional[str]) -> str:
        if self.jobs == 1 or backend is None or backend == THREAD:
            return SERIAL
        if backend != PROCESS:
            raise ValueError(f"unknown backend {backend!r}")
        return PROCESS

    def _get_pool(self) -> Optional[ProcessPoolExecutor]:
        """The process pool, started on first use; ``None`` in-process.
        A pool that cannot start switches the driver to in-process."""
        if self._pool is None and self.backend == PROCESS:
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
                # workers; run in-process rather than failing the run.
                self.backend = SERIAL
            else:
                metrics.gauge("driver.workers").set(self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and flush the verdict store
        (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if perf_store.ACTIVE is not None:
            perf_store.ACTIVE.flush()

    def __enter__(self) -> "RefutationDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------

    def _emit(self, event: object) -> None:
        if self._on_event is not None:
            with self._event_lock:
                self._on_event(event)

    @contextmanager
    def _timed_batch(self, total: int, kind: str, path: bool):
        """One batch of refutation jobs: RunStarted/RunFinished bracketing,
        wall-clock accounting, and the batch's root span. A ``path`` batch
        runs inline, so it names the serial backend on one worker.

        Yields the list the caller must append each job's
        :class:`EdgeResult` to; RunFinished aggregates are computed from
        it on exit.
        """
        backend = SERIAL if path else self.backend
        self._emit(
            RunStarted(
                total_jobs=total,
                jobs=1 if path else self.jobs,
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
        self._emit(
            RunFinished(
                refuted=sum(1 for r in outcomes if r.refuted),
                witnessed=sum(1 for r in outcomes if r.witnessed),
                timeouts=sum(1 for r in outcomes if r.timed_out),
                seconds=elapsed,
            )
        )

    # ------------------------------------------------------------------
    # Scheduling (repro.engine.schedule)
    # ------------------------------------------------------------------

    def _cost_model(self) -> CostModel:
        if self._cost is None:
            self._cost = CostModel(self.pta)
        return self._cost

    def _by_cost(self, jobs: list[Job]) -> list[Job]:
        """Cheapest-first dispatch order, with the description as
        tiebreak."""
        if len(jobs) < 2:
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
        return {
            "portfolio": self.config.portfolio,
            "rungs": rungs,
            "resolved_at_rung": {
                str(r["rung"]): r["resolved"] for r in rungs
            },
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
        """Refute a batch of edges.

        Duplicate and already-refuted edges are served from the verdict
        cache; the rest run on the process pool, or inline in-process.
        Returns every requested edge's result keyed by its edge key.
        """
        return self._run_batch(list(map(Job.of_edge, edges)), "edges")

    def refute_path(
        self, path: Sequence[HeapEdge]
    ) -> list[tuple[HeapEdge, EdgeResult]]:
        """Refute the edges of one heap path, inline on the driver's
        engine whatever the backend.

        The path is walked in order and the walk stops at the first
        refuted edge — exactly the sequential Section 2 loop, so runs are
        bit-identical to the seed. Returns ``(edge, result)`` pairs for
        the edges actually examined, in path order.

        Under ``config.portfolio`` the path runs the cheap-first rung
        ladder *across* its edges: a path's verdict needs only one
        refuted edge, so every edge tries the small budget rung first
        and escalation stops as soon as any edge refutes — an expensive
        edge is never run at full budget when a cheap path-mate already
        broke the path. Within a rung, no edge spends more path programs
        than the cheapest path-mate that refuted at that rung (the rung
        ceiling, see :meth:`_run_ladder`). Edges left unresolved when the
        path breaks are returned with their provisional TIMEOUT results
        and are neither cached nor recorded (a later path can still
        resolve them).
        """
        jobs = [Job.of_edge(edge) for edge in dict.fromkeys(path)]
        results = self._run_batch(jobs, "path", path=True)
        return [(job.edge, results[job.key]) for job in jobs if job.key in results]

    def refute_facts(self, requests: Sequence[FactJob]) -> list[EdgeResult]:
        """Run a batch of :meth:`Engine.refute_fact_at` queries.

        ``requests`` is a sequence of ``(label, bindings, description)``
        triples; results come back in request order regardless of the
        dispatch order (cheapest first) or completion order on the pool.
        Repeated and already-answered requests are served from the
        verdict cache, exactly like edges.
        """
        jobs = [
            Job(fact_key(request), request[2], label=request[0], bindings=request[1])
            for request in requests
        ]
        results = self._run_batch(jobs, "facts")
        return [results[job.key] for job in jobs]

    # ------------------------------------------------------------------
    # The one job path: batch -> ladder -> rung runner -> finish
    # ------------------------------------------------------------------

    def _run_batch(self, jobs: list[Job], kind: str, path: bool = False) -> dict:
        """Run one batch of jobs, each distinct key once; results keyed by
        job key.

        Jobs answered from the verdict cache finish first; the rest
        climb the rung ladder, cheapest first. A ``path`` batch runs
        inline and ends once any result refutes; jobs left unresolved then
        keep their provisional TIMEOUT results. Without portfolio it takes
        the jobs one at a time in order (the Section 2 path walk)."""
        walk = path and not self.config.portfolio
        jobs = list({job.key: job for job in jobs}.values())
        total = len(jobs)
        results: dict = {}
        with self._timed_batch(total, kind, path) as outcomes:
            for group in [[job] for job in jobs] if walk else [jobs]:
                if path and any(r.refuted for r in results.values()):
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
                self._run_ladder(self._by_cost(todo), results, total, path)
            outcomes.extend(results.values())
        return results

    def _run_ladder(
        self,
        jobs: list[Job],
        results: dict,
        total: int,
        path: bool = False,
        emit: bool = True,
    ) -> None:
        """Run ``jobs`` to their final results, filling ``results``.

        Under ``config.portfolio`` the jobs climb the cheap-first rung
        ladder: each rung re-runs only the previous rung's TIMEOUT
        survivors, warm (the solver memos persist across rungs). The final
        rung is the full configured budget/deadline, so every job ends with
        exactly the verdict the fixed schedule would produce; only final
        verdicts are finished (with the rung that resolved them), never
        provisional carryover timeouts. A plain run is the single
        full-budget rung, without rung bookkeeping. A ``path`` batch runs
        inline and ends the climb once any result — cached ones included —
        refutes.

        A portfolio path batch runs each rung under one
        :class:`RungCeiling`. Let p* be the fewest path programs any job
        refuted in at this rung: no job may spend more than p*. The runner
        cuts a search live once it passes the ceiling settled so far.
        Results are held until the rung ends and then committed in settle
        order; every result above p* becomes a provisional TIMEOUT and is
        carried over, whether it was cut or finished before p* was known.
        Records, verdicts and the ``schedule`` section therefore depend
        only on each job's (status, path programs), never on timing."""
        portfolio = self.config.portfolio
        ladder = rung_ladder(self.config) if portfolio else [(None, None)]
        last = len(ladder) - 1
        broken = path and any(r.refuted for r in results.values())
        done = len(results)
        pending = jobs
        for rung, (budget, deadline) in enumerate(ladder):
            if broken or not pending:
                break
            stats = self._rung_entry(rung, budget, deadline) if portfolio else None
            ceiling = RungCeiling() if portfolio and path else None
            carried: set = set()
            held: list = []

            def commit(job: Job, result: EdgeResult, worker: str) -> None:
                nonlocal broken, done
                if stats is not None:
                    stats["scheduled"] += 1
                    metrics.counter(f"driver.rung.scheduled.{rung}").inc()
                    cut = ceiling is not None and not ceiling.admits(result)
                    if cut and not result.timed_out:
                        result = replace(result, status=TIMEOUT, witness_trace=None)
                    if cut or (result.timed_out and rung < last):
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
                broken = broken or (path and result.refuted)

            def settle(job: Job, result: EdgeResult, worker: str) -> None:
                if ceiling is None:
                    commit(job, result, worker)
                    return
                if result.refuted:
                    ceiling.lower(result.path_programs)
                held.append((job, result, worker))

            self._run_rung(pending, budget, deadline, total, settle, ceiling, path)
            for job, result, worker in held:
                commit(job, result, worker)
            pending = [job for job in pending if job.key in carried]

    def _carry_over(
        self, stats: dict, job: Job, ladder: list, rung: int
    ) -> None:
        """One job ended its rung provisional and carries over: count it,
        and when a later rung exists, emit the escalation event. (At the
        final rung only a ceiling cut carries over, and its path is
        already broken.)"""
        stats["carryover"] += 1
        metrics.counter(f"driver.rung.carryover.{rung}").inc()
        if rung + 1 == len(ladder):
            return
        next_budget, next_deadline = ladder[rung + 1]
        self._emit(
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
        ceiling: Optional[RungCeiling] = None,
        path: bool = False,
    ) -> None:
        """Run every job once at ``budget``/``deadline`` and hand each
        result to ``settle``: inline on the serial engine (under
        ``ceiling``, read live) for a ``path`` batch, a single job or
        in-process, else on the process pool in completion order.

        A pool whose process worker dies breaks for every job still in
        flight: those jobs settle as :data:`LOST` TIMEOUTs (never
        REFUTED), and the pool is dropped so the next rung or batch gets
        a fresh one."""
        pool = None if path or len(jobs) < 2 else self._get_pool()
        if pool is None:
            for job in jobs:
                result = self._run_job(job, budget, deadline, ceiling)
                settle(job, result, SERIAL)
            return
        self._pooled = True
        futures = {}
        for slot, job in enumerate(jobs):
            self._emit(
                EdgeScheduled(description=job.description, index=slot, total=total)
            )
            try:
                fut = pool.submit(_process_run, job, budget, deadline)
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
                result, worker = self._absorb(fut.result())
            except BrokenExecutor:
                lost = True
                result = EdgeResult(
                    job.edge, TIMEOUT, description=job.description, kind=job.kind
                )
                worker = LOST
            settle(job, result, worker)
        if lost:
            pool.shutdown(wait=True)
            self._pool = None

    def _run_job(
        self,
        job: Job,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
        ceiling: Optional[RungCeiling] = None,
    ) -> EdgeResult:
        """One in-process search, taking its turn on the serial engine."""
        with self._search_lock:
            return job.run(self.engine, budget, deadline, ceiling)

    # ------------------------------------------------------------------
    # Results, records, reports
    # ------------------------------------------------------------------

    def _absorb(self, payload: tuple) -> tuple[EdgeResult, str]:
        """Merge a process worker's payload (see :func:`_process_run`)
        once, on arrival: the metrics, spans and search journals it
        gathered since its last job join this process's registry, tracer
        and run journal. Returns the job's result and worker name."""
        result, worker, obs = payload
        metrics.REGISTRY.merge_snapshot(obs["metrics"])
        spans = obs.get("spans")
        if spans and self._tracer is not None:
            self._tracer.absorb(spans, obs["pid"], obs["wall_epoch"])
        journals = obs.get("journals")
        if journals:
            book = provenance.get_journal()
            if book is not None:
                book.absorb(journals)
        return result, worker

    def _hit(self, job: Job) -> Optional[EdgeResult]:
        """The verdict cache's answer for ``job``, counted as a cache hit;
        ``None`` for a miss."""
        with self._lock:
            cached = self._verdicts.get(job.key)
            if cached is not None:
                self.cache_hits += 1
                _CACHE_HITS.inc()
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

        A fresh result takes its ``worker``, joins the verdict cache (unless
        its worker was lost) and is the job's run record. With an ``index``
        the result is announced as ``EdgeFinished``. ``cached`` results
        were finished when first computed."""
        if not cached:
            result.worker = worker
            with self._lock:
                if worker != LOST:
                    self._verdicts.setdefault(job.key, result)
                previous = self._records.get(job.key)
                if previous is None or previous.worker == LOST:
                    self._records[job.key] = result
        if index is not None:
            self._emit(
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

    def results(self) -> dict:
        """Every final outcome so far, edges and facts, keyed by job key."""
        with self._lock:
            return dict(self._verdicts)

    def seed_results(self, results: dict) -> None:
        """Pre-populate the verdict cache with verdicts carried over from
        an earlier run (the serve session's surviving verdict table),
        keyed by job key. Seeded jobs are answered as cache hits without
        re-searching; existing entries are never overwritten."""
        with self._lock:
            for key, result in results.items():
                self._verdicts.setdefault(key, result)

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

        The ``cache`` section reads this process's registry, which holds
        every process worker's counters as soon as its job's payload
        arrives. Records are sorted by a stable job token (kind, then
        description) so reports are byte-stable across ``--jobs``, backend
        and dispatch order."""
        cache = perf.cache_report()
        cache["memoize_solver"] = self.config.memoize_solver
        cache["state_subsumption"] = self.config.state_subsumption
        schedule = self._schedule_section()
        with self._lock:
            return RunReport(
                app=app,
                command=command,
                jobs=self.jobs,
                backend=PROCESS if self._pooled else SERIAL,
                deadline=self.config.deadline_seconds,
                path_budget=self.config.path_budget,
                wall_seconds=self._wall_seconds,
                records=sorted(
                    list(self._records.values())[since:],
                    key=lambda r: (r.kind, r.description),
                ),
                phase_seconds=(
                    self._tracer.phase_totals(since=self._phase_base)
                    if self._tracer is not None
                    else {}
                ),
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
    # A forked worker inherits the parent's registry values; drop them so
    # each payload carries only this worker's own increments — the parent
    # merge would otherwise re-add its own pre-fork counts once per worker.
    metrics.REGISTRY.drain()
    # Mirror the parent's observability setup so worker spans and search
    # journals exist to be drained back after each job.
    if trace_on:
        trace.install()
    if journal_on:
        provenance.install()


def _process_run(
    job: Job, budget: Optional[int], deadline: Optional[float]
) -> tuple[EdgeResult, str, dict]:
    """Run one job on this worker's engine. Returns the result, the worker
    name and one payload of what this worker gathered since its last job:
    its metrics-registry counters and histograms, and its span records and
    search journals when those subsystems are on."""
    assert _PROCESS_ENGINE is not None
    result = job.run(_PROCESS_ENGINE, budget, deadline)
    obs: dict = {"metrics": metrics.REGISTRY.drain(), "pid": os.getpid()}
    tracer = trace.get_tracer()
    if tracer is not None:
        obs["spans"] = [r.to_dict() for r in tracer.drain()]
        obs["wall_epoch"] = tracer.wall_epoch
    book = provenance.get_journal()
    if book is not None:
        obs["journals"] = book.drain()
    return result, f"process-{os.getpid()}", obs
