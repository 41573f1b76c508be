"""Configuration of the witness-refutation search.

The defaults mirror the paper's experimental setup (Section 4):

* an exploration budget of path programs per edge (the paper used 10,000);
* callees skipped soundly beyond call-stack depth 3 via mod/ref dropping;
* the path-constraint set limited to at most two constraints;
* a materialization bound of one instance per abstract location during
  loop-invariant inference.

``Representation`` selects between the three state representations that the
paper compares (Table 2 and the Section 4 ablations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Representation(enum.Enum):
    #: The paper's contribution: symbolic variables carry ``from`` instance
    #: constraints (points-to regions), narrowed as values flow backwards.
    MIXED = "mixed"
    #: PSE-style: points-to facts are used only for alias checks at field
    #: writes and allocation-site checks at ``new``; no region narrowing.
    FULLY_SYMBOLIC = "fully-symbolic"
    #: Symbolic variables are case-split over their points-to sets so every
    #: instance names a single abstract location.
    FULLY_EXPLICIT = "fully-explicit"


class LoopInference(enum.Enum):
    #: Fixpoint over points-to constraints, dropping only the pure
    #: constraints the loop may modify (Section 3.3).
    FULL = "full"
    #: The ablation baseline: drop *every* possibly-affected constraint at
    #: any loop.
    DROP_ALL = "drop-all"


@dataclass
class SearchConfig:
    representation: Representation = Representation.MIXED
    #: Path-program budget per edge; exceeded => timeout (edge not refuted).
    path_budget: int = 10_000
    #: Per-edge wall-clock deadline in seconds; exceeded => timeout (edge
    #: not refuted), exactly like the path-program budget. ``None`` disables
    #: the deadline (the budget alone bounds the search). The paper's
    #: evaluation used a per-edge timeout in just this role.
    deadline_seconds: Optional[float] = None
    #: Callees beyond this symbolic call-stack depth are skipped soundly.
    max_call_depth: int = 3
    #: Maximum number of path (guard) constraints kept in a query.
    max_path_constraints: int = 2
    #: Loop-invariant inference materialization bound per abstract location.
    materialization_bound: int = 1
    #: Maximum body passes per loop saturation before aggressive weakening.
    max_loop_passes: int = 10
    #: Query-history subsumption at loop heads and procedure boundaries.
    simplify_queries: bool = True
    #: Memoize per-component solver verdicts on canonical constraint
    #: signatures (CLI ``--no-memo`` disables). Process-wide: the engine
    #: applies it to :data:`repro.perf.SOLVER_MEMO` at construction.
    memoize_solver: bool = True
    #: Cross-search refuted-state cache + entailment-based worklist
    #: subsumption (CLI ``--no-subsumption`` disables).
    state_subsumption: bool = True
    loop_inference: LoopInference = LoopInference.FULL
    #: Upper bound on disjuncts produced by one array-write case split
    #: before falling back to dropping disaliasing constraints.
    max_array_case_splits: int = 2
    #: Record, per search, the set of methods the search visited or whose
    #: mod/ref summaries it consulted (``EdgeResult.footprint``). The serve
    #: session uses footprints to invalidate only the verdicts an edit can
    #: touch; off by default because one-shot runs never read them.
    record_footprints: bool = False
    #: Worklist discipline inside one search: ``"lifo"`` (the paper's DFS,
    #: the default) or ``"priority"`` (cheapest-state-first best-first
    #: search keyed on constraint count + symbolic-memory size; see
    #: :func:`repro.engine.schedule.state_cost`). The driver also sorts
    #: job *batches* cheapest-first under ``"priority"``. Verdicts are
    #: schedule-independent on budget-ample runs; witness traces and
    #: near-budget timeout boundaries may differ.
    schedule: str = "lifo"
    #: Cheap-first portfolio (CLI ``--portfolio``): run every job at a
    #: small budget/deadline rung first and re-run only the survivors at
    #: escalating rungs, re-using the refuted-state cache and solver
    #: memos across rungs. The final rung always runs at the full
    #: configured budget/deadline, so verdicts are bit-identical to the
    #: fixed-schedule run.
    portfolio: bool = False
    #: Budget/deadline divisors for the portfolio rungs, cheapest first
    #: (``path_budget // d``); divisors <= 1 are ignored and a final
    #: full-budget rung is always appended. See
    #: :func:`repro.engine.schedule.rung_ladder`.
    portfolio_rungs: tuple = (16, 4)

    #: Persistent cross-run verdict store directory (CLI ``--cache-dir``,
    #: env ``REPRO_CACHE_DIR``): solver verdicts and refuted states are
    #: read from and written back to ``<dir>/verdicts.sqlite``, shared
    #: across runs, process-pool workers, and ``repro serve`` restarts.
    #: ``None`` (the default) disables persistence entirely.
    cache_dir: Optional[str] = None

    #: Slow-query threshold in milliseconds (CLI ``--slow-query-ms``):
    #: any search whose wall clock exceeds it has its journal captured by
    #: the always-on flight recorder (:mod:`repro.obs.telemetry`), so
    #: ``repro explain --slow`` works without ``--journal``. ``None``
    #: disables capture; the ring-buffer summaries are recorded regardless.
    slow_query_ms: Optional[float] = 2000.0

    def copy(self, **overrides) -> "SearchConfig":
        from dataclasses import replace

        return replace(self, **overrides)
