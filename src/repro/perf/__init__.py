"""Cross-cutting memoization & subsumption layer.

Thresher's value proposition is pruning infeasible paths early; this
package makes the pruning itself cheap by never paying for the same work
twice:

* :mod:`repro.perf.memo` — the LRU-bounded per-component verdict table
  in front of the decision procedure: ``check_sat`` splits each query
  into variable-connected constraint fragments
  (:mod:`repro.solver.partition`), caches verdicts per fragment on its
  canonical signature, and re-decides only the fragments changed since
  its lineage's last SAT check;
* :mod:`repro.perf.cache` — a lock-striped **refuted-state cache** shared
  across refutation jobs: once a whole search completes REFUTED, every
  query it recorded at loop heads and procedure boundaries is a proven
  dead end, and any later state that entails one of them can be dropped
  before expansion — across branches, loop iterations, edges, and
  concurrent driver jobs.

Every layer reports hit/miss counters into :mod:`repro.obs.metrics`
(``--metrics``) and the aggregate :func:`cache_report` is rolled into the
driver's JSON run report. Every layer is toggleable (``--no-memo``,
``--no-subsumption`` / ``SearchConfig.memoize_solver`` /
``SearchConfig.state_subsumption``) so ablation benchmarks can quantify
each one.
"""

from __future__ import annotations

from ..obs import metrics
from .cache import RefutedStateCache
from .memo import SOLVER_MEMO, LRUCache, SolverMemo

#: Counters that describe cache behavior; snapshotted per process so the
#: driver can merge process-pool workers' tallies into one report.
CACHE_METRIC_NAMES = (
    "solver.checks",
    "solver.unsat",
    "solver.memo_hits",
    "solver.memo_misses",
    "solver.partitions",
    "solver.context_hits",
    "solver.component_memo_hits",
    "solver.component_memo_misses",
    "solver.fastpath_unsat",
    "executor.refuted_cache_hits",
    "executor.refuted_cache_misses",
    "executor.worklist_subsumed",
    "executor.entails_calls",
    "executor.states_explored",
    "pointsto.noop_pops_skipped",
    "pointsto.delta_propagated",
    # Persistent verdict store (repro.perf.store): disk-backed tiers.
    "store.hits",
    "store.misses",
    "store.writes",
    "store.evictions",
    "store.errors",
)


def refresh_intern_gauges() -> None:
    """Publish the solver-term intern-table tallies and the memo-table
    sizes as gauges (the hot paths keep plain ints/dicts; this is the
    flush point)."""
    from ..solver import terms

    stats = terms.intern_stats()
    metrics.gauge("solver.intern_hits").set(stats["hits"])
    metrics.gauge("solver.intern_misses").set(stats["misses"])
    metrics.gauge("solver.intern_size").set(stats["size"])
    sizes = SOLVER_MEMO.sizes()
    metrics.gauge("solver.memo_component_size").set(sizes["component"])
    metrics.gauge("solver.memo_capacity").set(sizes["capacity"])


def cache_stats_snapshot() -> dict:
    """This process's cumulative cache counters, as a plain dict (cheap to
    pickle back from process-pool workers)."""
    refresh_intern_gauges()
    out: dict = {}
    for name in CACHE_METRIC_NAMES:
        instrument = metrics.REGISTRY.get(name)
        out[name] = instrument.value if instrument is not None else 0
    for name in ("solver.intern_hits", "solver.intern_misses", "solver.intern_size"):
        instrument = metrics.REGISTRY.get(name)
        out[name] = instrument.value if instrument is not None else 0
    return out


def _rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def cache_report(extra_snapshots: list | None = None) -> dict:
    """The run report's ``cache`` section: this process's counters merged
    with any process-pool workers' snapshots, with per-cache hit rates."""
    merged = cache_stats_snapshot()
    for snap in extra_snapshots or []:
        for name, value in snap.items():
            merged[name] = merged.get(name, 0) + value
    return {
        "counters": merged,
        # Whole queries the SAT basis answered; the name is kept from the
        # whole-query memo it replaced.
        "solver_memo": {
            "hits": merged.get("solver.memo_hits", 0),
            "misses": merged.get("solver.memo_misses", 0),
            "hit_rate": _rate(
                merged.get("solver.memo_hits", 0),
                merged.get("solver.memo_misses", 0),
            ),
        },
        "refuted_states": {
            "hits": merged.get("executor.refuted_cache_hits", 0),
            "misses": merged.get("executor.refuted_cache_misses", 0),
            "hit_rate": _rate(
                merged.get("executor.refuted_cache_hits", 0),
                merged.get("executor.refuted_cache_misses", 0),
            ),
        },
        "component_memo": {
            "hits": merged.get("solver.component_memo_hits", 0),
            "misses": merged.get("solver.component_memo_misses", 0),
            "hit_rate": _rate(
                merged.get("solver.component_memo_hits", 0),
                merged.get("solver.component_memo_misses", 0),
            ),
        },
        "solver_context": {
            "hits": merged.get("solver.context_hits", 0),
            "partitioned_queries": merged.get("solver.partitions", 0),
            "fastpath_unsat": merged.get("solver.fastpath_unsat", 0),
        },
        "term_intern": {
            "hits": merged.get("solver.intern_hits", 0),
            "misses": merged.get("solver.intern_misses", 0),
            "hit_rate": _rate(
                merged.get("solver.intern_hits", 0),
                merged.get("solver.intern_misses", 0),
            ),
        },
        "worklist_subsumed": merged.get("executor.worklist_subsumed", 0),
        # Per-tier efficacy: how each answered-without-deciding tier
        # contributed, against the decisions that actually ran.
        "tiers": {
            "context_hits": merged.get("solver.context_hits", 0),
            "component_memo_hits": merged.get("solver.component_memo_hits", 0),
            "whole_query_memo_hits": merged.get("solver.memo_hits", 0),
            "store_hits": merged.get("store.hits", 0),
            "fastpath_unsat": merged.get("solver.fastpath_unsat", 0),
            "decisions": merged.get("solver.checks", 0),
        },
        "store": _store_section(merged),
    }


def _store_section(merged: dict) -> dict:
    """The persistent verdict store's slice of the run report: merged
    hit/miss/write/evict counters (this process + any workers), plus the
    open store's durable identity when one is active."""
    from . import store as _store

    section = {
        "enabled": _store.ACTIVE is not None,
        "hits": merged.get("store.hits", 0),
        "misses": merged.get("store.misses", 0),
        "writes": merged.get("store.writes", 0),
        "evictions": merged.get("store.evictions", 0),
        "errors": merged.get("store.errors", 0),
        "hit_rate": _rate(
            merged.get("store.hits", 0), merged.get("store.misses", 0)
        ),
    }
    if _store.ACTIVE is not None:
        durable = _store.ACTIVE.stats()
        section.update(
            path=durable["path"],
            fingerprint=durable["fingerprint"],
            entries=durable["entries"],
            refuted_entries=durable["refuted_entries"],
            bytes=durable["bytes"],
        )
    return section


__all__ = [
    "SOLVER_MEMO",
    "SolverMemo",
    "LRUCache",
    "RefutedStateCache",
    "CACHE_METRIC_NAMES",
    "cache_stats_snapshot",
    "cache_report",
    "refresh_intern_gauges",
]
