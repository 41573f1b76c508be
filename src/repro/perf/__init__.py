"""Cross-cutting memoization layer.

Thresher's value proposition is pruning infeasible paths early; this
package makes the pruning itself cheap by never paying for the same work
twice:

* :mod:`repro.perf.memo` — the LRU-bounded per-component verdict table
  in front of the decision procedure: ``check_sat`` splits each query
  into variable-connected constraint fragments
  (:mod:`repro.solver.partition`), caches verdicts per fragment on its
  canonical signature, and re-decides only the fragments changed since
  its lineage's last SAT check;
* :mod:`repro.perf.store` — the persistent cross-run verdict store that
  backs the memo's tiers on disk (``--cache-dir``).

Every layer reports hit/miss counters into :mod:`repro.obs.metrics`
(``--metrics``) and the aggregate :func:`cache_report` is rolled into the
driver's JSON run report, next to the search's own worklist-subsumption
counters. The memo is toggleable (``--no-memo`` /
``SearchConfig.memoize_solver``) so ablation benchmarks can quantify it.
"""

from __future__ import annotations

from ..obs import metrics
from .memo import SOLVER_MEMO, LRUCache, SolverMemo

#: Counters that describe cache behavior: the run report's ``cache``
#: section (process-pool workers' tallies join the registry as each job's
#: payload arrives).
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


def refresh_memo_gauges() -> None:
    """Publish the memo-table sizes as gauges (the hot paths keep plain
    dicts; this is the flush point)."""
    sizes = SOLVER_MEMO.sizes()
    metrics.gauge("solver.memo_component_size").set(sizes["component"])
    metrics.gauge("solver.memo_capacity").set(sizes["capacity"])


def cache_stats_snapshot() -> dict:
    """This process's cumulative cache counters, as a plain dict."""
    refresh_memo_gauges()
    out: dict = {}
    for name in CACHE_METRIC_NAMES:
        instrument = metrics.REGISTRY.get(name)
        out[name] = instrument.value if instrument is not None else 0
    return out


def _rate(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def cache_report() -> dict:
    """The run report's ``cache`` section: this process's counters, the
    answers per solver tier, and the verdict store's slice."""
    merged = cache_stats_snapshot()
    return {
        "counters": merged,
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
    """The persistent verdict store's slice of the run report:
    hit/miss/write/evict counters, plus the open store's durable identity
    when one is active."""
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
    "CACHE_METRIC_NAMES",
    "cache_stats_snapshot",
    "cache_report",
    "refresh_memo_gauges",
]
