"""Adaptive search scheduling: cost-model priorities and cheap-first
portfolio budgets.

Thresher's practicality rests on refuting the easy alarms fast so the
expensive backwards searches don't dominate wall clock (the paper's own
filter-then-refute pipeline is the same shape at the alarm level). This
module holds the pieces the driver and executor share:

* :class:`CostModel` — a static, cheap estimate of how expensive one
  refutation job (edge or fact) will be, computed from the solved
  analysis only: producer count, per-method branchiness (``Choice``
  forks are an exponential proxy, ``Loop``s pay invariant inference),
  caller fan-in (backwards call exploration), and points-to fan-in of
  the edge's source region (aliasing case splits). The driver sorts
  batches cheapest-first under ``SearchConfig.schedule == "priority"``;
  :func:`state_cost` is the per-path-state analogue the executor's
  priority worklist uses.
* :func:`rung_ladder` — the cheap-first portfolio schedule: every edge
  runs at a small budget/deadline rung first and only survivors re-run
  at escalating rungs (``SearchConfig.portfolio``), re-using the
  refuted-state cache and solver memos across rungs so re-runs are warm.
* :class:`InversionMeter` — how often a pool batch under priority
  scheduling completed a job while a cheaper one was still pending.

Nothing here decides verdicts: priorities and rungs only reorder and
stage the same deterministic searches, and the final portfolio rung
always runs at the full configured budget/deadline, so verdicts are
bit-identical to the fixed-schedule run.
"""

from __future__ import annotations

from typing import Optional

from ..ir.stmts import Choice, Loop, walk_statements
from ..obs import metrics
from ..symbolic.config import SearchConfig

_INVERSIONS = metrics.counter("driver.priority_inversions")

#: ``SearchConfig.schedule`` values.
LIFO = "lifo"
PRIORITY = "priority"


def state_cost(state) -> int:
    """Cheap priority key for one path state: smaller = explored first.

    Constraint count plus symbolic-memory size — the two features that
    track how much solver work and how many materialization case splits
    a state can still generate. Deliberately O(constraints): the
    priority worklist pays this on every push.
    """
    q = state.query
    return len(q.pure) + q.memory_size()


class CostModel:
    """Static cost scores for refutation jobs, from the solved analysis.

    Scores are effort *estimates* in arbitrary units — only their order
    matters. Per-method scores are cached; scoring a batch of edges is
    O(batch + touched methods).
    """

    #: Cap on the exponential ``Choice`` proxy (2^choices) so one huge
    #: method cannot flatten the rest of the ordering into ties.
    CHOICE_CAP = 12

    def __init__(self, pta) -> None:
        self.pta = pta
        self.program = pta.program
        self._method_cost: dict[str, int] = {}

    def method_cost(self, qname: str) -> int:
        """Search effort expected inside one method: exponential in its
        nondeterministic forks, linear in its loops (invariant inference
        passes) and its caller fan-in (backwards call exploration)."""
        cached = self._method_cost.get(qname)
        if cached is not None:
            return cached
        method = self.program.methods.get(qname)
        if method is None:
            cost = 1
        else:
            choices = 0
            loops = 0
            for stmt in walk_statements(method.body):
                if isinstance(stmt, Choice):
                    choices += 1
                elif isinstance(stmt, Loop):
                    loops += 1
            cost = (1 << min(choices, self.CHOICE_CAP)) + 16 * loops
            cost += len(self.pta.callers_of(qname))
        self._method_cost[qname] = cost
        return cost

    def edge_cost(self, edge) -> int:
        """Expected effort to refute one points-to edge: one search per
        producer, each weighted by its method's cost, plus the points-to
        fan-in of the edge's source region (alias case splits)."""
        producers = self.pta.producers_of(edge)
        cost = 1 + len(producers)
        for label in producers:
            qname = self.program.command_method.get(label)
            if qname is not None:
                cost += self.method_cost(qname)
        cost += self._fan_in(edge)
        return cost

    def fact_cost(self, label: int, bindings) -> int:
        """Expected effort for one :meth:`Engine.refute_fact_at` query:
        the containing method's cost plus the sizes of the bound
        points-to regions (larger regions = more instances to disalias)."""
        qname = self.program.command_method.get(label)
        cost = 1 if qname is None else 1 + self.method_cost(qname)
        for _var, region in bindings:
            cost += len(region) if region is not None else 1
        return cost

    def _fan_in(self, edge) -> int:
        from ..pointsto.graph import StaticFieldNode

        try:
            if isinstance(edge.src, StaticFieldNode):
                region = self.pta.pt_static(
                    edge.src.class_name, edge.src.field_name
                )
            else:
                region = self.pta.pt_field(edge.src, edge.field)
        except Exception:
            return 0
        return len(region)


def rung_ladder(
    config: SearchConfig,
) -> list[tuple[Optional[int], Optional[float]]]:
    """The portfolio's ``(budget, deadline)`` rungs, cheapest first.

    Each divisor in ``config.portfolio_rungs`` yields a rung at
    ``path_budget // divisor`` (and ``deadline_seconds / divisor`` when a
    deadline is set); divisors ``<= 1`` are skipped. A final
    ``(None, None)`` rung — the full configured budget and deadline — is
    always appended, which is what makes portfolio verdicts bit-identical
    to the fixed-schedule run: any edge still unresolved gets exactly the
    search the fixed configuration would have run, warmed by the caches
    the earlier rungs populated.
    """
    ladder: list[tuple[Optional[int], Optional[float]]] = []
    for divisor in config.portfolio_rungs:
        if divisor <= 1:
            continue
        budget = max(1, config.path_budget // divisor)
        deadline = (
            config.deadline_seconds / divisor
            if config.deadline_seconds is not None
            else None
        )
        ladder.append((budget, deadline))
    ladder.append((None, None))
    return ladder


class InversionMeter:
    """Counts priority inversions in one dispatch batch: completions of
    a job while a strictly cheaper job is still unfinished — the
    head-of-line blocking the priority order exists to avoid. Inherent
    under parallelism (a cheap job can start last), so this is a report
    statistic, not an assertion."""

    def __init__(self, costs: dict) -> None:
        self._pending = dict(costs)
        self.inversions = 0

    def complete(self, key) -> None:
        cost = self._pending.pop(key, None)
        if cost is None or not self._pending:
            return
        if min(self._pending.values()) < cost:
            self.inversions += 1
            _INVERSIONS.inc()


__all__ = [
    "LIFO",
    "PRIORITY",
    "CostModel",
    "InversionMeter",
    "rung_ladder",
    "state_cost",
]
