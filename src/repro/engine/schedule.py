"""Adaptive search scheduling: cost-ordered dispatch and cheap-first
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
  every batch cheapest-first; the serial Section 2 path walk takes its
  edges one at a time, in path order.
* :func:`rung_ladder` — the cheap-first portfolio schedule: every edge
  runs at a small budget/deadline rung first and only survivors re-run
  at escalating rungs (``SearchConfig.portfolio``), re-using the
  solver memos across rungs so re-runs are warm.
* :class:`RungCeiling` — the rung rule of a portfolio path batch: one
  refuted edge breaks the path, so no path-mate may spend more path
  programs at a rung than the cheapest edge that refuted there.

Nothing here decides verdicts: dispatch order and rungs only reorder and
stage the same deterministic searches, and the final portfolio rung
always runs at the full configured budget/deadline, so client verdicts
are identical to the fixed-schedule run. The ceiling only turns a
path-mate's search into a provisional TIMEOUT on a path that is already
broken; it never makes a search REFUTED.
"""

from __future__ import annotations

import math
from typing import Optional

from ..ir.stmts import Choice, Loop, walk_statements
from ..symbolic.config import SearchConfig


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

        if isinstance(edge.src, StaticFieldNode):
            region = self.pta.pt_static(edge.src.class_name, edge.src.field)
        else:
            region = self.pta.pt_field(edge.src, edge.field)
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


class RungCeiling:
    """The shared path-program ceiling of one rung of a portfolio path
    batch.

    One refuted edge breaks a heap path, so once a path-mate refutes
    after ``p`` path programs no job of the rung needs to spend more. The
    driver lowers :attr:`limit` to the smallest refuting ``p`` it has
    settled; :meth:`repro.symbolic.executor.Engine.refute_edge` cuts a
    search that spends past it (a provisional TIMEOUT, never cached).
    The in-process runner reads the limit live. At the end of the rung
    the driver commits only the results :meth:`admits`, so what is
    committed depends on each job's (status, path programs) alone, never
    on when the limit dropped or which backend ran the job."""

    __slots__ = ("limit",)

    def __init__(self) -> None:
        self.limit: float = math.inf

    def lower(self, path_programs: int) -> None:
        if path_programs < self.limit:
            self.limit = path_programs

    def admits(self, result) -> bool:
        return result.path_programs <= self.limit


__all__ = ["CostModel", "RungCeiling", "rung_ladder"]
