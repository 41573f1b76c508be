"""Bookkeeping for the witness-refutation search: per-edge outcomes and
aggregate effort counters (the raw material of Table 1's Effort columns)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..pointsto.graph import HeapEdge

REFUTED = "refuted"
WITNESSED = "witnessed"
TIMEOUT = "timeout"


@dataclass
class EdgeResult:
    """Outcome of trying to refute one points-to edge."""

    edge: HeapEdge
    status: str  # refuted | witnessed | timeout
    path_programs: int = 0
    seconds: float = 0.0
    refutation_kinds: dict[str, int] = field(default_factory=dict)
    #: For witnessed edges: labels of the witnessing path program, in
    #: forward execution order (the paper's triaging aid).
    witness_trace: Optional[list[int]] = None
    #: Typed kill-reason counts from the search journal (empty unless a
    #: provenance journal was attached for the run).
    kill_reasons: dict[str, int] = field(default_factory=dict)
    #: Methods the search visited or whose mod/ref summaries it consulted
    #: (``SearchConfig.record_footprints``); the verdict can only change if
    #: one of these methods — or a summary they depend on — changes.
    footprint: Optional[frozenset] = None
    #: Portfolio rung that resolved this job (0 = first/only rung). Set by
    #: the driver; always 0 outside ``SearchConfig.portfolio`` runs.
    rung: int = 0

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def witnessed(self) -> bool:
        return self.status == WITNESSED

    @property
    def timed_out(self) -> bool:
        return self.status == TIMEOUT


@dataclass
class SearchStats:
    """Aggregate counters over one run of the refuter."""

    edges_refuted: int = 0
    edges_witnessed: int = 0
    edges_timeout: int = 0
    path_programs: int = 0
    seconds: float = 0.0
    #: Run-wide prune attribution: kill reason -> dead branches, summed
    #: over every recorded edge result.
    kill_reasons: dict[str, int] = field(default_factory=dict)

    def record(self, result: EdgeResult) -> None:
        if result.refuted:
            self.edges_refuted += 1
        elif result.witnessed:
            self.edges_witnessed += 1
        else:
            self.edges_timeout += 1
        self.path_programs += result.path_programs
        self.seconds += result.seconds
        for reason, n in result.kill_reasons.items():
            self.kill_reasons[reason] = self.kill_reasons.get(reason, 0) + n
