"""Bookkeeping for the witness-refutation search: per-job outcomes (the
raw material of Table 1's Effort columns). One :class:`EdgeResult` is also
the job's record in the run's :class:`~repro.engine.report.RunReport`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..pointsto.graph import HeapEdge

REFUTED = "refuted"
WITNESSED = "witnessed"
TIMEOUT = "timeout"


@dataclass
class EdgeResult:
    """Outcome of trying to refute one points-to edge (or fact)."""

    edge: Optional[HeapEdge]  # None for a fact job
    status: str  # refuted | witnessed | timeout
    path_programs: int = 0
    seconds: float = 0.0
    #: For witnessed edges: labels of the witnessing path program, in
    #: forward execution order (the paper's triaging aid).
    witness_trace: Optional[list[int]] = None
    #: The search's kills per typed reason (repro.obs.provenance's
    #: taxonomy), tallied on every run, journaled or not.
    kill_reasons: dict[str, int] = field(default_factory=dict)
    #: Methods the search visited or whose mod/ref summaries it consulted
    #: (``SearchConfig.record_footprints``); the verdict can only change if
    #: one of these methods — or a summary they depend on — changes.
    footprint: Optional[frozenset] = None
    #: Portfolio rung that resolved this job (0 = first/only rung). Set by
    #: the driver; always 0 outside ``SearchConfig.portfolio`` runs.
    rung: int = 0
    #: The job's name, e.g. ``"Vec.table -> activity0"`` or ``"cast@L12"``,
    #: and its kind (``"edge"`` | ``"fact"``). Set by the engine.
    description: str = ""
    kind: str = "edge"
    #: Where the search ran (``"serial"``, ``"process-<pid>"``). Set by the
    #: driver.
    worker: str = "serial"

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def witnessed(self) -> bool:
        return self.status == WITNESSED

    @property
    def timed_out(self) -> bool:
        return self.status == TIMEOUT

