"""Structured run reports: the JSON artifact of one refutation run.

A :class:`RunReport` records, for every edge (or fact) job the driver
executed, its verdict, effort, wall-clock time, refutation kinds, and the
worker that ran it, plus run-level metadata (worker count, backend,
deadline, total wall time). It round-trips through JSON
(``to_json``/``from_json``) so runs can be archived, diffed, and consumed
by dashboards — the machine-readable counterpart of the human tables in
:mod:`repro.reporting`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..symbolic.stats import REFUTED, TIMEOUT, WITNESSED, EdgeResult

SCHEMA_VERSION = 1


@dataclass
class EdgeRecord:
    """One refutation job's outcome, JSON-ready."""

    description: str  # e.g. "Vec.table -> activity0" or "cast@L12"
    status: str  # refuted | witnessed | timeout
    path_programs: int = 0
    seconds: float = 0.0
    refutation_kinds: dict = field(default_factory=dict)
    worker: str = "serial"
    kind: str = "edge"  # edge | fact
    witness_trace: Optional[list] = None
    #: Typed kill-reason counts from the search journal (empty unless a
    #: provenance journal was installed for the run).
    kill_reasons: dict = field(default_factory=dict)
    #: Portfolio rung that resolved this job (0 = first/only rung; always
    #: 0 outside ``--portfolio`` runs).
    rung: int = 0

    @classmethod
    def from_result(
        cls,
        result: EdgeResult,
        worker: str = "serial",
        description: Optional[str] = None,
        kind: str = "edge",
    ) -> "EdgeRecord":
        return cls(
            description=description
            if description is not None
            else (str(result.edge) if result.edge is not None else "<fact>"),
            status=result.status,
            path_programs=result.path_programs,
            seconds=result.seconds,
            refutation_kinds=dict(result.refutation_kinds),
            worker=worker,
            kind=kind,
            witness_trace=list(result.witness_trace)
            if result.witness_trace is not None
            else None,
            kill_reasons=dict(result.kill_reasons),
            rung=result.rung,
        )


@dataclass
class RunReport:
    """Everything one driver run produced, serializable to JSON."""

    app: str = ""
    command: str = ""  # which client produced the run (check, casts, ...)
    jobs: int = 1
    backend: str = "serial"
    deadline: Optional[float] = None
    path_budget: int = 0
    wall_seconds: float = 0.0
    records: list[EdgeRecord] = field(default_factory=list)
    #: Summed seconds per pipeline phase (span name -> total), populated
    #: from the span stream when tracing is enabled; empty otherwise.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Cache behavior for the run: per-cache hit/miss counts and rates
    #: (SAT basis, component memo, refuted-state cache, term interning)
    #: merged across process-pool workers, plus the active toggle values.
    #: See :func:`repro.perf.cache_report`.
    cache: dict = field(default_factory=dict)
    #: Scheduling behavior for the run: the active policy (``lifo`` /
    #: ``priority``), the portfolio toggle, per-rung resolution
    #: stats (``rungs``: scheduled/resolved/carryover and verdict counts
    #: per rung), ``resolved_at_rung`` rollup, and
    #: ``priority_inversions``. See :mod:`repro.engine.schedule`.
    schedule: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- aggregates -----------------------------------------------------------

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def edges_refuted(self) -> int:
        return self._count(REFUTED)

    @property
    def edges_witnessed(self) -> int:
        return self._count(WITNESSED)

    @property
    def edge_timeouts(self) -> int:
        return self._count(TIMEOUT)

    @property
    def path_programs(self) -> int:
        return sum(r.path_programs for r in self.records)

    @property
    def busy_seconds(self) -> float:
        """Summed per-edge time (> wall_seconds when workers overlap)."""
        return sum(r.seconds for r in self.records)

    def statuses(self) -> dict[str, str]:
        """Verdict per job description — the determinism-check payload."""
        return {r.description: r.status for r in self.records}

    @property
    def attribution(self) -> dict:
        """Run-wide prune attribution: which mechanism killed how many
        branches (the paper's "which mechanism refuted what" accounting).
        Totals equal the sum of per-edge journal kill events."""
        kills: dict[str, int] = {}
        for r in self.records:
            for reason, n in r.kill_reasons.items():
                kills[reason] = kills.get(reason, 0) + n
        return {
            "kills": dict(sorted(kills.items())),
            "total_kills": sum(kills.values()),
        }

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = asdict(self)
        out["summary"] = {
            "refuted": self.edges_refuted,
            "witnessed": self.edges_witnessed,
            "timeouts": self.edge_timeouts,
            "path_programs": self.path_programs,
            "busy_seconds": self.busy_seconds,
        }
        out["attribution"] = self.attribution
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        records = [EdgeRecord(**r) for r in data.get("records", [])]
        return cls(
            app=data.get("app", ""),
            command=data.get("command", ""),
            jobs=data.get("jobs", 1),
            backend=data.get("backend", "serial"),
            deadline=data.get("deadline"),
            path_budget=data.get("path_budget", 0),
            wall_seconds=data.get("wall_seconds", 0.0),
            records=records,
            phase_seconds=data.get("phase_seconds", {}),
            cache=data.get("cache", {}),
            schedule=data.get("schedule", {}),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
