"""Structured run reports: the JSON artifact of one refutation run.

A :class:`RunReport` records, for every edge (or fact) job the driver
executed, its :class:`EdgeResult` — verdict, effort, wall-clock time,
kill reasons, and the worker that ran it — plus run-level metadata
(worker count, backend, deadline, total wall time). It round-trips
through JSON (``to_json``/``from_json``) so runs can be archived, diffed,
and consumed by dashboards — the machine-readable counterpart of the
human tables in :mod:`repro.reporting`.
"""

from __future__ import annotations

import json
from copy import deepcopy
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

from ..symbolic.stats import REFUTED, TIMEOUT, WITNESSED, EdgeResult

SCHEMA_VERSION = 1


#: The keys of one job's record, in ``to_dict`` order: every field of its
#: :class:`EdgeResult` but the edge itself and the search footprint.
RECORD_KEYS = (
    "description", "status", "path_programs", "seconds", "worker", "kind",
    "witness_trace", "kill_reasons", "rung",
)


def _record(result: EdgeResult) -> dict:
    return {key: deepcopy(getattr(result, key)) for key in RECORD_KEYS}


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
    records: list[EdgeResult] = field(default_factory=list)
    #: Summed seconds per pipeline phase (span name -> total), populated
    #: from the span stream when tracing is enabled; empty otherwise.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Cache behavior for the run: the cache counters, answers per solver
    #: tier and the verdict store's slice, from the registry that
    #: process-pool workers' payloads merge into, plus the active toggle
    #: values. See :func:`repro.perf.cache_report`.
    cache: dict = field(default_factory=dict)
    #: Scheduling behavior for the run: the portfolio toggle, per-rung
    #: resolution stats (``rungs``: scheduled/resolved/carryover and
    #: verdict counts per rung) and the ``resolved_at_rung`` rollup. See
    #: :mod:`repro.engine.schedule`.
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
        branches (the paper's "which mechanism refuted what" accounting):
        the records' ``kill_reasons`` summed, which equals the run
        journal's attribution when one was kept."""
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
        out = asdict(replace(self, records=[]))
        out["records"] = [_record(r) for r in self.records]
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
        # Keys a record no longer has (an older report's) are skipped.
        records = [
            EdgeResult(edge=None, **{k: r[k] for k in RECORD_KEYS if k in r})
            for r in data.get("records", [])
        ]
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
