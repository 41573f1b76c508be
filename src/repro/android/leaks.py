"""The Activity-leak client: alarm enumeration and the refutation loop.

An *alarm* is a pair (static field, Activity abstract location) connected
in the flow-insensitive points-to graph. For each alarm the driver walks
the loop of Section 2:

    find a heap path from the field to the Activity;
    try to refute each edge on the path (producer-by-producer witness
    search); a refuted edge is deleted and a new path is sought; if every
    edge of some path is witnessed (or timed out), the alarm is confirmed;
    if the field and the Activity become disconnected, the alarm is
    filtered out.

Refuted edges are shared across alarms (a refutation is a fact about the
whole program), matching the paper's per-edge accounting (RefEdg ≥ RefA).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..engine import RefutationDriver, RunReport
from ..ir import build_program
from ..lang import frontend
from ..pointsto import (
    ContainerSensitive,
    HeapEdge,
    PointsToResult,
    StaticFieldNode,
    analyze,
    find_alarms,
    find_heap_path,
)
from ..pointsto.graph import AbsLoc
from ..symbolic import SearchConfig
from ..symbolic.stats import REFUTED, TIMEOUT, WITNESSED
from .harness import add_harness, combined_source
from .library import CONTAINER_CLASSES, EMPTY_TABLE_ANNOTATIONS, library_class_names

ALARM_REFUTED = "refuted"
ALARM_CONFIRMED = "confirmed"


@dataclass
class AlarmResult:
    root: StaticFieldNode
    target: AbsLoc
    status: str  # refuted | confirmed
    witnessed_path: Optional[list[HeapEdge]] = None
    edges_examined: int = 0

    @property
    def refuted(self) -> bool:
        return self.status == ALARM_REFUTED


@dataclass
class LeakReport:
    """Everything Table 1 reports for one app/configuration."""

    app_name: str
    annotated: bool
    alarms: list[AlarmResult] = field(default_factory=list)
    edge_results: dict = field(default_factory=dict)  # EdgeKey -> EdgeResult
    seconds: float = 0.0
    call_graph_commands: int = 0
    #: Structured per-edge telemetry of the run (see repro.engine.report).
    run_report: Optional[RunReport] = None

    # -- Table 1 columns ------------------------------------------------------

    @property
    def num_alarms(self) -> int:
        return len(self.alarms)

    @property
    def refuted_alarms(self) -> int:
        return sum(1 for a in self.alarms if a.refuted)

    @property
    def reported_alarms(self) -> list[AlarmResult]:
        return [a for a in self.alarms if not a.refuted]

    @property
    def fields(self) -> int:
        return len({(a.root.class_name, a.root.field) for a in self.alarms})

    @property
    def refuted_fields(self) -> int:
        """Fields for which every alarm was refuted (RefFlds)."""
        by_field: dict[tuple[str, str], bool] = {}
        for alarm in self.alarms:
            key = (alarm.root.class_name, alarm.root.field)
            by_field[key] = by_field.get(key, True) and alarm.refuted
        return sum(1 for refuted in by_field.values() if refuted)

    def _count(self, status: str) -> int:
        return sum(1 for r in self.edge_results.values() if r.status == status)

    @property
    def edges_refuted(self) -> int:
        return self._count(REFUTED)

    @property
    def edges_witnessed(self) -> int:
        return self._count(WITNESSED)

    @property
    def edge_timeouts(self) -> int:
        return self._count(TIMEOUT)


class LeakChecker:
    """One end-to-end run of the Thresher pipeline on an app."""

    def __init__(
        self,
        app_source: str,
        app_name: str = "app",
        annotated: bool = False,
        config: Optional[SearchConfig] = None,
        include_library: bool = True,
        target_class: str = "Activity",
        jobs: int = 1,
        deadline: Optional[float] = None,
        backend: Optional[str] = None,
        on_event: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.app_name = app_name
        self.annotated = annotated
        self.target_class = target_class
        source = combined_source(app_source, include_library)
        checked = add_harness(frontend(source), source, include_library)
        self.program = build_program(checked)
        policy = ContainerSensitive(
            containers=set(CONTAINER_CLASSES), class_table=checked.table
        )
        self.pta: PointsToResult = analyze(
            self.program,
            policy=policy,
            empty_statics=set(EMPTY_TABLE_ANNOTATIONS) if annotated else None,
        )
        self.driver = RefutationDriver(
            self.pta,
            config or SearchConfig(),
            jobs=jobs,
            deadline=deadline,
            backend=backend,
            on_event=on_event,
        )
        self.config = self.driver.config
        #: The driver's serial engine, for direct searches; it caches
        #: nothing (the driver keeps every final verdict).
        self.engine = self.driver.engine

    # -- pipeline --------------------------------------------------------------

    def find_alarms(self) -> list[tuple[StaticFieldNode, AbsLoc]]:
        alarms = find_alarms(
            self.pta.graph, self.program.class_table, self.target_class
        )
        # Library internals can't leak app activities through their own
        # statics unless an app value flows there — keep all roots (the
        # paper's Vec.EMPTY root is exactly such a library static).
        return alarms

    def run(self) -> LeakReport:
        start = time.perf_counter()
        report = LeakReport(self.app_name, self.annotated)
        report.call_graph_commands = sum(
            1
            for qname in self.pta.call_graph.reachable_methods
            if qname in self.program.methods
            for _ in self.program.commands_of(qname)
        )
        refuted_edges: set[HeapEdge] = set()
        for root, target in self.find_alarms():
            result = self._check_alarm(root, target, refuted_edges, report)
            report.alarms.append(result)
        report.edge_results = self.driver.results()
        report.seconds = time.perf_counter() - start
        report.run_report = self.driver.build_report(
            app=self.app_name, command="check"
        )
        report.run_report.wall_seconds = report.seconds
        self.driver.close()
        return report

    def _check_alarm(
        self,
        root: StaticFieldNode,
        target: AbsLoc,
        refuted_edges: set[HeapEdge],
        report: LeakReport,
    ) -> AlarmResult:
        examined = 0
        while True:
            path = find_heap_path(self.pta.graph, root, target, refuted_edges)
            if path is None:
                return AlarmResult(root, target, ALARM_REFUTED, None, examined)
            progressed = False
            # The driver refutes the path's edges in-process, in order with
            # early exit (bit-identical to the seed loop) at any --jobs and
            # backend; the loop below consumes the results in path order,
            # so alarm verdicts are deterministic.
            for edge, result in self.driver.refute_path(path):
                examined += 1
                if result.refuted:
                    refuted_edges.add(edge)
                    progressed = True
                    break
            if not progressed:
                # Every edge on this path witnessed or timed out: confirmed.
                return AlarmResult(root, target, ALARM_CONFIRMED, path, examined)


def check_app(
    app_source: str,
    app_name: str = "app",
    annotated: bool = False,
    config: Optional[SearchConfig] = None,
    jobs: int = 1,
    deadline: Optional[float] = None,
    backend: Optional[str] = None,
) -> LeakReport:
    """Convenience one-shot entry point."""
    return LeakChecker(
        app_source,
        app_name,
        annotated,
        config,
        jobs=jobs,
        deadline=deadline,
        backend=backend,
    ).run()
