"""Driver dispatch parity against a committed golden.

``driver_parity_golden.json`` was captured from the refutation driver
when edge and fact jobs still had separate dispatch paths (inline, pool
and rung-ladder copies of each). It covers every combination of

* operation — edge batch, path, path with one edge already cached, fact
  batch;
* backend — serial, thread pool, process pool;
* portfolio off / on;
* schedule policy — lifo / priority;

on the ``test_engine_driver`` and ``test_schedule`` fixtures, and records
the verdicts, the report records ``(kind, description, status, rung)``,
the ``schedule`` section, and the event stream: ordered for serial runs,
as a multiset for pool runs (completion order varies there). The
``priority_inversions`` count is left out for pool runs, where it depends
on completion order.

The single job type must reproduce all of it. The only deltas allowed are
the driver fixes made alongside it, each applied by name below:

* :func:`fix_cached_path_events` — a portfolio ``refute_path`` now emits
  ``EdgeFinished(cached=True)`` for path edges served from the cache, as
  ``refute_edges`` and the serial walk always did;
* fact pool batches now meter priority inversions and number
  ``EdgeScheduled`` by dispatch slot (neither is recorded here — see
  ``test_fact_pool_batch_feeds_the_inversion_meter`` in
  ``tests/unit/test_schedule.py``);
* a process worker that dies mid-job yields TIMEOUT instead of crashing
  the batch (no golden case kills a worker — see ``TestBrokenPool`` in
  ``tests/unit/test_engine_driver.py``).

Regenerate with ``PYTHONPATH=src python -m tests.property.test_driver_parity``
only when a deliberate behaviour change is made, and name it here; a
regenerated golden already holds the deltas above, so drop their
adjustments with it.
"""

from __future__ import annotations

import json
import os
import pytest

from repro.bench.workloads import layered_app, mixed_app
from repro.engine import RefutationDriver
from repro.ir import compile_program
from repro.pointsto import analyze
from repro.pointsto.graph import StaticFieldNode
from repro.pointsto.heappaths import find_heap_path
from repro.pointsto.producers import edge_key
from repro.symbolic import SearchConfig

GOLDEN = os.path.join(os.path.dirname(__file__), "driver_parity_golden.json")

#: The ``test_engine_driver`` program: one refutable and one witnessed
#: field edge.
BOX_SOURCE = """
class Box { Object v; }
class Main {
    static void main() {
        int flag = 0;
        Object o = new String();
        if (flag == 1) { o = new Object(); }   // dead branch
        Box b = new Box();
        b.v = o;
    }
}
"""

#: The ``test_schedule`` portfolio: rung 0 (10 paths) is too small for the
#: 6-branch job, ample for the 1-branch ones.
PORTFOLIO = dict(portfolio=True, portfolio_rungs=(1000,))

BACKENDS = (("serial", 1, None), ("thread", 3, None), ("process", 2, "process"))
OPERATIONS = ("edges", "path", "path_warm", "facts")
SCHEDULE_FIELDS = ("policy", "portfolio", "rungs", "resolved_at_rung")


def _fact_requests(pta, kinds):
    """One fact job per (store command, points-to target) pair."""
    out = []
    for qname in sorted(pta.call_graph.reachable_methods):
        for cmd in pta.program.commands_of(qname):
            if type(cmd).__name__ not in kinds:
                continue
            var = cmd.rhs.name if hasattr(cmd.rhs, "name") else cmd.rhs
            for loc in sorted(pta.pt_local(qname, var), key=str):
                out.append(
                    (
                        cmd.label,
                        [(var, frozenset({loc}))],
                        f"fact@L{cmd.label} {var}:{loc}",
                    )
                )
    return out


def _fixtures() -> dict:
    mixed = analyze(
        compile_program(mixed_app(3, 1, easy_branches=1, hard_branches=6))
    )
    box = analyze(compile_program(BOX_SOURCE))
    layered = analyze(compile_program(layered_app(1, hard_branches=8)))
    table = layered.program.class_table
    target = next(
        loc
        for loc in layered.graph.all_abs_locs()
        if not loc.is_array
        and loc.site.kind == "object"
        and table.site_is_instance(loc.site, "Item")
    )
    layered_path = find_heap_path(
        layered.graph, StaticFieldNode("Registry", "hold"), target
    )
    return {
        "mixed": (
            mixed,
            sorted(mixed.graph.static_edges(), key=str),
            _fact_requests(mixed, ("StaticWrite",)),
        ),
        "box": (
            box,
            sorted(box.graph.heap_edges(), key=str),
            _fact_requests(box, ("FieldWrite",)),
        ),
        "layered": (
            layered,
            list(layered_path),
            _fact_requests(layered, ("StaticWrite", "FieldWrite")),
        ),
    }


def _event_row(event) -> list:
    return [
        type(event).__name__,
        getattr(event, "description", None),
        getattr(event, "cached", None),
    ]


def run_case(fixture, operation, backend, portfolio, policy) -> dict:
    """One grid cell: run the operation on a fresh driver and record it."""
    pta, edges, facts = fixture
    name, jobs, backend_arg = backend
    config = SearchConfig(
        path_budget=10_000, schedule=policy, **(PORTFOLIO if portfolio else {})
    )
    events: list = []
    with RefutationDriver(
        pta, config, jobs=jobs, backend=backend_arg, on_event=events.append
    ) as driver:
        if operation == "edges":
            results = driver.refute_edges(edges)
            verdicts = [results[edge_key(e)].status for e in edges]
        elif operation == "facts":
            verdicts = [r.status for r in driver.refute_facts(facts)]
        else:
            if operation == "path_warm":
                # Emits no events: single edges run outside any batch.
                driver.refute_edge(edges[-1])
            pairs = driver.refute_path(edges)
            verdicts = [[str(e), r.status] for e, r in pairs]
        report = driver.build_report(command="parity")
        backend_used = driver.backend
    schedule = {k: report.schedule[k] for k in SCHEDULE_FIELDS}
    if name == "serial":
        schedule["priority_inversions"] = report.schedule["priority_inversions"]
    rows = [_event_row(e) for e in events]
    return {
        "backend": backend_used,
        "verdicts": verdicts,
        "records": [
            [r.kind, r.description, r.status, r.rung] for r in report.records
        ],
        "schedule": schedule,
        "events": rows if name == "serial" else sorted(rows, key=json.dumps),
    }


def case_ids():
    for fixture in ("mixed", "box", "layered"):
        for operation in OPERATIONS:
            for backend in BACKENDS:
                for portfolio in (False, True):
                    for policy in ("lifo", "priority"):
                        yield fixture, operation, backend, portfolio, policy


def case_key(fixture, operation, backend, portfolio, policy) -> str:
    return "/".join(
        (fixture, operation, backend[0], "portfolio" if portfolio else "fixed", policy)
    )


def fix_cached_path_events(expected: dict, key: str, fixture) -> dict:
    """The portfolio path ladder now reports a cached path edge with
    ``EdgeFinished(cached=True)`` right after ``RunStarted``, as
    ``refute_edges`` does. Before, it emitted nothing for it."""
    _fixture, operation, backend, mode, _policy = key.split("/")
    if operation != "path_warm" or mode != "portfolio":
        return expected
    cached = ["EdgeFinished", str(fixture[1][-1]), True]
    assert cached not in expected["events"]
    events = list(expected["events"])
    if backend == "serial":
        events.insert(events.index(["RunStarted", None, None]) + 1, cached)
    else:
        events = sorted(events + [cached], key=json.dumps)
    return dict(expected, events=events)


@pytest.fixture(scope="module")
def fixtures():
    return _fixtures()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_key(*c) for c in case_ids())


@pytest.mark.parametrize(
    "case", list(case_ids()), ids=lambda c: case_key(*c)
)
def test_matches_golden(case, fixtures, golden):
    key = case_key(*case)
    fixture = fixtures[case[0]]
    expected = fix_cached_path_events(golden[key], key, fixture)
    actual = json.loads(json.dumps(run_case(fixture, *case[1:])))
    assert actual == expected


def capture() -> dict:
    fixtures = _fixtures()
    return {
        case_key(*c): run_case(fixtures[c[0]], *c[1:]) for c in case_ids()
    }


if __name__ == "__main__":
    golden = capture()
    with open(GOLDEN, "w") as f:
        # One case per line, so a changed case shows as one changed line.
        f.write("{\n")
        f.write(
            ",\n".join(
                f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
                for key in sorted(golden)
            )
        )
        f.write("\n}\n")
    print(f"wrote {GOLDEN}")
