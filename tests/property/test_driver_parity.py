"""Driver dispatch parity against a committed golden.

``driver_parity_golden.json`` was first captured from the refutation
driver when edge and fact jobs still had separate dispatch paths (inline,
pool and rung-ladder copies of each). It covers every combination of

* operation — edge batch, path, path with one edge already cached, fact
  batch;
* backend — serial, ``backend="thread"`` at ``jobs=3``, process pool;
* portfolio off / on;
* submission order — ``lifo`` hands the driver the jobs last-listed
  first, ``priority`` hands them over cheapest first by
  :class:`~repro.engine.schedule.CostModel` (for the fixtures' edges
  that is also the listed order; the layered fixture's facts are listed
  expensive first);

on the ``test_engine_driver`` and ``test_schedule`` fixtures, and records
the verdicts, the report records ``(kind, description, status, rung)``,
the ``schedule`` section, and the event stream: ordered for serial runs,
as a multiset for the others (completion order varies on a pool).

The single job type must reproduce all of it. The driver fixes made
alongside the single job type are held by the golden as regenerated
below: a portfolio ``refute_path`` emits ``EdgeFinished(cached=True)`` for
a path edge served from the cache (the 18 ``*/path_warm/*/portfolio/*``
cases); fact pool batches number ``EdgeScheduled`` by dispatch slot (not
recorded here — see ``test_fact_pool_batch_dispatches_in_cost_order`` in
``tests/unit/test_schedule.py``); a process worker that dies mid-job
yields TIMEOUT instead of crashing the batch (no golden case kills a
worker — see ``TestBrokenPool`` in ``tests/unit/test_engine_driver.py``).

The golden was last regenerated for one deliberate change:

* **the backend that ran** — each cell records the report's ``backend``,
  which reads ``process`` only once a pool has run a job (it used to
  record the driver's resolved backend, the one asked for). Only the 24
  ``*/path*/process/*`` cells changed, each from ``process`` to
  ``serial``; they now equal their ``*/serial/*`` cells whole (see
  ``test_process_path_cells_equal_serial_cells``). Every process edge and
  fact cell runs on the pool and still reads ``process``.

The regeneration before it was for one deliberate change:

* **paths run inline** — a path batch (``refute_path``) runs on the
  driver's engine whatever the backend; only flat batches (edges, facts)
  reach the process pool. Only the 17 ``*/path*/process/*`` cells whose
  pool run differed changed (the other 7 already matched): each now
  equalled its ``*/serial/*`` cell except for ``backend``, which then
  named the backend asked for. Without portfolio the path is walked one
  edge at a time, and under portfolio its path-mates are cut live by the
  rung ceiling.

The regeneration before that was for one deliberate change:

* **in-process threads** — ``backend="thread"`` no longer starts a
  thread pool: under the GIL it could never run two searches at once, so
  it resolves to the serial backend and ``jobs=3, backend="thread"`` runs
  exactly like ``jobs=1``. Only the 48 ``*/thread/*`` cells changed: each
  now equals its ``*/serial/*`` cell (events compared as multisets, see
  ``test_thread_cells_equal_serial_cells``), reports backend ``serial``,
  schedules no ``EdgeScheduled`` events and, without portfolio, walks a
  path one edge at a time. The serial and process cells are unchanged.

The regeneration before those was for three deliberate changes:

* **one schedule** — the ``lifo``/``priority`` schedule policy is gone:
  every search keeps the LIFO worklist, and the driver dispatches every
  batch of two or more jobs cheapest first, so the submission order shows
  only in the serial Section 2 walk (``*/path*/serial/fixed/*``), which
  takes the path's edges one at a time in the order given. The last id
  component, which named the policy, now names the submission order; the
  ``schedule`` section lost its ``policy`` and ``priority_inversions``
  fields;
* **the rung rule** — within one rung of a portfolio path batch no job
  may spend more path programs than the cheapest path-mate that refuted
  at that rung; a job above it is a provisional TIMEOUT, carried over and
  never recorded. On the box fixture the witnessed ``box0.v -> string0``
  needs more path programs than the refuted ``box0.v -> object0``, so the
  ``box/path/*/portfolio/*`` cases record only the refuted edge, return
  ``timeout`` for its mate, and count it as rung-0 carryover with an
  ``EdgeEscalated`` event;
* **the static fan-in fix** — ``CostModel`` reads a static edge's fan-in
  from ``pt_static`` (it was always 0). No case moved: every static edge
  of the mixed fixture shares one source, and the layered fixture's two
  edges tie and keep their description order.

Regenerate with ``PYTHONPATH=src python -m tests.property.test_driver_parity``
only when a deliberate behaviour change is made, and name it here.
"""

from __future__ import annotations

import json
import os
import pytest

from repro.bench.workloads import layered_app, mixed_app
from repro.engine import RefutationDriver
from repro.engine.schedule import CostModel
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
ORDERS = ("lifo", "priority")


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


def _submitted(pta, edges, facts, order):
    """The fixture's edges and fact requests in submission ``order``."""
    if order == "lifo":
        return edges[::-1], facts[::-1]
    model = CostModel(pta)
    return (
        sorted(edges, key=lambda e: (model.edge_cost(e), str(e))),
        sorted(facts, key=lambda f: (model.fact_cost(f[0], f[1]), f[2])),
    )


def run_case(fixture, operation, backend, portfolio, order) -> dict:
    """One grid cell: run the operation on a fresh driver and record it.
    Edge and fact verdicts are listed in the fixture's order; path
    verdicts in the order the driver examined the edges."""
    pta, edges, facts = fixture
    sent_edges, sent_facts = _submitted(pta, edges, facts, order)
    name, jobs, backend_arg = backend
    config = SearchConfig(path_budget=10_000, **(PORTFOLIO if portfolio else {}))
    events: list = []
    with RefutationDriver(
        pta, config, jobs=jobs, backend=backend_arg, on_event=events.append
    ) as driver:
        if operation == "edges":
            results = driver.refute_edges(sent_edges)
            verdicts = [results[edge_key(e)].status for e in edges]
        elif operation == "facts":
            results = driver.refute_facts(sent_facts)
            status = {f[2]: r.status for f, r in zip(sent_facts, results)}
            verdicts = [status[f[2]] for f in facts]
        else:
            if operation == "path_warm":
                # Emits no events: single edges run outside any batch.
                driver.refute_edge(edges[-1])
            pairs = driver.refute_path(sent_edges)
            verdicts = [[str(e), r.status] for e, r in pairs]
        report = driver.build_report(command="parity")
    rows = [_event_row(e) for e in events]
    return {
        "backend": report.backend,
        "verdicts": verdicts,
        "records": [
            [r.kind, r.description, r.status, r.rung] for r in report.records
        ],
        "schedule": report.schedule,
        "events": rows if name == "serial" else sorted(rows, key=json.dumps),
    }


def case_ids():
    for fixture in ("mixed", "box", "layered"):
        for operation in OPERATIONS:
            for backend in BACKENDS:
                for portfolio in (False, True):
                    for order in ORDERS:
                        yield fixture, operation, backend, portfolio, order


def case_key(fixture, operation, backend, portfolio, order) -> str:
    return "/".join(
        (fixture, operation, backend[0], "portfolio" if portfolio else "fixed", order)
    )


@pytest.fixture(scope="module")
def fixtures():
    return _fixtures()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as f:
        return json.load(f)


def test_golden_covers_the_grid(golden):
    assert sorted(golden) == sorted(case_key(*c) for c in case_ids())


def test_submission_order_shows_only_in_the_serial_walk(golden):
    """Every batch but the path walk dispatches cheapest first, so both
    submission orders record the same cell there (path verdicts come back
    in submission order, so they are compared as sets)."""
    for case in case_ids():
        if case[-1] != "lifo":
            continue
        fixture, operation, backend, portfolio, _ = case
        if not portfolio and operation.startswith("path"):
            continue
        lifo = dict(golden[case_key(*case)])
        cost = dict(golden[case_key(fixture, operation, backend, portfolio, "priority")])
        if operation.startswith("path"):
            lifo["verdicts"] = sorted(lifo["verdicts"])
            cost["verdicts"] = sorted(cost["verdicts"])
        assert lifo == cost, case_key(*case)


def _in_process_cells(golden, name, operations) -> int:
    """Check that every ``name`` backend cell of ``operations`` is its
    serial cell; the events are compared as multisets because the golden
    keeps the serial stream in order. Returns the cell count."""
    cells = 0
    for case in case_ids():
        fixture, operation, backend, portfolio, order = case
        if backend[0] != name or operation not in operations:
            continue
        cell = dict(golden[case_key(*case)])
        serial = dict(golden[case_key(fixture, operation, BACKENDS[0], portfolio, order)])
        for c in (cell, serial):
            c["events"] = sorted(c["events"], key=json.dumps)
        assert serial["backend"] == "serial"
        assert cell == serial, case_key(*case)
        cells += 1
    return cells


def test_thread_cells_equal_serial_cells(golden):
    """``backend="thread"`` runs in-process, so every thread cell is its
    serial cell."""
    assert _in_process_cells(golden, "thread", OPERATIONS) == 48


def test_process_path_cells_equal_serial_cells(golden):
    """A path batch never reaches the process pool, so every process path
    cell is its serial cell, the backend it reports included."""
    paths = ("path", "path_warm")
    assert _in_process_cells(golden, "process", paths) == 24


@pytest.mark.parametrize(
    "case", list(case_ids()), ids=lambda c: case_key(*c)
)
def test_matches_golden(case, fixtures, golden):
    actual = json.loads(json.dumps(run_case(fixtures[case[0]], *case[1:])))
    assert actual == golden[case_key(*case)]


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
