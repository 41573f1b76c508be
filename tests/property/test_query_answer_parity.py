"""A query answers its own unchanged checks exactly as the solver would.

``Query.check_sat`` returns SAT without calling the solver when the query
still holds the very pure list, separation list and non-null facts its
component record was published for: the solver's "same atoms" path. The
oracle here is the old body, which always asks the solver. Every Table 1
app, unannotated and annotated, runs through :class:`LeakChecker` once as
shipped and once with the oracle patched in; the run-report records and
each search's :class:`SolverStats` counters must be identical.
"""

import dataclasses

import pytest

from repro.android.leaks import LeakChecker
from repro.bench import APPS
from repro.perf.memo import SOLVER_MEMO
from repro.symbolic import query as query_module
from repro.symbolic.executor import Engine
from repro.symbolic.query import Query
from repro.symbolic.symvar import private_ids


def always_ask_the_solver(self, stats=None):
    if self.failed:
        return False
    if self._sat_version == self.version:
        return self._sat_result
    ok = query_module.check_sat(
        self.canonical_pure(),
        nonnull=frozenset(self._nonnull),
        stats=stats,
        separation=self.separation_atoms(),
        lineage=self,
    )
    self._sat_version = self.version
    self._sat_result = ok
    if not ok:
        self.fail("pure constraints unsatisfiable")
    return ok


def run(app, annotated, monkeypatch):
    """The run's records (wall time zeroed), each search's solver-counter
    deltas, and how many checks reached the solver."""
    searches = []
    solver_calls = [0]
    refute_edge = Engine.refute_edge
    solver = query_module.check_sat

    def counted_refute_edge(self, edge, *args, **kwargs):
        stats = self.ctx.solver_stats
        before = dict(vars(stats))
        result = refute_edge(self, edge, *args, **kwargs)
        searches.append(
            (str(edge), {k: v - before[k] for k, v in vars(stats).items()})
        )
        return result

    def counted_solver(*args, **kwargs):
        solver_calls[0] += 1
        return solver(*args, **kwargs)

    # Variable names order linear terms and so steer the caches' savings:
    # both runs number their variables from zero, on a cold memo.
    with monkeypatch.context() as m, private_ids():
        m.setattr(Engine, "refute_edge", counted_refute_edge)
        m.setattr(query_module, "check_sat", counted_solver)
        SOLVER_MEMO.clear()
        report = LeakChecker(app.source, app.name, annotated=annotated).run()
    records = [
        dataclasses.replace(r, seconds=0.0) for r in report.run_report.records
    ]
    return records, searches, solver_calls[0]


@pytest.mark.parametrize("annotated", [False, True], ids=["N", "Y"])
@pytest.mark.parametrize("app", APPS, ids=lambda a: a.name)
def test_query_answer_matches_the_solver(app, annotated, monkeypatch):
    records, searches, calls = run(app, annotated, monkeypatch)
    monkeypatch.setattr(Query, "check_sat", always_ask_the_solver)
    old_records, old_searches, old_calls = run(app, annotated, monkeypatch)
    assert records == old_records
    assert searches == old_searches
    assert calls <= old_calls
    if old_searches:
        checks = sum(delta["checks"] for _, delta in old_searches)
        # The shipped run handed fewer checks to the solver than it made.
        assert calls < checks
