"""Unit tests for the adaptive scheduling layer (``repro.engine.schedule``):
cost-model priorities, cheap-first portfolio rungs, and the cooperative
per-rung deadlines that tie them together."""

import pytest

from repro.bench.workloads import layered_app, mixed_app
from repro.clients.reachability import assert_unreachable
from repro.engine import EdgeFinished, EdgeScheduled, RefutationDriver, RunReport
from repro.engine.driver import Job
from repro.engine.schedule import CostModel, RungCeiling, rung_ladder
from repro.ir import compile_program
from repro.obs import metrics, provenance
from repro.perf.memo import SOLVER_MEMO
from repro.pointsto import analyze
from repro.pointsto.graph import StaticFieldNode
from repro.pointsto.heappaths import find_heap_path
from repro.pointsto.producers import edge_key
from repro.symbolic import Engine, SearchConfig
from repro.symbolic.stats import REFUTED, TIMEOUT
from repro.symbolic.symvar import private_ids

from .test_engine_driver import SOURCE as BOX_SOURCE


@pytest.fixture(scope="module")
def pta():
    # 3 cheap jobs + 1 expensive one, every edge refutable, hard job last
    # (the FIFO worst case the scheduler exists to fix).
    return analyze(compile_program(mixed_app(3, 1, easy_branches=1, hard_branches=6)))


@pytest.fixture(scope="module")
def edges(pta):
    return sorted(pta.graph.static_edges(), key=str)


@pytest.fixture(scope="module")
def baseline(pta, edges):
    driver = RefutationDriver(pta, SearchConfig(), jobs=1)
    return {str(e): driver.refute_edge(e).status for e in edges}


def _statuses(results, edges):
    return {str(e): results[edge_key(e)].status for e in edges}


# ---------------------------------------------------------------------------
# CostModel
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_hard_edge_costs_more_than_easy(self, pta, edges):
        model = CostModel(pta)
        costs = {str(e): model.edge_cost(e) for e in edges}
        # mix30 is produced by the 6-branch job; every other edge by a
        # 1-branch job — the choice-count term must dominate.
        hard = costs["Registry.hold -> mix30"]
        assert all(hard > c for name, c in costs.items() if "mix30" not in name)

    def test_costs_are_positive_and_cached(self, pta, edges):
        model = CostModel(pta)
        first = [model.edge_cost(e) for e in edges]
        assert all(c >= 1 for c in first)
        assert [model.edge_cost(e) for e in edges] == first

    def test_unknown_method_costs_one(self, pta):
        assert CostModel(pta).method_cost("NoSuch.method") == 1

    def test_fact_cost_positive(self, pta):
        label = next(iter(pta.program.commands))
        loc = next(iter(pta.graph.all_abs_locs()))
        assert CostModel(pta).fact_cost(label, [("b", frozenset({loc}))]) >= 1

    def test_static_edge_fan_in_is_the_static_region(self, pta, edges):
        model = CostModel(pta)
        for edge in edges:
            region = pta.pt_static(edge.src.class_name, edge.src.field)
            assert model._fan_in(edge) == len(region) > 1

    def test_priority_puts_the_cheap_layered_edge_first(self):
        # Registry.hold points to both holders (fan-in 2), so its
        # 10-branch edge must sort after the constant-false guard's.
        pta = analyze(compile_program(layered_app(2, hard_branches=10)))
        graph = pta.graph
        edges = {str(e): e for e in [*graph.static_edges(), *graph.heap_edges()]}
        path = [edges["Registry.hold -> holder0"], edges["holder0.item -> item0"]]
        driver = RefutationDriver(pta, SearchConfig())
        jobs = driver._by_cost([Job.of_edge(edge) for edge in path])
        assert [job.edge for job in jobs] == path[::-1]


# ---------------------------------------------------------------------------
# rung_ladder
# ---------------------------------------------------------------------------


class TestRungLadder:
    def test_default_ladder(self):
        config = SearchConfig(path_budget=10_000)
        assert rung_ladder(config) == [(625, None), (2500, None), (None, None)]

    def test_divisors_at_most_one_ignored(self):
        config = SearchConfig(path_budget=800, portfolio_rungs=(1, 0, 8))
        assert rung_ladder(config) == [(100, None), (None, None)]

    def test_deadline_divided_alongside_budget(self):
        config = SearchConfig(
            path_budget=1600, deadline_seconds=8.0, portfolio_rungs=(4,)
        )
        assert rung_ladder(config) == [(400, 2.0), (None, None)]

    def test_empty_rungs_degenerate_to_single_full_rung(self):
        config = SearchConfig(portfolio_rungs=())
        assert rung_ladder(config) == [(None, None)]


# ---------------------------------------------------------------------------
# Cost-order dispatch (every batch of two or more jobs, cheapest first)
# ---------------------------------------------------------------------------


class TestPrioritySchedule:
    def test_serial_verdicts_match_lifo(self, pta, edges, baseline):
        driver = RefutationDriver(pta, SearchConfig(), jobs=1)
        assert _statuses(driver.refute_edges(edges), edges) == baseline

    def test_thread_verdicts_match_lifo(self, pta, edges, baseline):
        with RefutationDriver(pta, SearchConfig(), jobs=3) as driver:
            statuses = _statuses(driver.refute_edges(edges), edges)
            report = driver.build_report(command="check")
        assert statuses == baseline
        assert sorted(report.schedule) == ["portfolio", "resolved_at_rung", "rungs"]

    def test_fact_pool_batch_dispatches_in_cost_order(self, pta):
        """A fact batch on the process pool is submitted cheapest first by
        the cost model's fact costs, and numbers ``EdgeScheduled`` by
        dispatch slot, as edge batches do."""
        stores = [
            c
            for c in pta.program.commands.values()
            if type(c).__name__ == "StaticWrite"
        ]
        loc = next(iter(pta.graph.all_abs_locs()))
        # Request order puts the expensive 6-branch job first.
        requests = [
            (c.label, [(c.rhs.name, frozenset({loc}))], f"fact@L{c.label}")
            for c in sorted(stores, key=lambda c: -c.label)
        ]
        events = []
        with RefutationDriver(
            pta, SearchConfig(), jobs=2, backend="process", on_event=events.append
        ) as driver:
            assert driver.backend == "process"
            results = driver.refute_facts(requests)
        assert len(results) == len(requests)
        model = driver._cost_model()
        cost = {desc: model.fact_cost(label, b) for label, b, desc in requests}
        scheduled = [e for e in events if isinstance(e, EdgeScheduled)]
        assert [e.index for e in scheduled] == list(range(len(requests)))
        assert [e.description for e in scheduled] == sorted(
            cost, key=lambda desc: (cost[desc], desc)
        )
        assert scheduled[-1].description == requests[0][2]


# ---------------------------------------------------------------------------
# Portfolio rungs
# ---------------------------------------------------------------------------

#: A ladder whose first rung (path_budget // 1000 = 10 paths) is too small
#: for the 6-branch job but ample for the 1-branch ones.
PORTFOLIO = dict(path_budget=10_000, portfolio=True, portfolio_rungs=(1000,))


class TestPortfolio:
    def test_serial_verdicts_match_single_rung(self, pta, edges, baseline):
        driver = RefutationDriver(pta, SearchConfig(**PORTFOLIO), jobs=1)
        assert _statuses(driver.refute_edges(edges), edges) == baseline

    def test_hard_edge_resolves_at_higher_rung(self, pta, edges):
        driver = RefutationDriver(pta, SearchConfig(**PORTFOLIO), jobs=1)
        driver.refute_edges(edges)
        report = driver.build_report(command="check")
        rungs = {r.description: r.rung for r in report.records}
        assert rungs["Registry.hold -> mix30"] == 1
        assert all(r == 0 for d, r in rungs.items() if "mix30" not in d)
        section = report.schedule
        assert section["resolved_at_rung"] == {"0": 3, "1": 1}
        assert section["rungs"][0]["carryover"] == 1
        assert section["rungs"][0]["scheduled"] == 4
        assert section["rungs"][1]["scheduled"] == 1

    def test_thread_backend_verdicts_match(self, pta, edges, baseline):
        with RefutationDriver(pta, SearchConfig(**PORTFOLIO), jobs=3) as driver:
            statuses = _statuses(driver.refute_edges(edges), edges)
        assert statuses == baseline

    def test_process_backend_verdicts_match(self, pta, edges, baseline):
        config = SearchConfig(**PORTFOLIO)
        with RefutationDriver(pta, config, jobs=2, backend="process") as driver:
            statuses = _statuses(driver.refute_edges(edges), edges)
        assert statuses == baseline

    def test_facts_run_the_same_ladder(self, pta):
        # mixed_app's leak sink is a static store; ask about its rhs var.
        cmd = next(
            c
            for c in pta.program.commands.values()
            if type(c).__name__ == "StaticWrite"
        )
        loc = next(iter(pta.graph.all_abs_locs()))
        request = (cmd.label, [(cmd.rhs.name, frozenset({loc}))], "fact@test")
        fixed = RefutationDriver(pta, SearchConfig(), jobs=1).refute_facts(
            [request]
        )
        ladder = RefutationDriver(
            pta, SearchConfig(**PORTFOLIO), jobs=1
        ).refute_facts([request])
        assert [r.status for r in fixed] == [r.status for r in ladder]

    def test_round_trips_through_report_json(self, pta, edges):
        driver = RefutationDriver(pta, SearchConfig(**PORTFOLIO), jobs=1)
        driver.refute_edges(edges)
        report = driver.build_report(command="check")
        clone = RunReport.from_json(report.to_json())
        assert clone.schedule == report.schedule
        assert [r.rung for r in clone.records] == [r.rung for r in report.records]


# ---------------------------------------------------------------------------
# Path-level portfolio (the rung ladder across one path's edges)
# ---------------------------------------------------------------------------


def _layered_path(hard_branches: int):
    """One two-edge path whose expensive refutable edge comes first and
    whose cheap refutable edge comes second — the shape where the
    path-level ladder wins."""
    pta = analyze(compile_program(layered_app(1, hard_branches=hard_branches)))
    table = pta.program.class_table
    target = next(
        loc
        for loc in pta.graph.all_abs_locs()
        if not loc.is_array
        and loc.site.kind == "object"
        and table.site_is_instance(loc.site, "Item")
    )
    path = find_heap_path(pta.graph, StaticFieldNode("Registry", "hold"), target)
    assert path is not None and len(path) == 2
    return pta, path


class TestPathPortfolio:
    @pytest.fixture(scope="class")
    def layered(self):
        return _layered_path(hard_branches=8)

    def test_cheap_path_mate_stops_escalation(self, layered):
        pta, path = layered
        expensive, cheap = path
        driver = RefutationDriver(pta, SearchConfig(**PORTFOLIO), jobs=1)
        pairs = dict(driver.refute_path(path))
        assert pairs[cheap].status == REFUTED
        assert pairs[cheap].rung == 0
        # The expensive first edge timed out at rung 0 and was never
        # escalated: its provisional TIMEOUT is neither cached nor
        # recorded, so a later path can still resolve it for real.
        assert pairs[expensive].status == TIMEOUT
        assert edge_key(expensive) not in driver.results()
        assert edge_key(cheap) in driver.results()
        report = driver.build_report(command="check")
        assert {r.description for r in report.records} == {str(cheap)}
        rung0 = report.schedule["rungs"][0]
        assert rung0["scheduled"] == 2
        assert rung0["resolved"] == 1
        assert rung0["carryover"] == 1

    def test_cached_path_edge_emits_finished(self, layered):
        """A path edge served from the cache still reports
        ``EdgeFinished(cached=True)``, as refute_edges does."""
        pta, path = layered
        events = []
        driver = RefutationDriver(
            pta, SearchConfig(**PORTFOLIO), jobs=1, on_event=events.append
        )
        cached = driver.refute_edge(path[0])
        events.clear()
        pairs = dict(driver.refute_path(path))
        finished = [e for e in events if isinstance(e, EdgeFinished)]
        assert [(e.description, e.cached) for e in finished][0] == (
            str(path[0]),
            True,
        )
        assert pairs[path[0]] is cached

    def test_fixed_walk_refutes_the_expensive_edge_instead(self, layered):
        # The serial Section 2 walk stops at the first refuted edge, so
        # it pays the expensive search in full — the record-set latitude
        # the parity suite documents.
        pta, path = layered
        driver = RefutationDriver(pta, SearchConfig(path_budget=10_000), jobs=1)
        pairs = driver.refute_path(path)
        assert len(pairs) == 1
        assert pairs[0][0] == path[0]
        assert pairs[0][1].status == REFUTED


# ---------------------------------------------------------------------------
# The rung ceiling (no path-mate spends more than the cheapest refutation)
# ---------------------------------------------------------------------------

PATH_BACKENDS = (("serial", 1, None), ("thread", 3, None), ("process", 2, "process"))


def _path_run(pta, path, jobs, backend):
    """Verdicts (sorted, so the submission order does not show), records
    and schedule section of one portfolio path batch."""
    config = SearchConfig(**PORTFOLIO)
    with RefutationDriver(pta, config, jobs=jobs, backend=backend) as driver:
        pairs = driver.refute_path(path)
        report = driver.build_report(command="check")
    return (
        sorted((str(edge), result.status) for edge, result in pairs),
        [(r.description, r.status, r.rung, r.path_programs) for r in report.records],
        report.schedule,
    )


class TestRungCeiling:
    def test_cut_search_times_out_and_is_not_cached(self, pta, edges):
        """Theorem 1 under a ceiling: a search cut below the path programs
        it needs is a TIMEOUT, never REFUTED, and it never reaches the
        driver's verdict cache; at the ceiling it still refutes."""
        for edge in edges:
            full = Engine(pta, SearchConfig()).refute_edge(edge)
            assert full.status == REFUTED
            p = full.path_programs
            for limit in sorted({0, p // 2, p - 1, p}):
                driver = RefutationDriver(pta, SearchConfig())
                ceiling = RungCeiling()
                ceiling.lower(limit)
                result = driver.engine.refute_edge(edge, ceiling=ceiling)
                if limit < p:
                    assert result.status == TIMEOUT
                    assert result.path_programs == limit + 1
                else:
                    assert result.status == REFUTED
                    assert result.path_programs == p
                assert edge_key(edge) not in driver.results()

    @pytest.mark.parametrize("fixture", ["box", "mixed"])
    def test_records_identical_across_backends_and_policies(
        self, fixture, pta, edges
    ):
        if fixture == "box":
            pta = analyze(compile_program(BOX_SOURCE))
            edges = sorted(pta.graph.heap_edges(), key=str)
        # The driver dispatches the batch in cost order, so the order the
        # path is submitted in must not show either.
        runs = {
            (name, order): _path_run(pta, path, jobs, backend)
            for name, jobs, backend in PATH_BACKENDS
            for order, path in (("given", edges), ("reversed", edges[::-1]))
        }
        expected = runs["serial", "given"]
        assert all(run == expected for run in runs.values()), runs
        # Every backend runs a path inline and cuts live; what is
        # committed must not depend on it, run after run.
        for _ in range(20):
            assert _path_run(pta, edges, 3, None) == expected

    def test_thread_backend_runs_are_identical(self):
        """``jobs=2, backend="thread"`` runs in-process, so no search
        depends on when another settles: records, path programs and
        solver decisions repeat exactly (with a cold solver memo and
        private variable numbering per run)."""
        # 10 branches: the expensive edge needs more than rung 0's 625.
        pta, path = _layered_path(hard_branches=10)
        expensive, cheap = path
        config = SearchConfig(portfolio=True)
        decisions = metrics.counter("solver.checks")

        def run():
            SOLVER_MEMO.clear()
            before = decisions.value
            with private_ids(), RefutationDriver(
                pta, config, jobs=2, backend="thread"
            ) as driver:
                pairs = driver.refute_path(path)
                report = driver.build_report(command="check")
            return (
                [(str(edge), r.status, r.path_programs) for edge, r in pairs],
                [(r.description, r.status, r.rung, r.path_programs) for r in report.records],
                decisions.value - before,
            )

        first = run()
        spent = {edge: (status, pp) for edge, status, pp in first[0]}
        assert spent[str(cheap)][0] == REFUTED
        assert spent[str(expensive)][0] == TIMEOUT
        assert [r[0] for r in first[1]] == [str(cheap)]
        assert first[2] > 0
        for _ in range(19):
            assert run() == first

    def test_private_ids_leave_the_shared_numbering_alone(self):
        import threading

        from repro.symbolic.symvar import fresh_data

        first = fresh_data().vid
        shared = []
        with private_ids():
            inside = [fresh_data().vid for _ in range(3)]
            worker = threading.Thread(
                target=lambda: shared.append(fresh_data().vid)
            )
            worker.start()
            worker.join()
        assert inside == [0, 1, 2]
        assert shared == [first + 1]  # other threads draw from the shared counter
        assert fresh_data().vid == first + 2

    def test_reachability_timeouts_match_the_fixed_schedule(self):
        """A path-mate's provisional TIMEOUT on a path that a refuted edge
        broke is not an inconclusive timeout of the assertion."""
        pta = analyze(compile_program(layered_app(2, hard_branches=10)))
        outcomes = [
            [
                (r.status, r.timeouts)
                for r in assert_unreachable(
                    pta, "Registry", "hold", "Item", config=SearchConfig(**knobs)
                )
            ]
            for knobs in ({}, {"portfolio": True})
        ]
        assert outcomes[0] == outcomes[1] == [("holds", 0), ("holds", 0)]


# ---------------------------------------------------------------------------
# Cooperative deadlines x scheduling (satellite: both backends)
# ---------------------------------------------------------------------------


class TestCooperativeDeadlines:
    def test_deadline_timeout_kill_reason_and_pool_survives_thread(
        self, pta, edges
    ):
        """An edge blowing its deadline is TIMEOUT with budget-timeout
        kills in the journal, and the pool keeps serving later batches."""
        book = provenance.install()
        try:
            config = SearchConfig(deadline_seconds=0.0)
            with RefutationDriver(pta, config, jobs=2) as driver:
                results = driver.refute_edges(edges)
                assert {r.status for r in results.values()} == {TIMEOUT}
                report = driver.build_report(command="check")
                assert all(
                    r.kill_reasons.get(provenance.BUDGET_TIMEOUT, 0) > 0
                    for r in report.records
                )
                # The pool is not poisoned: a second batch on the same
                # driver still completes (served from the result cache).
                again = driver.refute_edges(edges)
                assert {r.status for r in again.values()} == {TIMEOUT}
        finally:
            provenance.disable()

    def test_deadline_timeout_and_pool_survives_process(self, pta, edges):
        config = SearchConfig(deadline_seconds=0.0)
        with RefutationDriver(pta, config, jobs=2, backend="process") as driver:
            results = driver.refute_edges(edges)
            assert {r.status for r in results.values()} == {TIMEOUT}
            again = driver.refute_edges(edges)
            assert {r.status for r in again.values()} == {TIMEOUT}

    def test_rung_deadline_timeout_is_provisional(self, pta, edges):
        """A deadline-capped rung attempt (the portfolio's cheap rung)
        times out WITHOUT being cached or recorded, so the full-budget
        re-run still refutes — the rescue the escalation ladder exists
        for."""
        driver = RefutationDriver(pta, SearchConfig())
        edge = edges[-1]
        capped = driver.engine.refute_edge(edge, deadline=0.0)
        assert capped.status == TIMEOUT
        assert edge_key(edge) not in driver.results()
        full = driver.refute_edge(edge)
        assert full.status == REFUTED
        assert driver.results() == {edge_key(edge): full}

    def test_driver_portfolio_rescues_deadline_timeouts(self, pta, edges):
        """End to end under the thread pool: a ladder whose cheap rung
        deadline is instant still converges to the single-rung verdicts
        at the final (full-deadline) rung."""
        config = SearchConfig(
            path_budget=10_000,
            deadline_seconds=60.0,
            portfolio=True,
            portfolio_rungs=(10 ** 9,),  # rung 0: ~0s deadline, 1-path budget
        )
        with RefutationDriver(pta, config, jobs=2) as driver:
            results = driver.refute_edges(edges)
            report = driver.build_report(command="check")
        assert {r.status for r in results.values()} == {REFUTED}
        assert report.schedule["rungs"][0]["carryover"] == len(edges)
        assert report.schedule["resolved_at_rung"]["1"] == len(edges)
