"""Unit tests for the adaptive scheduling layer (``repro.engine.schedule``):
cost-model priorities, cheap-first portfolio rungs, and the cooperative
per-rung deadlines that tie them together."""

import pytest

import repro.engine.driver as driver_module
from repro.bench.workloads import layered_app, mixed_app
from repro.engine import EdgeFinished, EdgeScheduled, RefutationDriver, RunReport
from repro.engine.schedule import (
    CostModel,
    InversionMeter,
    rung_ladder,
)
from repro.ir import compile_program
from repro.obs import provenance
from repro.pointsto import analyze
from repro.pointsto.graph import StaticFieldNode
from repro.pointsto.heappaths import find_heap_path
from repro.pointsto.producers import edge_key
from repro.symbolic import Engine, SearchConfig
from repro.symbolic.stats import REFUTED, TIMEOUT


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
# InversionMeter
# ---------------------------------------------------------------------------


class TestInversionMeter:
    def test_counts_expensive_before_cheap(self):
        meter = InversionMeter({"a": 1, "b": 5, "c": 10})
        meter.complete("b")  # "a" (cheaper) still pending -> inversion
        meter.complete("a")  # cheapest remaining -> fine
        meter.complete("c")
        assert meter.inversions == 1

    def test_in_order_completion_counts_none(self):
        meter = InversionMeter({"a": 1, "b": 5})
        meter.complete("a")
        meter.complete("b")
        assert meter.inversions == 0


# ---------------------------------------------------------------------------
# Priority scheduling
# ---------------------------------------------------------------------------


class TestPrioritySchedule:
    def test_serial_verdicts_match_lifo(self, pta, edges, baseline):
        driver = RefutationDriver(pta, SearchConfig(schedule="priority"), jobs=1)
        assert _statuses(driver.refute_edges(edges), edges) == baseline

    def test_thread_verdicts_match_lifo(self, pta, edges, baseline):
        config = SearchConfig(schedule="priority")
        with RefutationDriver(pta, config, jobs=3) as driver:
            statuses = _statuses(driver.refute_edges(edges), edges)
            report = driver.build_report(command="check")
        assert statuses == baseline
        assert report.schedule["policy"] == "priority"
        assert report.schedule["priority_inversions"] >= 0

    def test_fact_pool_batch_feeds_the_inversion_meter(
        self, pta, monkeypatch
    ):
        """A fact batch on the pool meters priority inversions from the
        cost model's fact costs, and numbers ``EdgeScheduled`` by dispatch
        slot, as edge batches do."""
        meters = []

        class RecordingMeter(driver_module.InversionMeter):
            def __init__(self, costs):
                super().__init__(costs)
                self.costs = dict(costs)
                self.completed = []
                meters.append(self)

            def complete(self, key):
                self.completed.append(key)
                super().complete(key)

        monkeypatch.setattr(driver_module, "InversionMeter", RecordingMeter)
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
        config = SearchConfig(schedule="priority")
        with RefutationDriver(pta, config, jobs=3, on_event=events.append) as driver:
            driver.refute_facts(requests)
        assert len(meters) == 1
        meter = meters[0]
        model = driver._cost_model()
        assert sorted(meter.costs.values()) == sorted(
            model.fact_cost(label, bindings) for label, bindings, _ in requests
        )
        assert sorted(meter.completed) == sorted(meter.costs)
        scheduled = [e for e in events if isinstance(e, EdgeScheduled)]
        assert [e.index for e in scheduled] == list(range(len(requests)))
        assert scheduled[-1].description == requests[0][2]

    def test_report_records_policy(self, pta, edges):
        driver = RefutationDriver(pta, SearchConfig(schedule="priority"), jobs=1)
        driver.refute_edges(edges)
        section = driver.build_report(command="check").schedule
        assert section["policy"] == "priority"
        assert not section["portfolio"]


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


class TestPathPortfolio:
    @pytest.fixture(scope="class")
    def layered(self):
        # One two-edge path whose expensive refutable edge comes first and
        # whose cheap refutable edge comes second — the shape where the
        # path-level ladder wins.
        pta = analyze(compile_program(layered_app(1, hard_branches=8)))
        table = pta.program.class_table
        target = next(
            loc
            for loc in pta.graph.all_abs_locs()
            if not loc.is_array
            and loc.site.kind == "object"
            and table.site_is_instance(loc.site, "Item")
        )
        path = find_heap_path(
            pta.graph, StaticFieldNode("Registry", "hold"), target
        )
        assert path is not None and len(path) == 2
        return pta, path

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
        assert driver._cached(edge_key(expensive)) is None
        assert driver._cached(edge_key(cheap)) is not None
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
        driver = RefutationDriver(pta, SearchConfig(**PORTFOLIO), jobs=1)
        cached = driver.refute_edge(path[0])
        events = []
        driver.events.subscribe(events.append)
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
        engine = Engine(pta, SearchConfig())
        edge = edges[-1]
        capped = engine.refute_edge(edge, deadline=0.0)
        assert capped.status == TIMEOUT
        assert edge_key(edge) not in engine._edge_cache
        full = engine.refute_edge(edge)
        assert full.status == REFUTED

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
