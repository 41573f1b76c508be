"""Unit tests for the repro.perf memoization & subsumption layer."""

import pickle

import pytest

from repro import perf
from repro.ir.instructions import AllocSite
from repro.obs import metrics
from repro.perf.cache import RefutedStateCache
from repro.perf.memo import SOLVER_MEMO, LRUCache, SolverMemo
from repro.pointsto.graph import AbsLoc
from repro.solver import (
    NULL,
    LinExpr,
    SolverStats,
    check_sat,
    eq,
    le,
    ref_eq,
    ref_ne,
    canonical_key,
    split_components,
    syntactic_unsat,
)
from repro.solver import core
from repro.solver import partition as partition_mod
from repro.symbolic import Query


def loc(name):
    return AbsLoc(AllocSite(hash(name) % 99_991, "Object", "M.m", hint=name))


A, B = loc("a0"), loc("b0")


def query_with_region(region):
    q = Query("M.m")
    v = q.new_ref(region)
    q.set_local("x", v)
    return q


@pytest.fixture(autouse=True)
def fresh_memo():
    SOLVER_MEMO.clear()
    enabled = SOLVER_MEMO.enabled
    SOLVER_MEMO.set_enabled(True)
    yield
    SOLVER_MEMO.clear()
    SOLVER_MEMO.set_enabled(enabled)


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(4)
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", "d") == "d"

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh + overwrite; b becomes LRU
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_len_and_clear(self):
        cache = LRUCache(8)
        for i in range(5):
            cache.put(i, i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0

    def test_capacity_bound_holds(self):
        cache = LRUCache(3)
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 3

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)


class TestSolverMemo:
    """The per-component verdict table (``SOLVER_MEMO.component``)."""

    def test_check_sat_memoizes_verdict(self):
        d = LinExpr.var("d")
        atoms = [le(d, LinExpr.constant(3)), le(LinExpr.constant(1), d)]
        stats = SolverStats()
        assert check_sat(atoms, stats=stats)
        assert check_sat(atoms, stats=stats)
        assert stats.checks == 2
        assert stats.component_hits == 1
        assert len(SOLVER_MEMO.component) == 1
        # A component's signature lists its atoms in caller order; the
        # order-insensitive whole-query key is the SAT basis (a frozenset).
        basis = (frozenset(atoms), frozenset())
        assert check_sat(list(reversed(atoms)), stats=stats, basis=basis)
        assert stats.memo_hits == 1 and stats.component_hits == 1

    def test_unsat_verdict_memoized_and_counted(self):
        d = LinExpr.var("d")
        atoms = [le(d, LinExpr.constant(0)), le(LinExpr.constant(1), d)]
        stats = SolverStats()
        assert not check_sat(atoms, stats=stats)
        assert not check_sat(atoms, stats=stats)
        # The unsat tally counts *verdicts*, so it is memoization-invariant.
        assert stats.unsat == 2
        assert stats.component_hits == 1

    def test_disabled_memo_always_misses_table(self):
        SOLVER_MEMO.set_enabled(False)
        d = LinExpr.var("d")
        atoms = [eq(d, LinExpr.constant(1))]
        stats = SolverStats()
        check_sat(atoms, stats=stats)
        check_sat(atoms, stats=stats)
        assert stats.component_hits == 0
        assert len(SOLVER_MEMO.component) == 0

    def test_registry_counts_only_real_runs(self):
        checks = metrics.counter("solver.checks")
        before = checks.value
        d = LinExpr.var("d")
        atoms = [eq(d, LinExpr.constant(7))]
        check_sat(atoms)
        check_sat(atoms)
        # One real decision-procedure run; the second call was a memo hit.
        assert checks.value == before + 1

    def test_nonnull_set_is_part_of_the_key(self):
        # Same atoms, different nonnull facts must not share a verdict.
        atoms = [ref_eq("v", "w")]
        assert check_sat(atoms)
        assert check_sat(atoms, nonnull=frozenset({"v"}))
        assert len(SOLVER_MEMO.component) == 2

    def test_set_enabled_and_clear(self):
        memo = SolverMemo(capacity=4)
        memo.component.put("k", True)
        memo.clear()
        assert len(memo.component) == 0
        memo.set_enabled(False)
        assert memo.enabled is False


class TestPartitionedSolver:
    def _xy_atoms(self):
        # Two variable-disjoint fragments: x-chain and y-chain.
        x, y = LinExpr.var("x"), LinExpr.var("y")
        return [
            le(x, LinExpr.constant(3)),
            le(LinExpr.constant(1), x),
            le(y, LinExpr.constant(9)),
        ]

    def test_syntactic_unsat_screens_ground_contradictions(self):
        assert syntactic_unsat([le(LinExpr.constant(1), LinExpr.constant(0))], frozenset())
        assert syntactic_unsat([eq(LinExpr.constant(2), LinExpr.constant(0))], frozenset())
        assert syntactic_unsat([ref_ne("v", "v")], frozenset())
        assert syntactic_unsat([ref_eq("v", NULL)], frozenset({"v"}))
        assert syntactic_unsat(self._xy_atoms(), frozenset()) is None

    def test_split_components_by_shared_variables(self):
        comps = split_components(self._xy_atoms(), frozenset({"x", "z"}))
        assert len(comps) == 2
        sizes = sorted(len(catoms) for catoms, _, _ in comps)
        assert sizes == [1, 2]
        for catoms, sliced, dirty in comps:
            # nonnull slices to the component's own variables only (the
            # irrelevant "z" fact never reaches a component).
            assert list(sliced) == (["x"] if len(catoms) == 2 else [])
            # With no dirty set given, every component needs a verdict.
            assert dirty
        # Given dirty variables, only their components are flagged.
        comps = split_components(self._xy_atoms(), frozenset(), {"y", "w"})
        assert [(len(catoms), dirty) for catoms, _, dirty in comps] == [
            (2, False),
            (1, True),
        ]

    def test_canonical_keys_collapse_alpha_equivalent_fragments(self):
        # Structurally identical chains over different fresh variables
        # must share one canonical signature — naming is what the
        # executor varies per path and per search.
        a = [eq(LinExpr.var("a1").sub(LinExpr.var("a2")), LinExpr.constant(2))]
        b = [eq(LinExpr.var("b7").sub(LinExpr.var("b9")), LinExpr.constant(2))]
        key_a = canonical_key(a, frozenset())
        key_b = canonical_key(b, frozenset({"b7"}))
        assert key_a[0] == key_b[0]
        # Signatures are plain data — first-occurrence variable indices,
        # never term objects — and nonnull facts map to the same indices.
        # Constants and coefficients are zigzag-encoded (-2 -> 3, 1 -> 2,
        # -1 -> 1) so CPython's hash(-1) == hash(-2) aliasing cannot
        # collapse distinct signatures onto one hash bucket.
        assert key_a[0] == (("==", 3, (0, 2), (1, 1)),)
        assert key_b[1] == frozenset({0})
        # ...and a different constant is a different key.
        c = [eq(LinExpr.var("c1").sub(LinExpr.var("c2")), LinExpr.constant(3))]
        key_c = canonical_key(c, frozenset())
        assert key_c != key_a
        # Mixed ref/lin components keep NULL distinguishable from any
        # variable slot.
        key_r = canonical_key([ref_eq("v", NULL)], frozenset())
        assert key_r[0] == (("=", 0, -1),)

    def test_component_verdicts_memoized_across_queries(self):
        stats = SolverStats()
        assert check_sat(self._xy_atoms(), stats=stats)
        checks = metrics.counter("solver.checks")
        before = checks.value
        # Same fragments inside a different (larger) query: all component
        # memo hits, zero actual decision-procedure runs.
        z = LinExpr.var("z")
        assert check_sat(self._xy_atoms() + [le(z, LinExpr.constant(5))], stats=stats)
        assert checks.value == before + 1  # only the fresh z component ran
        assert stats.component_hits == 2

    def test_unsat_component_refutes_whole_query(self):
        x, y = LinExpr.var("x"), LinExpr.var("y")
        atoms = [
            le(y, LinExpr.constant(9)),
            le(x, LinExpr.constant(0)),
            le(LinExpr.constant(1), x),  # x-component infeasible
        ]
        stats = SolverStats()
        assert not check_sat(atoms, stats=stats)
        assert stats.unsat == 1

    def test_parity_with_monolithic_on_mixed_atoms(self):
        x = LinExpr.var("x")
        cases = [
            ([ref_eq("a", "b"), ref_ne("b", "a"), le(x, LinExpr.constant(1))], frozenset()),
            ([ref_eq("a", NULL)], frozenset({"a"})),
            ([ref_eq("a", NULL), ref_eq("a", "b")], frozenset({"b"})),
            ([eq(x, LinExpr.constant(4)), le(x, LinExpr.constant(3))], frozenset()),
            ([ref_eq("a", "b"), le(x, LinExpr.constant(3))], frozenset()),
        ]
        for atoms, nonnull in cases:
            SOLVER_MEMO.clear()
            part = check_sat(atoms, nonnull=nonnull)
            # The whole-conjunction decider is the oracle.
            mono = core._decide_component(atoms, nonnull, SolverStats())
            assert part == mono, (atoms, nonnull)

    def test_partitioning_works_with_memo_disabled(self):
        SOLVER_MEMO.set_enabled(False)
        stats = SolverStats()
        assert check_sat(self._xy_atoms(), stats=stats)
        assert check_sat(self._xy_atoms(), stats=stats)
        assert stats.component_hits == 0
        assert len(SOLVER_MEMO.component) == 0

    def test_repeated_atoms_share_one_component_signature(self, monkeypatch):
        # Two bases sharing several fields give one separation
        # disequality per field: the same component listed with x != y
        # twice and three times must have one signature and one decision.
        decided = []
        real = core._decide_component
        monkeypatch.setattr(
            core,
            "_decide_component",
            lambda catoms, nonnull, stats: decided.append(catoms)
            or real(catoms, nonnull, stats),
        )
        assert check_sat([ref_ne("a", "b")] * 2)
        assert check_sat([ref_ne("c", "d")] * 3)
        assert decided == [[ref_ne("a", "b")]]

    def test_shared_fields_decide_the_separation_component_once(self):
        # K9Mail-shaped: two instances sharing two fields, then (in a
        # fresh query) three — the same separation fragment either way.
        def query(fields):
            q = Query("M.m")
            a, b = q.new_ref(frozenset({A})), q.new_ref(frozenset({A}))
            for base in (a, b):
                for name in fields:
                    q.set_field(base, name, q.new_ref(None, maybe_null=True))
            return q

        checks = metrics.counter("solver.checks")
        assert query("fg").check_sat()
        before = checks.value
        assert query("fgh").check_sat()
        assert checks.value == before


class TestSatBasis:
    """Delta satisfiability: a query is decided only where it differs
    from its lineage's last SAT check (``Query.sat_basis``)."""

    @pytest.fixture(autouse=True)
    def partitioned_no_memo(self, monkeypatch):
        # With the component memo off, every component that needs a
        # verdict runs the decision procedure, so decisions are countable.
        SOLVER_MEMO.set_enabled(False)
        self.splits = 0
        real_split = partition_mod.split_components

        def counting_split(*args):
            self.splits += 1
            return real_split(*args)

        monkeypatch.setattr(partition_mod, "split_components", counting_split)
        yield

    @staticmethod
    def decisions() -> int:
        return metrics.counter("solver.checks").value

    @staticmethod
    def two_component_query():
        """A query over two variable-disjoint fragments: an ``x`` chain
        (two data variables) and a ``y`` bound."""
        q = Query("M.m")
        x1, x2, y = q.new_data("x1"), q.new_data("x2"), q.new_data("y")
        q.add_pure(le(LinExpr.var(x1), LinExpr.constant(3)))
        q.add_pure(le(LinExpr.var(x1), LinExpr.var(x2)))
        q.add_pure(le(LinExpr.var(y), LinExpr.constant(9)))
        return q, x1, x2, y

    def test_query_equal_to_its_basis_needs_no_split(self):
        q, *_ = self.two_component_query()
        assert q.check_sat()
        assert q.sat_basis is not None and self.splits == 1
        child = q.copy()
        assert child.sat_basis is q.sat_basis
        child.touch()  # a transfer that left the pure part alone
        stats = SolverStats()
        before = self.decisions()
        assert child.check_sat(stats)
        assert self.splits == 1
        assert self.decisions() == before
        assert stats.memo_hits == 1 and stats.context_hits == 0

    def test_one_new_atom_decides_only_its_component(self):
        q, x1, _, _ = self.two_component_query()
        assert q.check_sat()
        child = q.copy()
        child.add_pure(le(LinExpr.constant(1), LinExpr.var(x1)))
        stats = SolverStats()
        before = self.decisions()
        assert child.check_sat(stats)
        assert self.decisions() == before + 1  # the x chain only
        assert stats.context_hits == 1  # the y bound, from the basis
        # The parent's basis is its own; the child's moved on.
        assert child.sat_basis != q.sat_basis

    def test_new_nonnull_variable_dirties_exactly_its_component(self):
        atoms = [ref_ne("a", "b"), ref_ne("c", "d")]
        basis = (frozenset(atoms), frozenset())
        stats = SolverStats()
        before = self.decisions()
        assert check_sat(atoms, frozenset({"a"}), stats, basis=basis)
        assert self.decisions() == before + 1
        assert stats.context_hits == 1
        # Fewer non-null facts than the basis: answered whole.
        basis = (frozenset(atoms), frozenset({"a", "c"}))
        assert check_sat(atoms, frozenset({"c"}), stats, basis=basis)
        assert self.decisions() == before + 1
        assert stats.memo_hits == 1

    def test_child_renamed_by_unify_takes_full_path(self):
        q, x1, x2, _ = self.two_component_query()
        assert q.check_sat()
        child = q.copy()
        assert child.unify(x1, x2)  # renames an atom of the x chain
        assert not frozenset(child.canonical_pure()) >= q.sat_basis[0]
        stats = SolverStats()
        before = self.decisions()
        assert child.check_sat(stats)
        assert self.decisions() == before + 2  # both components
        assert stats.context_hits == 0 and stats.memo_hits == 0

    def test_unsat_check_sets_no_basis(self):
        q, x1, _, _ = self.two_component_query()
        assert q.check_sat()
        basis = q.sat_basis
        child = q.copy()
        child.add_pure(le(LinExpr.constant(4), LinExpr.var(x1)))  # x1 > 3
        assert not child.check_sat()
        assert child.sat_basis is basis
        fresh = Query("M.m")
        d = fresh.new_data()
        fresh.add_pure(eq(LinExpr.var(d), LinExpr.constant(1)))
        fresh.add_pure(eq(LinExpr.var(d), LinExpr.constant(2)))
        assert not fresh.check_sat()
        assert fresh.sat_basis is None


class TestRefutedStateCache:
    def test_empty_cache_never_subsumes(self):
        cache = RefutedStateCache()
        q = query_with_region(frozenset({A}))
        assert not cache.subsumes(("loop", 1), q)
        assert cache.stats()["misses"] == 1

    def test_stronger_state_subsumed_by_cached_refutation(self):
        cache = RefutedStateCache()
        weak = query_with_region(frozenset({A, B}))
        cache.add_many([(("loop", 1), weak)])
        strong = query_with_region(frozenset({A}))
        assert cache.subsumes(("loop", 1), strong)
        assert cache.stats()["hits"] == 1

    def test_weaker_state_not_subsumed(self):
        cache = RefutedStateCache()
        strong = query_with_region(frozenset({A}))
        cache.add_many([(("loop", 1), strong)])
        weak = query_with_region(frozenset({A, B}))
        assert not cache.subsumes(("loop", 1), weak)

    def test_points_are_isolated(self):
        cache = RefutedStateCache()
        q = query_with_region(frozenset({A}))
        cache.add_many([(("loop", 1), q)])
        assert not cache.subsumes(("loop", 2), query_with_region(frozenset({A})))

    def test_per_point_cap(self):
        cache = RefutedStateCache(max_per_point=3)
        entries = [
            (("loop", 1), query_with_region(frozenset({loc(f"s{i}")})))
            for i in range(10)
        ]
        cache.add_many(entries)
        assert cache.stats()["states"] == 3

    def test_clear_and_len(self):
        cache = RefutedStateCache()
        cache.add_many([(("loop", i), query_with_region(frozenset({A}))) for i in range(4)])
        assert len(cache) == 4
        assert cache.stats()["points"] == 4
        cache.clear()
        assert len(cache) == 0

    def test_rejects_nonpositive_stripes(self):
        with pytest.raises(ValueError):
            RefutedStateCache(stripes=0)


class TestRefutedCacheSnapshotMerge:
    def test_snapshot_carries_per_entry_hit_counts(self):
        cache = RefutedStateCache()
        weak = query_with_region(frozenset({A, B}))
        cache.add_many([(("loop", 1), weak)])
        cache.subsumes(("loop", 1), query_with_region(frozenset({A})))
        cache.subsumes(("loop", 1), query_with_region(frozenset({A})))
        cache.subsumes(("loop", 2), query_with_region(frozenset({A})))
        snap = cache.snapshot()
        assert snap["hits"] == 2 and snap["misses"] == 1
        assert snap["point_hits"] == {("loop", 1): 2}

    def test_merge_sums_tallies_never_resets(self):
        """The process-pool invariant: folding a worker snapshot into the
        parent must *add* to the parent's per-entry hit counts — a merge
        that replaced them would silently lose the cross-run LRU signal
        every time ``--backend process`` is used."""
        parent = RefutedStateCache()
        weak = query_with_region(frozenset({A, B}))
        parent.add_many([(("loop", 1), weak)])
        parent.subsumes(("loop", 1), query_with_region(frozenset({A})))
        before = parent.snapshot()
        assert before["point_hits"] == {("loop", 1): 1}

        worker = {"hits": 3, "misses": 2,
                  "point_hits": {("loop", 1): 2, ("entry", "m"): 1}}
        parent.merge_snapshot(worker)
        after = parent.snapshot()
        assert after["hits"] == before["hits"] + 3
        assert after["misses"] == before["misses"] + 2
        assert after["point_hits"] == {("loop", 1): 3, ("entry", "m"): 1}

    def test_merge_accumulates_across_workers(self):
        parent = RefutedStateCache()
        for _ in range(3):
            parent.merge_snapshot(
                {"hits": 1, "misses": 1, "point_hits": {("loop", 7): 4}}
            )
        snap = parent.snapshot()
        assert snap["hits"] == 3 and snap["misses"] == 3
        assert snap["point_hits"] == {("loop", 7): 12}

    def test_clear_resets_point_hits(self):
        cache = RefutedStateCache()
        cache.merge_snapshot({"hits": 1, "misses": 0,
                              "point_hits": {("loop", 1): 1}})
        cache.clear()
        assert cache.snapshot()["point_hits"] == {}


class TestMemoCapacity:
    def test_component_table_is_bounded(self):
        memo = SolverMemo(capacity=4)
        for i in range(10):
            memo.component.put(("sig", i), True)
        assert len(memo.component) == 4
        assert memo.sizes()["component"] == 4
        assert memo.sizes()["capacity"] == 4

    def test_env_override_sets_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "7")
        assert SolverMemo().component.capacity == 7

    def test_env_override_ignores_garbage(self, monkeypatch):
        from repro.perf.memo import MEMO_CAPACITY

        monkeypatch.setenv("REPRO_MEMO_CAPACITY", "not-a-number")
        assert SolverMemo().component.capacity == MEMO_CAPACITY

    def test_sizes_published_as_gauges(self):
        SOLVER_MEMO.component.put(("sig", "gauge-probe"), True)
        perf.refresh_intern_gauges()
        assert (
            metrics.gauge("solver.memo_component_size").value
            == SOLVER_MEMO.sizes()["component"]
        )
        assert metrics.gauge("solver.memo_capacity").value > 0


class TestFacade:
    def test_snapshot_contains_all_cache_metrics(self):
        snap = perf.cache_stats_snapshot()
        for name in perf.CACHE_METRIC_NAMES:
            assert name in snap
        assert "solver.intern_hits" in snap
        pickle.dumps(snap)  # must survive the process-pool trip

    def test_cache_report_merges_worker_snapshots(self):
        base = perf.cache_stats_snapshot()
        worker = {"solver.memo_hits": 10, "solver.memo_misses": 10}
        report = perf.cache_report([worker])
        memo = report["solver_memo"]
        assert memo["hits"] == base["solver.memo_hits"] + 10
        assert memo["misses"] == base["solver.memo_misses"] + 10
        assert 0.0 <= memo["hit_rate"] <= 1.0

    def test_hit_rate_zero_when_untouched(self):
        report = perf.cache_report(
            [{"executor.refuted_cache_hits": 0, "executor.refuted_cache_misses": 0}]
        )
        assert isinstance(report["refuted_states"]["hit_rate"], float)

    def test_intern_gauges_refresh(self):
        perf.refresh_intern_gauges()
        assert metrics.gauge("solver.intern_size").value >= 0
