"""Edge cases of state subsumption: equality elimination, empty constraint
sets, mod/ref-dropped facts, and the worklist batch pruner.

These pin the soundness-critical corners of query subsumption: queries
that *look* different after equality elimination must still compare, the
empty query must behave as bottom-strength "true", and facts the executor
dropped via mod/ref reasoning must make a state strictly weaker (so the
retaining state is prunable against it, never the reverse).
"""

from repro.ir import compile_program
from repro.ir.instructions import AllocSite
from repro.pointsto import analyze
from repro.pointsto.graph import AbsLoc
from repro.solver import LinExpr, eq, le
from repro.symbolic import Engine, Query, SearchConfig
from repro.symbolic.executor import PathState, StmtTask
from repro.symbolic.simplification import QueryHistory, query_entails


def loc(name):
    return AbsLoc(AllocSite(hash(name) % 99_991, "Object", "M.m", hint=name))


A, B, C = loc("a0"), loc("b0"), loc("c0")


class TestEqualityElimination:
    """unify() collapses variables into one union-find class; entailment
    must see through the elimination on either side."""

    def test_unified_pair_entails_single_var(self):
        # strong: x ↦ v, y ↦ w with v = w (unified).  weak: x ↦ u, y ↦ u.
        strong = Query("M.m")
        v = strong.new_ref(frozenset({A, B}))
        w = strong.new_ref(frozenset({A, B}))
        strong.set_local("x", v)
        strong.set_local("y", w)
        assert strong.unify(v, w)

        weak = Query("M.m")
        u = weak.new_ref(frozenset({A, B}))
        weak.set_local("x", u)
        weak.set_local("y", u)
        assert query_entails(strong, weak)
        assert query_entails(weak, strong)

    def test_unification_intersects_regions_making_state_stronger(self):
        def build(unified):
            q = Query("M.m")
            v = q.new_ref(frozenset({A, B}))
            w = q.new_ref(frozenset({B, C}))
            q.set_local("x", v)
            q.set_local("y", w)
            if unified:
                assert q.unify(v, w)  # region becomes {B}
            return q

        assert query_entails(build(unified=True), build(unified=False))
        assert not query_entails(build(unified=False), build(unified=True))

    def test_separate_vars_do_not_entail_unified(self):
        # weak demands x and y be the *same* instance; keeping them apart
        # is not stronger — the match must fail (injectivity).
        strong = Query("M.m")
        strong.set_local("x", strong.new_ref(frozenset({A})))
        strong.set_local("y", strong.new_ref(frozenset({A})))

        weak = Query("M.m")
        u = weak.new_ref(frozenset({A}))
        weak.set_local("x", u)
        weak.set_local("y", u)
        assert not query_entails(strong, weak)

    def test_pure_atoms_survive_variable_elimination(self):
        # Pure-only vars are matched by identity, so the comparison is
        # between a query and its fork (the shape the executor produces).
        q = Query("M.m")
        d1, d2 = q.new_data(), q.new_data()
        q.add_pure(eq(LinExpr.var(d1), LinExpr.var(d2)))
        q.add_pure(le(LinExpr.var(d1), LinExpr.constant(5)))
        fork = q.copy()
        assert query_entails(fork, q)
        assert query_entails(q, fork)


class TestSeparatingConjunction:
    """Two weak cells over one field assert distinct bases, so the cell
    matching must be injective: one strong cell cannot stand for both."""

    def test_two_weak_cells_cannot_share_one_strong_cell(self):
        # strong: local ↦ t12 * this ↦ t12 * t12.sz ↦ n
        strong = Query("M.m")
        t12 = strong.new_ref(frozenset({A}), hint="this")
        n = strong.new_data(hint="sz")
        strong.set_local("local", t12)
        strong.set_local("this", t12)
        strong.set_field(t12, "sz", n)

        # weak: local ↦ t12 * this ↦ t17 * t12.sz ↦ a * t17.sz ↦ b, where
        # the two sz cells force t12 ≠ t17 — which the strong query denies.
        weak = Query("M.m")
        t17 = weak.new_ref(frozenset({A, B}), hint="this")
        weak.set_local("local", t12)
        weak.set_local("this", t17)
        weak.narrow(t12, frozenset({A}))
        weak.set_field(t12, "sz", weak.new_data(hint="sz"))
        weak.set_field(t17, "sz", weak.new_data(hint="sz"))

        assert not query_entails(strong, weak)
        assert not query_entails(weak, strong)

    def test_distinct_strong_cells_still_match(self):
        strong = Query("M.m")
        x, y = strong.new_ref(frozenset({A})), strong.new_ref(frozenset({A}))
        strong.set_local("local", x)
        strong.set_local("this", y)
        strong.set_field(x, "sz", strong.new_data())
        strong.set_field(y, "sz", strong.new_data())
        assert query_entails(strong, strong.copy())


class TestEmptyConstraintSets:
    def test_empty_query_is_weakest(self):
        empty = Query("M.m")
        constrained = Query("M.m")
        constrained.set_local("x", constrained.new_ref(frozenset({A})))
        # Anything entails the empty query; the empty query entails
        # nothing but itself.
        assert query_entails(constrained, empty)
        assert query_entails(empty, empty.copy())
        assert not query_entails(empty, constrained)

    def test_failed_query_is_strongest(self):
        failed = Query("M.m")
        failed.fail("test")
        other = Query("M.m")
        other.set_local("x", other.new_ref(frozenset({A})))
        assert query_entails(failed, other)
        assert not query_entails(other, failed)

    def test_cached_empty_query_subsumes_everything_at_point(self):
        # Once the empty query is recorded at a point, every later state
        # there is at least as strong and must be dropped.
        history = QueryHistory()
        assert not history.should_drop(("loop", 7), Query("M.m"))
        strong = Query("M.m")
        strong.set_local("x", strong.new_ref(frozenset({A, B})))
        assert history.should_drop(("loop", 7), strong)
        assert history.should_drop(("loop", 7), Query("M.m"))

    def test_history_drops_empty_after_empty(self):
        history = QueryHistory()
        assert not history.should_drop(("entry", "m"), Query("M.m"))
        assert history.should_drop(("entry", "m"), Query("M.m"))


class TestDroppedModRefFacts:
    """The executor drops facts a skipped callee cannot touch (mod/ref).
    A state that dropped a fact is weaker than one that kept it; pruning
    may only discard the keeper."""

    def test_state_with_dropped_local_is_weaker(self):
        kept = Query("M.m")
        v = kept.new_ref(frozenset({A}))
        kept.set_local("x", v)
        kept.set_local("tmp", kept.new_ref(frozenset({B})))

        dropped = kept.copy()
        dropped.del_local("tmp")  # what a mod/ref skip does

        assert query_entails(kept, dropped)
        assert not query_entails(dropped, kept)

    def test_state_with_dropped_field_cell_is_weaker(self):
        kept = Query("M.m")
        base = kept.new_ref(frozenset({A}))
        kept.set_local("x", base)
        kept.set_field(base, "f", kept.new_ref(frozenset({B})))

        dropped = kept.copy()
        dropped.del_field(next(iter(dropped.locals.values())), "f")

        assert query_entails(kept, dropped)
        assert not query_entails(dropped, kept)

    def test_history_drops_keeper_against_recorded_dropper(self):
        history = QueryHistory()
        weak = Query("M.m")
        weak.set_local("x", weak.new_ref(frozenset({A})))
        kept = weak.copy()
        kept.set_static("M", "s", kept.new_ref(frozenset({B})))
        assert not history.should_drop(("loop", 3), weak)
        assert history.should_drop(("loop", 3), kept)


SOURCE = (
    "class M { static void main() {"
    " int a = 1;"
    " if (a < 2) { int b = 2; }"
    " int c = 3; } }"
)


class TestWorklistPruner:
    def _engine(self, **cfg):
        program = compile_program(SOURCE)
        return Engine(analyze(program), SearchConfig(**cfg))

    def _state(self, k, region):
        q = Query("M.main")
        q.set_local("x", q.new_ref(frozenset(region)))
        return PathState(k, q)

    def test_identical_continuation_stronger_sibling_pruned(self):
        engine = self._engine()
        k = (StmtTask(None), ())
        weak = self._state(k, {A, B})
        strong = self._state(k, {A})
        kept = engine._prune_batch([strong, weak])
        assert kept == [weak]

    def test_pruning_keeps_later_sibling_on_mutual_entailment(self):
        # Equal queries entail each other; exactly one must survive, and it
        # is the one popped first (later in the list) — witness stability.
        engine = self._engine()
        k = (StmtTask(None), ())
        s1, s2 = self._state(k, {A}), self._state(k, {A})
        kept = engine._prune_batch([s1, s2])
        assert kept == [s2]

    def test_different_continuations_never_pruned(self):
        engine = self._engine()
        k1, k2 = (StmtTask(None), ()), (StmtTask(None), ())
        states = [self._state(k1, {A}), self._state(k2, {A, B})]
        assert engine._prune_batch(states) == states

    def test_disabled_subsumption_prunes_nothing(self):
        engine = self._engine(state_subsumption=False)
        k = (StmtTask(None), ())
        states = [self._state(k, {A}), self._state(k, {A, B})]
        assert engine._prune_batch(states) == states

    def test_singleton_batch_untouched(self):
        engine = self._engine()
        states = [self._state((StmtTask(None), ()), {A})]
        assert engine._prune_batch(states) == states
