"""Unit tests for query simplification: history and subsumption joins."""

import pytest

from repro.ir.instructions import AllocSite
from repro.pointsto.graph import AbsLoc
from repro.solver import LinExpr, eq, le
from repro.symbolic import Query
from repro.symbolic.simplification import QueryHistory, query_entails


def loc(name):
    return AbsLoc(AllocSite(hash(name) % 99_991, "Object", "M.m", hint=name))


A, B = loc("a0"), loc("b0")


def base_query(region=frozenset({A, B})):
    q = Query("M.m")
    v = q.new_ref(region)
    q.set_local("x", v)
    return q, v


class TestEntailmentProperties:
    def test_reflexive(self):
        q, _ = base_query()
        assert query_entails(q, q)

    def test_copy_entails_both_ways(self):
        q, _ = base_query()
        q2 = q.copy()
        assert query_entails(q, q2) and query_entails(q2, q)

    def test_pure_atoms_shared_vars_identity_mapping(self):
        # Forked queries share SymVar objects: a pure-only var matches by
        # identity (the fix that makes loop fixpoints converge).
        q, v = base_query()
        d = q.new_data()
        q.add_pure(eq(LinExpr.var(d), LinExpr.constant(1)))
        q2 = q.copy()
        assert query_entails(q2, q)

    def test_extra_pure_atom_strengthens(self):
        q, _ = base_query()
        q2 = q.copy()
        d = q2.new_data()
        q2.add_pure(le(LinExpr.var(d), LinExpr.constant(0)))
        assert query_entails(q2, q)
        assert not query_entails(q, q2)

    def test_field_chain_matching(self):
        def build():
            q = Query("M.m")
            v = q.new_ref(frozenset({A}))
            u = q.new_ref(frozenset({B, A}))
            q.set_local("x", v)
            q.set_field(v, "f", u)
            return q, u

        q1, u1 = build()
        q2, u2 = build()
        assert query_entails(q1, q2)
        q1.narrow(u1, frozenset({A}))
        assert query_entails(q1, q2)  # smaller region is stronger
        assert not query_entails(q2, q1)

    def test_mismatched_locals_incomparable(self):
        q1, _ = base_query()
        q2 = Query("M.m")
        v2 = q2.new_ref(frozenset({A, B}))
        q2.set_local("y", v2)
        assert not query_entails(q1, q2)

    def test_nonnull_stronger_than_maybe_null(self):
        q1 = Query("M.m")
        v1 = q1.new_ref(frozenset({A}), maybe_null=False)
        q1.set_local("x", v1)
        q2 = Query("M.m")
        v2 = q2.new_ref(frozenset({A}), maybe_null=True)
        q2.set_local("x", v2)
        assert query_entails(q1, q2)
        assert not query_entails(q2, q1)

    def test_array_cell_matching(self):
        def build():
            q = Query("M.m")
            base = q.new_ref(frozenset({A}))
            idx = q.new_data()
            val = q.new_ref(frozenset({B, A}))
            q.set_local("xs", base)
            q.add_array_cell(base, idx, val)
            return q

        assert query_entails(build(), build())


class TestHistory:
    def test_first_query_not_dropped(self):
        history = QueryHistory()
        q, _ = base_query()
        assert not history.should_drop(("loop", 1), q)

    def test_identical_query_dropped(self):
        history = QueryHistory()
        q, _ = base_query()
        assert history.should_drop(("loop", 1), q) is False
        assert history.should_drop(("loop", 1), q.copy()) is True

    def test_stronger_query_dropped(self):
        history = QueryHistory()
        weak, _ = base_query(frozenset({A, B}))
        assert not history.should_drop(("loop", 1), weak)
        strong, _ = base_query(frozenset({A}))
        assert history.should_drop(("loop", 1), strong)

    def test_weaker_query_kept(self):
        history = QueryHistory()
        strong, _ = base_query(frozenset({A}))
        assert not history.should_drop(("loop", 1), strong)
        weak, _ = base_query(frozenset({A, B}))
        assert not history.should_drop(("loop", 1), weak)

    def test_points_isolated(self):
        history = QueryHistory()
        q, _ = base_query()
        assert not history.should_drop(("loop", 1), q)
        assert not history.should_drop(("loop", 2), q.copy())

    def test_stack_signature_isolates(self):
        history = QueryHistory()
        q1, _ = base_query()
        assert not history.should_drop(("entry", "m"), q1)
        q2, _ = base_query()
        q2.push_frame("C.n", 42)
        assert not history.should_drop(("entry", "m"), q2)

    def test_disabled_history_never_drops(self):
        history = QueryHistory(enabled=False)
        q, _ = base_query()
        assert not history.should_drop(("loop", 1), q)
        assert not history.should_drop(("loop", 1), q.copy())

    def test_per_point_cap(self):
        history = QueryHistory(max_per_point=2)
        for i in range(5):
            q = Query("M.m")
            v = q.new_ref(frozenset({loc(f"site{i}")}))
            q.set_local("x", v)
            history.should_drop(("loop", 1), q)
        key = (("loop", 1), Query("M.m").stack_signature())
        assert len(history._seen[key]) <= 2
