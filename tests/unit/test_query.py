"""Unit tests for the mixed symbolic-explicit query structure."""

import base64
import pickle

from repro.ir.instructions import AllocSite
from repro.pointsto.graph import AbsLoc
from repro.solver import NULL, LinExpr, eq, le, ref_eq, ref_ne
from repro.symbolic import Query, query_entails


def loc(name, cls="Object"):
    return AbsLoc(AllocSite(hash(name) % 10_000, cls, "M.m", hint=name))


A, B, C = loc("a0"), loc("b0"), loc("c0")


def fresh_query():
    return Query("M.m")


class TestRegions:
    def test_empty_region_fails_immediately(self):
        q = fresh_query()
        q.new_ref(frozenset())
        assert q.failed

    def test_narrow_intersects(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        assert q.narrow(v, frozenset({B, C}))
        assert q.region_of(v) == frozenset({B})

    def test_narrow_to_empty_refutes(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        assert not q.narrow(v, frozenset({B}))
        assert q.failed

    def test_narrow_none_is_noop(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        assert q.narrow(v, None)
        assert q.region_of(v) == frozenset({A})

    def test_unconstrained_var_has_no_region(self):
        q = fresh_query()
        v = q.new_ref(None)
        assert q.region_of(v) is None


class TestUnification:
    def test_unify_intersects_regions(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        u = q.new_ref(frozenset({B, C}))
        assert q.unify(v, u)
        assert q.region_of(v) == frozenset({B})
        assert q.find(v) is q.find(u)

    def test_unify_disjoint_regions_refutes(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        u = q.new_ref(frozenset({B}))
        assert not q.unify(v, u)
        assert q.failed

    def test_unify_merges_field_cells(self):
        q = fresh_query()
        v1 = q.new_ref(frozenset({A}))
        v2 = q.new_ref(frozenset({A}))
        u1 = q.new_ref(frozenset({B, C}))
        u2 = q.new_ref(frozenset({B}))
        q.set_field(v1, "f", u1)
        q.set_field(v2, "f", u2)
        assert q.unify(v1, v2)
        # The two cells collapse into one; values unified.
        assert len(q.field_cells) == 1
        assert q.find(u1) is q.find(u2)
        assert q.region_of(u1) == frozenset({B})

    def test_unify_nonnull_wins(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}), maybe_null=True)
        u = q.new_ref(frozenset({A}), maybe_null=False)
        q.unify(v, u)
        assert not q.is_maybe_null(v)

    def test_array_cells_merge_on_same_base_and_index(self):
        q = fresh_query()
        base = q.new_ref(frozenset({A}))
        idx = q.new_data()
        u1 = q.new_ref(frozenset({B, C}))
        u2 = q.new_ref(frozenset({C}))
        q.add_array_cell(base, idx, u1)
        q.add_array_cell(base, idx, u2)
        assert len(q.array_cells) == 1
        assert q.find(u1) is q.find(u2)


class TestCanonicalPure:
    def test_no_merges_returns_the_atom_objects_themselves(self):
        q = fresh_query()
        r, d = q.new_ref(None), q.new_data()
        atoms = [ref_eq(r, NULL), eq(LinExpr.var(d), LinExpr.constant(1))]
        for atom in atoms:
            q.add_pure(atom)
        out = q.canonical_pure()
        assert len(out) == len(atoms)
        assert all(got is want for got, want in zip(out, atoms))

    def test_only_atoms_over_merged_variables_are_rebuilt(self):
        q = fresh_query()
        a, b, c = q.new_ref(None), q.new_ref(None), q.new_ref(None)
        untouched = ref_eq(c, NULL)
        q.add_pure(ref_eq(a, NULL))
        q.add_pure(ref_eq(b, NULL))
        q.add_pure(untouched)
        assert q.unify(a, b)
        first, second, kept = q.canonical_pure()
        assert first == second
        assert first.vars() == {q.find(a)}
        assert kept is untouched


class TestSeparation:
    def test_local_rebinding_unifies(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        u = q.new_ref(frozenset({B, C}))
        q.set_local("x", v)
        assert q.set_local("x", u)
        assert q.find(v) is q.find(u)

    def test_distinct_field_cells_imply_base_disequality(self):
        q = fresh_query()
        b1 = q.new_ref(frozenset({A}))
        b2 = q.new_ref(frozenset({A}))
        q.set_field(b1, "f", q.new_ref(frozenset({B})))
        q.set_field(b2, "f", q.new_ref(frozenset({B})))
        q.add_pure(ref_eq(q.find(b1), q.find(b2)))
        assert not q.check_sat()

    def test_null_base_contradiction(self):
        q = fresh_query()
        b = q.new_ref(frozenset({A}))
        q.set_field(b, "f", q.new_ref(frozenset({B})))
        q.add_pure(ref_eq(q.find(b), NULL))
        assert not q.check_sat()

    def test_maybe_null_value_can_be_null(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}), maybe_null=True)
        q.set_local("x", v)
        q.add_pure(ref_eq(q.find(v), NULL))
        assert q.check_sat()


class TestStateStructure:
    def test_memory_empty_after_consuming(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A}))
        q.set_local("x", v)
        assert not q.is_memory_empty()
        q.del_local("x")
        assert q.is_memory_empty()

    def test_copy_is_independent(self):
        q = fresh_query()
        v = q.new_ref(frozenset({A, B}))
        q.set_local("x", v)
        q2 = q.copy()
        q2.narrow(v, frozenset({A}))
        assert q.region_of(v) == frozenset({A, B})
        assert q2.region_of(v) == frozenset({A})

    def test_frames_push_pop(self):
        q = fresh_query()
        assert q.current_frame == 0
        fid = q.push_frame("C.m", 42)
        assert q.current_frame == fid != 0
        assert q.current_method == "C.m"
        q.pop_frame()
        assert q.current_frame == 0
        assert q.current_method == "M.m"

    def test_guard_cap_refuses_new_constraints(self):
        # The path-constraint cap keeps the guards nearest the query point
        # (added first during the backwards walk) and refuses later ones.
        q = fresh_query()
        d1, d2, d3 = q.new_data(), q.new_data(), q.new_data()
        q.add_pure(eq(LinExpr.var(d1), LinExpr.constant(1)), guard=True, cap=2)
        q.add_pure(eq(LinExpr.var(d2), LinExpr.constant(2)), guard=True, cap=2)
        q.add_pure(eq(LinExpr.var(d3), LinExpr.constant(3)), guard=True, cap=2)
        guards = [a for a, g in q.pure if g]
        assert len(guards) == 2
        remaining_vars = {v for a in guards for v in a.vars()}
        assert d1 in remaining_vars
        assert d3 not in remaining_vars

    def test_instance_counts(self):
        q = fresh_query()
        v1 = q.new_ref(frozenset({A}))
        v2 = q.new_ref(frozenset({A}))
        q.set_field(v1, "f", v2)
        counts = q.instance_counts()
        assert counts[A] == 2


class TestEntailment:
    def test_identical_queries_entail(self):
        q1, q2 = fresh_query(), fresh_query()
        for q in (q1, q2):
            v = q.new_ref(frozenset({A}))
            q.set_local("x", v)
        assert query_entails(q1, q2)
        assert query_entails(q2, q1)

    def test_extra_constraints_make_stronger(self):
        q1, q2 = fresh_query(), fresh_query()
        for q, extra in ((q1, True), (q2, False)):
            v = q.new_ref(frozenset({A}))
            q.set_local("x", v)
            if extra:
                u = q.new_ref(frozenset({B}))
                q.set_field(v, "f", u)
        assert query_entails(q1, q2)  # strong ⊨ weak
        assert not query_entails(q2, q1)

    def test_smaller_region_is_stronger(self):
        q1, q2 = fresh_query(), fresh_query()
        v1 = q1.new_ref(frozenset({A}))
        q1.set_local("x", v1)
        v2 = q2.new_ref(frozenset({A, B}))
        q2.set_local("x", v2)
        assert query_entails(q1, q2)
        assert not query_entails(q2, q1)

    def test_different_stack_signatures_incomparable(self):
        q1, q2 = fresh_query(), fresh_query()
        q2.push_frame("C.m", 7)
        assert not query_entails(q1, q2)

    def test_failed_query_entails_everything(self):
        q1, q2 = fresh_query(), fresh_query()
        q1.fail("test")
        assert query_entails(q1, q2)


#: A query pickled by a build that kept a ``sat_basis`` slot where the
#: component record is now: ``pickled_query()``'s steps, pickled after its
#: second ("grew") check.
SAT_BASIS_PICKLE = """
gASV3QIAAAAAAACMFHJlcHJvLnN5bWJvbGljLnF1ZXJ5lIwFUXVlcnmUk5QpgZR9lCiMAnVm
lIwWcmVwcm8uc29sdmVyLnVuaW9uZmluZJSMCVVuaW9uRmluZJSTlCmBlH2UjAdfcGFyZW50
lH2Uc2KMB3JlZ2lvbnOUfZSMCm1heWJlX251bGyUj5QojBVyZXByby5zeW1ib2xpYy5zeW12
YXKUjAZTeW1WYXKUk5QpgZROfZQojAN2aWSUSwKMBGtpbmSUjANyZWaUjARoaW50lIwBY5R1
hpRikIwGbG9jYWxzlH2UKEsAjAFhlIaUaBMpgZROfZQoaBZLAGgXaBhoGWgedYaUYksAjAFi
lIaUaBMpgZROfZQoaBZLAWgXaBhoGWgjdYaUYksAjAFplIaUaBMpgZROfZQoaBZLA2gXjARk
YXRhlGgZaCh1hpRidYwHc3RhdGljc5R9lIwLZmllbGRfY2VsbHOUfZQoaCCMAWaUhpRoFGgl
aDKGlGgUdYwLYXJyYXlfY2VsbHOUXZSMBHB1cmWUXZQojBJyZXByby5zb2x2ZXIudGVybXOU
jAdMaW5BdG9tlJOUjAI8PZRoOYwHTGluRXhwcpSTlGgqSwGGlIWUSv3///+GlFKUhpRSlImG
lGg5jAdSZWZBdG9tlJOUiWg5jApfTnVsbENvbnN0lJOUKYGUaBSHlFKUiIaUaDtoPGg+aCpK
/////4aUhZRLAIaUUpSGlFKUiIaUZYwFc3RhY2uUXZSMDWN1cnJlbnRfZnJhbWWUSwCMDmN1
cnJlbnRfbWV0aG9klIwDTS5tlIwLX25leHRfZnJhbWWUSwGMB3ZlcnNpb26USw6MBmZhaWxl
ZJSJjAtmYWlsX3JlYXNvbpSMAJSMDF9zYXRfdmVyc2lvbpRLDowLX3NhdF9yZXN1bHSUiIwJ
c2F0X2Jhc2lzlChoR4loIGglh5RSlGhEaExoU5GUKGglaCCRlIaUdWIu
"""


def pickled_query() -> Query:
    """Two bases share field ``f`` (a separation disequality); ``i <= 3``
    is checked, then two guards are added and checked (atoms grew)."""
    q = Query("M.m")
    a = q.new_ref(None, maybe_null=True, hint="a")
    b = q.new_ref(None, maybe_null=True, hint="b")
    c = q.new_ref(None, maybe_null=True, hint="c")
    i = q.new_data("i")
    q.set_local("a", a)
    q.set_local("b", b)
    q.set_local("i", i)
    q.set_field(a, "f", c)
    q.set_field(b, "f", c)
    q.add_pure(le(LinExpr.var(i), LinExpr.constant(3)))
    assert q.check_sat()
    q.add_pure(ref_ne(c, NULL), guard=True)
    q.add_pure(le(LinExpr.constant(0), LinExpr.var(i)), guard=True)
    assert q.check_sat()
    return q


def follow_up(q: Query) -> list:
    """Verdicts of a few checks after ``q``'s last one."""
    i = q.get_local("i")
    a, b = q.get_local("a"), q.get_local("b")
    verdicts = [q.check_sat()]
    q.touch()
    verdicts.append(q.check_sat())
    grew = q.copy()
    grew.add_pure(le(LinExpr.var(i), LinExpr.constant(2)))
    verdicts.append(grew.check_sat())
    unsat = q.copy()
    unsat.add_pure(le(LinExpr.constant(4), LinExpr.var(i)))
    verdicts.append(unsat.check_sat())
    merged = q.copy()
    merged.unify(a, b)  # one cell now: the separation atom goes
    verdicts.append(merged.check_sat())
    return verdicts


class TestPickling:
    """The component record is derived: it is not pickled, a loaded query
    rebuilds it at its next check, and pickles from builds that kept a
    ``sat_basis`` slot still load."""

    def test_query_pickled_after_a_grew_check_checks_as_the_original(self):
        original = pickled_query()
        assert original.components is not None
        loaded = pickle.loads(pickle.dumps(pickled_query()))
        assert loaded.components is None
        assert "components" not in loaded.__getstate__()
        assert follow_up(loaded) == follow_up(original) == [
            True, True, True, False, True
        ]

    def test_state_with_a_sat_basis_loads(self):
        loaded = pickle.loads(base64.b64decode(SAT_BASIS_PICKLE))
        assert isinstance(loaded, Query) and loaded.components is None
        assert not hasattr(loaded, "sat_basis")
        assert follow_up(loaded) == follow_up(pickled_query())
