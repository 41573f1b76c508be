"""Unit and property tests for the pure-constraint decision procedure."""

import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver import (
    NULL,
    LinAtom,
    LinExpr,
    UnionFind,
    check_sat,
    eq,
    le,
    lt,
    ne,
    ref_eq,
    ref_ne,
)
from repro.solver import core
from repro.symbolic.symvar import fresh_ref

X, Y, Z = "x", "y", "z"


def v(name):
    return LinExpr.var(name)


def k(c):
    return LinExpr.constant(c)


class TestUnionFind:
    def test_fresh_items_are_own_roots(self):
        uf = UnionFind()
        assert uf.find("a") == "a"

    def test_union_merges(self):
        uf = UnionFind()
        uf.union("a", "b")
        assert uf.same("a", "b")

    def test_transitivity(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.same("a", "c")

    def test_copy_is_independent(self):
        uf = UnionFind()
        uf.union("a", "b")
        other = uf.copy()
        other.union("a", "c")
        assert not uf.same("a", "c")
        assert other.same("a", "c")

    def test_long_chain_finds_root_without_recursion(self):
        uf = UnionFind()
        items = [object() for _ in range(5_000)]
        for a, b in zip(items, items[1:]):
            uf.union(a, b)  # links a's root under b: one long chain
        assert uf.find(items[0]) is items[-1]
        # Path compression: every item now points straight at the root.
        assert all(uf._parent[x] is items[-1] for x in items[:-1])


class TestRenameFastPath:
    def test_untouched_terms_return_themselves(self):
        expr = v(X).add(v(Y).scale(2))
        atom = LinAtom("<=", expr)
        ref = ref_ne(X, NULL)
        for mapping in ({}, {Z: X}, {X: X}):
            assert expr.rename(mapping) is expr
            assert atom.rename(mapping) is atom
            assert ref.rename(mapping) is ref

    def test_touched_terms_are_rebuilt(self):
        atom = LinAtom("<=", v(X).add(v(Y)))
        assert atom.rename({Y: Z}) == LinAtom("<=", v(X).add(v(Z)))
        assert ref_ne(X, Y).rename({Y: Z}) == ref_ne(X, Z)


class _Probe:
    """A variable that only the probed atoms reference."""

    __slots__ = ("i",)

    def __init__(self, i: int) -> None:
        self.i = i

    def __repr__(self) -> str:
        return f"p{self.i}"


class TestTermLifetime:
    def test_dropped_atoms_leave_no_tracked_objects(self):
        # Terms are plain values: nothing keeps one alive past its last
        # reference, so building and dropping many leaves the heap flat.
        gc.collect()
        before = len(gc.get_objects())
        atoms = [ref_ne(_Probe(i), NULL) for i in range(10_000)]
        del atoms
        gc.collect()
        after = gc.get_objects()
        # Other tests' threads may free objects meanwhile: bound growth only.
        assert len(after) - before < 100
        assert not any(type(o) is _Probe for o in after)


class TestLinExpr:
    def test_canonical_drops_zero_coeffs(self):
        expr = v(X).sub(v(X))
        assert expr.is_constant and expr.const == 0

    def test_add_and_scale(self):
        expr = v(X).scale(2).add(v(Y)).add(k(3))
        assert dict(expr.coeffs) == {X: 2, Y: 1}
        assert expr.const == 3

    def test_rename_merges_coefficients(self):
        expr = v(X).add(v(Y))
        renamed = expr.rename({Y: X})
        assert dict(renamed.coeffs) == {X: 2}

    def test_tighten_divides_by_gcd(self):
        # 2x - 5 <= 0  =>  x <= 2 (integers)
        expr = v(X).scale(2).add(k(-5))
        tightened = core._tighten((dict(expr.coeffs), expr.const))
        assert tightened == ({X: 1}, -2)
        # -4x + 6y + 3 <= 0  =>  -2x + 3y <= -2 (floor of -3/2)
        assert core._tighten(({X: -4, Y: 6}, 3)) == ({X: -2, Y: 3}, 2)
        # coprime coefficients and constant rows are left alone
        row = ({X: 2, Y: 3}, 1)
        assert core._tighten(row) is row
        assert core._tighten(({}, 4)) == ({}, 4)


class TestLinearSat:
    def test_trivially_sat(self):
        assert check_sat([])

    def test_simple_bound_sat(self):
        assert check_sat([le(v(X), k(5)), le(k(0), v(X))])

    def test_contradictory_bounds_unsat(self):
        assert not check_sat([le(v(X), k(0)), le(k(1), v(X))])

    def test_figure1_refutation(self):
        # The paper's Figure 1 core contradiction:
        #   sz < cap (path constraint) vs sz = 0, cap = -1 (constructor).
        sz, cap = v("sz"), v("cap")
        atoms = [lt(sz, cap), eq(sz, k(0)), eq(cap, k(-1))]
        assert not check_sat(atoms)

    def test_figure1_before_constructor_is_sat(self):
        assert check_sat([lt(v("sz"), v("cap"))])

    def test_strict_inequality_integer_semantics(self):
        # x < y and y < x + 2 forces y = x + 1 over Z: satisfiable.
        atoms = [lt(v(X), v(Y)), lt(v(Y), v(X).add(k(2)))]
        assert check_sat(atoms)
        # Adding y != x + 1 then makes it unsat.
        atoms.append(ne(v(Y), v(X).add(k(1))))
        assert not check_sat(atoms)

    def test_integer_tightening_detects_gap(self):
        # 2x = 1 has no integer... our eq elimination keeps it as two
        # inequalities; tightening makes 2x <= 1 into x <= 0 and
        # -2x <= -1 into -x <= -1, i.e. x >= 1: unsat.
        assert not check_sat([eq(v(X).scale(2), k(1))])

    def test_chain_of_differences(self):
        atoms = [le(v(X), v(Y)), le(v(Y), v(Z)), lt(v(Z), v(X))]
        assert not check_sat(atoms)

    def test_equality_substitution(self):
        atoms = [eq(v(X), v(Y)), lt(v(X), k(3)), lt(k(1), v(Y))]
        assert check_sat(atoms)  # x = y = 2
        atoms.append(ne(v(Y), k(2)))
        assert not check_sat(atoms)

    def test_disequality_sat_when_slack(self):
        assert check_sat([ne(v(X), v(Y))])

    def test_forced_equality_violates_disequality(self):
        atoms = [le(v(X), v(Y)), le(v(Y), v(X)), ne(v(X), v(Y))]
        assert not check_sat(atoms)

    def test_constant_disequality(self):
        assert not check_sat([ne(k(0), k(0))])
        assert check_sat([ne(k(0), k(1))])

    def test_multiplication_by_constant(self):
        # cap = len * 2, len = 1  =>  cap = 2; cap <= 1 contradicts.
        cap, ln = v("cap"), v("len")
        atoms = [eq(cap, ln.scale(2)), eq(ln, k(1)), le(cap, k(1))]
        assert not check_sat(atoms)


class TestRefSat:
    def test_eq_and_ne_conflict(self):
        assert not check_sat([ref_eq("a", "b"), ref_ne("a", "b")])

    def test_transitive_eq_conflict(self):
        atoms = [ref_eq("a", "b"), ref_eq("b", "c"), ref_ne("a", "c")]
        assert not check_sat(atoms)

    def test_null_equality_with_nonnull_var(self):
        assert not check_sat([ref_eq("a", NULL)], nonnull=frozenset(["a"]))

    def test_null_equality_without_nonnull_ok(self):
        assert check_sat([ref_eq("a", NULL)])

    def test_transitive_null_propagation(self):
        atoms = [ref_eq("a", "b"), ref_eq("b", NULL)]
        assert not check_sat(atoms, nonnull=frozenset(["a"]))

    def test_distinct_vars_sat(self):
        assert check_sat([ref_ne("a", "b"), ref_ne("b", "c"), ref_ne("a", "c")])

    def test_null_ne_null_unsat(self):
        assert not check_sat([ref_ne(NULL, NULL)])

    @pytest.mark.parametrize("make", [ref_eq, ref_ne])
    def test_either_argument_order_gives_equal_atoms(self, make):
        a, b = fresh_ref(), fresh_ref()
        if repr(a) < repr(b):
            a, b = b, a  # pass the pair in unnormalized order
        atom, swapped = make(a, b), make(b, a)
        assert atom == swapped == atom.normalized()
        assert hash(atom) == hash(swapped)
        assert (atom.left, atom.right) == (swapped.left, swapped.right) == (b, a)


# ---------------------------------------------------------------------------
# Property-based: compare against brute-force evaluation on small domains.
# ---------------------------------------------------------------------------

_vars = ["x", "y", "z"]


def _eval_expr(expr, env):
    return sum(c * env[v] for v, c in expr.coeffs) + expr.const


def _eval_atom(atom, env):
    value = _eval_expr(atom.expr, env)
    if atom.op == "<=":
        return value <= 0
    if atom.op == "==":
        return value == 0
    return value != 0


@st.composite
def lin_atoms(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        var = draw(st.sampled_from(_vars))
        terms[var] = draw(st.integers(-3, 3))
    const = draw(st.integers(-4, 4))
    op = draw(st.sampled_from(["<=", "==", "!="]))
    return LinAtom(op, LinExpr.of(terms, const))


@settings(max_examples=300, deadline=None)
@given(st.lists(lin_atoms(), max_size=4))
def test_solver_never_refutes_satisfiable_systems(atoms):
    """Refutation soundness of the solver itself: if a small-domain model
    exists, check_sat must not answer UNSAT."""
    domain = range(-6, 7)
    has_model = any(
        all(_eval_atom(a, {"x": x, "y": y, "z": z}) for a in atoms)
        for x in domain
        for y in domain
        for z in domain
    )
    result = check_sat(atoms)
    if has_model:
        assert result, f"refuted satisfiable system: {[str(a) for a in atoms]}"


@settings(max_examples=200, deadline=None)
@given(st.lists(lin_atoms(), max_size=3))
def test_solver_unsat_implies_no_small_model(atoms):
    """Completeness spot-check on the small domain: UNSAT answers must have
    no model even in a widened window (here the solver is exact since all
    coefficients and constants are tiny)."""
    if check_sat(atoms):
        return
    domain = range(-12, 13)
    for x in domain:
        for y in domain:
            for z in domain:
                env = {"x": x, "y": y, "z": z}
                assert not all(
                    _eval_atom(a, env) for a in atoms
                ), f"UNSAT system has model {env}: {[str(a) for a in atoms]}"


class TestBudgets:
    def test_fm_giveup_is_conservative_sat(self):
        # Build a system large enough to blow the FM budget: the solver
        # must answer SAT (refutation-sound give-up), not UNSAT.
        import repro.solver.core as core

        variables = [f"w{i}" for i in range(40)]
        atoms = []
        for i, a in enumerate(variables):
            for b in variables[i + 1 :]:
                atoms.append(le(v(a).add(v(b)), k(10)))
                atoms.append(le(k(-10), v(a).sub(v(b))))
        stats = core.SolverStats()
        assert core.check_sat(atoms, stats=stats)
        assert stats.fm_giveups >= 0  # may or may not trip, but never UNSAT

    def test_stats_counters_accumulate(self):
        from repro.solver.core import SolverStats, check_sat as cs

        stats = SolverStats()
        cs([le(v(X), k(0)), le(k(1), v(X))], stats=stats)
        cs([], stats=stats)
        assert stats.checks == 2
        assert stats.unsat == 1
