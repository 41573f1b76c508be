"""Parity of the linear-term kernel and the row-based decision procedure
with plain dict-and-sort arithmetic.

``LinExpr`` arithmetic canonicalizes once per result: ``combine`` fuses
``self + k·other``, and ``scale``/``var`` and constant shifts keep the
known term order without sorting. Every result must equal, term order
included, what the straightforward arithmetic builds: a coefficient
dict, then a ``repr``-keyed sort of its nonzero terms. Memo keys,
component signatures and persisted store signatures all depend on that
canonical form.

The solver's equality and Fourier–Motzkin elimination run on plain
coefficient rows, never on terms. The elimination loops written
with ``LinExpr`` arithmetic live here as test oracles: the row kernel must
make every choice they make (pivot, elimination variable, tightening,
give-ups), which the tests check by converting each residual row back
with the oracle's ``old_of`` and comparing it with the oracle's term.

Hypothesis drives random coefficient maps over string variables and
symbolic variables (two of which share a ``repr``, so ties in the sort
key are exercised), with zero, negative and cancelling coefficients.
"""

from math import gcd

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.solver import LinAtom, LinExpr, SolverStats
from repro.solver import core
from repro.symbolic.symvar import fresh_data

# ---------------------------------------------------------------------------
# Oracles: dict -> sort-by-repr arithmetic, one canonicalization per step
# ---------------------------------------------------------------------------


def old_of(terms: dict, const: int = 0) -> LinExpr:
    clean = tuple(
        sorted(
            ((v, c) for v, c in terms.items() if c != 0),
            key=lambda item: repr(item[0]),
        )
    )
    return LinExpr(clean, const)


def old_var(v) -> LinExpr:
    return old_of({v: 1})


def old_add(a: LinExpr, b: LinExpr) -> LinExpr:
    terms = dict(a.coeffs)
    for v, c in b.coeffs:
        terms[v] = terms.get(v, 0) + c
    return old_of(terms, a.const + b.const)


def old_scale(a: LinExpr, k: int) -> LinExpr:
    return old_of({v: c * k for v, c in a.coeffs}, a.const * k)


def old_sub(a: LinExpr, b: LinExpr) -> LinExpr:
    return old_add(a, old_scale(b, -1))


def old_combine(a: LinExpr, b: LinExpr, k: int) -> LinExpr:
    return old_add(a, old_scale(b, k))


def old_tighten(expr: LinExpr) -> LinExpr:
    if not expr.coeffs:
        return expr
    g = 0
    for _, c in expr.coeffs:
        g = gcd(g, abs(c))
    if g <= 1:
        return expr
    bound = (-expr.const) // g
    return old_of({v: c // g for v, c in expr.coeffs}, -bound)


def old_eliminate_equalities(eqs, les, nes):
    pending = list(eqs)
    while pending:
        expr = pending.pop()
        if expr.is_constant:
            if expr.const != 0:
                return None, les
            continue
        unit_var = None
        unit_coeff = 0
        for v, c in expr.coeffs:
            if c in (1, -1):
                unit_var = v
                unit_coeff = c
                break
        if unit_var is None:
            les.append(expr)
            les.append(old_scale(expr, -1))
            continue
        rest = old_sub(expr, old_of({unit_var: unit_coeff}))
        replacement = old_scale(rest, -unit_coeff)

        def subst(target):
            coeff = dict(target.coeffs).get(unit_var, 0)
            if coeff == 0:
                return target
            return old_add(
                old_sub(target, old_of({unit_var: coeff})),
                old_scale(replacement, coeff),
            )

        pending = [subst(e) for e in pending]
        les = [subst(e) for e in les]
        nes[:] = [subst(e) for e in nes]
    return {}, les


def old_fm_feasible(les, stats, budget):
    system = [old_tighten(e) for e in les]
    while True:
        constants = [e for e in system if e.is_constant]
        if any(e.const > 0 for e in constants):
            return False
        system = [e for e in system if not e.is_constant]
        if not system:
            return True
        if len(system) > budget:
            stats.fm_giveups += 1
            return True
        occurrences = {}
        for expr in system:
            for v, c in expr.coeffs:
                pos, neg = occurrences.get(v, (0, 0))
                if c > 0:
                    occurrences[v] = (pos + 1, neg)
                else:
                    occurrences[v] = (pos, neg + 1)
        var = min(
            occurrences,
            key=lambda v: (occurrences[v][0] * occurrences[v][1], repr(v)),
        )
        pos_exprs = [e for e in system if dict(e.coeffs).get(var, 0) > 0]
        neg_exprs = [e for e in system if dict(e.coeffs).get(var, 0) < 0]
        others = [e for e in system if dict(e.coeffs).get(var, 0) == 0]
        combined = []
        for p in pos_exprs:
            cp = dict(p.coeffs)[var]
            for n in neg_exprs:
                cn = -dict(n.coeffs)[var]
                combined.append(
                    old_tighten(old_add(old_scale(p, cn), old_scale(n, cp)))
                )
        system = others + combined


def old_check_linear(eqs, les, nes, stats, budget) -> bool:
    nes = list(nes)
    marker, les = old_eliminate_equalities(list(eqs), list(les), nes)
    if marker is None:
        return False
    if not old_fm_feasible(les, stats, budget):
        return False
    one = old_of({}, 1)
    for expr in nes:
        if expr.is_constant:
            if expr.const == 0:
                return False
            continue
        pos = les + [old_add(expr, one)]
        neg = les + [old_add(old_scale(expr, -1), one)]
        if not old_fm_feasible(pos, stats, budget) and not old_fm_feasible(
            neg, stats, budget
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_A, _B = fresh_data("t"), fresh_data("t")
_B.vid = _A.vid  # distinct variables with equal reprs: sort-key ties
VARS = ["x", "y", "z", "w", fresh_data(), _A, _B]

coeff_maps = st.dictionaries(
    st.sampled_from(VARS), st.integers(-4, 4), max_size=5
)
consts = st.integers(-6, 6)
exprs = st.builds(old_of, coeff_maps, consts)
factors = st.integers(-3, 3)

SETTINGS = dict(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def same(new: LinExpr, old: LinExpr) -> bool:
    """``new`` is the oracle's term ``old``: equal, with equal ``coeffs``
    tuples, so the canonical term order is pinned too."""
    return new == old and new.coeffs == old.coeffs


# ---------------------------------------------------------------------------
# Arithmetic parity
# ---------------------------------------------------------------------------


@seed(20130613)
@settings(**SETTINGS)
@given(coeff_maps, consts, exprs, exprs, factors)
def test_arithmetic_returns_the_oracle_object(terms, const, a, b, k):
    assert same(LinExpr.of(terms, const), old_of(terms, const))
    assert same(a.add(b), old_add(a, b))
    assert same(a.sub(b), old_sub(a, b))
    assert same(a.scale(k), old_scale(a, k))
    assert same(a.combine(b, k), old_combine(a, b, k))
    for v in VARS:
        assert same(LinExpr.var(v), old_var(v))


@seed(20130613)
@settings(**SETTINGS)
@given(exprs, exprs)
def test_cancellation_and_constant_shifts(a, b):
    assert same(a.sub(a), old_of({}, 0))
    assert same(a.add(b).sub(b), old_sub(old_add(a, b), b))
    shift = LinExpr.constant(3)
    assert same(a.add(shift), old_add(a, shift))
    assert same(shift.sub(a), old_sub(shift, a))


# ---------------------------------------------------------------------------
# Elimination parity
# ---------------------------------------------------------------------------

# Equalities lean on unit coefficients so substitution actually runs.
eq_maps = st.dictionaries(
    st.sampled_from(VARS), st.sampled_from([-2, -1, -1, 1, 1, 2, 3]), max_size=4
)
systems = st.tuples(
    st.lists(st.builds(old_of, eq_maps, consts), max_size=4),
    st.lists(exprs, max_size=7),
    st.lists(exprs, max_size=3),
)


def rows(exprs) -> list:
    """The solver's rows for ``exprs``: a coefficient dict plus a constant."""
    return [(dict(e.coeffs), e.const) for e in exprs]


def reprs_of(*groups) -> dict:
    return {v: repr(v) for exprs in groups for e in exprs for v, _ in e.coeffs}


def as_expr(row) -> LinExpr:
    return old_of(*row)


@seed(20130613)
@settings(**SETTINGS)
@given(systems)
def test_eliminate_equalities_matches_oracle(system):
    eqs, les, nes = system
    new_les, new_nes = rows(les), rows(nes)
    old_nes = list(nes)
    new_ok = core._eliminate_equalities(
        rows(eqs), new_les, new_nes, reprs_of(eqs, les, nes)
    )
    old_marker, old_les = old_eliminate_equalities(list(eqs), list(les), old_nes)
    assert new_ok == (old_marker is not None)
    assert len(new_les) == len(old_les)
    assert all(same(as_expr(n), o) for n, o in zip(new_les, old_les))
    assert len(new_nes) == len(old_nes)
    assert all(same(as_expr(n), o) for n, o in zip(new_nes, old_nes))


@seed(20130613)
@settings(**SETTINGS)
@given(systems, st.sampled_from([2, 4, 8, core.FM_ATOM_BUDGET]))
def test_linear_verdicts_and_giveups_match_oracle(system, budget):
    eqs, les, nes = system
    atoms = (
        [LinAtom("==", e) for e in eqs]
        + [LinAtom("<=", e) for e in les]
        + [LinAtom("!=", e) for e in nes]
    )
    saved = core.FM_ATOM_BUDGET
    core.FM_ATOM_BUDGET = budget  # small budgets reach the give-up path
    try:
        new_stats, old_stats = SolverStats(), SolverStats()
        new_verdict = core._fm_feasible(rows(les), new_stats, reprs_of(les))
        assert new_verdict == old_fm_feasible(list(les), old_stats, budget)
        assert core._check_linear(atoms, new_stats) == old_check_linear(
            eqs, les, nes, old_stats, budget
        )
    finally:
        core.FM_ATOM_BUDGET = saved
    assert new_stats.fm_giveups == old_stats.fm_giveups


@seed(20130613)
@settings(**SETTINGS)
@given(st.lists(exprs, min_size=1, max_size=7))
def test_fm_leaves_its_rows_alone(les):
    given_rows = rows(les)
    core._fm_feasible(given_rows, SolverStats(), reprs_of(les))
    assert [as_expr(r) for r in given_rows] == les
