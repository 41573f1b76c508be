"""Delta satisfiability vs the full partitioned and monolithic solvers.

``check_sat`` given a SAT basis decides only the components a step
changed. Hypothesis drives one query lineage through random steps — add
an atom, grow or shrink the non-null facts, unify two variables (a rename
of every atom mentioning one of them), drop an atom — and after every step
three verdicts must agree:

* the basis verdict (the lineage's basis, memo on and warm across steps);
* the no-basis verdict (every component decided, memo off);
* the monolithic verdict (the whole-conjunction oracle).

As in ``Query.check_sat``, a SAT verdict moves the basis to the current
atoms and non-null facts; an UNSAT one leaves it where it was.
"""

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.perf.memo import SOLVER_MEMO
from repro.solver import NULL, check_sat, ref_eq

from .test_partition_parity import (
    INT_VARS,
    REF_VARS,
    lin_atoms,
    monolithic,
    ref_atoms,
)

add_step = st.tuples(st.just("add"), st.one_of(lin_atoms(), ref_atoms()))
grow_step = st.tuples(st.just("grow"), st.sampled_from(REF_VARS))
shrink_step = st.tuples(st.just("shrink"), st.sampled_from(REF_VARS))
unify_step = st.one_of(
    st.tuples(st.just("unify"), st.sampled_from(REF_VARS), st.sampled_from(REF_VARS)),
    st.tuples(st.just("unify"), st.sampled_from(INT_VARS), st.sampled_from(INT_VARS)),
)
drop_step = st.tuples(st.just("drop"), st.integers(0, 30))
steps = st.lists(
    st.one_of(add_step, add_step, grow_step, shrink_step, unify_step, drop_step),
    min_size=1,
    max_size=20,
)


def apply(step, atoms: list, nonnull: frozenset) -> tuple[list, frozenset]:
    kind = step[0]
    if kind == "add":
        return atoms + [step[1]], nonnull
    if kind == "grow":
        return atoms, nonnull | {step[1]}
    if kind == "shrink":
        return atoms, nonnull - {step[1]}
    if kind == "unify":
        _, old, new = step
        mapping = {old: new}
        renamed = [atom.rename(mapping) for atom in atoms]
        if old in nonnull:
            nonnull = (nonnull - {old}) | {new}
        return renamed, nonnull
    if atoms:  # drop
        i = step[1] % len(atoms)
        return atoms[:i] + atoms[i + 1 :], nonnull
    return atoms, nonnull


def verdicts(atoms: list, nonnull: frozenset, basis) -> tuple[bool, bool, bool]:
    SOLVER_MEMO.set_enabled(True)
    delta = check_sat(atoms, nonnull=nonnull, basis=basis)
    SOLVER_MEMO.set_enabled(False)
    full = check_sat(atoms, nonnull=nonnull)
    return delta, full, monolithic(atoms, nonnull)


@seed(20130613)
@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(steps)
# A newly non-null variable refutes through an old reference chain.
@example([("add", ref_eq("r0", "r1")), ("add", ref_eq("r1", NULL)), ("grow", "r0")])
def test_basis_verdict_agrees_at_every_step(script):
    memo_was = SOLVER_MEMO.enabled
    SOLVER_MEMO.clear()
    try:
        atoms: list = []
        nonnull: frozenset = frozenset()
        basis = None
        for n, step in enumerate(script):
            atoms, nonnull = apply(step, atoms, nonnull)
            got = verdicts(atoms, nonnull, basis)
            assert got[0] == got[1] == got[2], (
                f"step {n} {step}: delta/full/mono = {got}\n"
                f"atoms={atoms}\nnonnull={set(nonnull)}\nbasis={basis}"
            )
            if got[0]:
                basis = (frozenset(atoms), nonnull)
    finally:
        SOLVER_MEMO.set_enabled(memo_was)
        SOLVER_MEMO.clear()
