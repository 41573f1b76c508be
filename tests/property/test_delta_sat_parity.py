"""Delta satisfiability vs the full partitioned and monolithic solvers.

``check_sat`` given a lineage decides only the components a step changed,
reading them off the lineage's component record
(:class:`repro.solver.partition.Components`). Two lineages are driven by
Hypothesis.

* **Atom lists** — one list lineage through random steps: add an atom,
  grow or shrink the non-null facts, unify two variables (a rename of
  every atom mentioning one of them), drop an atom. After every step
  three verdicts must agree: the lineage's (memo on and warm across
  steps), the no-record verdict (every component decided, memo off) and
  the monolithic verdict (the whole-conjunction oracle). As in
  ``Query.check_sat``, a SAT verdict moves the record to the current
  atoms and non-null facts; an UNSAT one leaves it where it was.
* **Queries** — a real :class:`~repro.symbolic.query.Query` through
  ``add_pure`` (guarded and not), ``unify``, ``copy`` (both branches are
  checked), ``drop_pure_if``, local anchors, non-null marks, and field and
  array cell adds and removes (which move ``separation_atoms``). After
  every check the record's groups must be what ``split_components`` gives
  on the de-duplicated conjunction — the same groups in the same order,
  the same sliced non-null facts, the same dirty flags (against the last
  SAT check's atoms and facts) and, for dirty groups, the same
  signatures — and the verdict must agree with both oracles. A copy's
  checks must never change its parent's record.
"""

from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.perf.memo import SOLVER_MEMO
from repro.solver import (
    NULL,
    LinExpr,
    SolverStats,
    canonical_key,
    check_sat,
    le,
    ref_eq,
    ref_ne,
)
from repro.solver.partition import split_components
from repro.symbolic.query import Query

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


def verdicts(atoms: list, nonnull: frozenset, lineage) -> tuple[bool, bool, bool]:
    SOLVER_MEMO.set_enabled(True)
    delta = check_sat(atoms, nonnull=nonnull, lineage=lineage)
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
        lineage = SimpleNamespace(components=None)
        for n, step in enumerate(script):
            atoms, nonnull = apply(step, atoms, nonnull)
            got = verdicts(atoms, nonnull, lineage)
            assert got[0] == got[1] == got[2], (
                f"step {n} {step}: delta/full/mono = {got}\n"
                f"atoms={atoms}\nnonnull={set(nonnull)}"
            )
    finally:
        SOLVER_MEMO.set_enabled(memo_was)
        SOLVER_MEMO.clear()


# -- query lineages ------------------------------------------------------------

FIELDS = ("f", "g")
ref_i = st.integers(0, len(REF_VARS) - 1)
data_i = st.integers(0, len(INT_VARS) - 1)
pure_step = st.tuples(
    st.just("pure"), st.one_of(lin_atoms(), ref_atoms()), st.booleans()
)
field_step = st.tuples(st.just("field"), ref_i, st.sampled_from(FIELDS), ref_i)
array_step = st.tuples(st.just("array"), ref_i, data_i, ref_i)
query_steps = st.lists(
    st.one_of(
        pure_step,
        pure_step,
        field_step,
        field_step,
        array_step,
        st.tuples(st.just("unify"), ref_i, ref_i),
        st.tuples(st.just("unify_data"), data_i, data_i),
        st.tuples(st.just("copy"), st.booleans()),
        st.tuples(st.just("drop"), st.integers(0, 30)),
        st.tuples(st.just("unfield"), st.integers(0, 30)),
        st.tuples(st.just("unarray"), st.integers(0, 30)),
        st.tuples(st.just("local"), ref_i),
        st.tuples(st.just("unlocal"), ref_i),
        st.tuples(st.just("nonnull"), ref_i),
        st.tuples(st.just("check"), st.just(None)),
        # Several atoms or cells between two checks.
        st.tuples(
            st.just("many"),
            st.lists(st.one_of(pure_step, field_step, array_step), min_size=2, max_size=4),
        ),
    ),
    min_size=1,
    max_size=30,
)


class Lineage:
    """One query under test, with the atoms and non-null facts of its last
    SAT check (the oracle's basis)."""

    def __init__(self, q: Query, basis=None) -> None:
        self.q = q
        self.basis = basis


def apply_query_step(step, line: Lineage, refs: list, datas: list, names: dict):
    q = line.q
    kind = step[0]
    if kind == "pure":
        q.add_pure(step[1].rename(names), guard=step[2], cap=3 if step[2] else None)
    elif kind == "unify":
        q.unify(refs[step[1]], refs[step[2]])
    elif kind == "unify_data":
        q.unify(datas[step[1]], datas[step[2]])
    elif kind == "drop":
        if q.pure:
            doomed = q.pure[step[1] % len(q.pure)][0]
            q.drop_pure_if(lambda atom: atom is doomed)
    elif kind == "field":
        q.set_field(refs[step[1]], step[2], refs[step[3]])
    elif kind == "unfield":
        if q.field_cells:
            base, name = list(q.field_cells)[step[1] % len(q.field_cells)]
            q.del_field(base, name)
    elif kind == "array":
        q.add_array_cell(refs[step[1]], datas[step[2]], refs[step[3]])
    elif kind == "unarray":
        if q.array_cells:
            q.remove_array_cell(q.array_cells[step[1] % len(q.array_cells)])
    elif kind == "local":
        q.set_local(f"l{step[1]}", refs[step[1]])
    elif kind == "unlocal":
        q.del_local(f"l{step[1]}")
    elif kind == "nonnull":
        q.mark_nonnull(refs[step[1]])
    elif kind == "check":
        q.touch()  # a transfer that left the constraints alone
    elif kind == "many":
        for sub in step[1]:
            apply_query_step(sub, line, refs, datas, names)


def ordered(record) -> list:
    """The record's ``(root, group)`` pairs in conjunction order."""
    return sorted(record.groups.items(), key=lambda item: item[1].first)


def snapshot(record):
    """Everything observable of a record, to show it never changes."""
    if record is None:
        return None
    return (
        [(root, list(g.atoms), list(g.vars), g.first, g.last, g.sig, g.prior)
         for root, g in ordered(record)],
        set(record.dirty),
        record.nonnull,
        dict(record.pos),
        dict(record.root),
        record.pure,
        record.sep,
    )


def check_against_oracles(line: Lineage, where: str) -> bool:
    q = line.q
    canon = list(q.canonical_pure())
    sep = list(q.separation_atoms())
    nonnull = q.nonnull_roots()
    atoms = list(dict.fromkeys(canon + sep))
    before = q.components
    stats = SolverStats()
    SOLVER_MEMO.set_enabled(True)
    got = q.check_sat(stats)
    SOLVER_MEMO.set_enabled(False)
    full = check_sat(canon, nonnull=nonnull, separation=sep)
    mono = monolithic(atoms, nonnull)
    assert got == full == mono, (
        f"{where}: query/full/mono = {got}/{full}/{mono}\n"
        f"atoms={atoms}\nnonnull={set(nonnull)}"
    )
    if stats.checks == 0:
        return got  # answered from the query's own cache: no solver call
    # The old set semantics: a superset of the last SAT check's atoms
    # dirties only the components of new atoms and newly non-null
    # variables; anything else dirties every component.
    dirty_vars = None
    same = False
    if line.basis is not None:
        basis_atoms, basis_nonnull = line.basis
        if set(atoms) >= basis_atoms:
            same = len(set(atoms)) == len(basis_atoms) and nonnull <= basis_nonnull
            dirty_vars = set(nonnull - basis_nonnull)
            for atom in set(atoms) - basis_atoms:
                dirty_vars |= atom.vars()
    assert stats.memo_hits == (1 if same else 0), where
    if not got:
        assert q.components is before, f"{where}: an UNSAT check moved the record"
        return got
    line.basis = (set(atoms), nonnull)
    record = q.components
    assert record is not None
    # A record splits its own lists' conjunction: the query's lists after
    # a check that split, and the same atoms (maybe reordered) after a
    # "same" one. Its dirty flags and signatures are those of a check
    # that split (a "same" check decides nothing).
    own = list(dict.fromkeys(list(record.pure) + list(record.sep)))
    assert sorted(record.pos, key=record.pos.__getitem__) == own, where
    if same:
        assert set(own) == set(atoms), where
    else:
        assert (list(record.pure), list(record.sep)) == (canon, sep), where
    oracle = split_components(own, nonnull, dirty_vars)
    mine = ordered(record)
    assert len(mine) == len(oracle), f"{where}: {len(mine)} groups, oracle {len(oracle)}"
    for (root, group), (catoms, cnonnull, changed) in zip(mine, oracle):
        assert group.atoms == catoms, f"{where}: {group.atoms} != {catoms}"
        assert {v for v in nonnull if record.root.get(v) is root} == set(cnonnull), where
        assert all(record.root[v] is root for v in group.vars), where
        if same:
            continue
        assert (root in record.dirty) == changed, where
        if changed:
            assert group.sig == canonical_key(catoms, cnonnull), where
    if not same:
        decided = [(g.atoms, set(facts)) for _, g, facts in record.to_decide()]
        assert decided == [
            (catoms, set(cnonnull)) for catoms, cnonnull, changed in oracle if changed
        ], where
    return got


@seed(20130613)
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query_steps)
# Separation atoms extend (a third base on one field), then a pure atom
# repeats one of them: its first occurrence moves into the pure part.
@example(
    [
        ("field", 0, "f", 3),
        ("field", 1, "f", 3),
        ("field", 2, "f", 3),
        ("pure", ref_ne("r0", "r2"), False),
        ("pure", ref_eq("r1", NULL), True),
    ]
)
# Pure atoms land before, and merge with, separation components; array
# cells add index disequalities; a newly non-null variable dirties an old
# component.
@example(
    [
        ("array", 0, 0, 2),
        ("array", 0, 1, 3),
        ("local", 1),
        ("pure", le(LinExpr.var("x0"), LinExpr.constant(3)), False),
        ("copy", False),
        ("pure", ref_eq("r1", "r2"), False),
        ("field", 1, "g", 3),
        ("field", 2, "g", 3),
        ("nonnull", 1),
        ("pure", le(LinExpr.var("x1"), LinExpr.var("x2")), True),
        ("unfield", 0),
        ("pure", ref_ne("r3", NULL), False),
    ]
)
# The separation atoms come back in another order, with nothing new: the
# old record stays; a pure atom later rebuilds it from the new order.
@example(
    [
        ("field", 0, "f", 2),
        ("field", 1, "f", 2),
        ("field", 2, "g", 3),
        ("field", 3, "g", 3),
        ("pure", ref_ne("r0", NULL), False),
        (
            "many",
            [("unfield", 0), ("unfield", 0), ("field", 0, "f", 2), ("field", 1, "f", 2)],
        ),
        ("pure", ref_eq("r1", "r2"), False),
    ]
)
# A copy's check dirties a component it shares with its parent through a
# newly non-null variable alone.
@example(
    [
        ("pure", ref_ne("r0", "r1"), False),
        ("pure", le(LinExpr.var("x0"), LinExpr.constant(3)), False),
        ("local", 0),
        ("copy", True),
        ("nonnull", 0),
        ("many", [("pure", ref_eq("r2", "r3"), False), ("pure", ref_ne("r3", NULL), True)]),
    ]
)
# Two pure atoms land before a component's separation atoms in one
# check, after a keyed check appended to it.
@example(
    [
        ("field", 0, "f", 3),
        ("field", 1, "f", 3),
        ("pure", ref_ne("r0", NULL), False),
        ("pure", ref_ne("r1", NULL), False),
        (
            "many",
            [
                ("pure", ref_ne("r0", "r2"), True),
                ("pure", ref_ne("r1", "r2"), True),
                ("field", 2, "f", 3),
            ],
        ),
    ]
)
def test_query_record_matches_split_components(script):
    memo_was = SOLVER_MEMO.enabled
    SOLVER_MEMO.clear()
    try:
        root = Query("M.m")
        refs = [root.new_ref(None, maybe_null=True, hint=n) for n in REF_VARS]
        datas = [root.new_data(n) for n in INT_VARS]
        names = dict(zip(REF_VARS + INT_VARS, refs + datas))
        line = Lineage(root)
        shelved: list = []  # (lineage, its record, snapshot of it)
        for n, step in enumerate(script):
            if step[0] == "copy":
                child = Lineage(line.q.copy(), line.basis)
                kept, line = (line, child) if step[1] else (child, line)
                record = kept.q.components
                shelved.append((kept, record, snapshot(record)))
                continue
            apply_query_step(step, line, refs, datas, names)
            if line.q.failed:
                break
            if not check_against_oracles(line, f"step {n} {step}"):
                break
            for shelf, record, snap in shelved:
                assert shelf.q.components is record
                assert snapshot(record) == snap, f"step {n}: a copy changed its parent's record"
        for shelf, _, _ in shelved:
            if not shelf.q.failed:
                shelf.q.touch()
                check_against_oracles(shelf, "shelved branch")
    finally:
        SOLVER_MEMO.set_enabled(memo_was)
        SOLVER_MEMO.clear()
