"""Parity of the solver front end's fast paths with their plain forms.

``Query.canonical_pure`` rebuilds only the atoms that mention a merged
variable, and ``split_components`` walks terms directly instead of
allocating per-atom variable sets. Both must produce exactly what the
straightforward versions produce, because verdicts, memo keys and the
persistent store's signatures are all derived from their output. The
straightforward versions live here, as test oracles only.

Hypothesis drives random queries: fresh reference and data variables,
random pure atoms, and a random sequence of ``unify`` calls interleaved
with atom additions.
"""

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.solver import (
    NULL,
    LinAtom,
    LinExpr,
    RefAtom,
    ref_eq,
    ref_ne,
    split_components,
)
from repro.symbolic import Query
from repro.symbolic.symvar import SymVar

N_VARS = 5  # fresh variables per kind


def rebuild(atom, mapping: dict):
    """``atom`` renamed through ``mapping`` and rebuilt from scratch (no
    untouched-term shortcut)."""
    if isinstance(atom, LinAtom):
        terms: dict = {}
        for v, c in atom.expr.coeffs:
            v2 = mapping.get(v, v)
            terms[v2] = terms.get(v2, 0) + c
        return LinAtom(atom.op, LinExpr.of(terms, atom.expr.const))
    left = mapping.get(atom.left, atom.left)
    right = mapping.get(atom.right, atom.right)
    return RefAtom(atom.equal, left, right)


def full_rename_canonical_pure(q: Query) -> list:
    """Every atom rebuilt through a root map over all pure variables."""
    mapping = {}
    for atom, _ in q.pure:
        for v in atom.vars():
            if isinstance(v, SymVar):
                mapping[v] = q.find(v)
    return [rebuild(atom, mapping) for atom, _ in q.pure]


def vars_split_components(atoms: list, nonnull: frozenset) -> list:
    """Union-find over each atom's ``vars()`` set."""
    parent: dict = {}

    def find(v):
        root = v
        while True:
            up = parent.get(root, root)
            if up == root:
                break
            root = up
        while v != root:
            parent[v], v = root, parent[v]
        return root

    atom_vars = []
    for atom in atoms:
        avars = atom.vars()
        atom_vars.append((atom, avars))
        if not avars:
            continue
        it = iter(avars)
        first = find(next(it))
        for v in it:
            parent[find(v)] = first

    groups: dict = {}
    for atom, avars in atom_vars:
        if not avars:
            continue
        root = find(next(iter(avars)))
        entry = groups.get(root)
        if entry is None:
            groups[root] = entry = ([], set())
        entry[0].append(atom)
        entry[1].update(avars)

    out = []
    for catoms, cvars in groups.values():
        sliced = frozenset(v for v in nonnull if v in cvars)
        out.append((catoms, sliced))
    return out


# One step of a query's life: add a linear atom, add a reference atom, or
# unify two variables of one kind. Variables are indices into the query's
# fresh ref/data pools.
lin_step = st.tuples(
    st.just("lin"),
    st.sampled_from(["<=", "==", "!="]),
    st.dictionaries(
        st.integers(0, N_VARS - 1),
        st.integers(-3, 3).filter(bool),
        max_size=3,
    ),
    st.integers(-4, 4),
)
ref_step = st.tuples(
    st.just("ref"),
    st.booleans(),
    st.integers(-1, N_VARS - 1),  # -1 is NULL
    st.integers(-1, N_VARS - 1),
)
unify_step = st.tuples(
    st.just("unify"),
    st.booleans(),  # True: two refs; False: two data variables
    st.integers(0, N_VARS - 1),
    st.integers(0, N_VARS - 1),
)
steps = st.lists(st.one_of(lin_step, ref_step, unify_step), max_size=25)


def build(script, nonnull_picks):
    q = Query("M.m")
    refs = [q.new_ref(None) for _ in range(N_VARS)]
    data = [q.new_data() for _ in range(N_VARS)]
    for step in script:
        if step[0] == "lin":
            _, op, coeffs, const = step
            terms = {data[i]: c for i, c in coeffs.items()}
            q.add_pure(LinAtom(op, LinExpr.of(terms, const)))
        elif step[0] == "ref":
            _, equal, i, j = step
            left = NULL if i < 0 else refs[i]
            right = NULL if j < 0 else refs[j]
            q.add_pure((ref_eq if equal else ref_ne)(left, right))
        else:
            _, is_ref, i, j = step
            pool = refs if is_ref else data
            q.unify(pool[i], pool[j])
    nonnull = frozenset(q.find(refs[i]) for i in nonnull_picks)
    return q, nonnull


SETTINGS = dict(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@seed(20130613)
@settings(**SETTINGS)
@given(steps, st.lists(st.integers(0, N_VARS - 1), max_size=3))
def test_canonical_pure_matches_full_rename(script, nonnull_picks):
    q, _ = build(script, nonnull_picks)
    fast = q.canonical_pure()
    slow = full_rename_canonical_pure(q)
    assert fast == slow
    for got, want in zip(fast, slow):
        assert type(got) is type(want)
        assert hash(got) == hash(want)


@seed(20130613)
@settings(**SETTINGS)
@given(steps, st.lists(st.integers(0, N_VARS - 1), max_size=3))
def test_split_components_matches_vars_union_find(script, nonnull_picks):
    q, nonnull = build(script, nonnull_picks)
    atoms = q.canonical_pure() + q.separation_atoms()
    # Ground atoms reach the split only once syntactic_unsat has passed
    # them; the split drops them either way.
    fast = split_components(atoms, nonnull)
    slow = vars_split_components(atoms, nonnull)
    assert len(fast) == len(slow)
    for (fatoms, fslice, dirty), (satoms, sslice) in zip(fast, slow):
        assert fatoms == satoms  # same atoms, same order
        assert len(fslice) == len(sslice) and frozenset(fslice) == sslice
        assert dirty
