"""Delta transfer vs the full rescans it replaced.

The transfer layer derives only what a command changed: ``renarrow``
checks only the cells over a dirty root, ``Query`` keeps its non-null
roots and separation disequalities up to date on every mutator, and
``query_entails`` rejects on a cached shape before any structural match.
Hypothesis drives one query lineage through random steps — new refs and
data, set/del of locals, statics, field and array cells, narrow, unify,
``mark_nonnull``, copy, frame push/pop, a mod/ref callee skip, the loop
widenings, pure atoms, a pickle round trip and renarrow itself — and after
every step:

* renarrow on a copy leaves the same regions, the same pure list and the
  same failed state as the full rescan below (``full_renarrow``);
* ``nonnull_roots`` equals the full rebuild, and ``separation_atoms``
  equals it in the same order (the solver's component signatures follow
  atom order);
* against every earlier snapshot of the lineage, in both directions,
  ``query_entails`` agrees with the structural matcher run without the
  shape pre-check, and the pre-check never rejects a pair the matcher
  accepts.

The full rescans are the implementations the delta versions replaced.
"""

import pickle
from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.ir.instructions import AllocSite
from repro.pointsto.graph import ELEMS, AbsLoc
from repro.pointsto.modref import ModSet
from repro.solver import NULL, LinExpr, ne, ref_eq, ref_ne
from repro.solver.terms import LinAtom
from repro.symbolic import Query, SearchConfig
from repro.symbolic import simplification
from repro.symbolic.executor import Engine
from repro.symbolic.loops import _bound_materialization, _drop_affected_memory
from repro.symbolic.simplification import _shape_within, query_entails
from repro.symbolic.transfer import TransferContext

SITES = [AllocSite(i, "Object", "M.m", hint=f"s{i}") for i in range(4)]
LOCS = [AbsLoc(site) for site in SITES]
FIELDS = ("f", "g", ELEMS, "@len")
NAMES = ("x", "y", "z")
STATICS = (("C", "a"), ("C", "b"))


def _locs(mask: int) -> frozenset:
    return frozenset(loc for i, loc in enumerate(LOCS) if mask >> i & 1)


class TablePta:
    """pt(loc.field) from a fixed table over four locations."""

    TABLE = {
        (i, name): _locs(mask)
        for i in range(4)
        for name, mask in zip(FIELDS, (3 << i % 3, 9 >> i % 2, 1 | 4 >> i, 15))
    }

    def pt_field_of_set(self, locs, field_name):
        out = set()
        for loc in locs:
            out |= self.TABLE[(LOCS.index(loc), field_name)]
        return frozenset(out)


CTX = TransferContext(pta=TablePta(), config=SearchConfig())


# -- the full rescans ---------------------------------------------------------


def full_renarrow(pta, q: Query) -> None:
    changed = True
    while changed and not q.failed:
        changed = False
        for (base, field_name), value in list(q.field_cells.items()):
            if field_name.startswith("@") and field_name != "@elems":
                continue
            if not value.is_ref:
                continue
            breg = q.region_of(base)
            vreg = q.region_of(value)
            if breg is None or vreg is None:
                continue
            target = pta.pt_field_of_set(breg, field_name)
            if not vreg <= target:
                q.narrow(value, target)
                changed = True
                if q.failed:
                    return
        for cell in list(q.array_cells):
            breg = q.region_of(cell.base)
            vreg = q.region_of(cell.value)
            if breg is None or vreg is None or not cell.value.is_ref:
                continue
            target = pta.pt_field_of_set(breg, ELEMS)
            if not vreg <= target:
                q.narrow(cell.value, target)
                changed = True
                if q.failed:
                    return


def full_nonnull_roots(q: Query) -> frozenset:
    roots = set()
    for value in list(q.locals.values()) + list(q.statics.values()):
        root = q.find(value)
        if root.is_ref and root not in q.maybe_null:
            roots.add(root)
    for (base, _), value in q.field_cells.items():
        roots.add(q.find(base))
        root = q.find(value)
        if root.is_ref and root not in q.maybe_null:
            roots.add(root)
    for cell in q.array_cells:
        roots.add(q.find(cell.base))
        root = q.find(cell.value)
        if root.is_ref and root not in q.maybe_null:
            roots.add(root)
    return frozenset(roots)


def full_separation_atoms(q: Query) -> list:
    atoms = []
    by_field: dict = {}
    for (base, field_name), _ in q.field_cells.items():
        by_field.setdefault(field_name, []).append(q.find(base))
    for bases in by_field.values():
        for i in range(len(bases)):
            for j in range(i + 1, len(bases)):
                if bases[i] is not bases[j]:
                    atoms.append(ref_ne(bases[i], bases[j]))
    for i in range(len(q.array_cells)):
        for j in range(i + 1, len(q.array_cells)):
            ci, cj = q.array_cells[i], q.array_cells[j]
            if q.find(ci.base) is q.find(cj.base):
                expr = LinExpr.var(q.find(ci.index)).sub(LinExpr.var(q.find(cj.index)))
                atoms.append(LinAtom("!=", expr))
    return atoms


def matcher_alone(strong: Query, weak: Query) -> bool:
    """``query_entails`` with the shape pre-check switched off."""
    real = simplification._shape_within
    simplification._shape_within = lambda weak, strong: weak[0] == strong[0]
    try:
        return query_entails(strong, weak)
    finally:
        simplification._shape_within = real


# -- lineage steps ------------------------------------------------------------

idx = st.integers(0, 7)
mask = st.one_of(st.none(), st.integers(1, 15))
step = st.one_of(
    st.tuples(st.just("ref"), mask, st.booleans()),
    st.tuples(st.just("data")),
    st.tuples(st.just("local"), idx, idx),
    st.tuples(st.just("del_local"), idx),
    st.tuples(st.just("static"), idx, idx),
    st.tuples(st.just("del_static"), idx),
    st.tuples(st.just("field"), idx, idx, idx),
    st.tuples(st.just("field"), idx, idx, idx),
    st.tuples(st.just("del_field"), idx, idx),
    st.tuples(st.just("array"), idx, idx, idx),
    st.tuples(st.just("del_array"), idx),
    st.tuples(st.just("narrow"), idx, st.integers(1, 15)),
    st.tuples(st.just("narrow"), idx, st.integers(0, 15)),
    st.tuples(st.just("unify"), idx, idx, st.booleans()),
    st.tuples(st.just("nonnull"), idx),
    st.tuples(st.just("pure"), idx, idx, st.booleans()),
    st.tuples(st.just("copy"), st.booleans()),
    st.tuples(st.just("push"),),
    st.tuples(st.just("pop"),),
    st.tuples(st.just("skip"), idx, st.booleans(), st.one_of(st.none(), idx)),
    st.tuples(st.just("widen"), st.integers(0, 2), idx),
    st.tuples(st.just("renarrow"),),
    st.tuples(st.just("renarrow"),),
    st.tuples(st.just("pickle"),),
)


def pick(pool: list, i: int):
    return pool[i % len(pool)] if pool else None


def apply(q: Query, refs: list, datas: list, snapshots: list, s) -> Query:
    kind = s[0]
    every = refs + datas
    if kind == "ref":
        refs.append(q.new_ref(None if s[1] is None else _locs(s[1]), maybe_null=s[2]))
    elif kind == "data":
        datas.append(q.new_data())
    elif kind == "local" and every:
        q.set_local(NAMES[s[1] % 3], pick(every, s[2]))
    elif kind == "del_local":
        q.del_local(NAMES[s[1] % 3])
    elif kind == "static" and every:
        q.set_static(*STATICS[s[1] % 2], pick(every, s[2]))
    elif kind == "del_static":
        q.del_static(*STATICS[s[1] % 2])
    elif kind == "field" and refs:
        name = FIELDS[s[2] % 4]
        value = pick(datas, s[3]) if name == "@len" else pick(every, s[3])
        if value is not None:
            q.set_field(pick(refs, s[1]), name, value)
    elif kind == "del_field" and refs:
        q.del_field(pick(refs, s[1]), FIELDS[s[2] % 4])
    elif kind == "array" and refs and datas:
        q.add_array_cell(pick(refs, s[1]), pick(datas, s[2]), pick(every, s[3]))
    elif kind == "del_array" and q.array_cells:
        q.remove_array_cell(pick(q.array_cells, s[1]))
    elif kind == "narrow" and refs:
        q.narrow(pick(refs, s[1]), _locs(s[2]))
    elif kind == "unify":
        pool = refs if s[3] else datas
        if pool:
            q.unify(pick(pool, s[1]), pick(pool, s[2]))
    elif kind == "nonnull" and refs:
        q.mark_nonnull(pick(refs, s[1]))
    elif kind == "pure":
        if s[3] and refs:
            q.add_pure(ref_ne(q.find(pick(refs, s[1])), q.find(pick(refs, s[2]))))
        elif datas:
            a, b = q.find(pick(datas, s[1])), q.find(pick(datas, s[2]))
            if a is not b:
                q.add_pure(ne(LinExpr.var(a), LinExpr.var(b)))
    elif kind == "copy":  # go on with the copy, or keep a copy aside
        if s[1]:
            snapshots.append(q)
            q = q.copy()
        else:
            snapshots.append(q.copy())
    elif kind == "push":
        q.push_frame("M.callee", 7)
    elif kind == "pop" and q.stack:
        q.pop_frame()
    elif kind == "skip":
        mod = ModSet(
            fields={FIELDS[s[1] % 4]},
            statics={STATICS[s[1] % 2]},
            calls_unknown=s[2],
            alloc_sites=set() if s[3] is None else {SITES[s[3] % 4]},
        )
        Engine._skip_call(None, SimpleNamespace(lhs=NAMES[s[1] % 3]), q, mod)
    elif kind == "widen":
        if s[1] == 0:
            mod = ModSet(fields={FIELDS[s[2] % 4]}, locals={NAMES[s[2] % 3]})
            _drop_affected_memory(q, mod)
        elif s[1] == 1:
            _bound_materialization(q, 0, s[2] % 2)
        else:
            q.clear_constraints()
    elif kind == "renarrow":
        CTX.renarrow(q)
    elif kind == "pickle":
        q, refs[:], datas[:] = pickle.loads(pickle.dumps((q, refs, datas)))
    return q


def check(q: Query, snapshots: list) -> None:
    assert q.nonnull_roots() == full_nonnull_roots(q)
    assert q.separation_atoms() == full_separation_atoms(q)
    fresh = q.copy()
    fresh.touch()
    assert fresh.shape() == q.shape()

    fast, full = q.copy(), q.copy()
    CTX.renarrow(fast)
    full_renarrow(CTX.pta, full)
    assert (fast.failed, fast.fail_reason) == (full.failed, full.fail_reason)
    if not fast.failed:
        assert fast.regions == full.regions
        assert fast.pure == full.pure

    for other in snapshots[-8:]:
        for strong, weak in ((q, other), (other, q)):
            expected = matcher_alone(strong, weak)
            assert query_entails(strong, weak) == expected
            if expected and not strong.failed:
                assert _shape_within(weak.shape(), strong.shape())


@seed(20130616)
@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.lists(st.tuples(mask, st.booleans()), min_size=4, max_size=4),
    st.lists(step, min_size=10, max_size=40),
)
# The pool is r0-r3 then d0-d2 (so ``every`` index 4 is d0).
# x.f and y.f, then x = y: the snapshot must not be entailed (the matcher
# is injective), a cell collides, and dropping the rest unanchors it all.
@example(
    [(15, False)] * 4,
    [("local", 0, 0), ("local", 1, 1), ("field", 0, 0, 4), ("field", 1, 0, 5),
     ("copy", False), ("unify", 0, 1, True), ("del_field", 1, 0),
     ("del_local", 0), ("del_local", 1)],
)
# A unification renames one base of a separation pair.
@example(
    [(15, False)] * 4,
    [("field", 0, 0, 4), ("field", 1, 0, 5), ("unify", 0, 2, True),
     ("unify", 1, 3, True)],
)
# Widening to `any` drops array cells too.
@example([(15, False)] * 4, [("array", 0, 0, 1), ("array", 0, 1, 2), ("widen", 2, 0)])
def test_delta_transfer_matches_full_rescans(prelude, script):
    q = Query("M.m")
    refs = [q.new_ref(None if m is None else _locs(m), maybe_null=mn) for m, mn in prelude]
    datas = [q.new_data() for _ in range(3)]
    snapshots: list = []
    for n, s in enumerate(script):
        q = apply(q, refs, datas, snapshots, s)
        if q.failed:
            return
        try:
            check(q, snapshots)
        except AssertionError as exc:
            raise AssertionError(f"step {n} {s}: {q}") from exc


def test_pickled_state_renarrows_every_cell():
    # A state read back from the store's refuted rows has no dirty history:
    # every cell must be checked once, as the full rescan would.
    q = Query("M.m")
    base = q.new_ref(_locs(0b0001))
    value = q.new_ref(_locs(0b1111))
    q.set_field(base, "f", value)
    q.take_dirty()  # as if renarrowed before the region was widened
    loaded = pickle.loads(pickle.dumps(q))
    full = loaded.copy()
    CTX.renarrow(loaded)
    full_renarrow(CTX.pta, full)
    assert loaded.regions == full.regions
    assert loaded.nonnull_roots() == full_nonnull_roots(loaded)


def test_state_pickled_without_derived_slots_loads():
    # Default slots pickling, as the store wrote states before the derived
    # structures existed: ``(None, {slot: value})`` with only the core slots.
    q = Query("M.m")
    a, b = q.new_ref(_locs(0b0011)), q.new_ref(_locs(0b0011), maybe_null=True)
    q.set_local("x", a)
    q.set_field(a, "f", b)
    q.add_array_cell(a, q.new_data(), b)
    old = Query.__new__(Query)
    old.__setstate__((None, q.__getstate__()))
    assert old.nonnull_roots() == full_nonnull_roots(q) == {a}
    assert old.separation_atoms() == full_separation_atoms(q)
    assert query_entails(old, q) and query_entails(q, old)


class ChainPta:
    """pt(L.g) = {L}; pt(L0.f) = {L0}, pt(L1.f) = ∅."""

    def pt_field_of_set(self, locs, field_name):
        if field_name == "g":
            return frozenset(locs)
        return frozenset({LOCS[0]}) & locs


def test_renarrow_follows_narrowings_within_a_pass():
    # a.g ↦ b, b.f ↦ c, p.g ↦ v, consistent and renarrowed. Narrowing a and
    # p to L1 narrows b to L1, which empties c's target in the same pass,
    # before v's: the NULL atoms (c and v may be null) must come in the
    # rescan's order, c then v.
    q = Query("M.m")
    both = frozenset(LOCS[:2])
    a, p, b = q.new_ref(both), q.new_ref(both), q.new_ref(both)
    c, v = (q.new_ref(frozenset({LOCS[0]}), maybe_null=True) for _ in range(2))
    q.set_field(a, "g", b)
    q.set_field(b, "f", c)
    q.set_field(p, "g", v)
    ctx = TransferContext(pta=ChainPta(), config=SearchConfig())
    ctx.renarrow(q)
    q.narrow(a, frozenset({LOCS[1]}))
    q.narrow(p, frozenset({LOCS[1]}))
    full = q.copy()
    ctx.renarrow(q)
    full_renarrow(ctx.pta, full)
    assert [atom for atom, _ in full.pure] == [ref_eq(c, NULL), ref_eq(v, NULL)]
    assert q.pure == full.pure
