"""Backwards transfer functions: the WIT rules of Figure 4.

Each function takes an atomic command and a query (owned: mutated or copied
freely) and returns the list of pre-queries (disjuncts). An empty list
means every disjunct was refuted at this command. The three refutation
channels of Section 3.2 all live here or in :class:`Query`:

1. *separation* — a produced/not-produced split forces one local to point
   to two distinct instances (caught by unification + the implied
   disequalities of the separating conjunction);
2. *instance constraints* — a ``from`` region becomes empty (axioms (1)
   and (2)), notably in WIT-NEW, WIT-ASSIGN, and WIT-READ;
3. *pure constraints* — the solver reports the accumulated path and data
   constraints unsatisfiable.

The :class:`TransferContext` carries the points-to result and realizes the
three state representations: in ``MIXED`` (and ``FULLY_EXPLICIT``) mode the
boxed region intersections of Figure 4 are applied; in ``FULLY_SYMBOLIC``
mode only the PSE-style alias check (via unification of explicit initial
regions) and the WIT-NEW allocation-site check remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..ir import instructions as ins
from ..pointsto import ELEMS, PointsToResult
from ..pointsto.graph import AbsLoc
from ..solver import NULL, LinExpr, eq, le, lt, ne, ref_eq, ref_ne
from ..solver.core import SolverStats
from ..solver.terms import LinAtom
from .config import Representation, SearchConfig
from .query import Query
from .symvar import SymVar

ARRAY_LEN_FIELD = "@len"
_DNF_CAP = 8
#: Upper bound on disjuncts produced by one array-write case split before
#: falling back to dropping disaliasing constraints.
MAX_ARRAY_CASE_SPLITS = 2


@dataclass
class TransferContext:
    """Shared state threaded through every transfer application."""

    pta: PointsToResult
    config: SearchConfig
    solver_stats: SolverStats = field(default_factory=SolverStats)
    #: Set of REF variables created by the current transfer application;
    #: the executor uses it for FULLY_EXPLICIT region splitting.
    new_refs: list[SymVar] = field(default_factory=list)
    #: Raw reason string of the most recent refutation, so the executor can
    #: classify a kill after the transfer that caused it has returned.
    last_reason: Optional[str] = None
    _site_locs: Optional[dict] = None

    @property
    def narrowing(self) -> bool:
        return self.config.representation is not Representation.FULLY_SYMBOLIC

    def begin_command(self) -> None:
        self.new_refs = []

    def site_locs(self, site: ins.AllocSite) -> frozenset[AbsLoc]:
        """All abstract locations of an allocation site in the graph."""
        if self._site_locs is None:
            table: dict = {}
            for loc in self.pta.graph.all_abs_locs():
                table.setdefault(loc.site, set()).add(loc)
            self._site_locs = {s: frozenset(v) for s, v in table.items()}
        return self._site_locs.get(site, frozenset({AbsLoc(site)}))

    def region_local(self, method: str, var: str) -> Optional[frozenset]:
        if not self.narrowing:
            return None
        return self.pta.pt_local(method, var)

    def region_field(self, q: Query, base: SymVar, field_name: str) -> Optional[frozenset]:
        if not self.narrowing:
            return None
        region = q.region_of(base)
        if region is None:
            return None
        return self.pta.pt_field_of_set(region, field_name)

    def region_static(self, class_name: str, field_name: str) -> Optional[frozenset]:
        if not self.narrowing:
            return None
        return self.pta.pt_static(class_name, field_name)

    def fresh_ref(
        self, q: Query, region: Optional[frozenset], maybe_null: bool, hint: str = ""
    ) -> SymVar:
        v = q.new_ref(region, maybe_null=maybe_null, hint=hint)
        self.new_refs.append(v)
        return v

    def renarrow(self, q: Query) -> None:
        """Restore the query invariant that every heap-cell value's region
        is within pt of its base's region — sound because the up-front
        points-to sets over-approximate every reachable heap. Without this,
        narrowing a cell's *base* (e.g. binding a receiver at a method
        entry) would leave the stale wider region on the value.

        Only a cell over a root in ``q.dirty_roots`` (a region narrowed, a
        unification, a new cell) can break the invariant, so only those
        cells are checked: pass after pass in ``field_cells`` then
        ``array_cells`` order, which makes exactly the narrowings, in
        exactly the order, of a rescan of every cell."""
        pending = q.take_dirty()
        if not self.narrowing:
            return
        find = q.find
        regions = q.regions
        pt_field_of_set = self.pta.pt_field_of_set
        while pending and not q.failed:
            fresh = q.dirty_roots  # what this pass's narrowings dirty
            cells = [
                (base, field_name, value)
                for (base, field_name), value in q.field_cells.items()
                if not field_name.startswith("@") or field_name == ELEMS
            ]
            cells += [(cell.base, ELEMS, cell.value) for cell in q.array_cells]
            for base, field_name, value in cells:
                if not value.is_ref:
                    continue
                broot, vroot = find(base), find(value)
                if not (
                    broot in pending or vroot in pending
                    or broot in fresh or vroot in fresh
                ):
                    continue
                breg = regions.get(broot)
                vreg = regions.get(vroot)
                if breg is None or vreg is None:
                    continue
                target = pt_field_of_set(breg, field_name)
                if not vreg <= target:
                    q.narrow(value, target)
                    if q.failed:
                        return
            pending = q.take_dirty()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def transfer_command(cmd: ins.Command, q: Query, ctx: TransferContext) -> list[Query]:
    """Apply the backwards transfer of ``cmd`` to ``q``; returns the
    satisfiable pre-queries."""
    ctx.begin_command()
    if isinstance(cmd, ins.Assign):
        results = _assign(cmd, q, ctx)
    elif isinstance(cmd, ins.BinOpCmd):
        results = _binop(cmd, q, ctx)
    elif isinstance(cmd, ins.UnOpCmd):
        results = _unop(cmd, q, ctx)
    elif isinstance(cmd, ins.New):
        results = _new(cmd, q, ctx, is_array=False)
    elif isinstance(cmd, ins.NewArray):
        results = _new(cmd, q, ctx, is_array=True)
    elif isinstance(cmd, ins.FieldRead):
        results = _field_read(cmd, q, ctx)
    elif isinstance(cmd, ins.FieldWrite):
        results = _field_write(cmd, q, ctx)
    elif isinstance(cmd, ins.StaticRead):
        results = _static_read(cmd, q, ctx)
    elif isinstance(cmd, ins.StaticWrite):
        results = _static_write(cmd, q, ctx)
    elif isinstance(cmd, ins.ArrayRead):
        results = _array_read(cmd, q, ctx)
    elif isinstance(cmd, ins.ArrayWrite):
        results = _array_write(cmd, q, ctx)
    elif isinstance(cmd, ins.ArrayLen):
        results = _array_len(cmd, q, ctx)
    elif isinstance(cmd, ins.CastCmd):
        results = _cast(cmd, q, ctx)
    elif isinstance(cmd, ins.InstanceOfCmd):
        results = _instanceof(cmd, q, ctx)
    elif isinstance(cmd, ins.ThrowCmd):
        # No execution continues past an uncaught exception: any query
        # after a throw is unreachable.
        q.fail("control: program point after throw is unreachable")
        results = [q]
    elif isinstance(cmd, ins.Assume):
        results = apply_assume(q, ctx, cmd.expr, cmd.polarity)
    elif isinstance(cmd, ins.Nondet):
        q.del_local(cmd.lhs)
        results = [q]
    elif isinstance(cmd, ins.Invoke):
        raise ValueError("Invoke must be handled by the executor")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown command {type(cmd).__name__}")
    return _filter_sat(results, ctx)


def _filter_sat(queries: list[Query], ctx: TransferContext) -> list[Query]:
    out = []
    for q in queries:
        if not q.failed:
            ctx.renarrow(q)
        if q.failed:
            ctx.last_reason = q.fail_reason or "unknown"
            continue
        if not q.check_sat(ctx.solver_stats):
            ctx.last_reason = q.fail_reason or "pure constraints"
            continue
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# Operand binding helpers
# ---------------------------------------------------------------------------


def _bind_base(q: Query, ctx: TransferContext, var: str) -> Optional[SymVar]:
    """The value of a dereferenced local (a receiver or field-access base):
    definitely non-null, drawn from pt(var)."""
    u = q.get_local(var)
    if u is None:
        u = ctx.fresh_ref(
            q, ctx.region_local(q.current_method, var), maybe_null=False, hint=var
        )
        q.set_local(var, u)
    else:
        q.mark_nonnull(u)
        q.narrow(u, ctx.region_local(q.current_method, var))
    return None if q.failed else u


def _bind_data_local(q: Query, ctx: TransferContext, var: str) -> SymVar:
    v = q.get_local(var)
    if v is None:
        v = q.new_data(hint=var)
        q.set_local(var, v)
    return v


def _atom_to_linexpr(
    q: Query, ctx: TransferContext, atom: ins.Atom
) -> Optional[LinExpr]:
    if isinstance(atom, ins.IntAtom):
        return LinExpr.constant(atom.value)
    if isinstance(atom, ins.BoolAtom):
        return LinExpr.constant(1 if atom.value else 0)
    if isinstance(atom, ins.VarAtom):
        return LinExpr.var(q.find(_bind_data_local(q, ctx, atom.name)))
    return None  # null: not an integer


def _atom_to_ref(
    q: Query, ctx: TransferContext, atom: ins.Atom
) -> Union[SymVar, object, None]:
    """A reference-valued operand: a SymVar, NULL, or None on type error."""
    if isinstance(atom, ins.NullAtom):
        return NULL
    if isinstance(atom, ins.VarAtom):
        u = q.get_local(atom.name)
        if u is None:
            u = ctx.fresh_ref(
                q,
                ctx.region_local(q.current_method, atom.name),
                maybe_null=True,
                hint=atom.name,
            )
            q.set_local(atom.name, u)
        return u
    return None


def _bind_value_into(
    q: Query, ctx: TransferContext, atom: ins.Atom, v: SymVar
) -> bool:
    """Backwards-bind the value of ``atom`` to instance/data ``v`` — the
    shared core of WIT-ASSIGN and the produced cases of the write rules."""
    if isinstance(atom, ins.VarAtom):
        existing = q.get_local(atom.name)
        if existing is not None:
            if not q.unify(existing, v):
                return False
        else:
            q.set_local(atom.name, v)
        if v.is_ref:
            return q.narrow(v, ctx.region_local(q.current_method, atom.name))
        return True
    if isinstance(atom, ins.NullAtom):
        if not v.is_ref:
            q.fail("kind mismatch: null bound to data value")
            return False
        if not q.is_maybe_null(v):
            q.fail("separation: non-null instance equated with null")
            return False
        q.add_pure(ref_eq(q.find(v), NULL))
        return True
    if isinstance(atom, (ins.IntAtom, ins.BoolAtom)):
        if v.is_ref:
            q.fail("kind mismatch: constant bound to instance")
            return False
        value = atom.value if isinstance(atom, ins.IntAtom) else int(atom.value)
        q.add_pure(eq(LinExpr.var(q.find(v)), LinExpr.constant(value)))
        return True
    raise TypeError(f"unknown atom {atom!r}")


# ---------------------------------------------------------------------------
# WIT-ASSIGN and pure computation
# ---------------------------------------------------------------------------


def _assign(cmd: ins.Assign, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    if not _bind_value_into(q, ctx, cmd.rhs, v):
        return [q]  # failed flag set; filtered by caller
    return [q]


def _bool_value(q: Query, v: SymVar) -> Optional[bool]:
    """Is v's truth value determined by the pure constraints?"""
    root = q.find(v)
    for atom in q.canonical_pure():
        if isinstance(atom, LinAtom) and atom.op == "==" and len(atom.expr.coeffs) == 1:
            ((var, c),) = atom.expr.coeffs
            if var == root and abs(c) == 1:
                value = -atom.expr.const * c
                if value in (0, 1):
                    return bool(value)
    return None


_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def _cmp_atom(op: str, left: LinExpr, right: LinExpr):
    if op == "<":
        return lt(left, right)
    if op == "<=":
        return le(left, right)
    if op == ">":
        return lt(right, left)
    if op == ">=":
        return le(right, left)
    if op == "==":
        return eq(left, right)
    if op == "!=":
        return ne(left, right)
    raise ValueError(op)


def _binop(cmd: ins.BinOpCmd, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    op = cmd.op
    vexpr = LinExpr.var(q.find(v))
    if op in ("+", "-"):
        left = _atom_to_linexpr(q, ctx, cmd.left)
        right = _atom_to_linexpr(q, ctx, cmd.right)
        if left is None or right is None:
            return [q]
        rhs = left.add(right) if op == "+" else left.sub(right)
        q.add_pure(eq(vexpr, rhs))
        return [q]
    if op == "*":
        # Linear only when one side is a constant.
        if isinstance(cmd.left, ins.IntAtom):
            right = _atom_to_linexpr(q, ctx, cmd.right)
            if right is not None:
                q.add_pure(eq(vexpr, right.scale(cmd.left.value)))
            return [q]
        if isinstance(cmd.right, ins.IntAtom):
            left = _atom_to_linexpr(q, ctx, cmd.left)
            if left is not None:
                q.add_pure(eq(vexpr, left.scale(cmd.right.value)))
            return [q]
        return [q]  # non-linear: leave v unconstrained (sound)
    if op in ("/", "%"):
        return [q]  # unconstrained (sound)
    if op in ("<", "<=", ">", ">=") or (op in ("==", "!=") and not cmd.ref_operands):
        return _comparison(cmd, q, ctx, v)
    if op in ("==", "!=") and cmd.ref_operands:
        return _ref_comparison(cmd, q, ctx, v)
    if op in ("&&", "||"):
        return _bool_connective(cmd, q, ctx, v)
    raise ValueError(f"unknown operator {op!r}")


def _comparison(
    cmd: ins.BinOpCmd, q: Query, ctx: TransferContext, v: SymVar
) -> list[Query]:
    truth = _bool_value(q, v)
    results = []
    for value in (True, False) if truth is None else (truth,):
        qi = q.copy() if truth is None else q
        left = _atom_to_linexpr(qi, ctx, cmd.left)
        right = _atom_to_linexpr(qi, ctx, cmd.right)
        if left is None or right is None:
            results.append(qi)
            continue
        op = cmd.op if value else _NEGATED[cmd.op]
        qi.add_pure(_cmp_atom(op, left, right))
        if truth is None:
            qi.add_pure(
                eq(LinExpr.var(qi.find(v)), LinExpr.constant(1 if value else 0))
            )
        results.append(qi)
    return results


def _ref_comparison(
    cmd: ins.BinOpCmd, q: Query, ctx: TransferContext, v: SymVar
) -> list[Query]:
    truth = _bool_value(q, v)
    results = []
    for value in (True, False) if truth is None else (truth,):
        qi = q.copy() if truth is None else q
        left = _atom_to_ref(qi, ctx, cmd.left)
        right = _atom_to_ref(qi, ctx, cmd.right)
        if left is None or right is None:
            results.append(qi)
            continue
        is_eq = (cmd.op == "==") == value
        _add_ref_relation(qi, left, right, is_eq)
        if truth is None and not qi.failed:
            qi.add_pure(
                eq(LinExpr.var(qi.find(v)), LinExpr.constant(1 if value else 0))
            )
        results.append(qi)
    return results


def _add_ref_relation(q: Query, left, right, is_eq: bool) -> None:
    if is_eq and isinstance(left, SymVar) and isinstance(right, SymVar):
        q.unify(left, right)  # intersects regions: an instance-constraint check
        return
    lterm = q.find(left) if isinstance(left, SymVar) else left
    rterm = q.find(right) if isinstance(right, SymVar) else right
    q.add_pure(ref_eq(lterm, rterm) if is_eq else ref_ne(lterm, rterm))


def _bool_connective(
    cmd: ins.BinOpCmd, q: Query, ctx: TransferContext, v: SymVar
) -> list[Query]:
    truth = _bool_value(q, v)
    results: list[Query] = []

    def with_operands(qi: Query, lval: Optional[bool], rval: Optional[bool]) -> Query:
        for atom, val in ((cmd.left, lval), (cmd.right, rval)):
            if val is None:
                continue
            expr = _atom_to_linexpr(qi, ctx, atom)
            if expr is not None:
                qi.add_pure(eq(expr, LinExpr.constant(1 if val else 0)))
        return qi

    for value in (True, False) if truth is None else (truth,):
        conj = cmd.op == "&&"
        if value == conj:
            # && true  or  || false: both operands forced.
            qi = q.copy()
            qi = with_operands(qi, conj, conj)
            if truth is None:
                qi.add_pure(
                    eq(LinExpr.var(qi.find(v)), LinExpr.constant(1 if value else 0))
                )
            results.append(qi)
        else:
            # && false or || true: either operand suffices — a case split.
            for which in (0, 1):
                qi = q.copy()
                lval = (not conj) if which == 0 else None
                rval = (not conj) if which == 1 else None
                qi = with_operands(qi, lval, rval)
                if truth is None:
                    qi.add_pure(
                        eq(
                            LinExpr.var(qi.find(v)),
                            LinExpr.constant(1 if value else 0),
                        )
                    )
                results.append(qi)
    return results


def _unop(cmd: ins.UnOpCmd, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    operand = _atom_to_linexpr(q, ctx, cmd.operand)
    if operand is None:
        return [q]
    vexpr = LinExpr.var(q.find(v))
    if cmd.op == "!":
        q.add_pure(eq(vexpr, LinExpr.constant(1).sub(operand)))
    else:  # unary minus
        q.add_pure(eq(vexpr, operand.scale(-1)))
    return [q]


# ---------------------------------------------------------------------------
# Casts and type tests
# ---------------------------------------------------------------------------


def _compatible_locs(ctx: TransferContext, region, class_name: str, positive: bool):
    """The subset of ``region`` whose dynamic type (does / does not) match
    ``class_name``."""
    table = ctx.pta.program.class_table
    return frozenset(
        loc
        for loc in region
        if table.site_is_instance(loc.site, class_name) == positive
    )


def _cast(cmd: ins.CastCmd, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    # The cast result IS the operand (same object, possibly null); reaching
    # any point after the cast implies it succeeded, so the value's region
    # is restricted to types compatible with the target.
    u = q.get_local(cmd.src)
    if u is None:
        q.set_local(cmd.src, v)
        q.narrow(v, ctx.region_local(q.current_method, cmd.src))
    else:
        if not q.unify(u, v):
            return [q]
    region = q.region_of(v)
    if region is not None:
        q.narrow(v, _compatible_locs(ctx, region, cmd.class_name, positive=True))
    return [q]


def _instanceof(cmd: ins.InstanceOfCmd, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    truth = _bool_value(q, v)
    results = []
    for value in (True, False) if truth is None else (truth,):
        qi = q.copy() if truth is None else q
        u = qi.get_local(cmd.src)
        if u is None:
            u = ctx.fresh_ref(
                qi,
                ctx.region_local(qi.current_method, cmd.src),
                maybe_null=True,
                hint=cmd.src,
            )
            qi.set_local(cmd.src, u)
        if value:
            # instanceof true: non-null and type-compatible.
            qi.mark_nonnull(u)
            region = qi.region_of(u)
            if region is not None and not qi.failed:
                qi.narrow(u, _compatible_locs(ctx, region, cmd.class_name, True))
        else:
            # instanceof false: null, or an incompatible instance. Null
            # remains possible (maybe_null is untouched); the instance
            # case restricts to incompatible locations.
            region = qi.region_of(u)
            if region is not None:
                qi.narrow(u, _compatible_locs(ctx, region, cmd.class_name, False))
        if truth is None and not qi.failed:
            qi.add_pure(
                eq(LinExpr.var(qi.find(v)), LinExpr.constant(1 if value else 0))
            )
        results.append(qi)
    return results


# ---------------------------------------------------------------------------
# WIT-NEW
# ---------------------------------------------------------------------------


def _new(
    cmd: Union[ins.New, ins.NewArray],
    q: Query,
    ctx: TransferContext,
    is_array: bool,
) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    # Arrays: the allocation fixes the length.
    if is_array:
        length = q.get_field(v, ARRAY_LEN_FIELD)
        if length is not None:
            size = _atom_to_linexpr(q, ctx, cmd.size)
            if size is not None:
                q.add_pure(eq(LinExpr.var(q.find(length)), size))
            q.del_field(v, ARRAY_LEN_FIELD)
    q.del_local(cmd.lhs)
    q.mark_nonnull(v)
    # Allocation-site check (kept in every representation, cf. Table 2 setup).
    if q.region_of(v) is not None:
        if not q.narrow(v, ctx.site_locs(cmd.site)):
            return [q]
        if not _constrain_allocation_context(cmd, q, ctx, v):
            return [q]
    # The instance does not exist before its allocation: any remaining
    # occurrence in the memory is a contradiction...
    if q.mentions_in_memory(v):
        q.fail("instance constraint: instance used before its allocation")
        return [q]
    # ...and pure constraints on it can be dropped (the existential is gone).
    root = q.find(v)
    q.drop_pure_if(lambda a: root in {q.find(x) for x in a.vars() if isinstance(x, SymVar)})
    q.regions.pop(root, None)
    return [q]


def _constrain_allocation_context(
    cmd: Union[ins.New, ins.NewArray], q: Query, ctx: TransferContext, v: SymVar
) -> bool:
    """A context-sensitive abstract location pins the allocating method's
    receiver: ``AbsLoc(site, (s1, ...))`` is only produced when ``this`` is
    an instance of site ``s1`` (object-sensitive heap contexts). Narrow the
    current ``this`` accordingly — this is what separates ``vec0.arr1``
    from ``vec1.arr1`` in the paper's Figure 2 reasoning."""
    if not ctx.narrowing:
        return True
    region = q.region_of(v)
    if not region or any(not loc.hctx for loc in region):
        return True  # some disjunct is context-free: nothing to learn
    if any(not isinstance(loc.hctx[0], ins.AllocSite) for loc in region):
        # Non-object-sensitive contexts (e.g. k-CFA call strings) carry no
        # receiver information.
        return True
    method = ctx.pta.program.methods.get(q.current_method)
    if method is None or method.is_static:
        return True
    receiver_sites = {loc.hctx[0] for loc in region}
    this_var = q.get_local("this")
    if this_var is None:
        this_var = ctx.fresh_ref(
            q,
            ctx.region_local(q.current_method, "this"),
            maybe_null=False,
            hint="this",
        )
        q.set_local("this", this_var)
    this_region = q.region_of(this_var)
    if this_region is None:
        return True
    compatible = frozenset(
        loc for loc in this_region if loc.site in receiver_sites
    )
    return q.narrow(this_var, compatible)


# ---------------------------------------------------------------------------
# WIT-READ / WIT-WRITE (instance fields)
# ---------------------------------------------------------------------------


def _field_read(cmd: ins.FieldRead, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    u = _bind_base(q, ctx, cmd.base)
    if u is None:
        return [q]
    if v.is_ref:
        q.narrow(v, ctx.region_field(q, u, cmd.field_name))
        if q.failed:
            return [q]
    q.set_field(u, cmd.field_name, v)
    return [q]


def _field_write(cmd: ins.FieldWrite, q: Query, ctx: TransferContext) -> list[Query]:
    cells = [
        (base, value)
        for (base, field_name), value in q.field_cells.items()
        if field_name == cmd.field_name
    ]
    if not cells:
        return [q]
    results: list[Query] = []
    # Produced cases: the write created cell (b, f) ↦ u.
    for base, value in cells:
        if isinstance(cmd.rhs, ins.NullAtom):
            continue  # a null store produces no points-to edge
        qi = q.copy()
        ux = _bind_base(qi, ctx, cmd.base)
        if ux is None or not qi.unify(ux, base):
            if not qi.failed:
                qi.fail("separation: write base cannot alias cell base")
            results.append(qi)
            continue
        qi.del_field(base, cmd.field_name)
        _bind_value_into(qi, ctx, cmd.rhs, value)
        results.append(qi)
    # Not-produced case: the write hit some other instance.
    ux = _bind_base(q, ctx, cmd.base)
    if ux is not None:
        diseqs = []
        for base, _ in cells:
            atom = ref_ne(q.find(ux), q.find(base))
            diseqs.append(atom)
            q.add_pure(atom)
        if q.check_sat(ctx.solver_stats):
            # Disaliasing simplification (Section 3.3): the local check
            # passed; drop the explicit disequalities and keep only the
            # separation- and instance-constraint-implied information.
            dropped = set(diseqs)
            q.pure = [(a, g) for a, g in q.pure if a not in dropped]
            results.append(q)
        else:
            ctx.last_reason = "separation"
    else:
        results.append(q)  # failed; filtered later
    return results


# ---------------------------------------------------------------------------
# Statics
# ---------------------------------------------------------------------------


def _static_read(cmd: ins.StaticRead, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    if v.is_ref:
        q.narrow(v, ctx.region_static(cmd.class_name, cmd.field_name))
        if q.failed:
            return [q]
    q.set_static(cmd.class_name, cmd.field_name, v)
    return [q]


def _static_write(cmd: ins.StaticWrite, q: Query, ctx: TransferContext) -> list[Query]:
    u = q.get_static(cmd.class_name, cmd.field_name)
    if u is None:
        return [q]
    # A static write is always a strong update of that unique cell.
    q.del_static(cmd.class_name, cmd.field_name)
    _bind_value_into(q, ctx, cmd.rhs, u)
    return [q]


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


def _array_len(cmd: ins.ArrayLen, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    u = _bind_base(q, ctx, cmd.base)
    if u is None:
        return [q]
    q.set_field(u, ARRAY_LEN_FIELD, v)
    return [q]


def _index_var(q: Query, ctx: TransferContext, atom: ins.Atom) -> SymVar:
    if isinstance(atom, ins.VarAtom):
        return _bind_data_local(q, ctx, atom.name)
    v = q.new_data(hint="idx")
    value = atom.value if isinstance(atom, ins.IntAtom) else 0
    q.add_pure(eq(LinExpr.var(v), LinExpr.constant(value)))
    return v


def _array_read(cmd: ins.ArrayRead, q: Query, ctx: TransferContext) -> list[Query]:
    v = q.get_local(cmd.lhs)
    if v is None:
        return [q]
    q.del_local(cmd.lhs)
    u = _bind_base(q, ctx, cmd.base)
    if u is None:
        return [q]
    if v.is_ref:
        q.narrow(v, ctx.region_field(q, u, ELEMS))
        if q.failed:
            return [q]
    vi = _index_var(q, ctx, cmd.index)
    q.add_array_cell(u, vi, v)
    return [q]


def _array_write(cmd: ins.ArrayWrite, q: Query, ctx: TransferContext) -> list[Query]:
    cells = list(q.array_cells)
    if not cells:
        return [q]
    results: list[Query] = []
    # Produced cases.
    for cell in cells:
        if isinstance(cmd.rhs, ins.NullAtom):
            continue
        qi = q.copy()
        ux = _bind_base(qi, ctx, cmd.base)
        if ux is None or not qi.unify(ux, cell.base):
            continue
        live = next(
            c
            for c in qi.array_cells
            if qi.find(c.index) is qi.find(cell.index)
            and qi.find(c.base) is qi.find(ux)
        )
        wi = _index_var(qi, ctx, cmd.index)
        qi.add_pure(eq(LinExpr.var(qi.find(wi)), LinExpr.var(qi.find(live.index))))
        qi.remove_array_cell(live)
        _bind_value_into(qi, ctx, cmd.rhs, live.value)
        results.append(qi)
    # Not-produced: for each cell, base differs or index differs.
    ux = _bind_base(q, ctx, cmd.base)
    if ux is None:
        results.append(q)
        return results
    wi = _index_var(q, ctx, cmd.index)
    ambiguous = []
    for cell in q.array_cells:
        rbase = q.region_of(cell.base)
        rux = q.region_of(ux)
        if (
            ctx.narrowing
            and rbase is not None
            and rux is not None
            and not (rbase & rux)
        ):
            continue  # bases provably disjoint: this cell is untouched
        if q.find(cell.base) is q.find(ux):
            ambiguous.append(("index", cell))
        else:
            ambiguous.append(("either", cell))
    splits = [q]
    for kind, cell in ambiguous:
        if len(splits) > MAX_ARRAY_CASE_SPLITS:
            break  # fall back to dropping disaliasing info (sound)
        next_splits = []
        for qs in splits:
            # Case A: different index.
            qa = qs.copy()
            qa.add_pure(
                ne(LinExpr.var(qa.find(wi)), LinExpr.var(qa.find(cell.index)))
            )
            next_splits.append(qa)
            if kind == "either":
                # Case B: different base (disequality dropped after check).
                qb = qs.copy()
                atom = ref_ne(qb.find(ux), qb.find(cell.base))
                qb.add_pure(atom)
                if qb.check_sat(ctx.solver_stats):
                    qb.pure = [(a, g) for a, g in qb.pure if a != atom]
                    next_splits.append(qb)
        splits = next_splits
    results.extend(splits)
    return results


# ---------------------------------------------------------------------------
# WIT-ASSUME (guards)
# ---------------------------------------------------------------------------


def apply_assume(
    q: Query, ctx: TransferContext, expr: ins.PureExpr, polarity: bool
) -> list[Query]:
    """Interpret a branch guard in the current memory (e[M] of WIT-ASSUME),
    splitting on disjunctions. Guard atoms count against the
    path-constraint cap."""
    disjuncts = _dnf(expr, polarity)
    if disjuncts is None:
        return [q]  # guard too complex: sound to ignore
    results = []
    for i, conds in enumerate(disjuncts):
        qi = q.copy() if i < len(disjuncts) - 1 else q
        ok = True
        for cond in conds:
            if not _apply_cond(qi, ctx, cond):
                ok = False
                break
        if ok or qi.failed:
            results.append(qi)
    return results


def _dnf(expr: ins.PureExpr, polarity: bool) -> Optional[list[list[tuple]]]:
    if isinstance(expr, ins.PBool):
        return [[]] if expr.value == polarity else []
    if isinstance(expr, ins.PNot):
        return _dnf(expr.operand, not polarity)
    if isinstance(expr, (ins.PVar, ins.PField, ins.PStatic)):
        return [[("bool", expr, polarity)]]
    if isinstance(expr, ins.PBin):
        op = expr.op
        if op in ("&&", "||"):
            conj = (op == "&&") == polarity  # && under T, || under F distribute as AND
            left = _dnf(expr.left, polarity)
            right = _dnf(expr.right, polarity)
            if left is None or right is None:
                return None
            if conj:
                product = [l + r for l in left for r in right]
                return product if len(product) <= _DNF_CAP else None
            union = left + right
            return union if len(union) <= _DNF_CAP else None
        if op in ("<", "<=", ">", ">="):
            actual = op if polarity else _NEGATED[op]
            return [[("cmp", actual, expr.left, expr.right)]]
        if op in ("==", "!="):
            if expr.ref_operands:
                is_eq = (op == "==") == polarity
                return [[("refcmp", is_eq, expr.left, expr.right)]]
            actual = op if polarity else _NEGATED[op]
            return [[("cmp", actual, expr.left, expr.right)]]
        return None  # arithmetic at boolean position: malformed
    if isinstance(expr, (ins.PInt, ins.PNull)):
        return None
    return None


def _apply_cond(q: Query, ctx: TransferContext, cond: tuple) -> bool:
    kind = cond[0]
    cap = ctx.config.max_path_constraints
    if kind == "bool":
        _, term, value = cond
        expr = _term_to_linexpr(q, ctx, term)
        if expr is None:
            return True
        q.add_pure(
            eq(expr, LinExpr.constant(1 if value else 0)), guard=True, cap=cap
        )
        return not q.failed
    if kind == "cmp":
        _, op, left, right = cond
        lexpr = _term_to_linexpr(q, ctx, left)
        rexpr = _term_to_linexpr(q, ctx, right)
        if lexpr is None or rexpr is None:
            return True
        q.add_pure(_cmp_atom(op, lexpr, rexpr), guard=True, cap=cap)
        return not q.failed
    if kind == "refcmp":
        _, is_eq, left, right = cond
        lval = _term_to_ref(q, ctx, left)
        rval = _term_to_ref(q, ctx, right)
        if lval is None or rval is None:
            return True
        _add_ref_relation(q, lval, rval, is_eq)
        return not q.failed
    raise ValueError(kind)


def _term_to_linexpr(
    q: Query, ctx: TransferContext, term: ins.PureExpr
) -> Optional[LinExpr]:
    if isinstance(term, ins.PInt):
        return LinExpr.constant(term.value)
    if isinstance(term, ins.PBool):
        return LinExpr.constant(1 if term.value else 0)
    if isinstance(term, ins.PVar):
        return LinExpr.var(q.find(_bind_data_local(q, ctx, term.name)))
    if isinstance(term, ins.PField):
        base = _term_to_ref(q, ctx, term.base)
        if not isinstance(base, SymVar):
            return None
        q.mark_nonnull(base)
        value = q.get_field(base, term.field)
        if value is None:
            value = q.new_data(hint=term.field)
            q.set_field(base, term.field, value)
        return LinExpr.var(q.find(value)) if not value.is_ref else None
    if isinstance(term, ins.PStatic):
        value = q.get_static(term.class_name, term.field)
        if value is None:
            value = q.new_data(hint=term.field)
            q.set_static(term.class_name, term.field, value)
        return LinExpr.var(q.find(value)) if not value.is_ref else None
    if isinstance(term, ins.PBin) and term.op in ("+", "-", "*"):
        left = _term_to_linexpr(q, ctx, term.left)
        right = _term_to_linexpr(q, ctx, term.right)
        if left is None or right is None:
            return None
        if term.op == "+":
            return left.add(right)
        if term.op == "-":
            return left.sub(right)
        if left.is_constant:
            return right.scale(left.const)
        if right.is_constant:
            return left.scale(right.const)
        return None
    return None


def _term_to_ref(q: Query, ctx: TransferContext, term: ins.PureExpr):
    if isinstance(term, ins.PNull):
        return NULL
    if isinstance(term, ins.PVar):
        u = q.get_local(term.name)
        if u is None:
            u = ctx.fresh_ref(
                q,
                ctx.region_local(q.current_method, term.name),
                maybe_null=True,
                hint=term.name,
            )
            q.set_local(term.name, u)
        return u
    if isinstance(term, ins.PField):
        base = _term_to_ref(q, ctx, term.base)
        if not isinstance(base, SymVar):
            return None
        q.mark_nonnull(base)
        value = q.get_field(base, term.field)
        if value is None:
            value = ctx.fresh_ref(
                q,
                ctx.region_field(q, base, term.field),
                maybe_null=True,
                hint=term.field,
            )
            q.set_field(base, term.field, value)
        return value
    if isinstance(term, ins.PStatic):
        value = q.get_static(term.class_name, term.field)
        if value is None:
            value = ctx.fresh_ref(
                q,
                ctx.region_static(term.class_name, term.field),
                maybe_null=True,
                hint=term.field,
            )
            q.set_static(term.class_name, term.field, value)
        return value
    return None
