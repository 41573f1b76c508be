"""The mixed symbolic-explicit query: ``Q ::= M ∧ P`` (Section 3.1).

A query is a separating conjunction of exact points-to constraints

* ``x ↦ v``       (a local of some stack frame holds instance ``v``),
* ``C.g ↦ v``     (a static field holds ``v``),
* ``v.f ↦ u``     (field ``f`` of instance ``v`` holds ``u``),
* ``v[i] ↦ u``    (an array cell, with a symbolic data index ``i``),

conjoined with pure constraints (linear integer + reference equalities) and
the paper's *instance constraints* ``v from r̂`` — each REF symbolic
variable carries a points-to region (a set of abstract locations).
``None`` as a region means "unconstrained", which is how the
fully-symbolic ablation representation is realized.

A query owns a union-find over its symbolic variables. Unifying two
variables intersects their regions; an empty intersection refutes the query
(axiom (1) of Section 3.2: ``v from ∅ ⇔ false``). Separation is enforced
when checking satisfiability: distinct field cells over the same field
imply their bases are distinct instances.

The memory is written only through the methods below, because each of them
also keeps what the transfer layer would otherwise re-derive from the whole
heap after every command: the roots that must denote real objects, the
separation disequalities, and the roots whose cells
:meth:`repro.symbolic.transfer.TransferContext.renarrow` has to revisit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from ..pointsto.graph import AbsLoc
from ..solver import NULL, Atom, check_sat, ref_eq, ref_ne
from ..solver.core import SolverStats, count_unchanged
from ..solver.partition import Components
from ..solver.terms import LinAtom, LinExpr, RefAtom
from ..solver.unionfind import UnionFind
from .symvar import DATA, REF, SymVar, fresh_data, fresh_ref

Region = Optional[frozenset]  # frozenset[AbsLoc]; None = unconstrained
Selector = Union[Callable[..., bool], bool, None]  # see Query.drop_memory


def _select_all(*_) -> bool:
    return True


@dataclass(frozen=True, slots=True)
class Frame:
    """A pending caller on the abstract backwards call stack."""

    frame_id: int
    method: str  # the caller's qualified method name
    invoke_label: int  # the call-site label inside the caller


@dataclass(frozen=True, slots=True)
class ArrayCell:
    """Immutable, so copies of a query share their cells."""

    base: SymVar
    index: SymVar
    value: SymVar


class Query:
    """One conjunction in the refutation state (mutable, copy-on-fork)."""

    __slots__ = (
        "uf",
        "regions",
        "maybe_null",
        "locals",
        "statics",
        "field_cells",
        "array_cells",
        "pure",
        "stack",
        "current_frame",
        "current_method",
        "_next_frame",
        "version",
        "failed",
        "fail_reason",
        "_sat_version",
        "_sat_result",
        "components",
        "dirty_roots",
        "_anchors",
        "_nonnull",
        "_separation",
        "_shape",
        "_shape_version",
        "_canon",
    )

    def __init__(self, current_method: str) -> None:
        self.uf = UnionFind()
        self.regions: dict[SymVar, Region] = {}
        self.maybe_null: set[SymVar] = set()
        self.locals: dict[tuple[int, str], SymVar] = {}
        self.statics: dict[tuple[str, str], SymVar] = {}
        self.field_cells: dict[tuple[SymVar, str], SymVar] = {}
        self.array_cells: list[ArrayCell] = []
        self.pure: list[tuple[Atom, bool]] = []  # (atom, is_guard_constraint)
        self.stack: list[Frame] = []
        self.current_frame = 0
        self.current_method = current_method
        self._next_frame = 1
        self.version = 0
        self.failed = False
        self.fail_reason = ""
        self._sat_version = -1
        self._sat_result = True
        # The component record of the last SAT check (see
        # repro.solver.partition.Components), kept and replaced by the
        # solver, which decides only what changed since. Copies share it.
        self.components: Optional[Components] = None
        # Roots whose region or identity changed, or that gained a heap
        # cell, since the last renarrow: only their cells can break its
        # invariant.
        self.dirty_roots: set[SymVar] = set()
        # REF roots anchored in memory -> number of memory slots (local or
        # static value, cell base or value) that name them.
        self._anchors: dict[SymVar, int] = {}
        # The anchored roots that must denote real objects.
        self._nonnull: set[SymVar] = set()
        # The separation disequalities; None once a cell or a unification
        # may have changed them. Never mutated in place, so copies share it.
        self._separation: Optional[list[Atom]] = []
        # The entailment shape (see shape()) and the version it is for.
        self._shape: Optional[tuple] = None
        self._shape_version = -1
        # (pure list, union count, canonical atoms) of canonical_pure().
        self._canon: Optional[tuple] = None

    # -- lifecycle -----------------------------------------------------------------

    def copy(self) -> "Query":
        q = Query.__new__(Query)
        q.uf = self.uf.copy()
        q.regions = dict(self.regions)
        q.maybe_null = set(self.maybe_null)
        q.locals = dict(self.locals)
        q.statics = dict(self.statics)
        q.field_cells = dict(self.field_cells)
        q.array_cells = list(self.array_cells)
        q.pure = list(self.pure)
        q.stack = list(self.stack)
        q.current_frame = self.current_frame
        q.current_method = self.current_method
        q._next_frame = self._next_frame
        q.version = self.version
        q.failed = self.failed
        q.fail_reason = self.fail_reason
        q._sat_version = self._sat_version
        q._sat_result = self._sat_result
        q.components = self.components
        q.dirty_roots = set(self.dirty_roots)
        q._anchors = dict(self._anchors)
        q._nonnull = set(self._nonnull)
        q._separation = self._separation
        q._shape = self._shape
        q._shape_version = self._shape_version
        canon = self._canon
        q._canon = None if canon is None or canon[0] is not self.pure else (q.pure,) + canon[1:]
        return q

    # Pickled (the store's refuted rows that older builds wrote, read by
    # ``VerdictStore.load_refuted``) without the derived structures, which
    # are rebuilt on load; this also reads states pickled before those
    # structures existed, and skips ``sat_basis``, the slot older builds
    # kept where ``components`` is now.
    _DERIVED = frozenset(
        (
            "components",
            "sat_basis",
            "dirty_roots",
            "_anchors",
            "_nonnull",
            "_separation",
            "_shape",
            "_shape_version",
            "_canon",
        )
    )

    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name)
            for name in Query.__slots__
            if name not in Query._DERIVED
        }

    def __setstate__(self, state) -> None:
        if isinstance(state, tuple):  # default slots pickling: (None, slots)
            state = state[1]
        for name, value in state.items():
            if name not in Query._DERIVED:
                setattr(self, name, value)
        self._anchors = {}
        self._nonnull = set()
        for value in list(self.locals.values()) + list(self.statics.values()):
            self._anchor(value)
        for (base, _), value in self.field_cells.items():
            self._anchor(base)
            self._anchor(value)
        for cell in self.array_cells:
            self._anchor(cell.base)
            self._anchor(cell.value)
        self.dirty_roots = set(self._anchors)
        self.components = None
        self._separation = None
        self._shape = None
        self._shape_version = -1
        self._canon = None

    def touch(self) -> None:
        self.version += 1

    def fail(self, reason: str) -> None:
        self.failed = True
        self.fail_reason = reason
        self.touch()

    # -- symbolic variables ------------------------------------------------------------

    def new_ref(
        self, region: Region, maybe_null: bool = False, hint: str = ""
    ) -> SymVar:
        v = fresh_ref(hint)
        if maybe_null:
            self.maybe_null.add(v)
        if region is not None:
            self.regions[v] = frozenset(region)
            if not region:
                self._empty_region(v)
        self.touch()
        return v

    def _empty_region(self, v: SymVar) -> None:
        """v's instance constraint became empty: if v may be null it *is*
        null (axiom (1) applies only to instances); otherwise refute."""
        root = self.find(v)
        if root in self.maybe_null:
            self.pure.append((ref_eq(root, NULL), False))
            self.touch()
        else:
            self.fail(f"instance constraint: {v} from ∅")

    def new_data(self, hint: str = "") -> SymVar:
        self.touch()
        return fresh_data(hint)

    def find(self, v: SymVar) -> SymVar:
        return self.uf.find(v)  # type: ignore[return-value]

    def region_of(self, v: SymVar) -> Region:
        return self.regions.get(self.find(v))

    def is_maybe_null(self, v: SymVar) -> bool:
        return self.find(v) in self.maybe_null

    def mark_nonnull(self, v: SymVar) -> None:
        root = self.find(v)
        if root in self.maybe_null:
            self.maybe_null.discard(root)
            if root in self._anchors:
                self._nonnull.add(root)
            region = self.regions.get(root)
            if region is not None and not region:
                self.fail(f"instance constraint: {v} from ∅")
            self.touch()

    def narrow(self, v: SymVar, region: Region) -> bool:
        """Intersect v's instance constraint with ``region`` (axiom (2))."""
        if region is None:
            return True
        root = self.find(v)
        current = self.regions.get(root)
        new = frozenset(region) if current is None else current & frozenset(region)
        if new == current:
            return True
        self.regions[root] = new
        self.dirty_roots.add(root)
        self.touch()
        if not new:
            self._empty_region(root)
            return not self.failed
        return True

    def unify(self, a: SymVar, b: SymVar) -> bool:
        """Equate two instances; intersects regions; refutes on emptiness."""
        worklist = [(a, b)]
        while worklist:
            x, y = worklist.pop()
            rx, ry = self.find(x), self.find(y)
            if rx is ry:
                continue
            if rx.kind != ry.kind:
                self.fail("kind mismatch in unification")
                return False
            new_root = self.uf.union(rx, ry)
            old_root = rx if new_root is ry else ry
            region_old = self.regions.pop(old_root, None)
            region_new = self.regions.pop(new_root, None)
            if region_old is None:
                merged = region_new
            elif region_new is None:
                merged = region_old
            else:
                merged = region_old & region_new
            if merged is not None:
                self.regions[new_root] = merged
            # Null-ness: nonnull wins.
            old_mn = old_root in self.maybe_null
            new_mn = new_root in self.maybe_null
            self.maybe_null.discard(old_root)
            self.maybe_null.discard(new_root)
            if old_mn and new_mn:
                self.maybe_null.add(new_root)
            count = self._anchors.pop(old_root, 0)
            if count:
                self._anchors[new_root] = self._anchors.get(new_root, 0) + count
            self._nonnull.discard(old_root)
            if new_root in self._anchors and new_root not in self.maybe_null:
                self._nonnull.add(new_root)
            self.dirty_roots.add(new_root)
            if self._separation or len(self.array_cells) > 1:
                # A renamed pair, or two array cells now on one base; with
                # no pairs and at most one array cell there is still none.
                self._separation = None
            self.touch()
            if merged is not None and not merged and new_root.kind == REF:
                self._empty_region(new_root)
                if self.failed:
                    return False
            worklist.extend(self._rehash_cells())
        return True

    def _rehash_cells(self) -> list[tuple[SymVar, SymVar]]:
        """Re-key field cells to current roots; same-cell collisions yield
        pending value unifications (separation: one cell, one value)."""
        pending: list[tuple[SymVar, SymVar]] = []
        rebuilt: dict[tuple[SymVar, str], SymVar] = {}
        for (base, field_name), value in self.field_cells.items():
            root = self.find(base)
            key = (root, field_name)
            if key in rebuilt:
                pending.append((rebuilt[key], value))
                self._unanchor(root)
                self._unanchor(value)
            else:
                rebuilt[key] = value
        self.field_cells = rebuilt
        # Array cells with equal base and equal index are the same cell.
        merged: list[ArrayCell] = []
        for cell in self.array_cells:
            duplicate = False
            for other in merged:
                if self.find(other.base) is self.find(cell.base) and self.find(
                    other.index
                ) is self.find(cell.index):
                    pending.append((other.value, cell.value))
                    self._unanchor(cell.base)
                    self._unanchor(cell.value)
                    duplicate = True
                    break
            if not duplicate:
                merged.append(cell)
        self.array_cells = merged
        return pending

    # -- derived structures ------------------------------------------------------------

    def _anchor(self, v: SymVar) -> None:
        """One more memory slot names ``v``'s root."""
        root = self.find(v)
        if not root.is_ref:
            return
        count = self._anchors.get(root, 0)
        self._anchors[root] = count + 1
        if not count and root not in self.maybe_null:
            self._nonnull.add(root)

    def _unanchor(self, v: SymVar) -> None:
        """One memory slot naming ``v``'s root is gone."""
        root = self.find(v)
        count = self._anchors.get(root)
        if count is None:
            return
        if count == 1:
            del self._anchors[root]
            self._nonnull.discard(root)
        else:
            self._anchors[root] = count - 1

    def _drop_pairs(self) -> None:
        """Cells were removed: separation loses pairs, if it had any."""
        if self._separation:
            self._separation = None

    def take_dirty(self) -> set[SymVar]:
        """Hand over the roots dirtied since the last call (see
        :attr:`dirty_roots`); the query starts a fresh set if there were
        any. Test the result for emptiness only."""
        dirty = self.dirty_roots
        if dirty:
            self.dirty_roots = set()
        return dirty

    # -- memory constraints ----------------------------------------------------------

    def get_local(self, var: str, frame: Optional[int] = None) -> Optional[SymVar]:
        frame = self.current_frame if frame is None else frame
        return self.locals.get((frame, var))

    def set_local(self, var: str, value: SymVar, frame: Optional[int] = None) -> bool:
        """x ↦ value; unifies when x is already constrained (separation:
        one local, one cell)."""
        frame = self.current_frame if frame is None else frame
        existing = self.locals.get((frame, var))
        if existing is not None:
            return self.unify(existing, value)
        self.locals[(frame, var)] = value
        self._anchor(value)
        self.touch()
        return True

    def del_local(self, var: str, frame: Optional[int] = None) -> None:
        frame = self.current_frame if frame is None else frame
        if (frame, var) in self.locals:
            self._unanchor(self.locals.pop((frame, var)))
            self.touch()

    def get_static(self, class_name: str, field_name: str) -> Optional[SymVar]:
        return self.statics.get((class_name, field_name))

    def set_static(self, class_name: str, field_name: str, value: SymVar) -> bool:
        existing = self.statics.get((class_name, field_name))
        if existing is not None:
            return self.unify(existing, value)
        self.statics[(class_name, field_name)] = value
        self._anchor(value)
        self.touch()
        return True

    def del_static(self, class_name: str, field_name: str) -> None:
        if (class_name, field_name) in self.statics:
            self._unanchor(self.statics.pop((class_name, field_name)))
            self.touch()

    def get_field(self, base: SymVar, field_name: str) -> Optional[SymVar]:
        return self.field_cells.get((self.find(base), field_name))

    def set_field(self, base: SymVar, field_name: str, value: SymVar) -> bool:
        self.mark_nonnull(base)
        root = self.find(base)
        existing = self.field_cells.get((root, field_name))
        if existing is not None:
            return self.unify(existing, value)
        if self._separation is not None and any(
            name == field_name for _, name in self.field_cells
        ):
            self._separation = None  # a new pair of bases
        self.field_cells[(root, field_name)] = value
        self._anchor(root)
        self._anchor(value)
        if value.is_ref:
            self.dirty_roots.add(self.find(value))
        self.touch()
        return True

    def del_field(self, base: SymVar, field_name: str) -> None:
        key = (self.find(base), field_name)
        if key in self.field_cells:
            self._unanchor(key[0])
            self._unanchor(self.field_cells.pop(key))
            self._drop_pairs()
            self.touch()

    def add_array_cell(self, base: SymVar, index: SymVar, value: SymVar) -> bool:
        self.mark_nonnull(base)
        root = self.find(base)
        for cell in self.array_cells:
            if self.find(cell.base) is root:
                if self.find(cell.index) is self.find(index):
                    return self.unify(cell.value, value)
                self._separation = None  # a new pair of indices
        self.array_cells.append(ArrayCell(base, index, value))
        self._anchor(base)
        self._anchor(value)
        if value.is_ref:
            self.dirty_roots.add(self.find(value))
        self.touch()
        return True

    def remove_array_cell(self, cell: ArrayCell) -> None:
        self.drop_memory(array=lambda c: c is cell)

    def drop_memory(
        self,
        local: Selector = None,
        static: Selector = None,
        field: Selector = None,
        array: Selector = None,
    ) -> None:
        """Drop the memory constraints each selector picks — a predicate
        (``local``, ``static`` and ``field`` get ``(key, value)``, ``array``
        the cell), ``True`` for all, ``None``/``False`` for none — keeping
        the rest in order; always touches."""
        local, static, field, array = (
            _select_all if s is True else s or None
            for s in (local, static, field, array)
        )
        if local is not None:
            for key in [k for k, v in self.locals.items() if local(k, v)]:
                self._unanchor(self.locals.pop(key))
        if static is not None:
            for key in [k for k, v in self.statics.items() if static(k, v)]:
                self._unanchor(self.statics.pop(key))
        if field is not None:
            doomed = [k for k, v in self.field_cells.items() if field(k, v)]
            for key in doomed:
                self._unanchor(key[0])
                self._unanchor(self.field_cells.pop(key))
            if doomed:
                self._drop_pairs()
        if array is not None:
            kept = []
            for cell in self.array_cells:
                if array(cell):
                    self._unanchor(cell.base)
                    self._unanchor(cell.value)
                else:
                    kept.append(cell)
            if len(kept) != len(self.array_cells):
                self.array_cells = kept
                self._drop_pairs()
        self.touch()

    def clear_constraints(self) -> None:
        """Weaken to ``any``: drop every memory and pure constraint."""
        self.locals.clear()
        self.statics.clear()
        self.field_cells.clear()
        self.array_cells = []
        self.pure = []
        self.dirty_roots.clear()
        self._anchors.clear()
        self._nonnull.clear()
        self._separation = []
        self.touch()

    # -- pure constraints -------------------------------------------------------------

    def add_pure(self, atom: Atom, guard: bool = False, cap: Optional[int] = None) -> None:
        if guard and cap is not None:
            # Path-constraint cap (Section 4): once the set is full, further
            # guard constraints are dropped rather than added. The earliest
            # guards — those nearest the query point — are the ones the
            # refutation usually needs, so they are retained.
            if sum(1 for _, g in self.pure if g) >= cap:
                return
        self.pure.append((atom, guard))
        self.touch()

    def drop_pure_if(self, predicate) -> int:
        """Drop pure atoms satisfying ``predicate(atom)``; returns count."""
        kept = [(a, g) for a, g in self.pure if not predicate(a)]
        dropped = len(self.pure) - len(kept)
        if dropped:
            self.pure = kept
            self.touch()
        return dropped

    def canonical_pure(self) -> list[Atom]:
        """The pure atoms with every variable replaced by its union-find
        root, in order. The list is shared: callers must not mutate it.

        Runs on every satisfiability check, so it is kept from one call to
        the next: while no unification happened in between, only atoms
        appended to the pure list since are canonicalized."""
        pure = self.pure
        merges = len(self.uf._parent)  # unions only ever add keys
        cached = self._canon
        if cached is not None and cached[0] is pure and cached[1] == merges:
            canon = cached[2]
            if len(canon) == len(pure):
                return canon
            canon = canon + self._canonicalize(pure[len(canon):])
        else:
            canon = self._canonicalize(pure)
        self._canon = (pure, merges, canon)
        return canon

    def _canonicalize(self, pure: list[tuple[Atom, bool]]) -> list[Atom]:
        """Rebuild only atoms that mention a merged (non-root) variable.
        Every other atom is kept as is: terms are built in canonical
        form, so a full rename would only rebuild an equal term."""
        parent = self.uf._parent  # keys are exactly the non-root variables
        if not parent:
            return [atom for atom, _ in pure]
        find = self.uf.find
        out: list[Atom] = []
        for atom, _ in pure:
            if isinstance(atom, LinAtom):
                moved = [v for v, _ in atom.expr.coeffs if v in parent]
            else:
                moved = [v for v in (atom.left, atom.right) if v in parent]
            if moved:
                atom = atom.rename({v: find(v) for v in moved})
            out.append(atom)
        return out

    # -- satisfiability ---------------------------------------------------------------

    def nonnull_roots(self) -> frozenset[SymVar]:
        """The roots that must denote real objects: every REF root named by
        a local, a static or a cell value, unless it may be null, and every
        cell base."""
        return frozenset(self._nonnull)

    def separation_atoms(self) -> list[Atom]:
        """Disequalities implied by the separating conjunction: distinct
        cells over one field have distinct bases, and distinct array cells
        on one instance have distinct indices. Rebuilt only after a cell
        was added or removed, or a unification renamed one of them."""
        if self._separation is None:
            self._separation = self._build_separation()
        return self._separation

    def _build_separation(self) -> list[Atom]:
        atoms: list[Atom] = []
        by_field: dict[str, list[SymVar]] = {}
        for base, field_name in self.field_cells:
            by_field.setdefault(field_name, []).append(base)  # keys are roots
        for bases in by_field.values():
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    atoms.append(ref_ne(bases[i], bases[j]))
        cells = self.array_cells
        for i in range(len(cells)):
            for j in range(i + 1, len(cells)):
                ci, cj = cells[i], cells[j]
                if self.find(ci.base) is self.find(cj.base):
                    expr = LinExpr.var(self.find(ci.index)).sub(
                        LinExpr.var(self.find(cj.index))
                    )
                    atoms.append(LinAtom("!=", expr))
        return atoms

    def check_sat(self, stats: Optional[SolverStats] = None) -> bool:
        if self.failed:
            return False
        if self._sat_version == self.version:
            return self._sat_result
        pure = self.canonical_pure()
        sep = self.separation_atoms()
        record = self.components
        if (
            record is not None
            and pure is record.pure
            and sep is record.sep
            and self._nonnull == record.nonnull
        ):
            # Nothing changed since the SAT check that published the
            # record (its lists are never mutated), so the solver would
            # answer "same atoms" at once: answer it here, counted alike.
            count_unchanged(stats)
            ok = True
        else:
            ok = check_sat(
                pure,
                nonnull=frozenset(self._nonnull),
                stats=stats,
                separation=sep,
                lineage=self,
            )
        self._sat_version = self.version
        self._sat_result = ok
        if not ok:
            self.fail("pure constraints unsatisfiable")
        return ok

    # -- structure queries --------------------------------------------------------------

    def is_memory_empty(self) -> bool:
        return not self.locals and not self.statics and not self.field_cells and not self.array_cells

    def memory_size(self) -> int:
        return (
            len(self.locals)
            + len(self.statics)
            + len(self.field_cells)
            + len(self.array_cells)
        )

    def shape(self) -> tuple:
        """``(stack signature, local keys by frame position, static keys,
        field-name counts, array-cell count)``, cached per version.
        Entailment needs equal stack signatures, maps frames by position (0
        is the current frame) and heap cells injectively, so a weak query's
        shape must be contained in its strong query's."""
        if self._shape_version != self.version:
            frames = [self.current_frame] + [f.frame_id for f in reversed(self.stack)]
            position = {frame: i for i, frame in enumerate(frames)}
            fields: dict[str, int] = {}
            for _, field_name in self.field_cells:
                fields[field_name] = fields.get(field_name, 0) + 1
            self._shape = (
                (self.current_method, tuple((f.method, f.invoke_label) for f in self.stack)),
                frozenset((position.get(frame), var) for frame, var in self.locals),
                frozenset(self.statics),
                fields,
                len(self.array_cells),
            )
            self._shape_version = self.version
        return self._shape  # type: ignore[return-value]

    def all_memory_vars(self) -> set[SymVar]:
        out: set[SymVar] = set()
        for v in self.locals.values():
            out.add(self.find(v))
        for v in self.statics.values():
            out.add(self.find(v))
        for (base, _), value in self.field_cells.items():
            out.add(self.find(base))
            out.add(self.find(value))
        for cell in self.array_cells:
            out.update((self.find(cell.base), self.find(cell.index), self.find(cell.value)))
        return out

    def mentions_in_memory(self, v: SymVar) -> bool:
        root = self.find(v)
        return root in self.all_memory_vars()

    def instance_counts(self) -> dict[AbsLoc, int]:
        """Number of distinct materialized instances per abstract location
        (used by the loop materialization bound)."""
        counts: dict[AbsLoc, int] = {}
        seen: set[SymVar] = set()
        for v in self.all_memory_vars():
            if v in seen or not v.is_ref:
                continue
            seen.add(v)
            region = self.regions.get(v)
            if region is None:
                continue
            for loc in region:
                counts[loc] = counts.get(loc, 0) + 1
        return counts

    # -- frames -----------------------------------------------------------------------

    def push_frame(self, callee_method: str, invoke_label: int) -> int:
        """Enter a callee backwards: the current method becomes a pending
        caller; returns the fresh frame id for the callee."""
        self.stack.append(Frame(self.current_frame, self.current_method, invoke_label))
        self.current_frame = self._next_frame
        self._next_frame += 1
        self.current_method = callee_method
        self.touch()
        return self.current_frame

    def pop_frame(self) -> Frame:
        frame = self.stack.pop()
        self.current_frame = frame.frame_id
        self.current_method = frame.method
        self.touch()
        return frame

    def rebase_to_caller(self, caller_method: str) -> int:
        """Replace the bottom frame: used when expanding past a method entry
        into one of its callers (empty-stack case). Returns the caller's
        fresh frame id."""
        self.current_frame = self._next_frame
        self._next_frame += 1
        self.current_method = caller_method
        self.touch()
        return self.current_frame

    def current_frame_locals(self) -> list[tuple[str, SymVar]]:
        return [
            (var, value)
            for (frame, var), value in self.locals.items()
            if frame == self.current_frame
        ]

    def stack_signature(self) -> tuple:
        """The current method and each pending caller's call site."""
        return self.shape()[0]

    # -- rendering -------------------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for (frame, var), value in sorted(self.locals.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            parts.append(f"{var}@{frame} ↦ {self.find(value)}")
        for (cls, fld), value in sorted(self.statics.items()):
            parts.append(f"{cls}.{fld} ↦ {self.find(value)}")
        for (base, fld), value in self.field_cells.items():
            parts.append(f"{base}.{fld} ↦ {self.find(value)}")
        for cell in self.array_cells:
            parts.append(
                f"{self.find(cell.base)}[{self.find(cell.index)}] ↦ {self.find(cell.value)}"
            )
        for v, region in self.regions.items():
            if region is not None and self.find(v) is v:
                names = ",".join(sorted(str(l) for l in region))
                parts.append(f"{v} from {{{names}}}")
        for atom, guard in self.pure:
            tag = "ᵍ" if guard else ""
            parts.append(f"{atom}{tag}")
        body = " * ".join(parts) if parts else "any"
        if self.failed:
            body = f"false ({self.fail_reason})"
        return body
