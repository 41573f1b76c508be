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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..perf.memo import SOLVER_PARTITION
from ..pointsto.graph import AbsLoc
from ..solver import NULL, Atom, check_sat, ref_eq, ref_ne
from ..solver.core import SatBasis, SolverStats
from ..solver.terms import LinAtom, LinExpr, RefAtom
from ..solver.unionfind import UnionFind
from .symvar import DATA, REF, SymVar, fresh_data, fresh_ref

Region = Optional[frozenset]  # frozenset[AbsLoc]; None = unconstrained


@dataclass(frozen=True, slots=True)
class Frame:
    """A pending caller on the abstract backwards call stack."""

    frame_id: int
    method: str  # the caller's qualified method name
    invoke_label: int  # the call-site label inside the caller


@dataclass(slots=True)
class ArrayCell:
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
        "sat_basis",
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
        # (atom set, nonnull roots) of the last SAT check on the
        # partitioned path; the solver decides only what changed since.
        self.sat_basis: Optional[SatBasis] = None

    # -- lifecycle -----------------------------------------------------------------

    def copy(self) -> "Query":
        q = Query.__new__(Query)
        q.uf = self.uf.copy()
        q.regions = dict(self.regions)
        q.maybe_null = set(self.maybe_null)
        q.locals = dict(self.locals)
        q.statics = dict(self.statics)
        q.field_cells = dict(self.field_cells)
        q.array_cells = [ArrayCell(c.base, c.index, c.value) for c in self.array_cells]
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
        q.sat_basis = self.sat_basis
        return q

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
                    duplicate = True
                    break
            if not duplicate:
                merged.append(cell)
        self.array_cells = merged
        return pending

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
        self.touch()
        return True

    def del_local(self, var: str, frame: Optional[int] = None) -> None:
        frame = self.current_frame if frame is None else frame
        if (frame, var) in self.locals:
            del self.locals[(frame, var)]
            self.touch()

    def get_static(self, class_name: str, field_name: str) -> Optional[SymVar]:
        return self.statics.get((class_name, field_name))

    def set_static(self, class_name: str, field_name: str, value: SymVar) -> bool:
        existing = self.statics.get((class_name, field_name))
        if existing is not None:
            return self.unify(existing, value)
        self.statics[(class_name, field_name)] = value
        self.touch()
        return True

    def del_static(self, class_name: str, field_name: str) -> None:
        if (class_name, field_name) in self.statics:
            del self.statics[(class_name, field_name)]
            self.touch()

    def get_field(self, base: SymVar, field_name: str) -> Optional[SymVar]:
        return self.field_cells.get((self.find(base), field_name))

    def set_field(self, base: SymVar, field_name: str, value: SymVar) -> bool:
        self.mark_nonnull(base)
        root = self.find(base)
        existing = self.field_cells.get((root, field_name))
        if existing is not None:
            return self.unify(existing, value)
        self.field_cells[(root, field_name)] = value
        self.touch()
        return True

    def del_field(self, base: SymVar, field_name: str) -> None:
        key = (self.find(base), field_name)
        if key in self.field_cells:
            del self.field_cells[key]
            self.touch()

    def add_array_cell(self, base: SymVar, index: SymVar, value: SymVar) -> bool:
        self.mark_nonnull(base)
        for cell in self.array_cells:
            if self.find(cell.base) is self.find(base) and self.find(
                cell.index
            ) is self.find(index):
                return self.unify(cell.value, value)
        self.array_cells.append(ArrayCell(base, index, value))
        self.touch()
        return True

    def remove_array_cell(self, cell: ArrayCell) -> None:
        self.array_cells = [c for c in self.array_cells if c is not cell]
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
        root, in order.

        Runs on every satisfiability check, so it only rebuilds atoms that
        mention a merged (non-root) variable. Every other atom is returned
        as is: terms are interned in canonical form, so a full rename
        would only rebuild an equal term."""
        parent = self.uf._parent  # keys are exactly the non-root variables
        if not parent:
            return [atom for atom, _ in self.pure]
        find = self.uf.find
        out: list[Atom] = []
        for atom, _ in self.pure:
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
        roots: set[SymVar] = set()
        for value in list(self.locals.values()) + list(self.statics.values()):
            root = self.find(value)
            if root.is_ref and root not in self.maybe_null:
                roots.add(root)
        for (base, _), value in self.field_cells.items():
            roots.add(self.find(base))
            root = self.find(value)
            if root.is_ref and root not in self.maybe_null:
                roots.add(root)
        for cell in self.array_cells:
            roots.add(self.find(cell.base))
            root = self.find(cell.value)
            if root.is_ref and root not in self.maybe_null:
                roots.add(root)
        return frozenset(roots)

    def separation_atoms(self) -> list[Atom]:
        """Disequalities implied by the separating conjunction."""
        atoms: list[Atom] = []
        by_field: dict[str, list[SymVar]] = {}
        for (base, field_name), _ in self.field_cells.items():
            by_field.setdefault(field_name, []).append(self.find(base))
        for bases in by_field.values():
            for i in range(len(bases)):
                for j in range(i + 1, len(bases)):
                    if bases[i] is not bases[j]:
                        atoms.append(ref_ne(bases[i], bases[j]))
        # Distinct array cells on the same instance have distinct indices.
        for i in range(len(self.array_cells)):
            for j in range(i + 1, len(self.array_cells)):
                ci, cj = self.array_cells[i], self.array_cells[j]
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
        atoms = self.canonical_pure() + self.separation_atoms()
        nonnull = self.nonnull_roots()
        atom_set = frozenset(atoms) if SOLVER_PARTITION.enabled else None
        ok = check_sat(
            atoms,
            nonnull=nonnull,
            stats=stats,
            basis=self.sat_basis,
            atom_set=atom_set,
        )
        self._sat_version = self.version
        self._sat_result = ok
        if not ok:
            self.fail("pure constraints unsatisfiable")
        elif atom_set is not None:
            self.sat_basis = (atom_set, nonnull)
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
        return (
            self.current_method,
            tuple((f.method, f.invoke_label) for f in self.stack),
        )

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
