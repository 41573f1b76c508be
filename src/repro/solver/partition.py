"""Relevance partitioning of pure-constraint queries.

A path state's atom conjunction almost always decomposes into small
*independent* subproblems: the reference (dis)equalities about one heap
cell share no variables with the arithmetic chain of a loop counter, and
neither shares variables with the separation disequalities of an
unrelated field. Deciding the conjunction monolithically re-pays for
every fragment whenever *any* fragment changes; deciding it per connected
component (over shared variables) lets verdicts be cached at the
granularity at which they actually recur.

Soundness is the easy direction of variable-disjoint conjunction:

* a conjunction of variable-disjoint systems is satisfiable **iff** every
  system is satisfiable on its own (models compose pointwise, and any
  model of the whole restricts to a model of each part);
* UNSAT in any component therefore refutes the whole query, and SAT in
  every component certifies the whole query;
* ``nonnull`` facts slice cleanly: a non-null variable can only be forced
  equal to ``NULL`` through a chain of reference equalities, and every
  atom of such a chain lives in that variable's component — a non-null
  variable mentioned by *no* atom can never be contradicted;
* Fourier–Motzkin give-ups stay per-component and conservative (SAT), so
  refutation soundness (Theorem 1) is preserved exactly as in the
  monolithic procedure.

Three pieces live here:

* :func:`syntactic_unsat` — an O(n) screen for atoms contradictory on
  their own (constant-infeasible linear atoms, ``x != x``, ``v == NULL``
  for a known-non-null ``v``) that skips union-find and FM entirely;
* :class:`Components` — a query lineage's *component record*: a
  variable-to-component map, each component's atoms in conjunction order,
  and the components a check must decide. :func:`advance` derives the
  record of a conjunction from the record of the lineage's last SAT
  check by appending only the atoms added since, and rebuilds it with
  the same append loop when the conjunction is not an extension. Groups
  come out in conjunction order (by their first atom), everything in the
  caller's own variable names; :func:`canonical_key` derives — for the
  components that need a verdict only — the plain-data *signature* with
  variables replaced by first-occurrence indices. Satisfiability is
  invariant under injective renaming, so the signature fully determines
  the verdict — and it is what makes the key space collapse: the executor
  mints globally fresh symbolic variables per path and per search, so
  variable names never recur across searches, while signatures recur
  for every structurally identical fragment across sibling paths and
  across searches;
* :func:`split_components` — the from-scratch union-find split of an
  atom list. The solver no longer calls it; it is the reference the
  record is tested against.

The dirty set is how :func:`repro.solver.core.check_sat` decides only
what a transfer changed (*delta satisfiability*): when a conjunction's
atoms are a superset of the lineage's last SAT check, a component
holding no new atom and no newly non-null variable is exactly a
component of that SAT conjunction, with the same or fewer non-null
facts, so it is SAT.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .terms import Atom, LinAtom, Var, _NullConst

#: A component's *canonical* identity: a plain-data signature of the
#: atoms with variables replaced by first-occurrence indices — an
#: injective renaming, under which satisfiability is invariant. This is
#: the component memo key: the executor mints globally fresh symbolic
#: variables per path and per search, so variable names never recur
#: across searches, while signatures recur for every structurally identical
#: fragment. Deliberately NOT built from term objects: signatures are
#: nested tuples of ints and strings, so they hash and compare at C
#: speed and never build renamed term objects, which would cost a
#: canonical sort per atom and live as long as the memo entry.
CanonicalKey = tuple

#: Signature slot for a NULL operand (variables use indices ``0, 1, ...``;
#: ``-2`` can never appear in a slot, so the CPython ``hash(-1) ==
#: hash(-2)`` aliasing below cannot bite here).
_NULL_SLOT = -1


def _zig(n: int) -> int:
    """Zigzag-encode an integer to a non-negative one.

    CPython reserves ``-1`` as the C-level hash error sentinel, so
    ``hash(-1) == hash(-2)`` — and constants/coefficients of ``-1`` and
    ``-2`` are ubiquitous in backwards increment chains (``x = x + 1`` /
    ``x = x + 2`` become equation atoms with those constants). Left raw,
    whole families of signatures differing only in such a slot share one
    hash and dict probes degenerate into long equality chains. Small
    non-negative ints hash to themselves, all distinct."""
    return n + n if n >= 0 else -n - n - 1


def syntactic_unsat(
    atoms: Iterable[Atom], nonnull: frozenset
) -> Optional[Atom]:
    """Return an atom that is contradictory *on its own* (or against a
    ``nonnull`` fact), or ``None`` when the screen finds nothing.

    Catches the ground refutations the backwards executor produces
    constantly — a guard that folded to ``false``, ``v == NULL`` for an
    instance that must be a real object, ``x != x`` after unification —
    without building a union-find or running any elimination.
    """
    for atom in atoms:
        if isinstance(atom, LinAtom):
            expr = atom.expr
            if expr.is_constant:
                k = expr.const
                if atom.op == "<=":
                    if k > 0:
                        return atom
                elif atom.op == "==":
                    if k != 0:
                        return atom
                else:  # "!="
                    if k == 0:
                        return atom
        else:  # RefAtom
            if atom.equal:
                if isinstance(atom.left, _NullConst):
                    if atom.right in nonnull:
                        return atom
                elif isinstance(atom.right, _NullConst):
                    if atom.left in nonnull:
                        return atom
            elif atom.left == atom.right:
                return atom  # x != x (also NULL != NULL)
    return None


def split_components(
    atoms: list, nonnull: frozenset, dirty: Optional[Iterable[Var]] = None
) -> list[tuple[list, Sequence[Var], bool]]:
    """Partition ``atoms`` into connected components over shared
    variables, slicing ``nonnull`` per component.

    Returns ``(component atoms, component non-null vars, dirty)``
    triples; the atom lists preserve the input order and everything stays
    in the caller's own variable names — renaming rebuilds every term,
    so the canonical form (:func:`canonical_key`) is derived separately,
    only for components that need a verdict. A component is dirty when it
    mentions a variable of ``dirty``; with ``dirty=None`` every component
    is. Ground atoms (no variables) must have been screened by
    :func:`syntactic_unsat` first: whatever survives the screen is a
    tautology and is dropped here.
    """
    # Only non-roots are keys, so ``parent.get(v, v) is v`` marks a root.
    parent: dict = {}

    def find(v: Var) -> Var:
        root = v
        up = parent.get(root, root)
        while up is not root:
            root = up
            up = parent.get(root, root)
        while v is not root:  # path compression
            parent[v], v = root, parent[v]
        return root

    # One representative variable per atom (None for a ground atom),
    # walking the terms directly rather than allocating ``vars()`` sets.
    reps: list = []
    for atom in atoms:
        if isinstance(atom, LinAtom):
            first = None
            for v, _ in atom.expr.coeffs:
                if first is None:
                    first = v
                    froot = find(v)
                else:
                    root = find(v)
                    if root is not froot:
                        parent[root] = froot
        else:  # RefAtom
            left, right = atom.left, atom.right
            if isinstance(left, _NullConst):
                first = None if isinstance(right, _NullConst) else right
            else:
                first = left
                if not isinstance(right, _NullConst):
                    lroot, rroot = find(left), find(right)
                    if rroot is not lroot:
                        parent[rroot] = lroot
        reps.append(first)

    groups: dict = {}  # root -> atom list; insertion-ordered
    for atom, rep in zip(atoms, reps):
        if rep is None:
            continue  # ground tautology (screened by syntactic_unsat)
        root = find(rep)
        catoms = groups.get(root)
        if catoms is None:
            groups[root] = catoms = []
        catoms.append(atom)

    # A variable's root is a group key iff the variable occurs in that
    # group's atoms (roots are always drawn from atom variables).
    sliced: dict = {}
    for v in nonnull:
        root = find(v)
        if root in groups:
            sliced.setdefault(root, []).append(v)
    touched = None if dirty is None else {find(v) for v in dirty}
    return [
        (catoms, sliced.get(root, ()), touched is None or root in touched)
        for root, catoms in groups.items()
    ]


def canonical_key(catoms: list, nonnull: Iterable[Var]) -> CanonicalKey:
    """The plain-data signature of one component: ``catoms`` (in order)
    with variables replaced by first-occurrence indices, plus the sliced
    ``nonnull`` facts under the same replacement.

    Structurally identical fragments over different fresh variables share
    the signature, and a cached verdict transfers soundly: the index
    replacement is injective, and satisfiability is invariant under
    injective renaming, so the signature fully determines the verdict."""
    mapping: dict = {}
    rows = _rows(catoms, mapping)
    return (rows, _sliced_key(nonnull, mapping))


def _sliced_key(nonnull: Iterable[Var], mapping: dict) -> frozenset:
    """The signature's non-null part: the indices of the ``nonnull``
    variables that ``mapping`` numbers."""
    return frozenset([mapping[v] for v in nonnull if v in mapping]) if nonnull else _NO_VARS


def _rows(catoms: list, mapping: dict) -> tuple:
    """The signature rows of ``catoms``, numbering each variable that
    ``mapping`` (variable -> index, in first-occurrence order) does not
    hold yet with the next index."""
    sig = []
    for atom in catoms:
        if isinstance(atom, LinAtom):
            row = [atom.op, _zig(atom.expr.const)]
            for v, c in atom.expr.coeffs:
                i = mapping.get(v)
                if i is None:
                    i = mapping[v] = len(mapping)
                row.append((i, _zig(c)))
            sig.append(tuple(row))
        else:  # RefAtom
            row = ["=" if atom.equal else "!"]
            for side in (atom.left, atom.right):
                if isinstance(side, _NullConst):
                    row.append(_NULL_SLOT)
                else:
                    i = mapping.get(side)
                    if i is None:
                        i = mapping[side] = len(mapping)
                    row.append(i)
            sig.append(tuple(row))
    return tuple(sig)


# -- the component record --------------------------------------------------------

#: Where separation atom ``j`` stands in a lineage's conjunction
#: ``canonical_pure() + separation_atoms()``: at ``_SEP + j``, after every
#: pure atom (pure atom ``i`` stands at ``i``).
_SEP = 1 << 62

_NO_VARS: frozenset = frozenset()


def _atom_vars(atom: Atom) -> list:
    """The atom's variables, each once, in term order."""
    if isinstance(atom, LinAtom):
        return [v for v, _ in atom.expr.coeffs]
    left, right = atom.left, atom.right
    if isinstance(left, _NullConst):
        return [] if isinstance(right, _NullConst) else [right]
    if isinstance(right, _NullConst) or right == left:
        return [left]
    return [left, right]


class Group:
    """One component of a :class:`Components` record: its atoms in
    conjunction order, its variables, and the positions of its first and
    last atom. A check that changes a component makes a new group, so a
    published record's groups change only in the check that made them,
    which may key them (:meth:`key`).

    ``sig`` is the signature the group was keyed by (``None`` until then);
    keying also puts ``vars`` in signature index order. ``prior`` is a
    keyed group whose atoms begin this group's atoms, or ``None``: keying
    then extends its signature by the appended atoms' rows alone."""

    __slots__ = ("atoms", "vars", "first", "last", "sig", "prior")

    def __init__(
        self,
        atoms: list,
        vars_: list,
        first: int,
        last: int,
        prior: Optional["Group"] = None,
    ) -> None:
        self.atoms = atoms
        self.vars = vars_
        self.first = first
        self.last = last
        self.sig: Optional[CanonicalKey] = None
        self.prior = prior

    def extend(self) -> Optional["Group"]:
        """The ``prior`` of a group that appends atoms to this one."""
        return self if self.sig is not None else self.prior

    def key(self, nonnull: Iterable[Var]) -> CanonicalKey:
        """This group's :func:`canonical_key` under the sliced
        ``nonnull`` facts, kept as ``sig``."""
        prior = self.prior
        if prior is None:
            mapping: dict = {}
            rows = _rows(self.atoms, mapping)
        else:
            self.prior = None
            order = prior.vars
            mapping = dict(zip(order, range(len(order))))
            rows = prior.sig[0] + _rows(self.atoms[len(prior.atoms) :], mapping)
        self.sig = sig = (rows, _sliced_key(nonnull, mapping))
        self.vars = list(mapping)
        return sig


class Components:
    """A query lineage's *component record*: how the last SAT check split
    the lineage's conjunction, kept so the next check handles only the
    atoms appended since (see :func:`advance`).

    * ``pure``, ``sep``: the pure and separation atom lists it was made
      from (the caller's lists, never mutated);
    * ``nonnull``: the non-null facts it was made under;
    * ``pos``: each distinct atom's position in ``pure + sep`` (its first
      occurrence; separation atoms count from ``_SEP``);
    * ``root``: each atom variable's component, named by a root variable;
    * ``groups``: root -> :class:`Group`;
    * ``dirty``: the roots of the groups the check that made the record
      had to decide.

    A record is shared by every copy of the query that made it and is
    never changed once published: :func:`advance` copies what it changes.
    """

    __slots__ = ("pure", "sep", "nonnull", "pos", "root", "groups", "dirty")

    def __init__(
        self, pure: list, sep: list, nonnull: frozenset, pos: dict, root: dict, groups: dict
    ) -> None:
        self.pure = pure
        self.sep = sep
        self.nonnull = nonnull
        self.pos = pos
        self.root = root
        self.groups = groups
        self.dirty: frozenset | set = _NO_VARS

    def to_decide(self) -> list[tuple[int, Group, list]]:
        """``(first position, group, sliced non-null facts)`` for each
        dirty group, in conjunction order (by first atom), the order
        :func:`split_components` gives."""
        groups, dirty, nonnull = self.groups, self.dirty, self.nonnull
        find = self.root.get
        if len(dirty) == 1:
            for root in dirty:
                g = groups[root]
                return [(g.first, g, [v for v in nonnull if find(v) is root])]
        slices: dict = {root: [] for root in dirty}
        for v in nonnull:
            facts = slices.get(find(v))
            if facts is not None:
                facts.append(v)
        out = []
        for root, facts in slices.items():
            g = groups[root]
            out.append((g.first, g, facts))
        out.sort()  # positions are distinct: groups are never compared
        return out

    def clean_before(self, group: Group) -> int:
        """How many clean groups come before ``group``."""
        dirty = self.dirty
        return sum(
            1
            for root, g in self.groups.items()
            if g.first < group.first and root not in dirty
        )

    def screen(self, newly: Iterable[Var]) -> Optional[Atom]:
        """An atom of a newly non-null variable's component that
        :func:`syntactic_unsat` rejects against the ``newly`` facts."""
        for v in newly:
            r = self.root.get(v)
            if r is not None:
                bad = syntactic_unsat(self.groups[r].atoms, newly)
                if bad is not None:
                    return bad
        return None

    def _add(self, atom: Atom, p: int, shared: dict) -> bool:
        """Append ``atom`` at position ``p``: merge only its variables'
        components. A repeated atom keeps its first position; returns
        whether the atom is new. ``shared`` holds the groups of the last
        record, which are copied before they change; groups made since
        grow in place."""
        pos = self.pos
        q = pos.setdefault(atom, p)
        if q != p:
            if p < q:
                # A pure atom that so far stood only among the separation
                # atoms: its first occurrence moves up.
                pos[atom] = p
                self._regroup(atom)
            return False
        vs = _atom_vars(atom)
        if not vs:
            return True  # ground: the screen's business, a tautology if it passed
        root, groups = self.root, self.groups
        hit: list = []
        fresh: list = []
        for v in vs:
            r = root.get(v)
            if r is None:
                fresh.append(v)
            elif r not in hit:
                hit.append(r)
        if not hit:
            r = fresh[0]
            for v in fresh:
                root[v] = r
            groups[r] = Group([atom], fresh, p, p)
            return True
        if len(hit) == 1:
            r = hit[0]
            g = groups[r]
            if shared.get(r) is not g:
                g.atoms.append(atom)
                if p > g.last:
                    g.last = p
                else:
                    g.atoms.sort(key=pos.__getitem__)
                    g.first = min(g.first, p)
                if fresh:
                    g.vars = g.vars + fresh
                    for v in fresh:
                        root[v] = r
                return True
            atoms = g.atoms + [atom]
            if p > g.last:
                first, last, prior = g.first, p, g.extend()
            else:  # lands before the component's separation atoms
                atoms.sort(key=pos.__getitem__)
                first, last, prior = min(g.first, p), g.last, None
            vars_ = g.vars + fresh if fresh else g.vars
        else:
            # Merge into the component with the most variables; relabel
            # the others.
            parts = [groups.pop(h) for h in hit]
            big = max(range(len(parts)), key=lambda i: len(parts[i].vars))
            r = hit[big]
            atoms = [atom]
            vars_ = []
            first = last = p
            for h, g in zip(hit, parts):
                atoms += g.atoms
                vars_ += g.vars
                first = min(first, g.first)
                last = max(last, g.last)
                if h is not r:
                    for v in g.vars:
                        root[v] = r
            atoms.sort(key=pos.__getitem__)
            vars_ += fresh
            prior = None
        for v in fresh:
            root[v] = r
        groups[r] = Group(atoms, vars_, first, last, prior)
        return True

    def _regroup(self, atom: Atom) -> None:
        """Re-sort the component of an atom whose position moved."""
        vs = _atom_vars(atom)
        if not vs:
            return
        r = self.root[vs[0]]
        g = self.groups[r]
        pos = self.pos
        atoms = sorted(g.atoms, key=pos.__getitem__)
        self.groups[r] = Group(atoms, g.vars, pos[atoms[0]], pos[atoms[-1]])

    def _mark(self, new: list, newly: Iterable[Var], prior: dict) -> None:
        """Dirty the components of the ``new`` atoms and of the ``newly``
        non-null variables; a dirty group still shared with ``prior`` (the
        last record's groups) is copied before a check keys it."""
        root, groups = self.root, self.groups
        dirty = set()
        for atom in new:
            vs = _atom_vars(atom)
            if vs:
                dirty.add(root[vs[0]])
        for v in newly:
            r = root.get(v)
            if r is not None:
                dirty.add(r)
        for r in dirty:
            g = groups[r]
            if prior.get(r) is g:
                groups[r] = Group(g.atoms, g.vars, g.first, g.last, g.extend())
        self.dirty = dirty


def _tail(done: list, now: list) -> Optional[list]:
    """The atoms of ``now`` after the list ``done``, or ``None`` when
    ``now`` does not extend ``done``."""
    k = len(done)
    if len(now) < k or now[:k] != done:
        return None
    return now[k:]


def advance(
    old: Optional[Components], pure: list, sep: list, nonnull: frozenset
) -> tuple[Components, Optional[list], frozenset]:
    """The component record of the conjunction ``pure + sep`` (repeated
    atoms dropped) under ``nonnull``, derived from ``old``, the record of
    the lineage's last SAT check (``None`` if there is none). ``old`` is
    never changed.

    Returns ``(record, new, newly)``. ``record.dirty`` holds the roots of
    the components that need a verdict. ``new`` lists, in order, the atoms
    ``old``'s conjunction lacks, or is ``None`` when ``old`` is no basis
    (there is none, or atoms were renamed or dropped) and every component
    is dirty. ``newly`` is the non-null facts ``old`` lacks. ``new == []``
    with no ``newly`` means the conjunction is no stronger than ``old``'s.

    When ``pure`` and ``sep`` extend ``old``'s lists, only their new tails
    are appended. Otherwise the record is rebuilt with the same append
    loop; if its atoms still include ``old``'s, only the components of
    the new atoms and non-null facts are dirty, as on an extension.
    """
    if old is not None:
        ptail = () if pure is old.pure else _tail(old.pure, pure)
        stail = () if sep is old.sep or ptail is None else _tail(old.sep, sep)
        if ptail is not None and stail is not None:
            if not ptail and not stail and nonnull == old.nonnull:
                return old, [], _NO_VARS
            newly = nonnull - old.nonnull
            new: list = []
            if not ptail and not stail:
                groups = dict(old.groups) if newly else old.groups
                rec = Components(pure, sep, nonnull, old.pos, old.root, groups)
            else:
                rec = Components(
                    pure, sep, nonnull, dict(old.pos), dict(old.root), dict(old.groups)
                )
                shared = old.groups
                for i, atom in enumerate(ptail, len(old.pure)):
                    if rec._add(atom, i, shared):
                        new.append(atom)
                for j, atom in enumerate(stail, _SEP + len(old.sep)):
                    if rec._add(atom, j, shared):
                        new.append(atom)
            rec._mark(new, newly, old.groups)
            return rec, new, newly
        if nonnull == old.nonnull and old.pos.keys() == set(pure).union(sep):
            # The same atoms, reordered: no stronger than ``old``'s, which
            # stays the record (its lists are what its positions index).
            return old, [], _NO_VARS
    rec = Components(pure, sep, nonnull, {}, {}, {})
    shared: dict = {}
    for i, atom in enumerate(pure):
        rec._add(atom, i, shared)
    for j, atom in enumerate(sep, _SEP):
        rec._add(atom, j, shared)
    if old is not None and old.pos.keys() <= rec.pos.keys():
        known = old.pos
        newly = nonnull - old.nonnull
        new = [atom for atom in rec.pos if atom not in known]
        rec._mark(new, newly, {})
        return rec, new, newly
    rec.dirty = set(rec.groups)
    return rec, None, nonnull
