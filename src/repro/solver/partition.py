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

Two pieces live here:

* :func:`syntactic_unsat` — an O(n) screen for atoms contradictory on
  their own (constant-infeasible linear atoms, ``x != x``, ``v == NULL``
  for a known-non-null ``v``) that skips union-find and FM entirely;
* :func:`split_components` — union-find over the atoms' variables,
  producing per-component atom lists and sliced non-null facts in the
  caller's own variable names, each flagged *dirty* when it holds one of
  the caller's dirty variables, while :func:`canonical_key` derives — on
  the cache path only — the plain-data *signature* with variables
  replaced by first-occurrence indices. Satisfiability is invariant
  under injective renaming, so the signature fully determines the
  verdict — and it is what makes the key space collapse: the executor
  mints globally fresh symbolic variables per path and per search, so
  variable names never recur across searches, while signatures recur
  for every structurally identical fragment across sibling paths and
  across searches.

The dirty flag is how :func:`repro.solver.core.check_sat` decides only
what a transfer changed (*delta satisfiability*): when a query's atoms
are a superset of its lineage's last SAT check, a component holding no
new atom and no newly non-null variable is exactly a component of that
SAT conjunction, with the same or fewer non-null facts, so it is SAT.
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
#: speed and — crucially — never touch the hash-cons intern table
#: (term-valued canonical keys flood it with renamed atoms, and its
#: overflow clears destroy the identity fast path for *every* atom
#: comparison in the process).
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
    in the caller's own variable names — renaming costs term interning,
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
    return (
        tuple(sig),
        frozenset(mapping[v] for v in nonnull if v in mapping),
    )
