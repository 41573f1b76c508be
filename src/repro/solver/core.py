"""Decision procedure for the analysis's pure-constraint fragment.

Satisfiability of a conjunction of :class:`~repro.solver.terms.Atom` is
decided by:

1. congruence over reference (dis)equalities via union-find, with the
   ``NULL`` constant and caller-supplied non-null facts;
2. Gaussian elimination of linear equalities with a unit-coefficient
   variable;
3. Fourier–Motzkin elimination with integer tightening for the remaining
   ``≤`` atoms;
4. a completeness pass for ``≠`` atoms: a disequality fails only when the
   ``≤`` system *forces* the difference to zero.

The procedure is sound in both directions on this fragment, except that it
conservatively reports SAT when the FM elimination exceeds its size budget
— which preserves refutation soundness (Theorem 1): the analysis only
*refutes* on UNSAT.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..obs import metrics, provenance, trace
from ..perf import store as perf_store
from ..perf.memo import SOLVER_MEMO
from . import partition
from .terms import NULL, Atom, LinAtom, LinExpr, RefAtom, Var, tighten
from .unionfind import UnionFind

# Beyond this many ≤-atoms during elimination we give up and report SAT.
FM_ATOM_BUDGET = 400

# Process-wide mirrors of the per-context SolverStats counters; the
# canonical cross-run aggregate (dumped by --metrics) lives in the
# repro.obs registry, while SolverStats instances stay around as the
# per-search compatibility view. ``solver.checks`` counts *actual
# decision-procedure runs* (one per component decided) — a cache tier's
# answer increments only that tier's counter, which is what makes the
# cached-vs-uncached solver call reduction measurable. ``solver.unsat``
# counts UNSAT verdicts, whichever tier answered them, so it reads the
# same cold or warm.
_CHECKS = metrics.counter("solver.checks")
_UNSAT = metrics.counter("solver.unsat")
_GIVEUPS = metrics.counter("solver.fm_giveups")
_CHECK_ATOMS = metrics.histogram("solver.check_atoms")
# Queries partitioned, components per query, atoms per component, and the
# ways a component can be answered without an actual decision-procedure
# run. The names ``memo_hits``/``context_hits`` are kept for the queries
# and components the SAT basis answers (they also name the Prometheus
# ``tier`` labels).
_MEMO_HITS = metrics.counter("solver.memo_hits")
_MEMO_MISSES = metrics.counter("solver.memo_misses")
_PARTITIONS = metrics.counter("solver.partitions")
_COMPONENTS = metrics.histogram("solver.components")
_COMPONENT_SIZE = metrics.histogram("solver.component_size")
_CONTEXT_HITS = metrics.counter("solver.context_hits")
_COMPONENT_HITS = metrics.counter("solver.component_memo_hits")
_COMPONENT_MISSES = metrics.counter("solver.component_memo_misses")
_FASTPATH_UNSAT = metrics.counter("solver.fastpath_unsat")


class SolverStats:
    """Per-search counters (compatibility view over the repro.obs registry:
    the process-wide totals live in ``solver.*`` metrics).

    ``checks``/``unsat`` count *queries asked and their verdicts* — they
    are memoization-invariant, so per-search accounting (and tests
    pinning exact counts) reads the same with caches on or off.
    ``memo_hits``/``memo_misses`` say how many of those queries the SAT
    basis answered whole without a decision vs. not;
    ``context_hits``/``component_hits`` count components answered by the
    SAT basis and by the per-component memo table.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.unsat = 0
        self.fm_giveups = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.context_hits = 0
        self.component_hits = 0

    def __repr__(self) -> str:
        return (
            f"SolverStats(checks={self.checks}, unsat={self.unsat},"
            f" giveups={self.fm_giveups},"
            f" memo_hits={self.memo_hits}, memo_misses={self.memo_misses},"
            f" context_hits={self.context_hits},"
            f" component_hits={self.component_hits})"
        )


GLOBAL_STATS = SolverStats()


#: A query lineage's *SAT basis*: the ``(frozenset of atoms, non-null
#: vars)`` of its last satisfiable check (see :func:`check_sat`).
SatBasis = tuple


def check_sat(
    atoms: Iterable[Atom],
    nonnull: Optional[frozenset[Var]] = None,
    stats: Optional[SolverStats] = None,
    basis: Optional[SatBasis] = None,
    atom_set: Optional[frozenset[Atom]] = None,
) -> bool:
    """True if the conjunction may be satisfiable, False if definitely not.

    ``nonnull`` lists instance variables known to denote real objects
    (e.g. instances that appear as the source of an exact points-to
    constraint); equating one of those with NULL is a contradiction.

    The check is relevance-partitioned and incremental (delta
    satisfiability). Against ``basis`` — the ``(atom set, nonnull)`` of
    the caller's last SAT check (:attr:`repro.symbolic.query.Query.sat_basis`)
    — a query is answered three ways:

    * **same atoms**, no new non-null fact: SAT at once — the basis
      conjunction was SAT and this one is no stronger;
    * **atoms grew**: split as usual, but decide only the components that
      hold a new atom or a newly non-null variable. Adding atoms only
      merges components, so any other component is exactly a component
      of the basis's SAT conjunction with the same or fewer non-null
      facts, and the decision procedure is monotone in those facts;
    * **anything else** (unify renames, dropped atoms, no basis): decide
      every component.

    Before splitting, the conjunction is screened for syntactic
    contradictions. It is then split into connected components over
    shared variables, and each component that needs a verdict is answered
    from the component memo (:data:`repro.perf.SOLVER_MEMO`), then the
    persistent store, then the decision procedure. UNSAT in any component
    is UNSAT overall; SAT in every component is SAT overall (the
    components share no variables, so models compose). See
    :mod:`repro.solver.partition` for the soundness of splitting.

    ``atom_set`` is ``frozenset(atoms)`` when the caller already has it
    (the basis it keeps is built from the same set).
    """
    stats = stats or GLOBAL_STATS
    stats.checks += 1
    atoms = list(atoms)
    nonnull = nonnull or frozenset()
    _PARTITIONS.inc()
    store = perf_store.ACTIVE
    if atom_set is None:
        atom_set = frozenset(atoms)

    grew = False
    if basis is not None:
        basis_atoms, basis_nonnull = basis
        if atom_set >= basis_atoms:
            if len(atom_set) == len(basis_atoms) and nonnull <= basis_nonnull:
                stats.memo_hits += 1
                _MEMO_HITS.inc()
                return True
            grew = True
    stats.memo_misses += 1
    _MEMO_MISSES.inc()

    # The persistent store's whole-query tier, on the canonical
    # alpha-renamed signature (run- and process-independent), kind "part".
    wcanon = None
    if store is not None:
        wcanon = partition.canonical_key(atoms, nonnull)
        cached = store.get("part", wcanon)
        if cached is not None:
            if not cached:
                _note_unsat(stats, atoms)
            return cached

    bad = partition.syntactic_unsat(atoms, nonnull)
    if bad is not None:
        _FASTPATH_UNSAT.inc()
        _note_unsat(stats, [bad])
        return False

    dirty = None
    if grew:
        # Only the components of new atoms and newly non-null variables
        # need a verdict.
        dirty = set(nonnull - basis_nonnull)
        for atom in atom_set - basis_atoms:
            dirty.update(atom.vars())
    if len(atom_set) != len(atoms):
        # Repeated atoms (one separation disequality per shared field)
        # would give one component two signatures.
        atoms = list(dict.fromkeys(atoms))
    components = partition.split_components(atoms, nonnull, dirty)
    _COMPONENTS.observe(len(components))

    memo_on = SOLVER_MEMO.enabled
    for catoms, cnonnull, changed in components:
        if not changed:
            stats.context_hits += 1
            _CONTEXT_HITS.inc()
            continue
        # The component memo, on canonical signatures (alpha-equivalent
        # fragments collapse); then the persistent store's component tier
        # (fragments decided by earlier runs); then decide the fragment.
        verdict: Optional[bool] = None
        canon = (
            partition.canonical_key(catoms, cnonnull)
            if (memo_on or store is not None)
            else None
        )
        if canon is not None and memo_on:
            verdict = SOLVER_MEMO.component.get(canon)
            if verdict is not None:
                stats.component_hits += 1
                _COMPONENT_HITS.inc()
            else:
                _COMPONENT_MISSES.inc()
        if verdict is None and canon is not None and store is not None:
            verdict = store.get("comp", canon)
            if verdict is not None and memo_on:
                SOLVER_MEMO.component.put(canon, verdict)
        if verdict is None:
            verdict = _decide_component(catoms, cnonnull, stats)
            if canon is not None and memo_on:
                SOLVER_MEMO.component.put(canon, verdict)
            if canon is not None and store is not None:
                store.put("comp", canon, verdict)
        if not verdict:
            _note_unsat(stats, catoms)
            if wcanon is not None and store is not None:
                store.put("part", wcanon, False)
            return False
    if wcanon is not None and store is not None:
        store.put("part", wcanon, True)
    return True


def _note_unsat(stats: SolverStats, atoms: list[Atom]) -> None:
    """Count one UNSAT verdict, whichever tier answered it, and record
    the refuting atoms for provenance."""
    stats.unsat += 1
    _UNSAT.inc()
    if provenance.enabled():
        provenance.note_unsat(atoms)


def _decide_component(
    catoms: list[Atom], nonnull: Iterable[Var], stats: SolverStats
) -> bool:
    """Run the actual decision procedure on one variable-connected
    component, in the caller's own variable names (the canonical
    signature is a cache key, never an instance — signatures are built
    from plain data precisely so no renamed terms are ever interned).
    Counts toward ``solver.checks`` — the "actual runs" metric the
    ablation grid compares against the answering tiers."""
    _CHECKS.inc()
    _CHECK_ATOMS.observe(len(catoms))
    _COMPONENT_SIZE.observe(len(catoms))
    with trace.span("solver.check_sat"):
        ref_atoms = [a for a in catoms if isinstance(a, RefAtom)]
        lin_atoms = [a for a in catoms if isinstance(a, LinAtom)]
        if not _check_refs(ref_atoms, nonnull):
            return False
        return _check_linear(lin_atoms, stats)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _check_refs(ref_atoms: list[RefAtom], nonnull: Iterable[Var]) -> bool:
    uf = UnionFind()
    for atom in ref_atoms:
        if atom.equal:
            uf.union(atom.left, atom.right)
    null_root = uf.find(NULL)
    for var in nonnull:
        if uf.find(var) == null_root:
            # var == NULL forced, but var must be a real object.
            return False
    for atom in ref_atoms:
        if not atom.equal and uf.same(atom.left, atom.right):
            return False
    return True


# ---------------------------------------------------------------------------
# Linear integer arithmetic
# ---------------------------------------------------------------------------


def _check_linear(lin_atoms: list[LinAtom], stats: SolverStats) -> bool:
    les: list[LinExpr] = []  # each meaning expr <= 0
    nes: list[LinExpr] = []  # each meaning expr != 0
    eqs: list[LinExpr] = []  # each meaning expr == 0
    for atom in lin_atoms:
        if atom.op == "<=":
            les.append(atom.expr)
        elif atom.op == "==":
            eqs.append(atom.expr)
        else:
            nes.append(atom.expr)

    subst_eqs, les = _eliminate_equalities(eqs, les, nes)
    if subst_eqs is None:
        return False

    if not _fm_feasible(les, stats):
        return False

    for expr in nes:
        if expr.is_constant:
            if expr.const == 0:
                return False
            continue
        # expr != 0 fails only if the system forces expr == 0, i.e. both
        # expr <= -1 and -expr <= -1 are infeasible with the system.
        pos = les + [expr.add(LinExpr.constant(1))]  # expr + 1 <= 0, expr <= -1
        neg = les + [expr.scale(-1).add(LinExpr.constant(1))]  # expr >= 1
        if not _fm_feasible(pos, stats) and not _fm_feasible(neg, stats):
            return False
    return True


def _eliminate_equalities(
    eqs: list[LinExpr], les: list[LinExpr], nes: list[LinExpr]
) -> tuple[Optional[dict], list[LinExpr]]:
    """Substitute away equalities with a ±1-coefficient variable; the rest
    become inequality pairs. Mutates ``nes`` in place with substitutions.
    Returns (marker dict or None on contradiction, new les)."""
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
            # No unit coefficient: keep as two inequalities.
            les.append(expr)
            les.append(expr.scale(-1))
            continue
        # unit_coeff·v = -(expr - unit_coeff·v), so substituting for v in
        # a target with coefficient c adds -c·unit_coeff·expr to it
        # (unit_coeff² = 1 cancels v).
        def subst(target: LinExpr) -> LinExpr:
            coeff = target.coeff(unit_var)
            if coeff == 0:
                return target
            return target.combine(expr, -coeff * unit_coeff)

        pending = [subst(e) for e in pending]
        les = [subst(e) for e in les]
        nes[:] = [subst(e) for e in nes]
    return {}, les


def _fm_feasible(les: list[LinExpr], stats: SolverStats) -> bool:
    """Fourier–Motzkin with integer tightening over atoms ``expr <= 0``."""
    system = [tighten(e) for e in les]
    while True:
        constants = [e for e in system if e.is_constant]
        if any(e.const > 0 for e in constants):
            return False
        system = [e for e in system if not e.is_constant]
        if not system:
            return True
        if len(system) > FM_ATOM_BUDGET:
            stats.fm_giveups += 1
            _GIVEUPS.inc()
            return True  # give up: conservatively satisfiable
        # Pick the variable with the fewest pos*neg combinations.
        occurrences: dict[Var, tuple[int, int]] = {}
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
        pos_exprs: list[tuple[LinExpr, int]] = []
        neg_exprs: list[tuple[LinExpr, int]] = []
        others: list[LinExpr] = []
        for e in system:
            c = e.coeff(var)
            if c > 0:
                pos_exprs.append((e, c))
            elif c < 0:
                neg_exprs.append((e, -c))
            else:
                others.append(e)
        combined: list[LinExpr] = []
        for p, cp in pos_exprs:
            for n, cn in neg_exprs:
                # cn*p + cp*n eliminates var.
                combined.append(tighten(p.scale(cn).combine(n, cp)))
        system = others + combined
