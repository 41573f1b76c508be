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
from ..perf.memo import SOLVER_MEMO, SOLVER_PARTITION
from . import partition
from .terms import NULL, Atom, LinAtom, LinExpr, RefAtom, Var, _NullConst, tighten
from .unionfind import UnionFind

# Beyond this many ≤-atoms during elimination we give up and report SAT.
FM_ATOM_BUDGET = 400

# Process-wide mirrors of the per-context SolverStats counters; the
# canonical cross-run aggregate (dumped by --metrics) lives in the
# repro.obs registry, while SolverStats instances stay around as the
# per-search compatibility view. ``solver.checks``/``solver.unsat`` count
# *actual decision-procedure runs* — a memo hit increments only the
# memo-hit counters, which is what makes the cached-vs-uncached solver
# call reduction measurable.
_CHECKS = metrics.counter("solver.checks")
_UNSAT = metrics.counter("solver.unsat")
_GIVEUPS = metrics.counter("solver.fm_giveups")
_ENTAILS = metrics.counter("solver.entails")
_CHECK_ATOMS = metrics.histogram("solver.check_atoms")
_MEMO_HITS = metrics.counter("solver.memo_hits")
_MEMO_MISSES = metrics.counter("solver.memo_misses")
_ENTAILS_MEMO_HITS = metrics.counter("solver.entails_memo_hits")
_ENTAILS_MEMO_MISSES = metrics.counter("solver.entails_memo_misses")
# Relevance-partitioned path (repro.solver.partition): queries partitioned,
# components per query, atoms per component, and the three ways a component
# can be answered without an actual decision-procedure run.
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

    ``checks``/``unsat``/``entails`` count *queries asked and their
    verdicts* — they are memoization-invariant, so per-search accounting
    (and tests pinning exact counts) reads the same with caches on or off.
    ``memo_hits``/``memo_misses`` say how many of those queries were
    answered from the memo table vs. actually decided; on the partitioned
    path ``context_hits``/``component_hits`` count components answered
    from the per-state solver context and the per-component memo table.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.unsat = 0
        self.fm_giveups = 0
        self.entails = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.context_hits = 0
        self.component_hits = 0

    def __repr__(self) -> str:
        return (
            f"SolverStats(checks={self.checks}, unsat={self.unsat},"
            f" giveups={self.fm_giveups}, entails={self.entails},"
            f" memo_hits={self.memo_hits}, memo_misses={self.memo_misses},"
            f" context_hits={self.context_hits},"
            f" component_hits={self.component_hits})"
        )


GLOBAL_STATS = SolverStats()


def check_sat(
    atoms: Iterable[Atom],
    nonnull: Optional[frozenset[Var]] = None,
    stats: Optional[SolverStats] = None,
    context: Optional[partition.SolverContext] = None,
) -> bool:
    """True if the conjunction may be satisfiable, False if definitely not.

    ``nonnull`` lists instance variables known to denote real objects
    (e.g. instances that appear as the source of an exact points-to
    constraint); equating one of those with NULL is a contradiction.

    Two interchangeable strategies, selected by
    :data:`repro.perf.SOLVER_PARTITION`:

    * **monolithic** (``--no-partition``): decide the whole conjunction
      in one union-find + Fourier–Motzkin run, memoizing the verdict on
      the canonical frozen atom set (terms are hash-consed, so the key is
      cheap); the memo is a pure-function cache with no invalidation,
      toggled via :data:`repro.perf.SOLVER_MEMO`;
    * **relevance-partitioned** (the default): screen for syntactic
      contradictions, split the conjunction into connected components
      over shared variables, and decide each component independently —
      answering from the caller's ``context``
      (:class:`repro.solver.partition.SolverContext`, carried on the
      query and shared parent→child) or the per-component memo table
      whenever the fragment was already decided. UNSAT in any component
      is UNSAT overall; SAT in every component is SAT overall (the
      components share no variables, so models compose).
    """
    stats = stats or GLOBAL_STATS
    stats.checks += 1
    atoms = list(atoms)
    nonnull = nonnull or frozenset()

    if SOLVER_PARTITION.enabled:
        return _check_sat_partitioned(atoms, nonnull, stats, context)

    memo_key = None
    if SOLVER_MEMO.enabled:
        memo_key = (frozenset(atoms), frozenset(nonnull))
        cached = SOLVER_MEMO.check.get(memo_key)
        if cached is not None:
            stats.memo_hits += 1
            _MEMO_HITS.inc()
            if not cached:
                stats.unsat += 1
                if provenance.enabled():
                    provenance.note_unsat(atoms)
            return cached
        stats.memo_misses += 1
        _MEMO_MISSES.inc()

    # Persistent store probe (only ever after an in-memory memo miss):
    # monolithic whole-query verdicts persist under their canonical
    # signature, kind "mono" — kept apart from partitioned verdicts
    # because per-component FM give-ups can differ from whole-query ones.
    store = perf_store.ACTIVE
    canon = None
    if store is not None:
        canon = partition.canonical_key(atoms, nonnull)
        cached = store.get("mono", canon)
        if cached is not None:
            if memo_key is not None:
                SOLVER_MEMO.check.put(memo_key, cached)
            if not cached:
                stats.unsat += 1
                if provenance.enabled():
                    provenance.note_unsat(atoms)
            return cached

    _CHECKS.inc()
    _CHECK_ATOMS.observe(len(atoms))
    with trace.span("solver.check_sat"):
        ref_atoms = [a for a in atoms if isinstance(a, RefAtom)]
        lin_atoms = [a for a in atoms if isinstance(a, LinAtom)]

        result = True
        if not _check_refs(ref_atoms, nonnull):
            result = False
        elif not _check_linear(lin_atoms, stats):
            result = False
        if not result:
            stats.unsat += 1
            _UNSAT.inc()
            if provenance.enabled():
                provenance.note_unsat(atoms)
    if memo_key is not None:
        SOLVER_MEMO.check.put(memo_key, result)
    if canon is not None and store is not None:
        store.put("mono", canon, result)
    return result


def _check_sat_partitioned(
    atoms: list[Atom],
    nonnull: frozenset[Var],
    stats: SolverStats,
    context: Optional[partition.SolverContext],
) -> bool:
    """Relevance-partitioned ``check_sat``: screen, split, decide per
    component, answering from ``context`` / the component memo / the
    persistent verdict store when the fragment is already known. See
    :mod:`repro.solver.partition` for the soundness argument."""
    _PARTITIONS.inc()
    store = perf_store.ACTIVE

    # L1: whole-query memo. The executor re-asks identical conjunctions
    # constantly (version bumps without atom changes, sibling copies); a
    # frozenset probe is far cheaper than splitting and canonicalizing.
    # The leading marker keeps partitioned verdicts apart from monolithic
    # ones — per-component FM give-ups can differ from whole-query ones.
    memo_key = None
    if SOLVER_MEMO.enabled:
        memo_key = ("part", frozenset(atoms), nonnull)
        cached = SOLVER_MEMO.check.get(memo_key)
        if cached is not None:
            stats.memo_hits += 1
            _MEMO_HITS.inc()
            if not cached:
                stats.unsat += 1
                if provenance.enabled():
                    provenance.note_unsat(atoms)
            return cached
        stats.memo_misses += 1
        _MEMO_MISSES.inc()

    # L1.5: the persistent store's whole-query tier, on the canonical
    # alpha-renamed signature (run- and process-independent). Probed only
    # after an in-memory miss, so the disk-backed tier never slows a
    # memo hit; a hit back-fills the L1 memo for this run.
    wcanon = None
    if store is not None:
        wcanon = partition.canonical_key(atoms, nonnull)
        cached = store.get("part", wcanon)
        if cached is not None:
            if memo_key is not None:
                SOLVER_MEMO.check.put(memo_key, cached)
            if not cached:
                stats.unsat += 1
                if provenance.enabled():
                    provenance.note_unsat(atoms)
            return cached

    bad = partition.syntactic_unsat(atoms, nonnull)
    if bad is not None:
        _FASTPATH_UNSAT.inc()
        stats.unsat += 1
        _UNSAT.inc()
        if provenance.enabled():
            provenance.note_unsat([bad])
        if memo_key is not None:
            SOLVER_MEMO.check.put(memo_key, False)
        return False

    components = partition.split_components(atoms, nonnull)
    _COMPONENTS.observe(len(components))

    memo_on = SOLVER_MEMO.enabled
    for catoms, key in components:
        # Tier 1: the per-lineage context, on cheap nominal keys (copies
        # share symbolic variables, so unchanged components recur by
        # name). The canonical signature is only derived below, on a
        # context miss.
        verdict: Optional[bool] = None
        if context is not None:
            verdict = context.get(key)
            if verdict is not None:
                stats.context_hits += 1
                _CONTEXT_HITS.inc()
        if verdict is None:
            # Tier 2: the cross-lineage component memo, on canonical
            # signatures (alpha-equivalent fragments collapse); tier 2.5:
            # the persistent store's component tier (fragments decided by
            # earlier runs); tier 3: decide the original fragment.
            canon = (
                partition.canonical_key(catoms, key[1])
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
                verdict = _decide_component(catoms, key[1], stats)
                if canon is not None and memo_on:
                    SOLVER_MEMO.component.put(canon, verdict)
                if canon is not None and store is not None:
                    store.put("comp", canon, verdict)
        if context is not None:
            context.remember(key, verdict)
        if not verdict:
            stats.unsat += 1
            _UNSAT.inc()
            if provenance.enabled():
                provenance.note_unsat(catoms)
            if memo_key is not None:
                SOLVER_MEMO.check.put(memo_key, False)
            if wcanon is not None and store is not None:
                store.put("part", wcanon, False)
            return False
    if memo_key is not None:
        SOLVER_MEMO.check.put(memo_key, True)
    if wcanon is not None and store is not None:
        store.put("part", wcanon, True)
    return True


def _decide_component(
    catoms: list[Atom], nonnull: frozenset[Var], stats: SolverStats
) -> bool:
    """Run the actual decision procedure on one variable-connected
    component, in the caller's own variable names (the canonical
    signature is a cache key, never an instance — signatures are built
    from plain data precisely so no renamed terms are ever interned).
    Counts toward ``solver.checks`` — the "actual runs" metric the
    ablation grid compares against memo/context hits."""
    _CHECKS.inc()
    _CHECK_ATOMS.observe(len(catoms))
    _COMPONENT_SIZE.observe(len(catoms))
    with trace.span("solver.check_sat"):
        ref_atoms = [a for a in catoms if isinstance(a, RefAtom)]
        lin_atoms = [a for a in catoms if isinstance(a, LinAtom)]
        if not _check_refs(ref_atoms, nonnull):
            return False
        return _check_linear(lin_atoms, stats)


def entails(
    stronger: Iterable[Atom],
    weaker: Iterable[Atom],
    stats: Optional[SolverStats] = None,
) -> bool:
    """Conservative syntactic entailment: every atom of ``weaker`` appears
    in ``stronger`` (after normalization). Used by query subsumption, where
    a miss only costs re-exploration, never soundness. Memoized like
    :func:`check_sat` on the pair of normalized frozen atom sets."""
    stats = stats or GLOBAL_STATS
    stats.entails += 1
    _ENTAILS.inc()
    with trace.span("solver.entails"):
        have = frozenset(_normalize(a) for a in stronger)
        want = frozenset(_normalize(a) for a in weaker)
        if SOLVER_MEMO.enabled:
            memo_key = (have, want)
            cached = SOLVER_MEMO.entailment.get(memo_key)
            if cached is not None:
                stats.memo_hits += 1
                _ENTAILS_MEMO_HITS.inc()
                return cached
            stats.memo_misses += 1
            _ENTAILS_MEMO_MISSES.inc()
            result = want <= have
            SOLVER_MEMO.entailment.put(memo_key, result)
            return result
        return want <= have


def _normalize(atom: Atom) -> Atom:
    if isinstance(atom, RefAtom):
        return atom.normalized()
    return atom


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _check_refs(ref_atoms: list[RefAtom], nonnull: frozenset[Var]) -> bool:
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
