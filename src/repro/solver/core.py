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

from math import gcd
from typing import Iterable, Optional, Sequence

from ..obs import metrics, provenance, trace
from ..perf import store as perf_store
from ..perf.memo import SOLVER_MEMO
from . import partition
from .terms import NULL, Atom, LinAtom, RefAtom, Var
from .unionfind import UnionFind

# Beyond this many ≤-atoms during elimination we give up and report SAT.
FM_ATOM_BUDGET = 400

# Process-wide solver counters in the repro.obs registry: the cross-run
# aggregate that --metrics dumps and the ledger reads. Each engine also
# keeps a SolverStats of its own, whose per-search deltas the executor
# observes (``executor.solver_calls``). ``solver.checks`` counts *actual
# decision-procedure runs* (one per component decided) — a cache tier's
# answer increments only that tier's counter, which is what makes the
# cached-vs-uncached solver call reduction measurable. ``solver.unsat``
# counts UNSAT verdicts, whichever tier answered them, so it reads the
# same cold or warm.
_CHECKS = metrics.counter("solver.checks")
_UNSAT = metrics.counter("solver.unsat")
_GIVEUPS = metrics.counter("solver.fm_giveups")
# Queries partitioned, components per query, atoms per component, and the
# ways a component can be answered without an actual decision-procedure
# run. The names ``memo_hits``/``context_hits`` are kept for the queries
# and components the lineage's component record answers (they also name
# the Prometheus ``tier`` labels).
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
    """One engine's solver counters, read per search as deltas (the
    process-wide totals are the ``solver.*`` metrics, counted alongside).

    ``checks``/``unsat`` count *queries asked and their verdicts* — they
    are memoization-invariant, so per-search accounting (and tests
    pinning exact counts) reads the same with caches on or off.
    ``memo_hits``/``memo_misses`` say how many of those queries the
    lineage's component record answered whole without a decision vs. not;
    ``context_hits``/``component_hits`` count components answered by that
    record and by the per-component memo table.
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


def check_sat(
    atoms: Iterable[Atom],
    nonnull: Optional[frozenset[Var]] = None,
    stats: Optional[SolverStats] = None,
    separation: Sequence[Atom] = (),
    lineage=None,
) -> bool:
    """True if the conjunction may be satisfiable, False if definitely not.

    The conjunction is ``atoms`` (the pure constraints) followed by
    ``separation`` (the disequalities the heap's separating conjunction
    implies); repeated atoms count once. ``nonnull`` lists instance
    variables known to denote real objects (e.g. instances that appear as
    the source of an exact points-to constraint); equating one of those
    with NULL is a contradiction.

    The check is relevance-partitioned and incremental (delta
    satisfiability). ``lineage`` is the asking query
    (:class:`repro.symbolic.query.Query`) or any object with a
    ``components`` attribute: the :class:`~repro.solver.partition.Components`
    record of its last SAT check, or ``None``. :func:`partition.advance`
    derives this conjunction's record from it, and a SAT verdict stores
    the new record back; an UNSAT one leaves the old record. Against that
    record a query is answered three ways:

    * **same atoms**, no new non-null fact: SAT at once — the recorded
      conjunction was SAT and this one is no stronger (a query still
      holding the record's very lists and facts answers this itself, see
      :func:`count_unchanged`);
    * **atoms grew** (appended since, or a superset after a rebuild):
      decide only the components that hold a new atom or a newly
      non-null variable. Adding atoms only merges components, so any
      other component is exactly a component of the recorded SAT
      conjunction with the same or fewer non-null facts, and the decision
      procedure is monotone in those facts. Only the new atoms, and the
      atoms of newly non-null variables, are screened;
    * **anything else** (unify renames, dropped atoms, no record): the
      record is rebuilt, and every component is screened and decided.

    The syntactic screen runs first: a conjunction with an atom
    contradictory on its own is UNSAT without a decision. Each component
    that needs a verdict is then answered from the component memo
    (:data:`repro.perf.SOLVER_MEMO`), then the persistent store, then the
    decision procedure, in conjunction order. UNSAT in any component is
    UNSAT overall; SAT in every component is SAT overall (the components
    share no variables, so models compose). See
    :mod:`repro.solver.partition` for the soundness of splitting.
    """
    stats = stats or GLOBAL_STATS
    stats.checks += 1
    if not isinstance(atoms, list):
        atoms = list(atoms)
    if not isinstance(separation, list):
        separation = list(separation)
    nonnull = nonnull or frozenset()
    _PARTITIONS.inc()
    store = perf_store.ACTIVE
    old = None if lineage is None else lineage.components

    record, new, newly = partition.advance(old, atoms, separation, nonnull)
    if new is not None and not new and not newly:
        _same(stats)
        if lineage is not None:
            lineage.components = record
        return True
    stats.memo_misses += 1
    _MEMO_MISSES.inc()

    if new is None:
        bad = partition.syntactic_unsat(atoms + separation, nonnull)
    else:
        bad = partition.syntactic_unsat(new, nonnull)
        if bad is None and newly:
            bad = record.screen(newly)
        if bad is not None:  # report the first, as a full screen would
            bad = partition.syntactic_unsat(atoms + separation, nonnull)
    if bad is not None:
        _FASTPATH_UNSAT.inc()
        _note_unsat(stats, [bad])
        return False

    _COMPONENTS.observe(len(record.groups))
    memo_on = SOLVER_MEMO.enabled
    for _, group, cnonnull in record.to_decide():
        catoms = group.atoms
        # The component memo, on canonical signatures (alpha-equivalent
        # fragments collapse); then the persistent store's component tier
        # (fragments decided by earlier runs); then decide the fragment.
        verdict: Optional[bool] = None
        canon = None
        if memo_on or store is not None:
            canon = group.key(cnonnull)
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
            _count_clean(stats, record.clean_before(group))
            _note_unsat(stats, catoms)
            return False
    _count_clean(stats, len(record.groups) - len(record.dirty))
    if lineage is not None:
        lineage.components = record
    return True


def count_unchanged(stats: Optional[SolverStats] = None) -> None:
    """Count one check that its query answered itself, exactly as
    :func:`check_sat` counts a "same atoms" answer: the query still holds
    the very lists and non-null facts its record was published for (see
    :meth:`repro.symbolic.query.Query.check_sat`)."""
    stats = stats or GLOBAL_STATS
    stats.checks += 1
    _PARTITIONS.inc()
    _same(stats)


def _same(stats: SolverStats) -> None:
    """Count one query answered whole by its lineage's record."""
    stats.memo_hits += 1
    _MEMO_HITS.inc()


def _count_clean(stats: SolverStats, n: int) -> None:
    """Count ``n`` components answered by the lineage's record."""
    if n:
        stats.context_hits += n
        _CONTEXT_HITS.inc(n)


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
    from plain data precisely so no renamed terms are ever built).
    Counts toward ``solver.checks`` — the "actual runs" metric the
    ablation grid compares against the answering tiers."""
    _CHECKS.inc()
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
#
# The procedure runs on plain *rows*: ``(terms, const)``, a ``{var:
# coeff}`` dict of nonzero coefficients plus a constant, meaning
# ``Σ coeff·var + const``. Rows are built once per decision from the
# component's atoms and are never turned back into terms: every
# substitution and every Fourier–Motzkin combination is dead once the
# decision ends, so building a canonical term for it would be waste.
#
# A row's dict order is not its canonical (``repr``-sorted) order, but it
# agrees with it among variables of equal ``repr``: a row starts in its
# atom's canonical order, and a step keeps the surviving terms in place
# and appends the new ones in the other row's order, exactly the list
# ``LinExpr.combine`` stable-sorts. So "the first ``±1`` coefficient" and
# "the first variable with the fewest combinations" are found by their
# ``repr`` with ties in dict order, and every choice is the one the
# ``LinExpr`` procedure made.

Row = tuple  # (dict[Var, int], int)


def _check_linear(lin_atoms: list[LinAtom], stats: SolverStats) -> bool:
    les: list[Row] = []  # each meaning row <= 0
    nes: list[Row] = []  # each meaning row != 0
    eqs: list[Row] = []  # each meaning row == 0
    reprs: dict = {}  # each variable's repr, computed once per decision
    for atom in lin_atoms:
        expr = atom.expr
        for v, _ in expr.coeffs:
            if v not in reprs:
                reprs[v] = repr(v)
        row = (dict(expr.coeffs), expr.const)
        if atom.op == "<=":
            les.append(row)
        elif atom.op == "==":
            eqs.append(row)
        else:
            nes.append(row)

    if not _eliminate_equalities(eqs, les, nes, reprs):
        return False

    if not _fm_feasible(les, stats, reprs):
        return False

    for terms, const in nes:
        if not terms:
            if const == 0:
                return False
            continue
        # row != 0 fails only if the system forces row == 0, i.e. both
        # row <= -1 and -row <= -1 are infeasible with the system.
        pos = les + [(terms, const + 1)]  # row + 1 <= 0, row <= -1
        neg = les + [({v: -c for v, c in terms.items()}, 1 - const)]  # row >= 1
        if not _fm_feasible(pos, stats, reprs) and not _fm_feasible(neg, stats, reprs):
            return False
    return True


def _eliminate_equalities(
    eqs: list[Row], les: list[Row], nes: list[Row], reprs: dict
) -> bool:
    """Substitute away equalities with a ±1-coefficient variable; the rest
    become inequality pairs appended to ``les``. Works in place: ``les``
    and ``nes`` (and the rows in them) come back substituted. Returns
    False on a contradiction."""
    pending = list(eqs)
    while pending:
        terms, const = pending.pop()
        if not terms:
            if const != 0:
                return False
            continue
        unit = None
        unit_coeff = 0
        for v, c in terms.items():
            if (c == 1 or c == -1) and (unit is None or reprs[v] < reprs[unit]):
                unit = v
                unit_coeff = c
        if unit is None:
            # No unit coefficient: keep as two inequalities.
            les.append((terms, const))
            les.append(({v: -c for v, c in terms.items()}, -const))
            continue
        _substitute(pending, unit, unit_coeff, terms, const)
        _substitute(les, unit, unit_coeff, terms, const)
        _substitute(nes, unit, unit_coeff, terms, const)
    return True


def _substitute(
    rows: list[Row], unit: Var, unit_coeff: int, terms: dict, const: int
) -> None:
    """Eliminate ``unit`` from every row of ``rows`` with the equality
    ``terms + const == 0``, in place. unit_coeff·unit = -(rest of the
    equality), so a row with coefficient c on ``unit`` gains
    -c·unit_coeff times the equality (unit_coeff² = 1 cancels ``unit``)."""
    for i, (t, tconst) in enumerate(rows):
        c = t.get(unit)
        if c is None:
            continue
        k = -c * unit_coeff
        del t[unit]
        for v, pc in terms.items():
            if v is not unit:
                nc = t.get(v, 0) + k * pc
                if nc:
                    t[v] = nc
                else:
                    del t[v]
        rows[i] = (t, tconst + k * const)


def _tighten(row: Row) -> Row:
    """Integer tightening of ``row <= 0``: divide through by the gcd of
    the coefficients, rounding the constant toward the feasible side."""
    terms, const = row
    g = gcd(*terms.values())
    if g <= 1:
        return row
    # Σ c'x ≤ -k/g and the left side is an integer, so Σ c'x ≤ floor(-k/g).
    return {v: c // g for v, c in terms.items()}, -((-const) // g)


def _fm_feasible(les: list[Row], stats: SolverStats, reprs: dict) -> bool:
    """Fourier–Motzkin with integer tightening over rows ``row <= 0``.
    Never changes a row it is given."""
    system = [_tighten(r) for r in les]
    while True:
        live = []
        for row in system:
            if row[0]:
                live.append(row)
            elif row[1] > 0:
                return False
        system = live
        if not system:
            return True
        if len(system) > FM_ATOM_BUDGET:
            stats.fm_giveups += 1
            _GIVEUPS.inc()
            return True  # give up: conservatively satisfiable
        # Pick the variable with the fewest pos*neg combinations.
        occurrences: dict = {}  # var -> [pos, neg]
        for terms, _ in system:
            for v, c in terms.items():
                counts = occurrences.get(v)
                if counts is None:
                    counts = occurrences[v] = [0, 0]
                counts[c < 0] += 1
        var = min(
            occurrences,
            key=lambda v: (occurrences[v][0] * occurrences[v][1], reprs[v]),
        )
        pos_rows: list[tuple[Row, int]] = []
        neg_rows: list[tuple[Row, int]] = []
        others: list[Row] = []
        for row in system:
            c = row[0].get(var, 0)
            if c > 0:
                pos_rows.append((row, c))
            elif c < 0:
                neg_rows.append((row, -c))
            else:
                others.append(row)
        combined: list[Row] = []
        for (pterms, pconst), cp in pos_rows:
            for (nterms, nconst), cn in neg_rows:
                # cn*p + cp*n eliminates var.
                t = {v: c * cn for v, c in pterms.items()}
                for v, c in nterms.items():
                    x = t.get(v, 0) + c * cp
                    if x:
                        t[v] = x
                    else:
                        del t[v]
                combined.append(_tighten((t, pconst * cn + nconst * cp)))
        system = others + combined
