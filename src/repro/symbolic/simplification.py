"""Query simplification: subsumption joins and query histories.

Section 3.3 of the paper: the refutation state ``Q1 ∨ Q2`` can be replaced
by ``Q2`` whenever ``Q1 ⊨ Q2`` — a refutation of the weaker query refutes
the stronger one, so exploring the stronger one is redundant. The
implementation keeps a *query history* at procedure boundaries and loop
heads and drops any query entailed-into a previously seen weaker query.

Entailment between queries is checked structurally: an injective matching
of the weaker query's memory constraints into the stronger one's, under
which regions must shrink (``(v from r1) ⊨ (v from r2) iff r1 ⊆ r2``,
Equation § in the paper) and pure atoms must be syntactically present.
A match that is missed only costs re-exploration. A match that is wrong
costs soundness: the stronger query is dropped as covered when it is not,
and an edge can be refuted that some execution produces. Injectivity on
heap cells is what keeps the separating conjunction honest — two weak
cells ``x.f`` and ``y.f`` assert ``x ≠ y``, so they can never both match
one strong cell.
"""

from __future__ import annotations

from ..obs import metrics
from ..solver import Atom
from ..solver.terms import RefAtom
from .query import Query
from .symvar import SymVar

# Structural query-entailment calls (worklist subsumption, query
# histories): the ablation grid's ``entails_calls`` column.
_ENTAILS_CALLS = metrics.counter("executor.entails_calls")


def query_entails(strong: Query, weak: Query) -> bool:
    """Conservative check that ``strong ⊨ weak``."""
    _ENTAILS_CALLS.inc()
    if strong.failed:
        return True
    if weak.failed:
        return False
    if not _shape_within(weak.shape(), strong.shape()):
        return False
    frame_map = _frame_map(weak, strong)
    mapping: dict[SymVar, SymVar] = {}
    wfind, sfind = weak.uf.find, strong.uf.find

    def match(wv: SymVar, sv: SymVar) -> bool:
        wr, sr = wfind(wv), sfind(sv)
        if wr in mapping:
            return mapping[wr] is sr
        if wr.kind != sr.kind:
            return False
        mapping[wr] = sr
        return True

    # Every memory constraint of the weak query must exist in the strong one.
    for (frame, var), wv in weak.locals.items():
        sframe = frame_map.get(frame)
        if sframe is None:
            return False
        sv = strong.locals.get((sframe, var))
        if sv is None or not match(wv, sv):
            return False
    for key, wv in weak.statics.items():
        sv = strong.statics.get(key)
        if sv is None or not match(wv, sv):
            return False
    # Field cells: resolve bases as the mapping grows. Distinct weak cells
    # over one field have distinct bases (separation), so no strong cell
    # may stand for two of them.
    pending = list(weak.field_cells.items())
    used_cells: set[tuple[SymVar, str]] = set()
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for (base, field_name), wv in pending:
            broot = wfind(base)
            if broot not in mapping:
                remaining.append(((base, field_name), wv))
                continue
            skey = (mapping[broot], field_name)
            if skey in used_cells:
                return False
            used_cells.add(skey)
            sv = strong.field_cells.get(skey)
            if sv is None or not match(wv, sv):
                return False
            progress = True
        pending = remaining
    if pending:
        return False
    # Array cells: greedy matching.
    used: set[int] = set()
    for cell in weak.array_cells:
        broot = wfind(cell.base)
        if broot not in mapping:
            return False
        found = False
        for i, scell in enumerate(strong.array_cells):
            if i in used or sfind(scell.base) is not mapping[broot]:
                continue
            snapshot = dict(mapping)
            if match(cell.index, scell.index) and match(cell.value, scell.value):
                used.add(i)
                found = True
                break
            mapping.clear()
            mapping.update(snapshot)
        if not found:
            return False
    # Instance constraints: strong regions must be subsets (Equation §).
    for wroot, sroot in mapping.items():
        wregion = weak.regions.get(wroot)
        if wregion is None:
            continue  # weak is unconstrained: anything entails it
        sregion = strong.regions.get(sroot)
        if sregion is None or not sregion <= wregion:
            return False
        # Null-ness: weak claims nonnull => strong must too.
        if wroot not in weak.maybe_null and sroot in strong.maybe_null:
            return False
    # Pure constraints: syntactic inclusion after renaming. Variables that
    # appear only in pure atoms (not anchored in memory) default to the
    # identity mapping — forked queries share SymVar objects, so a
    # free-floating variable denotes the same existential in both.
    strong_atoms = {_norm(a) for a in strong.canonical_pure()}
    for atom in weak.canonical_pure():
        rename: dict[SymVar, SymVar] = {}
        for v in atom.vars():
            if not isinstance(v, SymVar):
                continue
            wroot = wfind(v)
            rename[wroot] = mapping.get(wroot, sfind(wroot))
        renamed = atom.rename(rename)
        if _norm(renamed) not in strong_atoms:
            return False
    return True


def _shape_within(weak: tuple, strong: tuple) -> bool:
    """Can the strong shape (:meth:`Query.shape`) hold the weak one? A
    necessary condition for the structural match, which needs one stack
    signature, maps every weak local and static to the same key and the
    weak cells injectively onto strong cells."""
    wstack, wlocals, wstatics, wfields, warrays = weak
    sstack, slocals, sstatics, sfields, sarrays = strong
    if warrays > sarrays or wstack != sstack:
        return False
    if not wlocals <= slocals or not wstatics <= sstatics:
        return False
    return all(sfields.get(name, 0) >= n for name, n in wfields.items())


def _norm(atom: Atom):
    if isinstance(atom, RefAtom):
        return atom.normalized()
    return atom


def _frame_map(weak: Query, strong: Query) -> dict[int, int]:
    """Positional frame-id correspondence (same stack signature assumed)."""
    wframes = [weak.current_frame] + [f.frame_id for f in reversed(weak.stack)]
    sframes = [strong.current_frame] + [f.frame_id for f in reversed(strong.stack)]
    return dict(zip(wframes, sframes))


class QueryHistory:
    """Per-program-point histories with subsumption-based dropping, kept
    for one search (Section 3.3: drop ``Q1`` when ``Q1 ⊨ Q2`` for an
    already-explored ``Q2`` at the same point and stack signature)."""

    def __init__(self, enabled: bool = True, max_per_point: int = 64) -> None:
        self.enabled = enabled
        self.max_per_point = max_per_point
        self._seen: dict[tuple, list[Query]] = {}

    def should_drop(self, point_key: tuple, query: Query) -> bool:
        """True if an already-explored weaker query at this point subsumes
        this one; otherwise records the query for future checks."""
        if not self.enabled:
            return False
        key = (point_key, query.stack_signature())
        history = self._seen.setdefault(key, [])
        for old in history:
            if query_entails(query, old):
                return True
        if len(history) < self.max_per_point:
            history.append(query.copy())
        return False
