"""On-the-fly loop-invariant inference (Section 3.3).

Arriving backwards at a loop head with query ``Q``, we compute a
*disjunctive invariant*: the least set ``S ∋ Q`` of queries at the head
closed under the backwards transfer of the loop body — i.e. every state at
the head that can reach ``Q`` through some number of iterations is covered
by ``S``. Termination is forced by over-approximation (WIT-ABSTRACTION):

* pure constraints that the loop body may modify are dropped (the paper's
  "trivial widening" on the base domain);
* materialization is bounded: memory constraints introduced during the
  fixpoint beyond the per-location bound are dropped;
* if the fixpoint still does not converge within ``MAX_LOOP_PASSES``, every
  pending query is weakened to the drop-all form, and as a last resort to
  ``any`` (which can only make the edge *witnessed*, never unsoundly
  refuted).

The ``DROP_ALL`` mode is the ablation of hypothesis (3) in Section 4: it
drops every possibly-affected constraint immediately, which loses the
multi-container precision the full inference retains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..obs import metrics, trace
from ..pointsto.modref import ModSet
from .config import LoopInference
from .query import Query
from .simplification import query_entails
from .symvar import SymVar

if TYPE_CHECKING:  # pragma: no cover
    from .executor import Engine
    from ..ir.stmts import Loop

#: Materialization bound per abstract location during the fixpoint.
MATERIALIZATION_BOUND = 1
#: Body passes per loop saturation before aggressive weakening.
MAX_LOOP_PASSES = 10

_SATURATIONS = metrics.counter("executor.loop_saturations")
_INVARIANT_SIZE = metrics.histogram("executor.loop_invariant_size")


def saturate(engine: "Engine", loop: "Loop", query: Query) -> list[Query]:
    """Queries to propagate to the program point before ``loop``, given an
    incoming query at the loop head."""
    _SATURATIONS.inc()
    with trace.span("executor.loop_invariant", loop=loop.label) as sp:
        invariant = _saturate(engine, loop, query)
        sp.set(disjuncts=len(invariant))
    _INVARIANT_SIZE.observe(len(invariant))
    sj = getattr(engine, "_sj", None)
    if sj is not None:
        sj.note(
            0,
            "loop-invariant",
            f"inferred a loop invariant with {len(invariant)} disjunct(s)"
            f" at the head of loop @L{loop.label}",
            label=loop.label,
        )
    return invariant


def _saturate(engine: "Engine", loop: "Loop", query: Query) -> list[Query]:
    cfg = engine.ctx.config
    mod = engine.pta.modref.statement_mod(loop.body)
    engine._fp_note_stmt(loop.body)
    baseline_size = query.memory_size()

    def weaken(q: Query) -> Query:
        if cfg.loop_inference is LoopInference.DROP_ALL:
            _drop_affected_memory(q, mod)
        _drop_unstable_pure(q, mod)
        _bound_materialization(q, baseline_size, MATERIALIZATION_BOUND)
        return q

    invariant: list[Query] = []
    pending: list[Query] = [weaken(query)]
    passes = 0
    while pending and passes < MAX_LOOP_PASSES:
        passes += 1
        current, pending = pending, []
        for q in current:
            if q.failed or _subsumed(q, invariant):
                continue
            invariant.append(q)
            if cfg.loop_inference is LoopInference.DROP_ALL:
                # Affected constraints are gone; the body cannot change the
                # query further, so the fixpoint is immediate.
                continue
            for pre in engine.run_subwalk(loop.body, q.copy()):
                pre = weaken(pre)
                if not pre.failed and not _subsumed(pre, invariant + pending):
                    pending.append(pre)
    if pending:
        # No convergence: aggressively weaken the stragglers.
        for q in pending:
            _drop_affected_memory(q, mod)
            _drop_unstable_pure(q, mod)
            if not _subsumed(q, invariant):
                invariant.append(q)
                # One defensive closure pass; if the body still perturbs the
                # weakened query, fall back to `any` (witness-only).
                for pre in engine.run_subwalk(loop.body, q.copy()):
                    pre = weaken(pre)
                    _drop_affected_memory(pre, mod)
                    if not pre.failed and not _subsumed(pre, invariant):
                        pre.clear_constraints()
                        invariant.append(pre)
                        break
    return invariant


def _subsumed(q: Query, against: list[Query]) -> bool:
    return any(query_entails(q, other) for other in against)


def unstable_vars(q: Query, mod: ModSet) -> set[SymVar]:
    """Roots whose values the loop body may change: values of written
    locals, fields, statics, and array contents."""
    out: set[SymVar] = set()
    for (frame, var), value in q.locals.items():
        if frame == q.current_frame and (var in mod.locals or mod.calls_unknown):
            out.add(q.find(value))
    for (base, field_name), value in q.field_cells.items():
        if mod.writes_field(field_name):
            out.add(q.find(value))
    for (cls, fld), value in q.statics.items():
        if mod.writes_static(cls, fld):
            out.add(q.find(value))
    if mod.writes_field("@elems"):
        for cell in q.array_cells:
            out.add(q.find(cell.value))
            out.add(q.find(cell.index))
    return out


def _drop_unstable_pure(q: Query, mod: ModSet) -> None:
    unstable = unstable_vars(q, mod)
    if not unstable:
        return
    q.drop_pure_if(
        lambda atom: any(
            isinstance(v, SymVar) and q.find(v) in unstable for v in atom.vars()
        )
    )


def _drop_affected_memory(q: Query, mod: ModSet) -> None:
    """The drop-all widening: remove every memory constraint whose location
    the loop may write."""
    q.drop_memory(
        local=lambda key, _: key[0] == q.current_frame
        and (key[1] in mod.locals or mod.calls_unknown),
        field=lambda key, _: mod.writes_field(key[1]),
        static=lambda key, _: mod.writes_static(*key),
        array=mod.writes_field("@elems") or mod.calls_unknown,
    )


def _bound_materialization(q: Query, baseline_size: int, bound: int) -> None:
    """Enforce the materialization bound: if the fixpoint has grown the
    memory far beyond the original query, drop the newest heap cells."""
    allowance = baseline_size + max(1, bound) * 4
    while q.memory_size() > allowance:
        if q.array_cells:
            newest = max(q.array_cells, key=lambda c: c.value.vid)
            q.remove_array_cell(newest)
            continue
        if q.field_cells:
            base, field_name = max(q.field_cells, key=lambda k: q.field_cells[k].vid)
            q.del_field(base, field_name)
            continue
        break
