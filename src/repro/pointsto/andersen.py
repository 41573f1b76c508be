"""Andersen-style flow-insensitive, field-sensitive points-to analysis.

The solver is a standard inclusion-constraint worklist algorithm with
on-the-fly call-graph construction and pluggable context sensitivity
(:mod:`repro.pointsto.context`). It is the "obtain a conservative analysis
result" phase of the paper (Section 2): the witness-refutation search later
refines its edges on demand.

Annotation support (the paper's ``Ann?=Y`` configuration): a set of static
fields may be declared *contents-free* — any object that flows into such a
field has its outgoing heap edges suppressed. The paper used a single such
annotation on ``HashMap.EMPTY_TABLE``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..ir import instructions as ins
from ..ir.program import IRProgram
from ..ir.stmts import walk_commands
from ..obs import metrics, trace
from .context import ContextInsensitive, ContextPolicy
from .graph import (
    ELEMS,
    AbsLoc,
    Context,
    FieldNode,
    Node,
    PointsToGraph,
    StaticFieldNode,
    VarNode,
)


@dataclass
class CallGraph:
    """Call-graph facts gathered during constraint solving."""

    # invoke label -> set of (callee qname, callee context)
    targets: dict[int, set[tuple[str, Context]]] = field(default_factory=dict)
    # callee qname -> set of (caller qname, invoke label)
    callers: dict[str, set[tuple[str, int]]] = field(default_factory=dict)
    # caller qname -> the invoke labels of its bound calls
    sites: dict[str, set[int]] = field(default_factory=dict)
    reachable: set[tuple[str, Context]] = field(default_factory=set)

    def callees_of(self, label: int) -> set[str]:
        return {qname for qname, _ in self.targets.get(label, set())}

    def callers_of(self, qname: str) -> set[tuple[str, int]]:
        return self.callers.get(qname, set())

    @property
    def reachable_methods(self) -> set[str]:
        return {qname for qname, _ in self.reachable}


class _DeferredOp:
    """A load/store/call constraint waiting on a base variable's pt set."""

    __slots__ = ("kind", "payload", "done")

    def __init__(self, kind: str, payload: tuple) -> None:
        self.kind = kind
        self.payload = payload
        self.done: set[AbsLoc] = set()


class AndersenSolver:
    def __init__(
        self,
        program: IRProgram,
        policy: Optional[ContextPolicy] = None,
        suppressed_contents: Optional[set[AbsLoc]] = None,
    ) -> None:
        self.program = program
        self.policy = policy or ContextInsensitive()
        self.suppressed = suppressed_contents or set()
        self.graph = PointsToGraph()
        self.call_graph = CallGraph()
        self._succ: dict[Node, set[Node]] = {}
        self._deferred: dict[Node, list[_DeferredOp]] = {}
        self._worklist: deque[Node] = deque()
        # Delta propagation (difference propagation in the worklist
        # literature): each queued node carries only its *unpropagated*
        # points-to delta. Membership in ``_pending`` doubles as the
        # worklist dedupe — a node already queued just grows its delta
        # instead of being re-enqueued, and successors/deferred ops only
        # ever see each abstract location once.
        self._pending: dict[Node, set[AbsLoc]] = {}
        # Constraints registered after their base already has a points-to
        # set: applied over the full current set from this queue, then fed
        # deltas like every other op.
        self._fresh_ops: deque[tuple[Node, _DeferredOp]] = deque()
        self._analyzed: set[tuple[str, Context]] = set()
        # Local effort tallies, flushed to the metrics registry once per
        # solve() — the worklist loop is far too hot for per-pop locking.
        self._pops = 0
        self._pts_updates = 0
        self._deferred_applied = 0
        self._noop_skips = 0

    # -- constraint-graph primitives -------------------------------------------

    def _pts(self, node: Node) -> set[AbsLoc]:
        return self.graph.points_to(node)

    def _add_pts(self, node: Node, locs: Iterable[AbsLoc]) -> None:
        current = self._pts(node)
        new = set(locs) - current
        if new:
            current.update(new)
            self._pts_updates += len(new)
            pending = self._pending.get(node)
            if pending is None:
                self._pending[node] = new
                self._worklist.append(node)
            else:
                # Already queued: merge into its delta instead of queueing a
                # second pop (the re-propagation the old full-set worklist
                # would have performed).
                pending.update(new)
                self._noop_skips += 1

    def _add_copy(self, src: Node, dst: Node) -> None:
        succ = self._succ.setdefault(src, set())
        if dst not in succ:
            succ.add(dst)
            # A new edge must carry the full current set once; growth after
            # that arrives as deltas.
            self._add_pts(dst, self._pts(src))

    def _defer(self, base: Node, op: _DeferredOp) -> None:
        self._deferred.setdefault(base, []).append(op)
        if self._pts(base):
            self._fresh_ops.append((base, op))

    # -- main loop ------------------------------------------------------------------

    def solve(self, roots: Optional[list[str]] = None) -> dict[Node, int]:
        """Drain the worklist and seal the graph. Returns the nodes whose
        points-to sets grew during this solve, each with the number of
        locations it gained."""
        if roots is None:
            if self.program.entry is None:
                raise ValueError("program has no entry; pass roots explicitly")
            roots = [self.program.entry]
        grown: dict[Node, int] = {}
        with trace.span("pointsto.solve", roots=len(roots)) as sp:
            for root in roots:
                self._ensure_analyzed(root, ())
            while self._worklist or self._fresh_ops:
                while self._fresh_ops:
                    base, op = self._fresh_ops.popleft()
                    self._apply_delta(op, self._pts(base))
                if not self._worklist:
                    continue
                node = self._worklist.popleft()
                self._pops += 1
                delta = self._pending.pop(node, None)
                if not delta:
                    self._noop_skips += 1
                    continue
                for op in self._deferred.get(node, []):
                    self._apply_delta(op, delta)
                grown[node] = grown.get(node, 0) + len(delta)
                for succ in self._succ.get(node, set()):
                    self._add_pts(succ, delta)
            self.graph.seal(grown)
            sp.set(pops=self._pops, methods=len(self._analyzed))
        metrics.counter("pointsto.worklist_pops").inc(self._pops)
        metrics.counter("pointsto.pts_updates").inc(self._pts_updates)
        metrics.counter("pointsto.deferred_applied").inc(self._deferred_applied)
        metrics.counter("pointsto.noop_pops_skipped").inc(self._noop_skips)
        metrics.counter("pointsto.delta_propagated").inc(sum(grown.values()))
        metrics.counter("pointsto.methods_analyzed").inc(len(self._analyzed))
        metrics.counter("pointsto.solves").inc()
        self._pops = self._pts_updates = self._deferred_applied = 0
        self._noop_skips = 0
        return grown

    def _apply_delta(self, op: _DeferredOp, locs: set[AbsLoc]) -> None:
        new = locs - op.done
        if not new:
            return
        op.done.update(new)
        self._deferred_applied += len(new)
        for loc in new:
            self._apply_op(op, loc)

    def _apply_op(self, op: _DeferredOp, loc: AbsLoc) -> None:
        if op.kind == "load":
            field_name, lhs_node = op.payload
            self._add_copy(FieldNode(loc, field_name), lhs_node)
        elif op.kind == "store":
            field_name, rhs_node = op.payload
            if loc in self.suppressed:
                return
            self._add_copy(rhs_node, FieldNode(loc, field_name))
        elif op.kind == "cast":
            class_name, lhs_node = op.payload
            if self.program.class_table.site_is_instance(loc.site, class_name):
                self._add_pts(lhs_node, {loc})
        elif op.kind == "call":
            self._apply_call(op.payload, loc)
        else:  # pragma: no cover - defensive
            raise ValueError(op.kind)

    # -- per-method constraint generation ------------------------------------------

    def _ensure_analyzed(self, qname: str, ctx: Context) -> None:
        key = (qname, ctx)
        if key in self._analyzed:
            return
        self._analyzed.add(key)
        self.call_graph.reachable.add(key)
        method = self.program.methods.get(qname)
        if method is None:
            return
        for cmd in walk_commands(method.body):
            self._gen_constraints(qname, ctx, cmd)

    def _var(self, qname: str, var: str, ctx: Context) -> VarNode:
        return VarNode(qname, var, ctx)

    def _gen_constraints(self, qname: str, ctx: Context, cmd: ins.Command) -> None:
        if isinstance(cmd, ins.Assign):
            if isinstance(cmd.rhs, ins.VarAtom):
                self._add_copy(
                    self._var(qname, cmd.rhs.name, ctx), self._var(qname, cmd.lhs, ctx)
                )
        elif isinstance(cmd, (ins.New, ins.NewArray)):
            hctx = self.policy.heap_context(ctx, cmd.site)
            self._add_pts(self._var(qname, cmd.lhs, ctx), {AbsLoc(cmd.site, hctx)})
        elif isinstance(cmd, ins.FieldRead):
            self._defer(
                self._var(qname, cmd.base, ctx),
                _DeferredOp("load", (cmd.field_name, self._var(qname, cmd.lhs, ctx))),
            )
        elif isinstance(cmd, ins.FieldWrite):
            if isinstance(cmd.rhs, ins.VarAtom):
                self._defer(
                    self._var(qname, cmd.base, ctx),
                    _DeferredOp(
                        "store",
                        (cmd.field_name, self._var(qname, cmd.rhs.name, ctx)),
                    ),
                )
        elif isinstance(cmd, ins.StaticRead):
            self._add_copy(
                StaticFieldNode(cmd.class_name, cmd.field_name),
                self._var(qname, cmd.lhs, ctx),
            )
        elif isinstance(cmd, ins.StaticWrite):
            if isinstance(cmd.rhs, ins.VarAtom):
                self._add_copy(
                    self._var(qname, cmd.rhs.name, ctx),
                    StaticFieldNode(cmd.class_name, cmd.field_name),
                )
        elif isinstance(cmd, ins.ArrayRead):
            self._defer(
                self._var(qname, cmd.base, ctx),
                _DeferredOp("load", (ELEMS, self._var(qname, cmd.lhs, ctx))),
            )
        elif isinstance(cmd, ins.ArrayWrite):
            if isinstance(cmd.rhs, ins.VarAtom):
                self._defer(
                    self._var(qname, cmd.base, ctx),
                    _DeferredOp("store", (ELEMS, self._var(qname, cmd.rhs.name, ctx))),
                )
        elif isinstance(cmd, ins.CastCmd):
            # A type-filtered copy: only compatible abstract locations flow.
            self._defer(
                self._var(qname, cmd.src, ctx),
                _DeferredOp("cast", (cmd.class_name, self._var(qname, cmd.lhs, ctx))),
            )
        elif isinstance(cmd, ins.Invoke):
            self._gen_invoke(qname, ctx, cmd)
        # BinOp/UnOp/ArrayLen/InstanceOf/Throw/Assume/Nondet: no pointer flow.

    def _gen_invoke(self, qname: str, ctx: Context, cmd: ins.Invoke) -> None:
        if cmd.kind == "static":
            target = f"{cmd.decl_class}.{cmd.method_name}"
            callee_ctx = self.policy.callee_context(
                ctx, target, cmd.decl_class, None, cmd.label
            )
            self._bind_call(qname, ctx, cmd, target, callee_ctx, receiver_loc=None)
            return
        assert cmd.receiver is not None
        exact: Optional[str] = None
        if cmd.kind == "special":
            exact = self.program.resolve_virtual(cmd.decl_class, cmd.method_name)
            if exact is None:
                return
        self._defer(
            self._var(qname, cmd.receiver, ctx),
            _DeferredOp("call", (qname, ctx, cmd, exact)),
        )

    def _apply_call(self, payload: tuple, receiver_loc: AbsLoc) -> None:
        caller_qname, caller_ctx, cmd, exact = payload
        if exact is not None:
            target = exact
        else:
            target = self.program.resolve_virtual(
                receiver_loc.class_name, cmd.method_name
            )
            if target is None:
                return
        callee_class = target.split(".", 1)[0]
        callee_ctx = self.policy.callee_context(
            caller_ctx, target, callee_class, receiver_loc, cmd.label
        )
        self._bind_call(
            caller_qname, caller_ctx, cmd, target, callee_ctx, receiver_loc
        )

    def _bind_call(
        self,
        caller_qname: str,
        caller_ctx: Context,
        cmd: ins.Invoke,
        target: str,
        callee_ctx: Context,
        receiver_loc: Optional[AbsLoc],
    ) -> None:
        self._ensure_analyzed(target, callee_ctx)
        self.call_graph.targets.setdefault(cmd.label, set()).add((target, callee_ctx))
        self.call_graph.callers.setdefault(target, set()).add(
            (caller_qname, cmd.label)
        )
        self.call_graph.sites.setdefault(caller_qname, set()).add(cmd.label)
        callee = self.program.methods.get(target)
        if callee is None:
            return
        params = list(callee.params)
        if not callee.is_static:
            this_node = self._var(target, params[0], callee_ctx)
            if receiver_loc is not None:
                self._add_pts(this_node, {receiver_loc})
            elif cmd.receiver is not None:
                self._add_copy(
                    self._var(caller_qname, cmd.receiver, caller_ctx), this_node
                )
            params = params[1:]
        for param, arg in zip(params, cmd.args):
            if isinstance(arg, ins.VarAtom):
                self._add_copy(
                    self._var(caller_qname, arg.name, caller_ctx),
                    self._var(target, param, callee_ctx),
                )
        if cmd.lhs is not None:
            self._add_copy(
                self._var(target, "$ret", callee_ctx),
                self._var(caller_qname, cmd.lhs, caller_ctx),
            )


def solve(
    program: IRProgram,
    policy: Optional[ContextPolicy] = None,
    empty_statics: Optional[set[tuple[str, str]]] = None,
    roots: Optional[list[str]] = None,
) -> tuple[PointsToGraph, CallGraph, set[AbsLoc]]:
    """Solve the points-to constraints.

    If ``empty_statics`` is given (``Ann?=Y``), the solver runs twice: the
    first pass discovers which abstract locations flow into the annotated
    static fields; the second suppresses their contents.
    Returns (graph, call graph, suppressed abstract locations).
    """
    solver = AndersenSolver(program, policy)
    solver.solve(roots)
    if not empty_statics:
        return solver.graph, solver.call_graph, set()
    suppressed: set[AbsLoc] = set()
    for class_name, field_name in empty_statics:
        suppressed.update(solver.graph.pt_static(class_name, field_name))
    second = AndersenSolver(program, policy, suppressed_contents=suppressed)
    second.solve(roots)
    return second.graph, second.call_graph, suppressed
