"""Bounded exhaustive concrete interpreter for the structured IR.

The interpreter enumerates concrete executions of a program, resolving
nondeterminism (``choice``, ``loop``, ``nondet``) by forking, up to
configurable bounds on loop iterations, call depth, steps, and total paths.
Each completed (or abnormally terminated) run records the heap points-to
edges *produced* at each program point — exactly the events the
witness-refutation analysis reasons about — which gives us an executable
ground truth for refutation soundness (Theorem 1 of the paper): an edge
produced at label L by any concrete run must never be refuted at L.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from . import instructions as ins
from .program import INIT, RET_VAR, IRMethod, IRProgram
from .stmts import AtomicStmt, Choice, Loop, Seq, Stmt


class _AssumeFailed(Exception):
    """Internal: the current path is infeasible."""


class _Abort(Exception):
    """Internal: abnormal termination (null deref, division by zero, ...)."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


@dataclass
class ConcreteObject:
    oid: int
    site: ins.AllocSite
    fields: dict = field(default_factory=dict)
    elems: dict = field(default_factory=dict)
    length: int = 0

    def __repr__(self) -> str:
        return f"<{self.site}#{self.oid}>"


Value = Union[int, bool, None, ConcreteObject]


@dataclass(frozen=True)
class ProducedEdge:
    """A heap points-to edge produced at a program point.

    ``src`` is an :class:`AllocSite` for object fields or a
    ``("static", class, field)`` tuple for static fields; ``field_name`` is
    the field (``"@elems"`` for array contents); ``dst`` is the allocation
    site of the stored object.
    """

    label: int
    src: object
    field_name: str
    dst: ins.AllocSite


@dataclass
class Run:
    """One enumerated execution."""

    status: str  # "completed" | "aborted" | "truncated"
    reason: str
    produced: list[ProducedEdge]
    statics: dict  # (class, field) -> Value, final snapshot


class _Frame:
    __slots__ = ("method", "locals")

    def __init__(self, method: IRMethod, locals_: dict) -> None:
        self.method = method
        self.locals = locals_


class _State:
    def __init__(self) -> None:
        self.statics: dict = {}
        self.frames: list[_Frame] = []
        self.produced: list[ProducedEdge] = []
        self.steps = 0
        self.next_oid = 0
        self.aborted: Optional[str] = None  # abnormal-termination reason

    def fork(self) -> "_State":
        return copy.deepcopy(self)

    @property
    def frame(self) -> _Frame:
        return self.frames[-1]


@dataclass
class Limits:
    max_loop_iterations: int = 6
    max_call_depth: int = 24
    max_steps: int = 20_000
    max_paths: int = 512


class Interpreter:
    """Enumerates bounded concrete executions of an :class:`IRProgram`."""

    def __init__(self, program: IRProgram, limits: Optional[Limits] = None) -> None:
        self.program = program
        self.limits = limits or Limits()
        self._paths_emitted = 0

    # -- public API ---------------------------------------------------------------

    def explore(self, entry: Optional[str] = None) -> list[Run]:
        """Run the program from ``entry`` (default: the synthesized entry),
        enumerating nondeterminism; returns up to ``limits.max_paths`` runs."""
        entry_name = entry or self.program.entry
        if entry_name is None:
            raise ValueError("program has no entry point")
        method = self.program.methods[entry_name]
        if method.params:
            raise ValueError(f"entry {entry_name} must take no parameters")
        self._paths_emitted = 0
        runs: list[Run] = []
        state = _State()
        state.frames.append(_Frame(method, {}))
        for outcome in self._run_to_completion(state, method):
            runs.append(outcome)
            if len(runs) >= self.limits.max_paths:
                break
        return runs

    def produced_edges(self, entry: Optional[str] = None) -> set[ProducedEdge]:
        """The union of produced edges over all enumerated runs."""
        edges: set[ProducedEdge] = set()
        for run in self.explore(entry):
            edges.update(run.produced)
        return edges

    # -- execution ------------------------------------------------------------------

    def _run_to_completion(self, state: _State, method: IRMethod) -> Iterator[Run]:
        for final in self._exec(state, method.body):
            if final.aborted is not None:
                yield Run("aborted", final.aborted, list(final.produced), dict(final.statics))
            else:
                yield Run("completed", "", list(final.produced), dict(final.statics))

    def _exec(self, state: _State, stmt: Stmt) -> Iterator[_State]:
        """Yield all states reachable by executing ``stmt`` from ``state``.

        Yielded states are independently mutable. Paths that fail an
        ``assume`` are silently dropped; aborted states (null deref,
        division by zero, limits) short-circuit all remaining execution.
        """
        if state.aborted is not None:
            yield state
            return
        if isinstance(stmt, AtomicStmt):
            yield from self._exec_atomic(state, stmt.cmd)
            return
        if isinstance(stmt, Seq):
            yield from self._exec_seq(state, stmt.stmts, 0)
            return
        if isinstance(stmt, Choice):
            for i, branch in enumerate(stmt.branches):
                child = state.fork() if i < len(stmt.branches) - 1 else state
                yield from self._exec(child, branch)
            return
        if isinstance(stmt, Loop):
            current = [state]
            for _ in range(self.limits.max_loop_iterations + 1):
                if not current:
                    return
                next_states: list[_State] = []
                for s in current:
                    if s.aborted is not None:
                        yield s
                        continue
                    yield s.fork()  # exit the loop after this many iterations
                    next_states.extend(self._exec(s, stmt.body))
                current = next_states
            return
        raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _exec_seq(self, state: _State, stmts: list[Stmt], i: int) -> Iterator[_State]:
        if i >= len(stmts):
            yield state
            return
        for mid in self._exec(state, stmts[i]):
            yield from self._exec_seq(mid, stmts, i + 1)

    # -- atomic commands ---------------------------------------------------------------

    def _exec_atomic(self, state: _State, cmd: ins.Command) -> Iterator[_State]:
        state.steps += 1
        if state.steps > self.limits.max_steps:
            state.aborted = "step limit exceeded"
            yield state
            return
        try:
            yield from self._dispatch(state, cmd)
        except _AssumeFailed:
            return
        except _Abort as abort:
            # Abnormal termination: the prefix is a real execution.
            state.aborted = abort.reason
            yield state
            return

    def _dispatch(self, state: _State, cmd: ins.Command) -> Iterator[_State]:
        locals_ = state.frame.locals
        if isinstance(cmd, ins.Assign):
            locals_[cmd.lhs] = self._atom(state, cmd.rhs)
            yield state
        elif isinstance(cmd, ins.BinOpCmd):
            locals_[cmd.lhs] = self._binop(
                cmd.op, self._atom(state, cmd.left), self._atom(state, cmd.right)
            )
            yield state
        elif isinstance(cmd, ins.UnOpCmd):
            value = self._atom(state, cmd.operand)
            locals_[cmd.lhs] = (not value) if cmd.op == "!" else -value
            yield state
        elif isinstance(cmd, ins.New):
            obj = ConcreteObject(state.next_oid, cmd.site)
            state.next_oid += 1
            locals_[cmd.lhs] = obj
            yield state
        elif isinstance(cmd, ins.NewArray):
            size = self._atom(state, cmd.size)
            if not isinstance(size, int) or size < 0:
                raise _Abort("negative array size")
            obj = ConcreteObject(state.next_oid, cmd.site, length=size)
            state.next_oid += 1
            locals_[cmd.lhs] = obj
            yield state
        elif isinstance(cmd, ins.FieldRead):
            base = self._deref(locals_.get(cmd.base))
            if cmd.field_name in base.fields:
                locals_[cmd.lhs] = base.fields[cmd.field_name]
            else:
                locals_[cmd.lhs] = self._default_field_value(
                    base.site.class_name, cmd.field_name
                )
            yield state
        elif isinstance(cmd, ins.FieldWrite):
            base = self._deref(locals_.get(cmd.base))
            value = self._atom(state, cmd.rhs)
            base.fields[cmd.field_name] = value
            if isinstance(value, ConcreteObject):
                state.produced.append(
                    ProducedEdge(cmd.label, base.site, cmd.field_name, value.site)
                )
            yield state
        elif isinstance(cmd, ins.StaticRead):
            key = (cmd.class_name, cmd.field_name)
            if key in state.statics:
                locals_[cmd.lhs] = state.statics[key]
            else:
                locals_[cmd.lhs] = self._default_field_value(
                    cmd.class_name, cmd.field_name
                )
            yield state
        elif isinstance(cmd, ins.StaticWrite):
            value = self._atom(state, cmd.rhs)
            state.statics[(cmd.class_name, cmd.field_name)] = value
            if isinstance(value, ConcreteObject):
                state.produced.append(
                    ProducedEdge(
                        cmd.label,
                        ("static", cmd.class_name, cmd.field_name),
                        cmd.field_name,
                        value.site,
                    )
                )
            yield state
        elif isinstance(cmd, ins.ArrayRead):
            base = self._deref(locals_.get(cmd.base))
            index = self._atom(state, cmd.index)
            if not (0 <= index < base.length):
                raise _Abort("array index out of bounds")
            locals_[cmd.lhs] = base.elems.get(index)
            yield state
        elif isinstance(cmd, ins.ArrayWrite):
            base = self._deref(locals_.get(cmd.base))
            index = self._atom(state, cmd.index)
            if not (0 <= index < base.length):
                raise _Abort("array index out of bounds")
            value = self._atom(state, cmd.rhs)
            base.elems[index] = value
            if isinstance(value, ConcreteObject):
                state.produced.append(
                    ProducedEdge(cmd.label, base.site, "@elems", value.site)
                )
            yield state
        elif isinstance(cmd, ins.ArrayLen):
            base = self._deref(locals_.get(cmd.base))
            locals_[cmd.lhs] = base.length
            yield state
        elif isinstance(cmd, ins.CastCmd):
            value = locals_.get(cmd.src)
            if value is not None:
                if not isinstance(value, ConcreteObject):
                    raise _Abort("cast of a primitive value")
                table = self.program.class_table
                if not table.site_is_instance(value.site, cmd.class_name):
                    raise _Abort("ClassCastException")
            locals_[cmd.lhs] = value
            yield state
        elif isinstance(cmd, ins.InstanceOfCmd):
            value = locals_.get(cmd.src)
            if isinstance(value, ConcreteObject):
                table = self.program.class_table
                locals_[cmd.lhs] = table.site_is_instance(value.site, cmd.class_name)
            else:
                locals_[cmd.lhs] = False
            yield state
        elif isinstance(cmd, ins.ThrowCmd):
            raise _Abort("uncaught exception")
        elif isinstance(cmd, ins.Invoke):
            yield from self._exec_invoke(state, cmd)
        elif isinstance(cmd, ins.Assume):
            value = self._pure(state, cmd.expr)
            if bool(value) != cmd.polarity:
                raise _AssumeFailed()
            yield state
        elif isinstance(cmd, ins.Nondet):
            other = state.fork()
            state.frame.locals[cmd.lhs] = True
            other.frame.locals[cmd.lhs] = False
            yield state
            yield other
        else:
            raise TypeError(f"unknown command {type(cmd).__name__}")

    def _exec_invoke(self, state: _State, cmd: ins.Invoke) -> Iterator[_State]:
        callee = self._enter_call(state, cmd)
        for result in self._exec(state, callee.body):
            if result.aborted is not None:
                yield result
                continue
            frame = result.frames.pop()
            if cmd.lhs is not None:
                result.frame.locals[cmd.lhs] = frame.locals.get(RET_VAR)
            yield result

    def _enter_call(self, state: _State, cmd: ins.Invoke) -> IRMethod:
        """Resolve ``cmd``'s callee and push its frame with the arguments
        bound; raises :class:`_Abort` when the call cannot be made."""
        if len(state.frames) >= self.limits.max_call_depth:
            raise _Abort("call depth exceeded")
        locals_ = state.frame.locals
        args = [self._atom(state, a) for a in cmd.args]
        if cmd.kind == "static":
            qname = f"{cmd.decl_class}.{cmd.method_name}"
            receiver: Value = None
        else:
            assert cmd.receiver is not None
            recv = self._deref(locals_.get(cmd.receiver))
            receiver = recv
            if cmd.kind == "special":
                qname_opt = self.program.resolve_virtual(cmd.decl_class, cmd.method_name)
            else:
                qname_opt = self.program.resolve_virtual(
                    recv.site.class_name, cmd.method_name
                )
            if qname_opt is None:
                raise _Abort(f"unresolved method {cmd.decl_class}.{cmd.method_name}")
            qname = qname_opt
        if qname not in self.program.methods:
            raise _Abort(f"missing method body {qname}")
        callee = self.program.methods[qname]
        callee_locals: dict = {}
        values = ([receiver] + args) if not callee.is_static else args
        for name, value in zip(callee.params, values):
            callee_locals[name] = value
        state.frames.append(_Frame(callee, callee_locals))
        return callee

    # -- evaluation -----------------------------------------------------------------------

    def _atom(self, state: _State, atom: ins.Atom) -> Value:
        if isinstance(atom, ins.VarAtom):
            return state.frame.locals.get(atom.name)
        if isinstance(atom, ins.IntAtom):
            return atom.value
        if isinstance(atom, ins.BoolAtom):
            return atom.value
        return None

    def _deref(self, value: Value) -> ConcreteObject:
        if not isinstance(value, ConcreteObject):
            raise _Abort("null dereference")
        return value

    def _default_field_value(self, class_name: str, field_name: str) -> Value:
        """Java default values: 0 / false / null by the declared type."""
        from ..lang import ast

        field = self.program.class_table.lookup_field(class_name, field_name)
        if field is None:
            return None
        if field.type == ast.INT:
            return 0
        if field.type == ast.BOOLEAN:
            return False
        return None

    def _binop(self, op: str, left: Value, right: Value) -> Value:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise _Abort("division by zero")
            return int(left / right)  # Java truncates toward zero
        if op == "%":
            if right == 0:
                raise _Abort("division by zero")
            return left - int(left / right) * right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "==":
            return left is right if _is_ref_value(left) or _is_ref_value(right) else left == right
        if op == "!=":
            return not self._binop("==", left, right)
        if op == "&&":
            return bool(left) and bool(right)
        if op == "||":
            return bool(left) or bool(right)
        raise TypeError(f"unknown operator {op!r}")

    def _pure(self, state: _State, expr: ins.PureExpr) -> Value:
        if isinstance(expr, ins.PVar):
            return state.frame.locals.get(expr.name)
        if isinstance(expr, ins.PInt):
            return expr.value
        if isinstance(expr, ins.PBool):
            return expr.value
        if isinstance(expr, ins.PNull):
            return None
        if isinstance(expr, ins.PField):
            base = self._deref(self._pure(state, expr.base))
            if expr.field in base.fields:
                return base.fields[expr.field]
            return self._default_field_value(base.site.class_name, expr.field)
        if isinstance(expr, ins.PStatic):
            key = (expr.class_name, expr.field)
            if key in state.statics:
                return state.statics[key]
            return self._default_field_value(expr.class_name, expr.field)
        if isinstance(expr, ins.PBin):
            return self._binop(
                expr.op, self._pure(state, expr.left), self._pure(state, expr.right)
            )
        if isinstance(expr, ins.PNot):
            return not self._pure(state, expr.operand)
        raise TypeError(f"unknown pure expression {type(expr).__name__}")


def _is_ref_value(value: Value) -> bool:
    return value is None or isinstance(value, ConcreteObject)


def heap_reaches(statics: dict, class_table, target_classes: set[str]) -> list[tuple]:
    """Check which static fields reach an instance of one of
    ``target_classes`` in a final concrete heap snapshot; returns a list of
    ``((class, field), site)`` witnesses. Used by end-to-end leak tests."""
    hits = []
    for key, root in statics.items():
        if not isinstance(root, ConcreteObject):
            continue
        seen: set[int] = set()
        work = [root]
        while work:
            obj = work.pop()
            if obj.oid in seen:
                continue
            seen.add(obj.oid)
            cls = obj.site.class_name
            if not obj.site.is_array and cls in class_table.classes:
                if any(
                    class_table.is_subclass(cls, target) for target in target_classes
                ):
                    hits.append((key, obj.site))
            for value in itertools.chain(obj.fields.values(), obj.elems.values()):
                if isinstance(value, ConcreteObject):
                    work.append(value)
    return hits
