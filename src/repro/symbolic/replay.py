"""Concrete replay of path program witnesses.

A witnessed edge comes with a path program — the trace of commands the
backwards search followed. Because witnesses are over-approximate (a
failed refutation, not a proof), a witness may be spurious. This module
*validates* witnesses by replaying them on the concrete interpreter
semantics: a guided forward execution that, at every nondeterministic
point, consults the trace to pick the branch / loop decision the path
program took. A successful replay ends at the producing statement with the
claimed heap effect — turning an abstract witness into a concrete test
case, the strongest triage artifact a developer can ask for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..ir import instructions as ins
from ..ir.interp import Interpreter, Limits, _Abort, _Frame, _State
from ..ir.program import RET_VAR, IRProgram
from ..ir.stmts import AtomicStmt, Choice, Loop, Seq, Stmt, walk_commands
from ..obs import metrics
from ..obs import trace as obs_trace


@dataclass
class ReplayResult:
    validated: bool
    reason: str
    #: How far into the trace the replay got (== len(trace) on success).
    consumed: int = 0


class _GuidedInterpreter(Interpreter):
    """An interpreter whose choice/loop decisions follow a witness trace."""

    def __init__(self, program: IRProgram, trace: list[int], limits: Limits) -> None:
        super().__init__(program, limits)
        self.trace = trace
        self._branch_labels: dict[int, list[set[int]]] = {}

    def labels_in(self, stmt: Stmt) -> set[int]:
        return {cmd.label for cmd in walk_commands(stmt)}

    def _choice_branch_labels(self, stmt: Choice) -> list[set[int]]:
        cached = self._branch_labels.get(stmt.label)
        if cached is None:
            cached = [self.labels_in(b) for b in stmt.branches]
            self._branch_labels[stmt.label] = cached
        return cached

    def run_guided(self) -> ReplayResult:
        entry = self.program.entry
        if entry is None:
            return ReplayResult(False, "no entry point")
        method = self.program.methods[entry]
        state = _State()
        state.frames.append(_Frame(method, {}))
        best = 0
        for final_state, cursor in self._exec_guided(state, method.body, 0):
            best = max(best, cursor)
            if cursor >= len(self.trace):
                return ReplayResult(True, "replayed to the producing statement", cursor)
        return ReplayResult(False, "trace not executable", best)

    # The guided executor mirrors Interpreter._exec but threads a trace
    # cursor and prunes decisions inconsistent with the trace.

    def _exec_guided(self, state: _State, stmt: Stmt, cursor: int):
        if cursor >= len(self.trace):
            yield state, cursor  # already done; propagate
            return
        if state.aborted is not None:
            yield state, cursor
            return
        if isinstance(stmt, AtomicStmt):
            yield from self._atomic_guided(state, stmt.cmd, cursor)
            return
        if isinstance(stmt, Seq):
            yield from self._seq_guided(state, stmt.stmts, 0, cursor)
            return
        if isinstance(stmt, Choice):
            expected = self.trace[cursor]
            branch_labels = self._choice_branch_labels(stmt)
            matching = [
                i for i, labels in enumerate(branch_labels) if expected in labels
            ]
            if not matching:
                # The choice is not on the traced path program (e.g. the
                # trace continues past it); try every branch.
                matching = list(range(len(stmt.branches)))
            for n, i in enumerate(matching):
                child = state.fork() if n < len(matching) - 1 else state
                yield from self._exec_guided(child, stmt.branches[i], cursor)
            return
        if isinstance(stmt, Loop):
            body_labels = self._branch_labels.setdefault(
                stmt.label, [self.labels_in(stmt.body)]
            )[0]
            current = [(state, cursor)]
            for _ in range(self.limits.max_loop_iterations + 1):
                if not current:
                    return
                next_round = []
                for s, c in current:
                    if s.aborted is not None or c >= len(self.trace):
                        yield s, c
                        continue
                    if self.trace[c] in body_labels:
                        # The path program iterates: run one body pass;
                        # also allow exiting (the same label may occur
                        # later outside).
                        yield s.fork(), c
                        next_round.extend(self._exec_guided(s, stmt.body, c))
                    else:
                        yield s, c
                current = next_round
            return
        raise TypeError(f"unknown statement {type(stmt).__name__}")

    def _seq_guided(self, state: _State, stmts: list[Stmt], i: int, cursor: int):
        if i >= len(stmts):
            yield state, cursor
            return
        for mid, c in self._exec_guided(state, stmts[i], cursor):
            yield from self._seq_guided(mid, stmts, i + 1, c)

    def _atomic_guided(self, state: _State, cmd: ins.Command, cursor: int):
        advance = cursor < len(self.trace) and self.trace[cursor] == cmd.label
        next_cursor = cursor + 1 if advance else cursor
        if isinstance(cmd, ins.Invoke):
            yield from self._exec_invoke_guided(state, cmd, next_cursor)
            return
        # A Nondet forks both values: either is consistent with any trace
        # (the guard assume downstream prunes the wrong one).
        for out_state in self._exec_atomic(state, cmd):
            yield out_state, next_cursor

    def _exec_invoke_guided(self, state: _State, cmd: ins.Invoke, cursor: int):
        # Resolve and bind like the base interpreter; run the callee guided.
        try:
            callee = self._enter_call(state, cmd)
        except _Abort as abort:
            state.aborted = abort.reason
            yield state, cursor
            return
        for result, c in self._exec_guided(state, callee.body, cursor):
            if result.aborted is not None:
                yield result, c
                continue
            frame = result.frames.pop()
            if cmd.lhs is not None:
                result.frame.locals[cmd.lhs] = frame.locals.get(RET_VAR)
            yield result, c


def replay_witness(
    program: IRProgram,
    trace: Optional[list[int]],
    limits: Optional[Limits] = None,
) -> ReplayResult:
    """Validate a witness trace by guided concrete execution."""
    if not trace:
        return ReplayResult(False, "no trace to replay")
    metrics.counter("executor.replays").inc()
    with obs_trace.span("executor.replay", trace_len=len(trace)) as sp:
        interp = _GuidedInterpreter(
            program,
            trace,
            limits or Limits(max_loop_iterations=6, max_steps=60_000, max_paths=512),
        )
        result = interp.run_guided()
        sp.set(validated=result.validated)
    if result.validated:
        metrics.counter("executor.replays_validated").inc()
    return result
