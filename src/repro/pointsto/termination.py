"""May-complete-normally analysis.

The paper "tracks control flow due to thrown exceptions" under the
assumption that exceptions are never caught: a call to a method that can
never complete normally makes every program point after the call
unreachable. This module computes, per reachable method, whether *some*
execution may fall out of the method normally — an over-approximation
(greatest fixpoint, everything assumed completing until proven otherwise),
so using it to refute is sound.
"""

from __future__ import annotations

from typing import Callable

from ..ir import instructions as ins
from ..ir.stmts import AtomicStmt, Choice, Loop, Seq, Stmt


def falls_through(stmt: Stmt, call_may_complete: Callable[[int], bool]) -> bool:
    """May some execution of ``stmt`` fall out of it normally, given which
    calls (by label) may return?"""
    if isinstance(stmt, AtomicStmt):
        cmd = stmt.cmd
        if isinstance(cmd, ins.ThrowCmd):
            return False
        if isinstance(cmd, ins.Invoke):
            return call_may_complete(cmd.label)
        return True
    if isinstance(stmt, Seq):
        return all(falls_through(child, call_may_complete) for child in stmt.stmts)
    if isinstance(stmt, Choice):
        return any(
            falls_through(branch, call_may_complete) for branch in stmt.branches
        )
    if isinstance(stmt, Loop):
        return True  # zero iterations always complete
    raise TypeError(f"unknown statement {type(stmt).__name__}")


class NormalCompletion:
    """``may_complete(qname)`` — False only when every execution of the
    method provably throws. Reads each method's callees and its own
    falls-through status from the mod/ref analysis' body walk."""

    def __init__(self, modref) -> None:
        self.modref = modref
        self.call_graph = modref.call_graph
        self._may_complete: dict[str, bool] = {}
        self.update(modref._direct)

    def may_complete(self, qname: str) -> bool:
        return self._may_complete.get(qname, True)

    def call_may_complete(self, label: int) -> bool:
        """May the call at ``label`` return normally? True when any
        possible callee may complete (or when no callee is resolved)."""
        callees = self.call_graph.callees_of(label)
        if not callees:
            return True
        return any(self.may_complete(callee) for callee in callees)

    def update(self, affected) -> None:
        """Recompute the greatest fixpoint over ``affected``, a set closed
        under callers (the set :meth:`ModRefAnalysis.update` returns):
        every other method's callees lie outside it, so its answer
        stands."""
        direct = self.modref._direct
        for qname in affected:
            self._may_complete[qname] = True
        changed = True
        while changed:
            changed = False
            for qname in affected:
                if not self._may_complete[qname]:
                    continue
                facts = direct[qname]
                # Its own body throws on every path, or some callee may not
                # return and the body cannot get round that call.
                if not facts.falls or (
                    not all(self.may_complete(c) for c in facts.callees)
                    and not falls_through(
                        self.modref.program.methods[qname].body,
                        self.call_may_complete,
                    )
                ):
                    self._may_complete[qname] = False
                    changed = True
