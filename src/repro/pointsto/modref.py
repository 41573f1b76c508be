"""Mod/ref analysis: which heap locations may a method (or statement) write.

The paper computes a mod/ref analysis alongside the points-to analysis and
uses it in two places:

* soundly *skipping* callees when the symbolic call stack exceeds its depth
  bound — constraints the callee might produce are dropped;
* the loop-invariant inference, which drops pure constraints (and bounds
  memory constraints) that the loop body may modify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..ir import instructions as ins
from ..ir.program import IRProgram
from ..ir.stmts import Stmt, walk_commands
from .andersen import CallGraph
from .graph import ELEMS
from .termination import falls_through


@dataclass
class ModSet:
    """An over-approximation of the memory a piece of code may write.

    ``alloc_sites`` holds the allocation sites the code may execute
    (transitively): skipping a callee must also drop query constraints on
    instances the callee might *allocate*, otherwise those constraints
    could be carried past their producing allocation and unsoundly refuted
    at the program entry.
    """

    fields: set[str] = field(default_factory=set)  # instance fields (and @elems)
    statics: set[tuple[str, str]] = field(default_factory=set)
    locals: set[str] = field(default_factory=set)  # assigned locals (not transitive)
    alloc_sites: set = field(default_factory=set)  # set[AllocSite]
    calls_unknown: bool = False  # a call with no resolved target

    def update(self, other: "ModSet", include_locals: bool = False) -> None:
        self.fields |= other.fields
        self.statics |= other.statics
        self.alloc_sites |= other.alloc_sites
        self.calls_unknown |= other.calls_unknown
        if include_locals:
            self.locals |= other.locals

    def size(self) -> tuple:
        """Grows whenever an :meth:`update` adds anything."""
        return (
            len(self.fields),
            len(self.statics),
            len(self.alloc_sites),
            self.calls_unknown,
        )

    def writes_field(self, name: str) -> bool:
        return self.calls_unknown or name in self.fields

    def writes_static(self, class_name: str, field_name: str) -> bool:
        return self.calls_unknown or (class_name, field_name) in self.statics

    def is_empty(self) -> bool:
        return not self.fields and not self.statics and not self.calls_unknown

    def signature(self) -> tuple:
        """A hashable fingerprint of the summary. Two summaries with equal
        signatures behave identically in every mod/ref consultation (callee
        skipping, loop weakening, branch relevance) — the serve session
        compares signatures across an edit to decide which retained
        verdicts a changed method can actually affect."""
        return (
            frozenset(self.fields),
            frozenset(self.statics),
            frozenset(self.alloc_sites),
            self.calls_unknown,
        )


@dataclass
class RefSet:
    """An over-approximation of the memory a piece of code may *read*."""

    fields: set[str] = field(default_factory=set)
    statics: set[tuple[str, str]] = field(default_factory=set)
    reads_unknown: bool = False  # a call with no resolved target

    def update(self, other: "RefSet") -> None:
        self.fields |= other.fields
        self.statics |= other.statics
        self.reads_unknown |= other.reads_unknown

    def size(self) -> tuple:
        """Grows whenever an :meth:`update` adds anything."""
        return (len(self.fields), len(self.statics), self.reads_unknown)


class _Direct(NamedTuple):
    """One method's own facts, from one walk of its body."""

    mod: ModSet  # its writes, allocations and locals (no callees)
    refs: RefSet  # its reads (no callees)
    callees: list  # resolved callees that are program methods, sorted
    falls: bool  # may fall through, taking every call to complete


class ModRefAnalysis:
    """Transitive per-method mod and ref summaries over the resolved call
    graph. Each method's own facts come from one walk of its body; the
    transitive sets are the least fixpoint of unioning callees' sets in."""

    def __init__(self, program: IRProgram, call_graph: CallGraph) -> None:
        self.program = program
        self.call_graph = call_graph
        self._direct: dict[str, _Direct] = {}
        self._summary: dict[str, ModSet] = {}
        self._refs: dict[str, RefSet] = {}
        self.update(call_graph.reachable_methods)

    def update(self, dirty) -> set[str]:
        """Re-walk the ``dirty`` methods' bodies, then recompute the
        transitive summaries of them and their transitive callers, the
        only methods whose summaries can move (every other method's
        callees are outside that set). Returns that set. A fresh analysis
        is one update with every reachable method dirty."""
        affected = set(dirty) & self.call_graph.reachable_methods
        affected.intersection_update(self.program.methods)
        for qname in affected:
            self._direct[qname] = self._walk(self.program.methods[qname].body)
        stack = list(affected)
        while stack:
            for caller, _ in self.call_graph.callers_of(stack.pop()):
                if caller not in affected and caller in self._direct:
                    affected.add(caller)
                    stack.append(caller)
        for qname in affected:
            direct = self._direct[qname]
            self._summary[qname] = summary = ModSet()
            summary.update(direct.mod, include_locals=True)
            self._refs[qname] = refs = RefSet()
            refs.update(direct.refs)
        self._propagate(affected, self._summary, ModSet.update)
        self._propagate(affected, self._refs, RefSet.update)
        return affected

    def _walk(self, body: Stmt) -> _Direct:
        mod, refs = ModSet(), RefSet()
        callees: set[str] = set()
        throws = False
        for cmd in walk_commands(body):
            self._command_mod(cmd, mod, include_calls=False)
            if isinstance(cmd, ins.Invoke):
                callees |= self.call_graph.callees_of(cmd.label)
            elif isinstance(cmd, ins.FieldRead):
                refs.fields.add(cmd.field_name)
            elif isinstance(cmd, ins.ArrayRead):
                refs.fields.add(ELEMS)
            elif isinstance(cmd, ins.StaticRead):
                refs.statics.add((cmd.class_name, cmd.field_name))
            elif isinstance(cmd, ins.ThrowCmd):
                throws = True
        known = sorted(callee for callee in callees if callee in self.program.methods)
        mod.calls_unknown = refs.reads_unknown = len(known) < len(callees)
        falls = not throws or falls_through(body, lambda label: True)
        return _Direct(mod, refs, known, falls)

    def _propagate(self, qnames, sets: dict, update) -> None:
        """Union every method's callees' sets into its own until nothing
        grows: the monotone least fixpoint, whatever the visiting order."""
        changed = True
        while changed:
            changed = False
            for qname in qnames:
                own = sets[qname]
                before = own.size()
                for callee in self._direct[qname].callees:
                    update(own, sets[callee])
                if own.size() != before:
                    changed = True

    def _command_mod(self, cmd: ins.Command, mod: ModSet, include_calls: bool) -> None:
        if isinstance(cmd, (ins.New, ins.NewArray)):
            mod.alloc_sites.add(cmd.site)
            mod.locals.add(cmd.lhs)
        elif isinstance(cmd, ins.FieldWrite):
            mod.fields.add(cmd.field_name)
        elif isinstance(cmd, ins.ArrayWrite):
            mod.fields.add(ELEMS)
        elif isinstance(cmd, ins.StaticWrite):
            mod.statics.add((cmd.class_name, cmd.field_name))
        elif isinstance(
            cmd,
            (
                ins.Assign,
                ins.BinOpCmd,
                ins.UnOpCmd,
                ins.FieldRead,
                ins.StaticRead,
                ins.ArrayRead,
                ins.ArrayLen,
                ins.Nondet,
                ins.CastCmd,
                ins.InstanceOfCmd,
            ),
        ):
            lhs = getattr(cmd, "lhs", None)
            if lhs is not None:
                mod.locals.add(lhs)
        elif isinstance(cmd, ins.Invoke):
            if cmd.lhs is not None:
                mod.locals.add(cmd.lhs)
            if include_calls:
                targets = self.call_graph.callees_of(cmd.label)
                if not targets:
                    mod.calls_unknown = True
                for callee in targets:
                    summary = self._summary.get(callee)
                    if summary is None:
                        mod.calls_unknown = True
                    else:
                        mod.update(summary)

    # -- public API ----------------------------------------------------------------

    def method_mod(self, qname: str) -> ModSet:
        """Transitive mod set of a method (callees included)."""
        summary = self._summary.get(qname)
        if summary is None:
            unknown = ModSet()
            unknown.calls_unknown = True
            return unknown
        return summary

    def method_refs(self, qname: str) -> RefSet:
        """Transitive *ref* set of a method: the instance fields and static
        fields it (or any callee) may read. This is the read half of the
        footprint the serve session intersects with a points-to delta: a
        verdict whose visited methods never read a grown field or static
        cannot observe the growth."""
        refs = self._refs.get(qname)
        if refs is None:
            unknown = RefSet()
            unknown.reads_unknown = True
            return unknown
        return refs

    def footprint_refs(self, qnames) -> RefSet:
        """Union of :meth:`method_refs` over a verdict footprint."""
        out = RefSet()
        for qname in qnames:
            out.update(self.method_refs(qname))
        return out

    def statement_mod(self, stmt: Stmt) -> ModSet:
        """Mod set of one structured statement (e.g. a loop body), callees
        included, plus the locals it assigns directly."""
        mod = ModSet()
        for cmd in walk_commands(stmt):
            self._command_mod(cmd, mod, include_calls=True)
        return mod
