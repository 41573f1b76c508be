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

from ..ir import instructions as ins
from ..ir.program import IRProgram
from ..ir.stmts import Stmt, walk_commands
from .andersen import CallGraph
from .graph import ELEMS


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


class ModRefAnalysis:
    """Transitive per-method mod summaries over the resolved call graph."""

    def __init__(self, program: IRProgram, call_graph: CallGraph) -> None:
        self.program = program
        self.call_graph = call_graph
        self._summary: dict[str, ModSet] = {}
        self._refs: dict[str, RefSet] = {}  # computed lazily
        #: Per method: its resolved callees that have summaries, and
        #: whether it calls one that has none. Collected once; both
        #: fixpoints below propagate along these edges only.
        self._callees: dict[str, tuple[list[str], bool]] = {}
        self._compute()

    def _compute(self) -> None:
        methods = self.call_graph.reachable_methods & set(self.program.methods)
        for qname in methods:
            summary = ModSet()
            callees: set[str] = set()
            for cmd in walk_commands(self.program.methods[qname].body):
                self._command_mod(cmd, summary, include_calls=False)
                if isinstance(cmd, ins.Invoke):
                    callees |= self.call_graph.callees_of(cmd.label)
            known = sorted(callees & methods)
            summary.calls_unknown = len(known) < len(callees)
            self._callees[qname] = (known, summary.calls_unknown)
            self._summary[qname] = summary
        # Fixpoint over the call graph (handles recursion and cycles).
        self._propagate(self._summary, ModSet.update)

    def _propagate(self, sets: dict, update) -> None:
        """Union every method's callees' sets into its own until nothing
        grows: the monotone least fixpoint, whatever the visiting order."""
        changed = True
        while changed:
            changed = False
            for qname, (callees, _) in self._callees.items():
                own = sets[qname]
                before = own.size()
                for callee in callees:
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
        if not self._refs:
            self._compute_refs()
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

    def _compute_refs(self) -> None:
        for qname, (_, unknown) in self._callees.items():
            refs = RefSet(reads_unknown=unknown)
            for cmd in walk_commands(self.program.methods[qname].body):
                if isinstance(cmd, ins.FieldRead):
                    refs.fields.add(cmd.field_name)
                elif isinstance(cmd, ins.ArrayRead):
                    refs.fields.add(ELEMS)
                elif isinstance(cmd, ins.StaticRead):
                    refs.statics.add((cmd.class_name, cmd.field_name))
            self._refs[qname] = refs
        self._propagate(self._refs, RefSet.update)

    def statement_mod(self, stmt: Stmt) -> ModSet:
        """Mod set of one structured statement (e.g. a loop body), callees
        included, plus the locals it assigns directly."""
        mod = ModSet()
        for cmd in walk_commands(stmt):
            self._command_mod(cmd, mod, include_calls=True)
        return mod
