"""Mod/ref summaries from callee lists collected once vs the loop that
re-walked every body on every fixpoint pass.

``ModRefAnalysis`` now collects each method's callees in the walk that
computes its direct mod set and propagates summaries along those lists.
The oracle below is the earlier fixpoint, kept verbatim apart from
reading the analysis' direct sets: it walks every reachable body on every
pass. Both compute the same monotone least fixpoint, so every method's
``method_mod(q).signature()`` and ``method_refs(q)`` must come out equal,
on the seven benchmark apps (Ann N and Y) and the ``lifecycle`` and
``layered`` workload programs.
"""

from __future__ import annotations

import functools

import pytest

from repro.android.leaks import LeakChecker
from repro.bench.apps import APPS, app_by_name
from repro.bench.workloads import layered_app, lifecycle_app
from repro.ir import compile_program
from repro.ir import instructions as ins
from repro.ir.stmts import walk_commands
from repro.pointsto import analyze
from repro.pointsto.graph import ELEMS
from repro.pointsto.modref import ModSet, RefSet

PROGRAMS = [
    *(f"{app.name}-{ann}" for app in APPS for ann in ("N", "Y")),
    "layered",
    "lifecycle",
]


@functools.lru_cache(maxsize=None)
def _pta(name: str):
    if name == "layered":
        return analyze(compile_program(layered_app(8, hard_branches=10)))
    if name == "lifecycle":
        return analyze(compile_program(lifecycle_app(12, leaky=1, branches=6)))
    app_name, ann = name.rsplit("-", 1)
    app = app_by_name(app_name)
    return LeakChecker(app.source, app.name, annotated=ann == "Y").pta


def oracle_summaries(program, call_graph) -> dict[str, ModSet]:
    methods = call_graph.reachable_methods & set(program.methods)
    summaries: dict[str, ModSet] = {}
    for qname in methods:
        direct = ModSet()
        for cmd in walk_commands(program.methods[qname].body):
            if isinstance(cmd, (ins.New, ins.NewArray)):
                direct.alloc_sites.add(cmd.site)
            elif isinstance(cmd, ins.FieldWrite):
                direct.fields.add(cmd.field_name)
            elif isinstance(cmd, ins.ArrayWrite):
                direct.fields.add(ELEMS)
            elif isinstance(cmd, ins.StaticWrite):
                direct.statics.add((cmd.class_name, cmd.field_name))
        summaries[qname] = direct
    changed = True
    while changed:
        changed = False
        for qname in methods:
            summary = summaries[qname]
            before = (
                len(summary.fields),
                len(summary.statics),
                len(summary.alloc_sites),
                summary.calls_unknown,
            )
            for cmd in walk_commands(program.methods[qname].body):
                if isinstance(cmd, ins.Invoke):
                    for callee in call_graph.callees_of(cmd.label):
                        callee_sum = summaries.get(callee)
                        if callee_sum is None:
                            summary.calls_unknown = True
                        else:
                            summary.update(callee_sum)
            after = (
                len(summary.fields),
                len(summary.statics),
                len(summary.alloc_sites),
                summary.calls_unknown,
            )
            if before != after:
                changed = True
    return summaries


def oracle_refs(program, call_graph) -> dict[str, RefSet]:
    methods = call_graph.reachable_methods & set(program.methods)
    out: dict[str, RefSet] = {}
    for qname in methods:
        refs = RefSet()
        for cmd in walk_commands(program.methods[qname].body):
            if isinstance(cmd, ins.FieldRead):
                refs.fields.add(cmd.field_name)
            elif isinstance(cmd, ins.ArrayRead):
                refs.fields.add(ELEMS)
            elif isinstance(cmd, ins.StaticRead):
                refs.statics.add((cmd.class_name, cmd.field_name))
        out[qname] = refs
    changed = True
    while changed:
        changed = False
        for qname in methods:
            refs = out[qname]
            before = (len(refs.fields), len(refs.statics), refs.reads_unknown)
            for cmd in walk_commands(program.methods[qname].body):
                if isinstance(cmd, ins.Invoke):
                    for callee in call_graph.callees_of(cmd.label):
                        callee_refs = out.get(callee)
                        if callee_refs is None:
                            refs.reads_unknown = True
                        else:
                            refs.update(callee_refs)
            if before != (len(refs.fields), len(refs.statics), refs.reads_unknown):
                changed = True
    return out


@pytest.mark.parametrize("name", PROGRAMS)
def test_summaries_match_the_rewalking_fixpoint(name):
    pta = _pta(name)
    expected = oracle_summaries(pta.program, pta.call_graph)
    expected_refs = oracle_refs(pta.program, pta.call_graph)
    # Every method of the program, reachable or not (the unreachable ones
    # answer the "unknown" summary on both sides).
    for qname in pta.program.methods:
        want = expected.get(qname)
        got = pta.modref.method_mod(qname)
        if want is None:
            assert got.calls_unknown and qname not in expected_refs
            continue
        assert got.signature() == want.signature(), qname
        refs = pta.modref.method_refs(qname)
        want_refs = expected_refs[qname]
        assert (refs.fields, refs.statics, refs.reads_unknown) == (
            want_refs.fields,
            want_refs.statics,
            want_refs.reads_unknown,
        ), qname
