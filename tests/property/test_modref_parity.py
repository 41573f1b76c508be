"""Summaries from per-method facts vs the whole-program loops they replace.

``ModRefAnalysis`` keeps each method's own facts from one walk of its body
and propagates transitive sets along the callee lists collected there;
``NormalCompletion`` reads those facts; ``ProducerMap`` assembles per-method
shares. A fresh analysis is one refresh with every method dirty, and
the serve session refreshes only what an edit can move. The oracles below
are the earlier whole-program passes, kept verbatim apart from reading
the analysis' direct sets: the mod and ref fixpoints walk every reachable
body on every pass, the completion fixpoint re-walks every body, and the
producer loop visits every write in ``reachable_methods`` order. Every
method's ``method_mod(q).signature()``, ``method_refs(q)`` and
``may_complete(q)`` must come out equal, and so must every producer list,
in order, on the seven benchmark apps (Ann N and Y) and the ``lifecycle``
and ``layered`` workload programs. ``tests/property/test_class_build_parity.py``
holds the serve session's refreshed summaries to the same oracles after
every incremental update.
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
from repro.pointsto.termination import falls_through

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


def oracle_completion(program, call_graph) -> dict[str, bool]:
    methods = call_graph.reachable_methods & set(program.methods)
    complete = dict.fromkeys(methods, True)

    def call_may_complete(label):
        callees = call_graph.callees_of(label)
        return not callees or any(complete.get(c, True) for c in callees)

    changed = True
    while changed:
        changed = False
        for qname in methods:
            if complete[qname] and not falls_through(
                program.methods[qname].body, call_may_complete
            ):
                complete[qname] = False
                changed = True
    return complete


def oracle_producers(program, graph, call_graph) -> dict:
    producers: dict = {}

    def record(key, label) -> None:
        producers.setdefault(key, []).append(label)

    for qname in call_graph.reachable_methods:
        method = program.methods.get(qname)
        if method is None:
            continue
        for cmd in walk_commands(method.body):
            if isinstance(cmd, ins.FieldWrite) and isinstance(cmd.rhs, ins.VarAtom):
                values = graph.pt_local(qname, cmd.rhs.name)
                for base in graph.pt_local(qname, cmd.base):
                    targets = graph.pt_field(base, cmd.field_name)
                    for value in values & targets:
                        record(("heap", base, cmd.field_name, value), cmd.label)
            elif isinstance(cmd, ins.ArrayWrite) and isinstance(cmd.rhs, ins.VarAtom):
                values = graph.pt_local(qname, cmd.rhs.name)
                for base in graph.pt_local(qname, cmd.base):
                    targets = graph.pt_field(base, ELEMS)
                    for value in values & targets:
                        record(("heap", base, ELEMS, value), cmd.label)
            elif isinstance(cmd, ins.StaticWrite) and isinstance(cmd.rhs, ins.VarAtom):
                values = graph.pt_local(qname, cmd.rhs.name)
                targets = graph.pt_static(cmd.class_name, cmd.field_name)
                for value in values & targets:
                    record(
                        ("static", cmd.class_name, cmd.field_name, value), cmd.label
                    )
    return producers


def check_summaries(pta) -> None:
    """Every summary of ``pta`` equals its whole-program oracle."""
    program, call_graph = pta.program, pta.call_graph
    assert dict(pta.producers) == oracle_producers(program, pta.graph, call_graph)
    expected = oracle_summaries(program, call_graph)
    expected_refs = oracle_refs(program, call_graph)
    complete = oracle_completion(program, call_graph)
    # Every method of the program, reachable or not (the unreachable ones
    # answer the "unknown" summary on both sides).
    for qname in program.methods:
        assert pta.completion.may_complete(qname) == complete.get(qname, True)
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


@pytest.mark.parametrize("name", PROGRAMS)
def test_summaries_match_the_rewalking_fixpoint(name):
    check_summaries(_pta(name))
