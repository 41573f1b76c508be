"""The serve session's class build vs the whole-program build it skips.

``ProgramSession.update`` builds only the edited class when the edit lies
inside one top-level class, and falls back to a whole-program build in
every case that class build cannot decide alone. Here two sessions take
the same seeded edit stream: one as shipped, the other with the class
build bypassed (monkeypatched to decline every edit), so every update
there goes through the whole-program path. For every update:

* both raise the same error, or both return byte-identical results:
  ``mode``, ``changed_methods``, points-to growth and the invalidation
  counts (everything but wall-clock seconds and the ``build`` field);
* both retained programs are identical, command for command: labels,
  rendering (allocation-site hints included) and source positions;
* every method the class build rebuilt has the body fingerprint of a
  fresh whole-program build of the new source, and on both paths every
  method, rebuilt or kept, has that build's command positions, and every
  class, field and method of the class table its declaration position;
* the following ``analyze`` returns the same status, the same records
  (description and status, in order) and the same verdict payload.

After every incremental update, both sessions' refreshed summaries
also equal a whole-program recomputation over the same grafted program
and retained graph: producer lists in exact order, every method's mod
signature, ref set and normal completion, the site tokens, and the
graph's per-variable unions, adjacency index and remembered
``pt_field_of_set`` answers. After a removed or reordered call, the next
analyze's verdicts equal those of a cold session on the same source.

Programs: ``lifecycle_app`` (no library) and the seven benchmark apps,
which extend the Android library's classes and so load with it, each
with two spare classes appended whose methods nothing calls. Edits:
added, changed and removed statements; whitespace-only and comment-only
edits; an edit inside a string literal; an unclosed ``/*``; a renamed
class; an added field, an added static initializer and a static
initializer on an existing field; one edit spanning two classes; a
removed call and two swapped calls; a call that reaches a spare method
with no reference locals, and one that reaches a spare method with one;
a call that reaches, then one that grows, the targets of the virtual call
in another spare method; an added ``throw``; added static writes of one
object from two methods; and an added field write.
"""

from __future__ import annotations

import json
import random
import re

import pytest

from repro.android.harness import _LIBRARY_LINES, add_harness, combined_source
from repro.bench.apps import APPS, app_by_name
from repro.bench.workloads import lifecycle_app
from repro.ir import build_program
from repro.ir.stmts import walk_commands
from repro.lang import ast, frontend, parse_program
from repro.pointsto.graph import FieldNode, VarNode
from repro.serve.classbuild import position_of
from repro.serve.invalidation import body_fingerprint, stable_site_tokens
from repro.serve.session import ProgramSession

from .test_modref_parity import check_summaries

#: Every edit kind; the stream visits each at least once, in seeded order.
KINDS = (
    "add",
    "add_string",
    "edit_string",
    "change",
    "remove",
    "whitespace",
    "comment",
    "unclosed_comment",
    "rename",
    "field",
    "static_init",
    "init_existing",
    "two_classes",
    "remove_call",
    "reorder",
    "call_spare",
    "call_spare_ref",
    "virtual",
    "virtual",
    "throw",
    "static_write",
    "static_write",
    "field_write",
)

#: Kinds after which the next analyze is checked against a cold session.
COLD_CHECKED = ("remove_call", "reorder")

#: Additive kinds that move summaries: each must take the incremental path.
INCREMENTAL_KINDS = (
    "call_spare",
    "call_spare_ref",
    "virtual",
    "throw",
    "static_write",
    "field_write",
)

#: Appended to every streamed program. Nothing calls these methods until
#: an edit does: ``tick`` has no reference locals, so reaching it grows no
#: points-to set; ``via``'s virtual call gains ``Spare2.id`` once some
#: edit passes it a ``Spare2``; ``grab`` and ``one`` return one object
#: each, so static writes in two methods produce one edge, and field
#: writes grow one field node.
SPARE = """
class Spare {
    static Object kept;
    Object slot;
    Object id() { return this; }
    static void tick() { int n = 1; }
    static Object grab() { Object o = new Object(); return o; }
    static Spare one() { Spare s = new Spare(); return s; }
    static Object via(Spare s) { Object r = s.id(); return r; }
}
class Spare2 extends Spare {
    Object id() { Object o = new Object(); return o; }
}
"""

#: Bodies that run (the entry, the lifecycle screens, the apps' activities):
#: where an edit's new call reaches what it calls.
REACHED = ("main", "onStart", "onCreate")

#: One bare call statement: ``x.m(...);`` after a ``;``, ``{`` or ``}``.
_CALL = r"\w+\.\w+\([^()]*\);"


def _full_build(source: str, include_library: bool):
    if not include_library:
        return build_program(frontend(source))
    combined = combined_source(source)
    return build_program(add_harness(frontend(combined), combined))


def _offset(source: str, pos, line_base: int) -> int:
    lines = source.split("\n")
    return sum(len(l) + 1 for l in lines[: pos.line - line_base - 1]) + pos.column - 1


class _EditStream:
    """Seeded text edits of a mini-Java source (positions come from the
    parser, so every edit lands where its kind says)."""

    def __init__(self, seed: int, include_library: bool) -> None:
        self.rng = random.Random(seed)
        self.line_base = _LIBRARY_LINES + 1 if include_library else 0
        self.counter = 0

    def _classes(self, source: str) -> list[ast.ClassDecl]:
        return parse_program("\n" * self.line_base + source).classes

    def _body_opening(
        self, source: str, after: int = -1, names: tuple = ()
    ) -> int:
        """Offset just past the ``{`` of a random non-constructor body
        (of a method in ``names``, if any is) that opens past offset
        ``after`` (the end of ``source`` if none does)."""
        methods = [
            mth
            for cls in self._classes(source)
            for mth in cls.methods
            if not mth.is_constructor
        ]
        named = [mth for mth in methods if mth.name in names]
        bodies = [
            _offset(source, mth.body.pos, self.line_base) + 1
            for mth in named or methods
        ]
        later = [at for at in bodies if at > after]
        return self.rng.choice(later) if later else len(source)

    def _class_opening(self, source: str) -> int:
        cls = self.rng.choice(self._classes(source))
        start = _offset(source, cls.pos, self.line_base)
        return source.index("{", start) + 1

    def _insert_in_body(self, source: str, text: str) -> str:
        at = self._body_opening(source)
        return source[:at] + text + source[at:]

    def _append_to_body(self, source: str, text: str, names: tuple) -> str:
        """Insert ``text`` just before the closing ``}`` of a random body
        of a method in ``names``: past every temp the body already has,
        so the edit renumbers none of them."""
        at, depth = self._body_opening(source, names=names), 1
        while depth:
            if source.startswith("//", at):
                at = source.index("\n", at)
            elif source.startswith("/*", at):
                at = source.index("*/", at) + 1
            elif source[at] == '"':
                at = source.index('"', at + 1)
            elif source[at] in "{}":
                depth += 1 if source[at] == "{" else -1
            at += 1
        return source[: at - 1] + text + source[at - 1 :]

    def _calls(self, source: str, pattern: str) -> list:
        return list(re.finditer(r"(?<=[;{}])(\s*)" + pattern, source))

    def apply(self, kind: str, source: str) -> str:
        self.counter += 1
        k = self.counter
        added = re.findall(r"int e\$\d+ = \d+;", source)
        if kind == "add":
            return self._insert_in_body(source, f" int e${k} = {k};")
        if kind == "add_string":
            return self._insert_in_body(source, f' String s${k} = "a{{{k}}}";')
        if kind == "edit_string":
            literal = re.search(r'"[^"\\\n]*"', source)
            if literal is None:
                return self._insert_in_body(source, f' String s${k} = "a{k}";')
            at = literal.start() + 1
            return source[:at] + "}{ " + source[at:]
        if kind == "change":
            # An added statement, else the first assignment of a constant.
            if added:
                stmt = self.rng.choice(added)
                return source.replace(stmt, stmt.replace(";", " + 1;"), 1)
            match = re.search(r"= (\d+);", source)
            if match is not None:
                return source[: match.start(1)] + "7" + source[match.end(1) :]
        if kind == "remove":
            # An added statement, else the first field write of a body.
            if added:
                return source.replace(" " + self.rng.choice(added), "", 1)
            match = re.search(r"this\.\w+ = [^;]*;", source)
            if match is not None:
                return source[: match.start()] + source[match.end() :]
        if kind in ("change", "remove"):
            return self._insert_in_body(source, f" int e${k} = {k};")
        if kind == "whitespace":
            return self._insert_in_body(source, "\n\n   \n")
        if kind == "comment":
            return self._insert_in_body(source, f" /* note {{ {k} */ // x\n")
        if kind == "unclosed_comment":
            # Past the last "*/", so that nothing closes it.
            at = self._body_opening(source, after=source.rfind("*/"))
            return source[:at] + " /* never closed " + source[at:]
        if kind == "remove_call":
            calls = self._calls(source, _CALL)
            if calls:
                call = self.rng.choice(calls)
                return source[: call.start()] + source[call.end() :]
        if kind == "reorder":
            pairs = self._calls(source, f"({_CALL})(\\s*)({_CALL})")
            if pairs:
                pair = self.rng.choice(pairs)
                first, gap, second = pair.group(2, 3, 4)
                return (
                    source[: pair.start(2)]
                    + second
                    + gap
                    + first
                    + source[pair.end() :]
                )
        if kind in ("remove_call", "reorder"):
            return self._insert_in_body(source, f" int e${k} = {k};")
        # Statements with temps go at the end of a body: one ahead of the
        # body's own temps would renumber them, which is additive only
        # when no renumbered temp carries a reference into a constraint.
        if kind == "call_spare":
            return self._append_to_body(source, " Spare.tick();", REACHED)
        if kind == "call_spare_ref":
            text = f" Object g${k} = Spare.grab();"
            return self._append_to_body(source, text, REACHED)
        if kind == "virtual":
            # The first call reaches via with a Spare; a later one adds
            # Spare2.id to the targets of the call inside via.
            receiver = "Spare2" if "Spare.via(" in source else "Spare"
            text = f" Object v${k} = Spare.via(new {receiver}());"
            return self._append_to_body(source, text, REACHED)
        if kind == "throw":
            return self._append_to_body(source, " throw new Spare();", REACHED)
        if kind == "static_write":
            return self._append_to_body(source, " Spare.kept = Spare.grab();", REACHED)
        if kind == "field_write":
            text = f" Spare w${k} = Spare.one(); w${k}.slot = Spare.grab();"
            return self._append_to_body(source, text, REACHED)
        if kind == "rename":
            # Not the spare classes, which later edits call by name.
            cls = self.rng.choice(
                [c for c in self._classes(source) if not c.name.startswith("Spare")]
            )
            start = _offset(source, cls.pos, self.line_base)
            head = f"class {cls.name}"
            return (
                source[:start]
                + f"class {cls.name}R{k}"
                + source[start + len(head) :]
            )
        if kind == "field":
            at = self._class_opening(source)
            return source[:at] + f" int f${k};" + source[at:]
        if kind == "static_init":
            at = self._class_opening(source)
            return source[:at] + f" static int g${k} = {k};" + source[at:]
        if kind == "init_existing":
            match = re.search(r"static ([A-Z]\w*) (\w+);", source)
            if match is None:
                at = self._class_opening(source)
                return source[:at] + f" static int g${k} = {k};" + source[at:]
            return (
                source[: match.end() - 1] + " = null" + source[match.end() - 1 :]
            )
        if kind == "two_classes":
            classes = self._classes(source)
            first, second = self.rng.sample(classes, 2)
            cuts = sorted(
                source.index("{", _offset(source, cls.pos, self.line_base)) + 1
                for cls in (first, second)
            )
            for at in reversed(cuts):
                source = source[:at] + "\n " + source[at:]
            return source
        raise AssertionError(kind)


def _update(session, source):
    try:
        result, meta = session.update({"source": source})
    except Exception as exc:  # compared across the two sessions
        return None, f"{type(exc).__name__}: {exc}"
    return (result, meta), None


def _program_rows(program) -> dict:
    return {
        qname: [
            (cmd.label, str(cmd), cmd.pos and (cmd.pos.line, cmd.pos.column))
            for cmd in walk_commands(method.body)
        ]
        for qname, method in program.methods.items()
    }


def _analysis(session, params) -> str:
    payload, _ = session.analyze(dict(params))
    return json.dumps(
        {
            "status": payload["status"],
            "records": [
                (r["description"], r["status"])
                for r in payload["report"]["records"]
            ],
            "verdicts": payload["verdicts"],
        },
        sort_keys=True,
    )


#: Per program, the reachability root re-queried after every update: a
#: true leak field whose searches stay cheap across rebuilds. The other
#: apps have no true leak and run the casts client.
ROOTS = {
    "lifecycle": ("Registry", "hold", "Item"),
    "PulsePoint": ("FeedManager", "sInstance", "Activity"),
    "DroidLife": ("LifeState", "lastActivity", "Activity"),
    "SMSPopUp": ("WakeLocker", "holder", "Activity"),
    "aMetro": ("RouteStore", "owner", "Activity"),
    "K9Mail": ("MessageListFragment", "active", "Activity"),
}


def _query(name: str) -> dict:
    if name not in ROOTS:
        return {"client": "casts"}
    root_class, root_field, target_class = ROOTS[name]
    return {
        "client": "reachability",
        "root_class": root_class,
        "root_field": root_field,
        "target_class": target_class,
    }


def _check_refreshed(session) -> None:
    """The session's summaries, site tokens and graph views equal a
    whole-program recomputation over its grafted program and graph."""
    check_summaries(session._pta)
    assert session._site_tokens == stable_site_tokens(session._program)
    graph = session._pta.graph
    unions: dict = {}
    out: dict = {}
    for node, locs in graph.pts.items():
        if isinstance(node, VarNode):
            unions.setdefault((node.method, node.var), set()).update(locs)
        elif isinstance(node, FieldNode):
            out.setdefault(node.loc, []).append((node.field, locs))
    for key in unions.keys() | graph._local_union.keys():
        assert graph.pt_local(*key) == unions.get(key, set()), key
    for loc in graph.all_abs_locs():
        assert graph.out_fields(loc) == out.get(loc, []), loc
    for (locs, field), answer in graph._field_of_set.items():
        assert answer == frozenset().union(
            *(graph.pts.get(FieldNode(loc, field), ()) for loc in locs)
        )


def _remember_field_answers(graph) -> None:
    """Ask ``pt_field_of_set`` of every location and field, so that an
    update finds an answer remembered for whatever field it grows."""
    fields = {node.field for node in graph.pts if isinstance(node, FieldNode)}
    for loc in graph.all_abs_locs():
        for field in fields | {"slot"}:
            graph.pt_field_of_set(frozenset({loc}), field)


def _verdicts(analysis: str) -> str:
    return json.dumps(json.loads(analysis)["verdicts"], sort_keys=True)


def _run_stream(name: str, seed: int, steps: int, monkeypatch) -> dict:
    """Returns the update count per build, and per kind the modes its
    updates took."""
    include_library = name != "lifecycle"
    if name == "lifecycle":
        source = lifecycle_app(4, leaky=1, branches=2) + SPARE
    else:
        source = app_by_name(name).source + SPARE
    stream = _EditStream(seed, include_library)
    kinds = list(KINDS) + [
        stream.rng.choice(KINDS) for _ in range(max(0, steps - len(KINDS)))
    ]
    stream.rng.shuffle(kinds)

    params = _query(name)
    fast = ProgramSession(source, include_library=include_library)
    full = ProgramSession(source, include_library=include_library)
    monkeypatch.setattr(full, "_class_build", lambda new_source, region: None)
    builds = {"class": 0, "full": 0}
    modes: dict = {}
    try:
        assert _analysis(fast, params) == _analysis(full, params)
        for kind in kinds:
            edited = stream.apply(kind, source)
            for session in (fast, full):
                _remember_field_answers(session._pta.graph)
            got, got_error = _update(fast, edited)
            want, want_error = _update(full, edited)
            assert got_error == want_error, (kind, got_error, want_error)
            if got_error is not None:
                continue
            (result, meta), (want_result, want_meta) = got, want
            # An unchanged source builds nothing on either side.
            assert want_meta["build"] == ("class" if edited == source else "full")
            builds[meta["build"]] += 1
            modes.setdefault(kind, set()).add(result["mode"])
            assert json.dumps(result, sort_keys=True) == json.dumps(
                want_result, sort_keys=True
            ), kind
            drop = ("seconds", "build")
            assert {k: v for k, v in meta.items() if k not in drop} == {
                k: v for k, v in want_meta.items() if k not in drop
            }, kind
            assert _program_rows(fast._program) == _program_rows(full._program)
            assert fast._fingerprints == full._fingerprints
            assert fast._spans == full._spans, kind
            reference = _full_build(edited, include_library)
            for session in (fast, full):
                _check_positions(session, reference)
            if meta["build"] == "class" and result["mode"] == "incremental":
                _check_against_full_build(
                    fast, reference, result["changed_methods"]
                )
            if result["mode"] == "incremental":
                for session in (fast, full):
                    _check_refreshed(session)
            source = edited
            analysis = _analysis(fast, params)
            assert analysis == _analysis(full, params), kind
            if kind in COLD_CHECKED:
                cold = ProgramSession(edited, include_library=include_library)
                try:
                    assert _verdicts(analysis) == _verdicts(
                        _analysis(cold, params)
                    ), kind
                finally:
                    cold.close()
    finally:
        fast.close()
        full.close()
    return builds, modes


def _check_positions(session, reference):
    """Every retained method, rebuilt or kept, has the command positions
    of a fresh whole-program build, and every class-table entry (class,
    field and method) has that build's declaration position."""
    mine = session._program.methods
    assert mine.keys() == reference.methods.keys()
    for qname, theirs in reference.methods.items():
        assert [c.pos for c in walk_commands(mine[qname].body)] == [
            c.pos for c in walk_commands(theirs.body)
        ], qname
    table = session._program.class_table.classes
    assert table.keys() == reference.class_table.classes.keys()
    for name, want in reference.class_table.classes.items():
        got = table[name]
        assert got.pos == want.pos, name
        for kind in ("fields", "methods"):
            assert {n: e.pos for n, e in getattr(got, kind).items()} == {
                n: e.pos for n, e in getattr(want, kind).items()
            }, (name, kind)


def _check_against_full_build(session, reference, changed):
    for qname in changed:
        mine = session._program.methods[qname]
        theirs = reference.methods[qname]
        assert body_fingerprint(mine) == body_fingerprint(theirs), qname
    # The retained class-table entry of each edited class is the new one.
    table = session._program.class_table
    for qname in changed:
        cls = qname.split(".", 1)[0]
        want = reference.class_table.classes[cls]
        got = table.classes[cls]
        assert got.pos == want.pos
        assert {n: m.pos for n, m in got.methods.items()} == {
            n: m.pos for n, m in want.methods.items()
        }


def test_position_of_matches_the_lexer():
    source = "class A {\n  int x;\n}\nclass B { }"
    assert position_of(source, 0) == (1, 1)
    assert position_of(source, source.index("int")) == (2, 3)
    assert position_of(source, source.index("class B")) == (4, 1)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_lifecycle(seed, monkeypatch):
    """The ``serve`` workload's program under every edit kind once, plus
    a few repeats."""
    builds, modes = _run_stream(
        "lifecycle", seed=seed, steps=len(KINDS) + 5, monkeypatch=monkeypatch
    )
    assert builds["class"] >= 3 and builds["full"] >= 3, builds
    # The edits the summary refresh must follow all took the incremental
    # path, and the removed call was a rebuild.
    for kind in ("reorder", *INCREMENTAL_KINDS):
        assert "incremental" in modes[kind], (kind, modes)
    assert modes["remove_call"] == {"rebuild"}, modes


@pytest.mark.parametrize("name", [app.name for app in APPS])
def test_apps(name, monkeypatch):
    builds, modes = _run_stream(
        name, seed=11, steps=len(KINDS), monkeypatch=monkeypatch
    )
    assert builds["class"] >= 1, builds
    for kind in INCREMENTAL_KINDS:
        assert "incremental" in modes[kind], (kind, modes)
