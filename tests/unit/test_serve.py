"""Unit tests for the serve daemon's building blocks: the wire protocol,
edit diffing/grafting (:mod:`repro.serve.invalidation`), the staleness
rules, the per-class source splicer and the class build
(:mod:`repro.serve.classbuild`)."""

import json

import pytest

from repro.ir import compile_program
from repro.ir import instructions as ins
from repro.ir.stmts import walk_commands
from repro.pointsto import analyze as pointsto_analyze
from repro.pointsto.incremental import DeltaReport
from repro.pointsto.modref import RefSet
from repro.serve.invalidation import (
    body_fingerprint,
    graft_method,
    is_additive,
    temp_renaming,
    method_fingerprints,
    program_signature,
    stable_edge_token,
    stable_site_tokens,
    verdict_is_stale,
)
from repro.serve.protocol import (
    OPS,
    SCHEMA_VERSION,
    ProtocolError,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from repro.lang import tokenize
from repro.serve.classbuild import (
    build_class,
    edit_region,
    enclosing_span,
    token_spans,
)
from repro.serve.session import ProgramSession, split_classes, splice_classes

BASE_SRC = """
class Item { }
class Registry { static Item hold; }
class A {
    int pad;
    Item make() { Item o = new Item(); return o; }
    void go() { this.pad = this.pad + 1; Item o = this.make(); }
}
class M { static void main() { A a = new A(); a.go(); } }
"""


# ---------------------------------------------------------------------------
# Protocol envelopes
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_round_trip(self):
        request = parse_request(
            json.dumps(
                {
                    "id": 7,
                    "op": "analyze",
                    "params": {"client": "casts"},
                    "schema_version": SCHEMA_VERSION,
                }
            )
        )
        assert request.op == "analyze"
        assert request.id == 7
        assert request.params == {"client": "casts"}

    def test_schema_version_defaults_and_rejects(self):
        assert parse_request('{"op": "status"}').op == "status"
        with pytest.raises(ProtocolError, match="schema_version 2"):
            parse_request('{"op": "status", "schema_version": 2}')

    def test_bad_json_and_bad_shapes(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            parse_request("{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_request('["analyze"]')
        with pytest.raises(ProtocolError, match="params must be a JSON object"):
            parse_request('{"op": "analyze", "params": ["casts"]}')

    def test_unknown_op_and_envelope_fields(self):
        with pytest.raises(ProtocolError, match="unknown op 'frobnicate'"):
            parse_request('{"op": "frobnicate"}')
        with pytest.raises(ProtocolError, match="unknown request field"):
            parse_request('{"op": "status", "payload": {}}')
        # The op error names every accepted op.
        with pytest.raises(ProtocolError, match=", ".join(OPS)):
            parse_request('{"op": "nope"}')

    def test_retired_watch_op_is_unknown(self):
        assert "watch" not in OPS
        with pytest.raises(ProtocolError, match="unknown op 'watch'"):
            parse_request('{"op": "watch"}')

    def test_response_shapes(self):
        ok = ok_response(3, {"x": 1}, {"seconds": 0.1})
        assert ok["ok"] and ok["id"] == 3
        assert ok["schema_version"] == SCHEMA_VERSION
        err = error_response(3, ValueError("boom"))
        assert not err["ok"]
        assert err["error"] == {"type": "ValueError", "message": "boom"}
        # Envelopes encode deterministically (sorted keys).
        assert encode(ok) == json.dumps(ok, sort_keys=True)


# ---------------------------------------------------------------------------
# Edit diffing: fingerprints, signatures, additivity
# ---------------------------------------------------------------------------


class TestDiffing:
    def test_fingerprints_ignore_sites_and_positions(self):
        # Two builds of the same source disagree on AllocSite ids and
        # SourcePositions; fingerprints and signature must not.
        a = compile_program(BASE_SRC)
        b = compile_program("\n\n" + BASE_SRC)  # every position shifted
        assert method_fingerprints(a) == method_fingerprints(b)
        assert program_signature(a) == program_signature(b)

    def test_fingerprint_sees_body_edits(self):
        a = compile_program(BASE_SRC)
        b = compile_program(BASE_SRC.replace("this.pad + 1", "this.pad + 2"))
        prints_a, prints_b = method_fingerprints(a), method_fingerprints(b)
        changed = [q for q in prints_a if prints_a[q] != prints_b.get(q)]
        assert changed == ["A.go"]
        assert program_signature(a) == program_signature(b)

    def test_signature_sees_declaration_edits(self):
        a = compile_program(BASE_SRC)
        b = compile_program(BASE_SRC.replace("int pad;", "int pad; int extra;"))
        assert program_signature(a) != program_signature(b)

    def test_statement_insertion_is_additive(self):
        a = compile_program(BASE_SRC)
        b = compile_program(
            BASE_SRC.replace(
                "this.pad = this.pad + 1;",
                "this.pad = this.pad + 1; this.pad = this.pad + 1;",
            )
        )
        assert is_additive(a.methods["A.go"], b.methods["A.go"], a)

    def test_additivity_survives_temp_renumbering(self):
        # The second bump renumbers the temp of make()'s result ($t2 ->
        # $t4); the renaming matches the old commands anyway. The node $t2
        # keeps the old body's Item, but only arithmetic reads $t2 now.
        a = compile_program(BASE_SRC)
        b = compile_program(
            BASE_SRC.replace(
                "this.pad = this.pad + 1;",
                "this.pad = this.pad + 1; this.pad = this.pad + 1;",
            )
        )
        old, new = a.methods["A.go"], b.methods["A.go"]
        assert temp_renaming(old, new)["$t2"] == "$t4"
        assert is_additive(old, new, a)
        # ...and the renaming really was load-bearing: raw strings differ.
        assert {str(c) for c in walk_commands(old.body)} - {
            str(c) for c in walk_commands(new.body)
        }

    def test_renumbered_reference_temp_fed_to_a_constraint_is_not_additive(self):
        # A store ahead of the bump shifts every temp by one: the old $t2
        # (make()'s Item) becomes the bumped value stored into this.pad.
        # The retained solver keeps $t2 pointing at the Item, so the store
        # would put it in pad, which a cold build never does.
        a = compile_program(BASE_SRC)
        b = compile_program(
            BASE_SRC.replace("void go() {", "void go() { Registry.hold = new Item();")
        )
        old, new = a.methods["A.go"], b.methods["A.go"]
        renaming = temp_renaming(old, new)
        assert renaming == {"$t0": "$t1", "$t1": "$t2", "$t2": "$t3"}
        assert not is_additive(old, new, a)
        # A call result ahead of it cannot even be matched in order: the
        # new first make() result is the inserted one.
        c = compile_program(
            BASE_SRC.replace("void go() {", "void go() { Item extra = this.make();")
        )
        assert temp_renaming(old, c.methods["A.go"]) is None

    def test_renumbered_reference_into_a_data_local_is_additive(self):
        # The bump moves make()'s result onto $t4, which the old body copied
        # into the counter x. Only integers are assigned to x and only
        # arithmetic reads it, so the Item the solver leaves on x is never
        # asked for. Once x is stored into a field, the Item would reach the
        # heap, and the edit is no longer additive.
        loop = "int x = 0; if (nondet()) { x = x + 1; }"
        for tail, additive in ((loop, True), (loop + " this.pad = x;", False)):
            src = BASE_SRC.replace(
                "Item o = this.make(); }", f"Item o = this.make(); {tail} }}"
            )
            a = compile_program(src)
            b = compile_program(
                src.replace(
                    "this.pad = this.pad + 1;",
                    "this.pad = this.pad + 1; this.pad = this.pad + 1;",
                )
            )
            old, new = a.methods["A.go"], b.methods["A.go"]
            assert temp_renaming(old, new)["$t4"] == "$t6"
            assert is_additive(old, new, a) is additive, tail

    def test_deletion_is_not_additive(self):
        a = compile_program(BASE_SRC)
        b = compile_program(
            BASE_SRC.replace("this.pad = this.pad + 1; ", "")
        )
        assert not is_additive(a.methods["A.go"], b.methods["A.go"], a)
        # Multiset, not set: dropping one of two identical stores is a
        # deletion too.
        c = compile_program(
            BASE_SRC.replace(
                "this.pad = this.pad + 1;",
                "this.pad = this.pad + 1; this.pad = this.pad + 1;",
            )
        )
        assert not is_additive(c.methods["A.go"], a.methods["A.go"], c)
        assert temp_renaming(c.methods["A.go"], a.methods["A.go"]) is None

    def test_body_fingerprint_sees_structure(self):
        a = compile_program(BASE_SRC)
        b = compile_program(
            BASE_SRC.replace(
                "this.pad = this.pad + 1;",
                "if (nondet()) { this.pad = this.pad + 1; }",
            )
        )
        assert body_fingerprint(a.methods["A.go"]) != body_fingerprint(
            b.methods["A.go"]
        )


# ---------------------------------------------------------------------------
# Grafting
# ---------------------------------------------------------------------------


class TestGrafting:
    def test_graft_preserves_matched_sites_and_other_labels(self):
        program = compile_program(BASE_SRC)
        old_make_sites = [
            cmd.site
            for cmd in walk_commands(program.methods["A.make"].body)
            if isinstance(cmd, ins.New)
        ]
        go_labels_before = {
            label
            for label in program.commands
            if program.method_of_label(label).qualified_name == "A.go"
        }
        edited = compile_program(
            BASE_SRC.replace(
                "Item o = new Item(); return o;",
                "Item o = new Item(); this.pad = 0; return o;",
            )
        )
        graft_method(program, edited.methods["A.make"])
        new_make_sites = [
            cmd.site
            for cmd in walk_commands(program.methods["A.make"].body)
            if isinstance(cmd, ins.New)
        ]
        # The matched allocation keeps the *old* site object identity.
        assert new_make_sites == old_make_sites
        assert new_make_sites[0] is old_make_sites[0]
        # Untouched methods keep their labels.
        assert go_labels_before
        assert go_labels_before <= set(program.commands)
        for label in go_labels_before:
            assert program.method_of_label(label).qualified_name == "A.go"

    def test_graft_matches_sites_as_the_renaming_matches_commands(self):
        # A new Item[n] between the old Item[n] and Item[3]: the old Item[3]
        # site must stay on the Item[3] allocation (and so on a), not move
        # to the inserted array, whose site is fresh.
        src = BASE_SRC.replace(
            "Item o = this.make(); }",
            "Item o = this.make();"
            " Item[] b = new Item[this.pad]; Item[] a = new Item[3]; }",
        )
        program = compile_program(src)

        def arrays(method):
            return [c for c in walk_commands(method.body) if isinstance(c, ins.NewArray)]

        old_b, old_a = (c.site for c in arrays(program.methods["A.go"]))
        edited = compile_program(
            src.replace(
                "Item[] a =", "Item[] c = new Item[this.pad]; Item[] a ="
            )
        )
        assert is_additive(
            program.methods["A.go"], edited.methods["A.go"], program
        )
        graft_method(program, edited.methods["A.go"])
        new_b, new_c, new_a = (c.site for c in arrays(program.methods["A.go"]))
        assert (new_b, new_a) == (old_b, old_a)
        assert new_c not in (old_a, old_b)

    def test_graft_mints_fresh_sites_for_new_allocations(self):
        program = compile_program(BASE_SRC)
        max_id_before = max(s.site_id for s in program.alloc_sites)
        n_sites_before = len(program.alloc_sites)
        edited = compile_program(
            BASE_SRC.replace(
                "Item o = this.make();",
                "Item o = this.make(); Item p = new Item();",
            )
        )
        graft_method(program, edited.methods["A.go"])
        fresh = [s for s in program.alloc_sites if s.site_id > max_id_before]
        assert len(fresh) == 1 and fresh[0].class_name == "Item"
        assert len(program.alloc_sites) == n_sites_before + 1

    def test_grafted_program_matches_cold_build_tokens(self):
        # After grafting, stable site tokens equal a cold build of the
        # edited source — the property the byte-identical payload needs.
        program = compile_program(BASE_SRC)
        edited_src = BASE_SRC.replace(
            "Item o = this.make();",
            "Item o = this.make(); Item p = new Item();",
        )
        graft_method(
            program, compile_program(edited_src).methods["A.go"]
        )
        grafted_tokens = sorted(stable_site_tokens(program).values())
        cold_tokens = sorted(
            stable_site_tokens(compile_program(edited_src)).values()
        )
        assert grafted_tokens == cold_tokens


# ---------------------------------------------------------------------------
# Stable descriptors
# ---------------------------------------------------------------------------


class TestStableTokens:
    def test_tokens_are_build_independent(self):
        a = compile_program(BASE_SRC)
        b = compile_program("\n\n" + BASE_SRC)
        assert sorted(stable_site_tokens(a).values()) == sorted(
            stable_site_tokens(b).values()
        )

    def test_edge_token_renders_through_tokens(self):
        # BASE_SRC never stores into Registry.hold; add the store so the
        # producer map has a static edge to render.
        src = BASE_SRC.replace(
            "Item o = this.make();", "Item o = this.make(); Registry.hold = o;"
        )
        pta = pointsto_analyze(compile_program(src))
        tokens = stable_site_tokens(pta.program)
        keys = list(pta.producers)
        assert keys
        rendered = {stable_edge_token(k, tokens) for k in keys}
        static_keys = [k for k in keys if k[0] == "static"]
        assert static_keys, "Registry.hold edge expected"
        assert any(r.startswith("Registry.hold -> ") for r in rendered)
        # No builder-assigned site ids leak into the tokens.
        assert all("#" in r for r in rendered)


# ---------------------------------------------------------------------------
# Staleness rules (pure-function truth table)
# ---------------------------------------------------------------------------


def _delta(methods=(), fields=(), statics=(), points=1):
    return DeltaReport(
        changed_methods=frozenset(),
        grown_methods=frozenset(methods),
        grown_fields=frozenset(fields),
        grown_statics=frozenset(statics),
        new_points=points,
    )


class _FakeModref:
    def __init__(self, refs):
        self._refs = refs

    def footprint_refs(self, qnames):
        return self._refs


class TestStaleness:
    FP = frozenset({"A.go", "A.make"})
    SIGS = {"A.go": ("sig",), "A.make": ("sig",)}

    def _stale(self, **kw):
        return verdict_is_stale(
            kw.get("footprint", self.FP),
            kw.get("changed", frozenset({"M.main"})),
            kw.get("sigs_before", self.SIGS),
            kw.get("sigs_after", self.SIGS),
            _FakeModref(kw.get("refs", RefSet())),
            kw.get("delta", _delta(points=0)),
        )

    def test_no_footprint_means_stale(self):
        assert self._stale(footprint=None)

    def test_untouched_verdict_survives(self):
        assert not self._stale()

    def test_changed_method_in_footprint(self):
        assert self._stale(changed=frozenset({"A.make"}))

    def test_summary_signature_change(self):
        assert self._stale(sigs_after={**self.SIGS, "A.make": ("other",)})

    def test_points_to_growth_in_footprint_method(self):
        assert self._stale(delta=_delta(methods={"A.go"}))

    def test_growth_in_read_field(self):
        refs = RefSet(fields={"hold"})
        assert self._stale(delta=_delta(fields={"hold"}), refs=refs)
        assert not self._stale(delta=_delta(fields={"other"}), refs=refs)

    def test_growth_in_read_static(self):
        refs = RefSet(statics={("Registry", "hold")})
        assert self._stale(
            delta=_delta(statics={("Registry", "hold")}), refs=refs
        )

    def test_unknown_reads_force_staleness_only_on_growth(self):
        refs = RefSet(reads_unknown=True)
        assert self._stale(delta=_delta(points=3), refs=refs)
        assert not self._stale(delta=_delta(points=0), refs=refs)


# ---------------------------------------------------------------------------
# Per-class splicing
# ---------------------------------------------------------------------------


_TRICKY_SRC = """// the class Helper below keeps a brace in a string
class Helper {
    static String open = "{";
}
class Tail {
    static int n = 1; /* } */
}
"""


class TestSplicing:
    def test_split_finds_every_class(self):
        classes = split_classes(BASE_SRC)
        assert set(classes) == {"Item", "Registry", "A", "M"}
        assert classes["A"].startswith("class A {")
        assert classes["A"].rstrip().endswith("}")

    def test_splice_replaces_only_named_class(self):
        replacement = split_classes(BASE_SRC)["A"].replace(
            "this.pad + 1", "this.pad + 2"
        )
        spliced = splice_classes(BASE_SRC, {"A": replacement})
        assert "this.pad + 2" in spliced
        assert spliced.count("class A {") == 1
        # Everything else untouched.
        assert split_classes(spliced)["M"] == split_classes(BASE_SRC)["M"]
        # And the spliced source still compiles.
        compile_program(spliced)

    def test_split_ignores_comments_and_string_braces(self):
        # "class" inside a comment and a "{" string literal once made the
        # splitter start Helper at the comment and run it to the end of
        # the source, swallowing Tail.
        classes = split_classes(_TRICKY_SRC)
        assert classes == {
            "Helper": 'class Helper {\n    static String open = "{";\n}',
            "Tail": "class Tail {\n    static int n = 1; /* } */\n}",
        }
        spliced = splice_classes(
            _TRICKY_SRC, {"Tail": "class Tail {\n    static int n = 2;\n}"}
        )
        assert "static int n = 2;" in spliced
        assert split_classes(spliced)["Helper"] == classes["Helper"]
        compile_program(spliced)

    def test_splice_unknown_class_raises(self):
        with pytest.raises(ValueError, match="Nope.*full source= update"):
            splice_classes(BASE_SRC, {"Nope": "class Nope { }"})

    def test_splice_leaves_copies_in_comments_and_strings(self):
        # The replaced class's old text also sits in a comment and in a
        # string literal; splicing by text rewrote all three copies.
        source = (
            "// old: class Item { }\n"
            "class Item { }\n"
            'class Keep { static String s = "class Item { }"; }\n'
        )
        want = (
            "// old: class Item { }\n"
            "class Item { int x; }\n"
            'class Keep { static String s = "class Item { }"; }\n'
        )
        assert splice_classes(source, {"Item": "class Item { int x; }"}) == want
        main = "class M { static void main() { Item i = new Item(); } }\n"
        session = ProgramSession(source + main, include_library=False)
        try:
            session.update({"classes": {"Item": "class Item { int x; }"}})
            assert session._source == want + main
        finally:
            session.close()


# ---------------------------------------------------------------------------
# The class build
# ---------------------------------------------------------------------------


class TestClassBuild:
    def test_tokenize_from_a_position(self):
        source = "class A { }\n  class B {\n int x; }"
        start = source.index("class B")
        whole = [t for t in tokenize(source) if t.pos.line > 1 or t.pos.column > 11]
        part = tokenize(source[start:], line=2, column=3)
        assert [(t.kind, t.text, t.pos) for t in part] == [
            (t.kind, t.text, t.pos) for t in whole
        ]

    def test_edit_region(self):
        assert edit_region("abcdef", "abXYef") == (2, 4, 4)
        assert edit_region("abc", "abc") == (3, 3, 3)
        assert edit_region("aaa", "aaaa") == (3, 3, 4)
        assert edit_region("", "x") == (0, 0, 1)
        spans = token_spans("class A { }\nclass B { }")
        assert enclosing_span(spans, 14, 15) == 1
        assert enclosing_span(spans, 11, 13) is None  # spans both classes

    def _old(self, source):
        program = compile_program(source)
        methods = [m for m in program.methods.values() if m.class_name == "A"]
        return program.class_table, methods

    def _build(self, text, source=BASE_SRC):
        table, methods = self._old(source)
        start = source.index("class A")
        line = source.count("\n", 0, start) + 1
        return build_class(table, "A", text, (line, 1), {}, methods)

    def test_body_edit_builds_at_the_full_build_positions(self):
        text = split_classes(BASE_SRC)["A"].replace(
            "this.pad + 1;", "this.pad + 1; this.pad = 2;"
        )
        info, program = self._build(text)
        full = compile_program(BASE_SRC.replace(split_classes(BASE_SRC)["A"], text))
        for qname, method in program.methods.items():
            assert body_fingerprint(method) == body_fingerprint(full.methods[qname])
            assert [c.pos for c in walk_commands(method.body)] == [
                c.pos for c in walk_commands(full.methods[qname].body)
            ]
        assert info.methods["go"].pos == full.class_table.classes["A"].methods["go"].pos

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t + " class B { }",  # two classes
            lambda t: t.replace("class A", "class A2"),  # renamed
            lambda t: "/* c */ " + t,  # text ahead of `class`
            lambda t: t + " // c",  # text after `}`
            lambda t: t.replace("int pad;", "int pad; int more;"),  # field
            lambda t: t.replace("int pad;", "static int s = 1; int pad;"),
            lambda t: t.replace("Item make()", "Object make()"),  # signature
            lambda t: t.replace("return o;", "return o"),  # parse error
            lambda t: t.replace("return o;", "return 1;"),  # type error
            lambda t: t.replace("{ this.pad", "{ /* open this.pad"),  # lex error
        ],
    )
    def test_declines_what_it_cannot_decide(self, edit):
        assert self._build(edit(split_classes(BASE_SRC)["A"])) is None

    def test_update_reports_the_build(self):
        session = ProgramSession(BASE_SRC, include_library=False)
        try:
            body = BASE_SRC.replace("this.pad + 1;", "this.pad + 1; this.pad = 2;")
            update, meta = session.update({"source": body})
            assert (update["mode"], meta["build"]) == ("incremental", "class")
            field = body.replace("int pad;", "int pad; int more;")
            update, meta = session.update({"source": field})
            assert (update["mode"], meta["build"]) == ("rebuild", "full")
            update, meta = session.update({"source": field})
            assert (update["mode"], meta["build"]) == ("noop", "class")
        finally:
            session.close()
