"""Tests for the additional heap-reachability clients (casts, assertions,
encapsulation)."""

import pytest

from repro.clients import (
    HOLDS,
    POSSIBLY_UNSAFE,
    SAFE,
    VIOLATED,
    analyze_casts,
    analyze_encapsulation,
    analyze_immutability,
    assert_not_leaked,
    assert_unreachable,
    verified,
)
from repro.ir import compile_program
from repro.pointsto import analyze


def pta_of(source):
    return analyze(compile_program(source))


class TestCastChecking:
    def test_trivially_safe_cast(self):
        pta = pta_of(
            "class A { } class M { static void main() {"
            " Object o = new A(); A a = (A) o; } }"
        )
        (report,) = analyze_casts(pta).results
        assert report.status == SAFE
        assert not report.suspects

    def test_definitely_failing_cast_flagged(self):
        pta = pta_of(
            "class A { } class B { } class M { static void main() {"
            " Object o = new B(); A a = (A) o; } }"
        )
        (report,) = analyze_casts(pta).results
        assert report.status == POSSIBLY_UNSAFE
        assert report.witness_trace

    def test_path_sensitive_safe_cast_verified(self):
        # Flow-insensitively o may be a B, but the cast is guarded by a
        # correlated flag: the refuter proves it safe.
        pta = pta_of(
            "class A { } class B { } class M { static void main() {"
            " int tag = 0;"
            " Object o = new A();"
            " if (tag == 1) { o = new B(); }"
            " A a = (A) o; } }"
        )
        (report,) = analyze_casts(pta).results
        assert report.suspects  # points-to alone cannot prove it
        assert report.status == SAFE  # ... but the refuter can

    def test_instanceof_guard_makes_cast_safe(self):
        pta = pta_of(
            "class A { } class B { } class M { static void main() {"
            " Object o = new A();"
            " if (nondet()) { o = new B(); }"
            " if (o instanceof A) { A a = (A) o; } } }"
        )
        (report,) = analyze_casts(pta).results
        assert report.status == SAFE

    def test_unguarded_union_cast_unsafe(self):
        pta = pta_of(
            "class A { } class B { } class M { static void main() {"
            " Object o = new A();"
            " if (nondet()) { o = new B(); }"
            " A a = (A) o; } }"
        )
        (report,) = analyze_casts(pta).results
        assert report.status == POSSIBLY_UNSAFE

    def test_unsafe_casts_filter(self):
        pta = pta_of(
            "class A { } class B { } class M { static void main() {"
            " Object x = new A(); A a1 = (A) x;"
            " Object y = new B(); A a2 = (A) y; } }"
        )
        result = analyze_casts(pta)
        assert len(result.results) == 2
        assert [r.status for r in result.results] == [SAFE, POSSIBLY_UNSAFE]
        assert not result.verified


class TestReachabilityAssertions:
    def test_assertion_holds_when_disconnected(self):
        pta = pta_of(
            "class Secret { } class M { static Object pub;"
            " static void main() { Secret s = new Secret();"
            " M.pub = new Object(); } }"
        )
        results = assert_unreachable(pta, "M", "pub", "Secret")
        assert results == []  # not even flow-insensitively connected

    def test_assertion_violated_by_direct_store(self):
        pta = pta_of(
            "class Secret { } class M { static Object pub;"
            " static void main() { M.pub = new Secret(); } }"
        )
        results = assert_unreachable(pta, "M", "pub", "Secret")
        assert results and results[0].status == VIOLATED
        assert not verified(results)

    def test_assertion_verified_by_refutation(self):
        pta = pta_of(
            "class Secret { } class M { static Object pub;"
            " static void main() {"
            " Object o = new Object();"
            " int k = 0;"
            " if (k == 5) { o = new Secret(); }"
            " M.pub = o; } }"
        )
        results = assert_unreachable(pta, "M", "pub", "Secret")
        assert results and verified(results)
        assert results[0].refuted_edges >= 1

    def test_lifetime_assertion_not_leaked(self):
        pta = pta_of(
            "class Box { Object v; } class M { static Box keep;"
            " static void main() {"
            " Box local = new Box();"
            " Box kept = new Box();"
            " M.keep = kept; } }"
        )
        # box0 (`local`) never escapes to a static; box1 (`kept`) does.
        assert verified(assert_not_leaked(pta, "box0"))
        leaked = assert_not_leaked(pta, "box1")
        assert leaked and leaked[0].status == VIOLATED

    def test_transitive_reachability_violation(self):
        pta = pta_of(
            "class Secret { } class Holder { Object item; }"
            " class M { static Holder root; static void main() {"
            " Holder h = new Holder(); h.item = new Secret(); M.root = h; } }"
        )
        results = assert_unreachable(pta, "M", "root", "Secret")
        assert results and results[0].status == VIOLATED
        assert len(results[0].witnessed_path) == 2


class TestEncapsulation:
    def test_owned_representation(self):
        pta = pta_of(
            "class Rep { } class Owner { Rep rep;"
            "   Owner() { this.rep = new Rep(); } }"
            " class M { static Owner o; static void main() {"
            " M.o = new Owner(); } }"
        )
        # The Rep is reachable from M.o *through the owner* — check asks
        # whether the rep is reachable from statics at all; it is (via the
        # owner), so the naive exposure exists...
        results = analyze_encapsulation(pta, "Owner", "rep").results
        assert results  # reachable through the owner itself
        # ...the meaningful query is violation via an alien root:
        alien = [r for r in results if r.root.class_name != "M"]
        assert not alien

    def test_leaked_representation_detected(self):
        pta = pta_of(
            "class Rep { } class Owner { Rep rep;"
            "   Owner() { this.rep = new Rep(); }"
            "   Rep expose() { return this.rep; } }"
            " class M { static Rep stolen; static void main() {"
            " Owner o = new Owner(); M.stolen = o.expose(); } }"
        )
        result = analyze_encapsulation(pta, "Owner", "rep")
        stolen = [r for r in result.results if str(r.root) == "M.stolen"]
        assert stolen and stolen[0].status == VIOLATED
        assert not result.verified

    def test_guarded_exposure_refuted(self):
        pta = pta_of(
            "class Rep { } class Owner { Rep rep;"
            "   Owner() { this.rep = new Rep(); }"
            "   Rep expose(int key) {"
            "     if (key == 42) { return this.rep; }"
            "     return null; } }"
            " class M { static Rep stolen; static void main() {"
            " Owner o = new Owner(); M.stolen = o.expose(7); } }"
        )
        results = analyze_encapsulation(pta, "Owner", "rep").results
        stolen = [r for r in results if str(r.root) == "M.stolen"]
        assert stolen and stolen[0].status == HOLDS


class TestImmutability:
    def test_truly_immutable_class(self):
        pta = pta_of(
            "class Point { int x; int y; Point(int x, int y) {"
            "   this.x = x; this.y = y; } }"
            " class M { static void main() {"
            " Point p = new Point(1, 2); int s = p.x + p.y; } }"
        )
        result = analyze_immutability(pta, "Point")
        assert result.verified
        assert result.results == []  # no write outside the ctor even aims at it

    def test_mutated_class_detected(self):
        pta = pta_of(
            "class Point { int x; Point(int x) { this.x = x; } }"
            " class M { static void main() {"
            " Point p = new Point(1); p.x = 2; } }"
        )
        result = analyze_immutability(pta, "Point")
        assert not result.verified
        assert any(s.status == "witnessed" for s in result.results)

    def test_guarded_mutation_refuted(self):
        pta = pta_of(
            "class Point { int x; Point(int x) { this.x = x; } }"
            " class M { static void main() {"
            " Point p = new Point(1);"
            " int debug = 0;"
            " if (debug == 1) { p.x = 9; } } }"
        )
        result = analyze_immutability(pta, "Point")
        assert result.verified
        assert any(s.status == "refuted" for s in result.results)

    def test_mutation_of_other_class_ignored(self):
        pta = pta_of(
            "class Point { int x; Point(int x) { this.x = x; } }"
            " class Box { Object v; }"
            " class M { static void main() {"
            " Point p = new Point(1); Box b = new Box(); b.v = p; } }"
        )
        result = analyze_immutability(pta, "Point")
        assert result.verified

    def test_subclass_writes_count(self):
        pta = pta_of(
            "class Base { int x; Base() { this.x = 0; } }"
            " class Sub extends Base { void bump() { this.x = this.x + 1; } }"
            " class M { static void main() { new Sub().bump(); } }"
        )
        result = analyze_immutability(pta, "Base")
        assert not result.verified

    def test_ctor_helper_writes_flag_mutation(self):
        # Writes from a helper called by the ctor are outside the ctor
        # itself; the shallow check conservatively reports them.
        pta = pta_of(
            "class Point { int x; Point(int x) { this.init(x); }"
            "   void init(int x) { this.x = x; } }"
            " class M { static void main() { Point p = new Point(1); } }"
        )
        result = analyze_immutability(pta, "Point")
        assert not result.verified
