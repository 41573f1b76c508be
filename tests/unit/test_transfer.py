"""Direct unit tests of the backwards transfer functions (Figure 4).

Each test builds a small program (for the points-to context), constructs a
query by hand, applies one transfer, and inspects the pre-queries — the
WIT-rule behaviours, one by one.
"""

import pytest

from repro.ir import compile_program
from repro.ir import instructions as ins
from repro.ir.stmts import walk_commands
from repro.pointsto import ELEMS, analyze
from repro.solver import NULL, LinAtom, LinExpr, le, ref_ne
from repro.symbolic import Query, SearchConfig, TransferContext
from repro.symbolic.config import Representation
from repro.symbolic.transfer import apply_assume, transfer_command


def setup_ctx(source, representation=Representation.MIXED):
    program = compile_program(source)
    pta = analyze(program)
    ctx = TransferContext(pta, SearchConfig(representation=representation))
    return program, pta, ctx


def cmds_of(program, qname, cls):
    return [c for c in program.commands_of(qname) if isinstance(c, cls)]


TWO_SITES = (
    "class Box { Object v; } class M { static void main() {"
    " Object a = new Object();"
    " Object b = new String();"
    " Box x = new Box();"
    " x.v = a; x.v = b; } }"
)


class TestWitAssign:
    def test_unconstrained_lhs_is_noop(self):
        program, pta, ctx = setup_ctx(TWO_SITES)
        assign = cmds_of(program, "M.main", ins.Assign)[0]
        q = Query("M.main")
        (out,) = transfer_command(assign, q, ctx)
        assert out.is_memory_empty()

    def test_var_copy_transfers_constraint_and_narrows(self):
        program, pta, ctx = setup_ctx(TWO_SITES)
        # a := $t0 where $t0 is the new Object() temp.
        assign = next(
            c
            for c in cmds_of(program, "M.main", ins.Assign)
            if c.lhs == "a" and isinstance(c.rhs, ins.VarAtom)
        )
        q = Query("M.main")
        v = q.new_ref(pta.pt_local("M.main", "a") | pta.pt_local("M.main", "b"))
        q.set_local("a", v)
        (out,) = transfer_command(assign, q, ctx)
        assert out.get_local("a") is None
        rhs_var = out.get_local(assign.rhs.name)
        assert out.find(rhs_var) is out.find(v)
        # Narrowed by pt($t0) = {object0}.
        assert {str(l) for l in out.region_of(v)} == {"object0"}

    def test_const_binding_adds_equation(self):
        program, pta, ctx = setup_ctx(
            "class M { static void main() { int x = 7; } }"
        )
        assign = cmds_of(program, "M.main", ins.Assign)[0]
        q = Query("M.main")
        d = q.new_data()
        q.set_local("x", d)
        (out,) = transfer_command(assign, q, ctx)
        atoms = out.canonical_pure()
        assert any(isinstance(a, LinAtom) and a.op == "==" for a in atoms)

    def test_null_binding_refutes_nonnull(self):
        program, pta, ctx = setup_ctx(
            "class M { static void main() { Object x = null; } }"
        )
        assign = cmds_of(program, "M.main", ins.Assign)[0]
        q = Query("M.main")
        v = q.new_ref(frozenset(), maybe_null=False)  # will fail on creation
        assert q.failed


class TestWitNew:
    def test_matching_site_consumed(self):
        program, pta, ctx = setup_ctx(TWO_SITES)
        new_obj = next(
            c for c in cmds_of(program, "M.main", ins.New) if c.site.hint == "object0"
        )
        q = Query("M.main")
        site_locs = ctx.site_locs(new_obj.site)
        v = q.new_ref(site_locs)
        q.set_local(new_obj.lhs, v)
        (out,) = transfer_command(new_obj, q, ctx)
        assert out.is_memory_empty()
        assert not out.failed

    def test_conflicting_site_refutes(self):
        program, pta, ctx = setup_ctx(TWO_SITES)
        new_obj = next(
            c for c in cmds_of(program, "M.main", ins.New) if c.site.hint == "object0"
        )
        q = Query("M.main")
        other = next(
            c for c in cmds_of(program, "M.main", ins.New) if c.site.hint == "string0"
        )
        v = q.new_ref(ctx.site_locs(other.site))
        q.set_local(new_obj.lhs, v)
        assert transfer_command(new_obj, q, ctx) == []

    def test_pre_existing_instance_refutes(self):
        # The allocated instance cannot appear elsewhere in the pre-state.
        program, pta, ctx = setup_ctx(TWO_SITES)
        new_box = next(
            c for c in cmds_of(program, "M.main", ins.New) if c.site.hint == "box0"
        )
        q = Query("M.main")
        v = q.new_ref(ctx.site_locs(new_box.site))
        q.set_local(new_box.lhs, v)
        other = q.new_ref(None)
        q.set_field(other, "v", v)  # v also a field value before allocation
        assert transfer_command(new_box, q, ctx) == []


class TestWitReadWrite:
    def test_read_materializes_base_and_cell(self):
        program, pta, ctx = setup_ctx(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); b.v = new Object(); Object x = b.v; } }"
        )
        read = cmds_of(program, "M.main", ins.FieldRead)[0]
        q = Query("M.main")
        v = q.new_ref(pta.pt_local("M.main", "x"))
        q.set_local(read.lhs, v)
        (out,) = transfer_command(read, q, ctx)
        base = out.get_local(read.base)
        assert base is not None
        assert out.get_field(base, "v") is not None
        assert not out.is_maybe_null(base)  # dereferenced

    def test_write_produced_and_not_produced_cases(self):
        program, pta, ctx = setup_ctx(TWO_SITES)
        write = cmds_of(program, "M.main", ins.FieldWrite)[0]  # x.v = a
        q = Query("M.main")
        base = q.new_ref(pta.pt_local("M.main", "x"))
        value = q.new_ref(pta.pt_local("M.main", "a") | pta.pt_local("M.main", "b"))
        q.set_field(base, "v", value)
        outs = transfer_command(write, q, ctx)
        # One produced case (cell consumed) + one not-produced (cell kept).
        consumed = [o for o in outs if o.get_field(base, "v") is None]
        kept = [o for o in outs if o.get_field(base, "v") is not None]
        assert len(consumed) == 1 and len(kept) == 1

    def test_write_same_base_local_refutes_not_produced(self):
        # If the query's cell base IS the written local's value, separation
        # kills the not-produced case.
        program, pta, ctx = setup_ctx(TWO_SITES)
        write = cmds_of(program, "M.main", ins.FieldWrite)[0]
        q = Query("M.main")
        base = q.new_ref(pta.pt_local("M.main", "x"))
        q.set_local(write.base, base)  # x ↦ base already
        value = q.new_ref(pta.pt_local("M.main", "a"))
        q.set_field(base, "v", value)
        outs = transfer_command(write, q, ctx)
        assert len(outs) == 1  # only the produced case survives
        assert outs[0].get_field(base, "v") is None

    def test_write_of_other_field_is_noop(self):
        program, pta, ctx = setup_ctx(
            "class Box { Object v; Object w; } class M { static void main() {"
            " Box b = new Box(); b.w = new Object(); } }"
        )
        write = cmds_of(program, "M.main", ins.FieldWrite)[0]  # b.w := ...
        q = Query("M.main")
        base = q.new_ref(pta.pt_local("M.main", "b"))
        value = q.new_ref(None)
        q.set_field(base, "v", value)
        (out,) = transfer_command(write, q, ctx)
        assert out.get_field(base, "v") is not None

    def test_null_store_cannot_produce(self):
        program, pta, ctx = setup_ctx(
            "class Box { Object v; } class M { static void main() {"
            " Box b = new Box(); b.v = null; } }"
        )
        write = cmds_of(program, "M.main", ins.FieldWrite)[0]
        q = Query("M.main")
        base = q.new_ref(pta.pt_local("M.main", "b"))
        value = q.new_ref(None)  # non-null instance
        q.set_field(base, "v", value)
        outs = transfer_command(write, q, ctx)
        # Only the not-produced case remains, and it keeps the cell.
        assert all(o.get_field(base, "v") is not None for o in outs)

    def test_not_produced_drops_every_copy_of_the_disequality(self):
        # The query already holds ``ux != base``; the not-produced case adds
        # the same disequality, checks it, and drops both copies.
        program, pta, ctx = setup_ctx(TWO_SITES)
        write = cmds_of(program, "M.main", ins.FieldWrite)[0]  # x.v = a
        q = Query("M.main")
        ux = q.new_ref(pta.pt_local("M.main", "x"))
        q.set_local(write.base, ux)
        base = q.new_ref(pta.pt_local("M.main", "x"))
        q.set_field(base, "v", q.new_ref(None))
        bound = le(LinExpr.var(q.new_data()), LinExpr.constant(3))
        q.add_pure(ref_ne(ux, base))
        q.add_pure(bound)
        outs = transfer_command(write, q, ctx)
        (kept,) = [
            o for o in outs if not o.failed and o.get_field(base, "v") is not None
        ]
        assert kept.pure == [(bound, False)]


class TestWitArrayWrite:
    def test_different_base_case_drops_every_copy_of_the_disequality(self):
        # Case B (the write hit another array) of a query that already
        # holds ``ux != base`` keeps neither copy of the disequality.
        program, pta, ctx = setup_ctx(
            "class M { static void main() {"
            " Object[] xs = new Object[2]; xs[0] = new Object(); } }"
        )
        write = cmds_of(program, "M.main", ins.ArrayWrite)[0]
        q = Query("M.main")
        region = pta.pt_local("M.main", "xs")
        ux = q.new_ref(region)
        q.set_local(write.base, ux)
        base = q.new_ref(region)
        q.add_array_cell(base, q.new_data(), q.new_ref(None))
        bound = le(LinExpr.var(q.new_data()), LinExpr.constant(3))
        q.add_pure(ref_ne(ux, base))
        q.add_pure(bound)
        case_a, case_b = transfer_command(write, q, ctx)
        pure_a = [a for a, _ in case_a.pure]
        pure_b = [a for a, _ in case_b.pure]
        # Case A (another index) keeps the query's copy and adds the
        # index disequality; case B has neither.
        assert pure_a[:2] == [ref_ne(ux, base), bound]
        assert pure_b == pure_a[1:-1]


class TestWitStatics:
    def test_static_write_is_strong_update(self):
        program, pta, ctx = setup_ctx(
            "class M { static Object s; static void main() {"
            " M.s = new Object(); } }"
        )
        write = cmds_of(program, "M.main", ins.StaticWrite)[0]
        q = Query("M.main")
        v = q.new_ref(pta.pt_static("M", "s"))
        q.set_static("M", "s", v)
        (out,) = transfer_command(write, q, ctx)
        assert out.get_static("M", "s") is None  # always consumed
        # The written temp now carries the constraint.
        assert out.get_local(write.rhs.name) is not None

    def test_static_read_narrows(self):
        program, pta, ctx = setup_ctx(
            "class M { static Object s; static void main() {"
            " M.s = new Object(); Object x = M.s; } }"
        )
        read = cmds_of(program, "M.main", ins.StaticRead)[0]
        q = Query("M.main")
        v = q.new_ref(None)
        q.set_local(read.lhs, v)
        (out,) = transfer_command(read, q, ctx)
        assert out.get_static("M", "s") is not None
        assert out.region_of(v) is not None  # narrowed by pt(M.s)


class TestWitAssume:
    def prep(self):
        program, pta, ctx = setup_ctx(
            "class M { static void main() { int i = 0; if (i < 3) { i = 1; } } }"
        )
        return program, pta, ctx

    def test_comparison_polarity_true(self):
        _, _, ctx = self.prep()
        q = Query("M.main")
        outs = apply_assume(q, ctx, ins.PBin("<", ins.PVar("i"), ins.PInt(3)), True)
        assert len(outs) == 1
        assert outs[0].get_local("i") is not None
        assert len(outs[0].pure) == 1

    def test_comparison_polarity_false_negates(self):
        _, _, ctx = self.prep()
        q = Query("M.main")
        (out,) = apply_assume(q, ctx, ins.PBin("<", ins.PVar("i"), ins.PInt(3)), False)
        # i >= 3 as 3 - i <= 0
        (atom,) = [a for a, _ in out.pure]
        assert isinstance(atom, LinAtom) and atom.op == "<="

    def test_conjunction_true_single_disjunct(self):
        _, _, ctx = self.prep()
        expr = ins.PBin(
            "&&",
            ins.PBin("<", ins.PVar("i"), ins.PInt(3)),
            ins.PBin("<", ins.PInt(0), ins.PVar("i")),
        )
        outs = apply_assume(Query("M.main"), ctx, expr, True)
        assert len(outs) == 1
        assert len(outs[0].pure) == 2

    def test_conjunction_false_splits(self):
        _, _, ctx = self.prep()
        expr = ins.PBin(
            "&&",
            ins.PBin("<", ins.PVar("i"), ins.PInt(3)),
            ins.PBin("<", ins.PInt(0), ins.PVar("i")),
        )
        outs = apply_assume(Query("M.main"), ctx, expr, False)
        assert len(outs) == 2

    def test_contradictory_guard_refuted(self):
        _, _, ctx = self.prep()
        q = Query("M.main")
        (q1,) = apply_assume(q, ctx, ins.PBin("<", ins.PVar("i"), ins.PInt(0)), True)
        outs = apply_assume(q1, ctx, ins.PBin("<", ins.PInt(0), ins.PVar("i")), True)
        assert not outs or all(not o.check_sat() for o in outs)

    def test_false_literal_guard_kills_path(self):
        _, _, ctx = self.prep()
        assert apply_assume(Query("M.main"), ctx, ins.PBool(False), True) == []
        assert apply_assume(Query("M.main"), ctx, ins.PBool(True), False) == []

    def test_null_check_on_static(self):
        program, pta, ctx = setup_ctx(
            "class M { static Object s; static void main() {"
            " if (M.s == null) { M.s = new Object(); } } }"
        )
        expr = ins.PBin("==", ins.PStatic("M", "s"), ins.PNull(), ref_operands=True)
        q = Query("M.main")
        (out,) = apply_assume(q, ctx, expr, True)
        cell = out.get_static("M", "s")
        assert cell is not None
        assert out.is_maybe_null(cell)
        assert out.check_sat()

    def test_field_guard_materializes_cell(self):
        program, pta, ctx = setup_ctx(
            "class Vec { int sz; int cap; void m() {"
            " if (this.sz >= this.cap) { int x = 1; } } }"
            " class M { static void main() { new Vec().m(); } }"
        )
        expr = ins.PBin(
            ">=",
            ins.PField(ins.PVar("this"), "sz"),
            ins.PField(ins.PVar("this"), "cap"),
        )
        q = Query("Vec.m")
        (out,) = apply_assume(q, ctx, expr, True)
        this = out.get_local("this")
        assert this is not None
        assert out.get_field(this, "sz") is not None
        assert out.get_field(this, "cap") is not None

    def test_guard_cap_enforced(self):
        _, _, ctx = self.prep()
        ctx.config.max_path_constraints = 1
        q = Query("M.main")
        (q1,) = apply_assume(q, ctx, ins.PBin("<", ins.PVar("i"), ins.PInt(3)), True)
        (q2,) = apply_assume(q1, ctx, ins.PBin("<", ins.PVar("i"), ins.PInt(9)), True)
        assert sum(1 for _, g in q2.pure if g) == 1


class TestFullySymbolic:
    def test_no_narrowing_on_materialization(self):
        program, pta, ctx = setup_ctx(
            TWO_SITES, representation=Representation.FULLY_SYMBOLIC
        )
        read_like = cmds_of(program, "M.main", ins.FieldWrite)[0]
        q = Query("M.main")
        base = q.new_ref(None)
        value = q.new_ref(None)
        q.set_field(base, "v", value)
        outs = transfer_command(read_like, q, ctx)
        for out in outs:
            written = out.get_local(read_like.base)
            if written is not None:
                assert out.region_of(written) is None  # no pt() narrowing


class TestComparisonsBackwards:
    def test_determined_bool_applies_relation(self):
        program, pta, ctx = setup_ctx(
            "class M { static void main() { int i = 0; boolean t = i < 3; } }"
        )
        binop = cmds_of(program, "M.main", ins.BinOpCmd)[0]
        from repro.solver import LinExpr, eq

        q = Query("M.main")
        t = q.new_data()
        q.set_local(binop.lhs, t)
        q.add_pure(eq(LinExpr.var(t), LinExpr.constant(1)))  # t is true
        outs = transfer_command(binop, q, ctx)
        assert len(outs) == 1  # no case split needed

    def test_undetermined_bool_splits(self):
        program, pta, ctx = setup_ctx(
            "class M { static void main() { int i = 0; boolean t = i < 3; } }"
        )
        binop = cmds_of(program, "M.main", ins.BinOpCmd)[0]
        q = Query("M.main")
        t = q.new_data()
        q.set_local(binop.lhs, t)
        outs = transfer_command(binop, q, ctx)
        assert len(outs) == 2

    def test_ref_equality_unifies(self):
        program, pta, ctx = setup_ctx(
            "class M { static void main() {"
            " Object a = new Object(); Object b = a; boolean t = a == b; } }"
        )
        binop = cmds_of(program, "M.main", ins.BinOpCmd)[0]
        from repro.solver import LinExpr, eq

        q = Query("M.main")
        t = q.new_data()
        q.set_local(binop.lhs, t)
        q.add_pure(eq(LinExpr.var(t), LinExpr.constant(1)))
        (out,) = transfer_command(binop, q, ctx)
        va, vb = out.get_local("a"), out.get_local("b")
        assert out.find(va) is out.find(vb)
