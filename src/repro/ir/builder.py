"""Lowering from the type-checked AST to the structured IR.

Desugarings performed here (all standard, per Section 3 of the paper):

* ``if (e) s1 else s2``  →  ``(assume e; s1) [] (assume !e; s2)``
* ``while (e) s``        →  ``loop (assume e; s); assume !e``
* early ``return``/``break``/``continue``  →  boolean interrupt flags
  (``$fin`` per method, ``$brk``/``$cnt`` per loop) with guard choices on
  the statements that follow, so the IR stays purely structured;
* expression flattening into three-address atomic commands, with *pure*
  branch guards kept as expression trees on ``assume`` (this enables the
  executor's guard-relevance optimization);
* constructor synthesis: every class gets an ``<init>`` that runs the
  implicit or explicit ``super(...)`` call, then the instance field
  initializers, then the declared constructor body;
* ``<clinit>`` synthesis for static field initializers, invoked from the
  synthesized program entry ``$Program.$entry`` before ``main``.
"""

from __future__ import annotations

from typing import Optional

from ..lang import ast
from ..lang.errors import FrontendError, SourcePosition
from ..lang.types import CheckedProgram, ClassTable, MethodInfo
from . import instructions as ins
from .program import CLINIT, ENTRY_CLASS, FIN_VAR, INIT, RET_VAR, IRMethod, IRProgram
from .stmts import AtomicStmt, Choice, Loop, Seq, Stmt, seq


class LoweringError(FrontendError):
    """Raised when a construct cannot be lowered to the IR."""


def build_program(checked: CheckedProgram, want_entry: bool = True) -> IRProgram:
    """Lower a checked program to IR, synthesize the entry, assign labels."""
    builder = _Builder(checked.table)
    for cls in checked.unit.classes:
        builder.lower_class(cls)
    builder.synthesize_builtin_inits(checked.unit)
    if want_entry:
        builder.synthesize_entry(checked.unit)
    program = builder.program
    program.assign_labels()
    return program


def _is_ref(typ: Optional[ast.Type]) -> bool:
    return typ is not None and typ.is_reference()


def site_stem(class_name: str, kind: str) -> str:
    """The hint of an allocation site, before its per-stem ordinal."""
    if kind == "array":
        return "arr"
    if kind == "string":
        return "str"
    return class_name[0].lower() + class_name[1:]


class _Builder:
    def __init__(self, table: ClassTable, hints: Optional[dict] = None) -> None:
        self.table = table
        self.program = IRProgram(table)
        self._site_counter = 0
        #: Sites allocated so far per hint stem. A builder that lowers one
        #: class starts from the counts of the classes lowered before it,
        #: so its hints match a whole-program build.
        self._hint_counters: dict[str, int] = dict(hints or {})
        self._classes_with_clinit: list[str] = []

    # -- allocation sites -------------------------------------------------------

    def fresh_site(self, class_name: str, method: str, kind: str) -> ins.AllocSite:
        stem = site_stem(class_name, kind)
        count = self._hint_counters.get(stem, 0)
        self._hint_counters[stem] = count + 1
        site = ins.AllocSite(
            self._site_counter, class_name, method, kind, hint=f"{stem}{count}"
        )
        self._site_counter += 1
        self.program.alloc_sites.append(site)
        return site

    # -- class lowering ------------------------------------------------------------

    def lower_class(self, cls: ast.ClassDecl) -> None:
        info = self.table.get(cls.name)
        declared_ctor = info.methods.get(INIT)
        self.program.add_method(self._lower_constructor(cls, declared_ctor))
        for mth in cls.methods:
            if mth.is_constructor:
                continue
            minfo = info.methods[mth.name]
            lowerer = _MethodLowerer(self, cls.name, minfo)
            self.program.add_method(lowerer.lower(minfo.body))
        static_inits = [
            fld for fld in cls.fields if fld.is_static and fld.init is not None
        ]
        if static_inits:
            self._classes_with_clinit.append(cls.name)
            clinit = MethodInfo(
                name=CLINIT,
                params=[],
                ret_type=ast.VOID,
                is_static=True,
                is_constructor=False,
                decl_class=cls.name,
                body=ast.Block(cls.pos, []),
                pos=cls.pos,
            )
            lowerer = _MethodLowerer(self, cls.name, clinit)
            stmts: list[Stmt] = []
            for fld in static_inits:
                assert fld.init is not None
                pre, atom = lowerer.lower_expr(fld.init)
                stmts.extend(pre)
                stmts.append(
                    lowerer.atomic(
                        ins.StaticWrite(cls.name, fld.name, atom), fld.pos
                    )
                )
            self.program.add_method(lowerer.finish(seq(stmts)))

    def _lower_constructor(
        self, cls: ast.ClassDecl, declared: Optional[MethodInfo]
    ) -> IRMethod:
        info = self.table.get(cls.name)
        params = declared.params if declared is not None else []
        ctor_info = MethodInfo(
            name=INIT,
            params=params,
            ret_type=ast.VOID,
            is_static=False,
            is_constructor=True,
            decl_class=cls.name,
            body=declared.body if declared is not None else ast.Block(cls.pos, []),
            pos=cls.pos,
        )
        lowerer = _MethodLowerer(self, cls.name, ctor_info)
        stmts: list[Stmt] = []
        body_stmts = list(ctor_info.body.stmts)
        explicit_super: Optional[ast.SuperCall] = None
        if (
            body_stmts
            and isinstance(body_stmts[0], ast.ExprStmt)
            and isinstance(body_stmts[0].expr, ast.SuperCall)
        ):
            explicit_super = body_stmts[0].expr
            body_stmts = body_stmts[1:]
        for stmt in body_stmts:
            for sub in _walk_ast(stmt):
                if isinstance(sub, ast.ExprStmt) and isinstance(sub.expr, ast.SuperCall):
                    raise LoweringError(
                        "super(...) must be the first statement of a constructor",
                        sub.pos,
                    )
        # Super-constructor call (explicit or implicit).
        if info.superclass is not None:
            if explicit_super is not None:
                args: list[ins.Atom] = []
                for arg in explicit_super.args:
                    pre, atom = lowerer.lower_expr(arg)
                    stmts.extend(pre)
                    args.append(atom)
                target_class = explicit_super.decl_class or info.superclass
                stmts.append(
                    lowerer.atomic(
                        ins.Invoke(None, "this", INIT, args, target_class, "special"),
                        explicit_super.pos,
                    )
                )
            else:
                super_ctor = self.table.get(info.superclass).methods.get(INIT)
                if super_ctor is not None and super_ctor.params:
                    raise LoweringError(
                        f"constructor of {cls.name!r} must explicitly call"
                        f" super(...) because {info.superclass!r} has a"
                        " parameterized constructor",
                        cls.pos,
                    )
                stmts.append(
                    lowerer.atomic(
                        ins.Invoke(None, "this", INIT, [], info.superclass, "special"),
                        cls.pos,
                    )
                )
        # Instance field initializers declared on this class.
        for fld in cls.fields:
            if fld.is_static or fld.init is None:
                continue
            pre, atom = lowerer.lower_expr(fld.init)
            stmts.extend(pre)
            stmts.append(
                lowerer.atomic(ins.FieldWrite("this", fld.name, atom), fld.pos)
            )
        # The declared constructor body.
        body_ir, _ = lowerer.lower_block_stmts(body_stmts)
        stmts.append(body_ir)
        return lowerer.finish(seq(stmts))

    def synthesize_builtin_inits(self, unit: ast.CompilationUnit) -> None:
        """Constructors for built-in classes not declared in the source."""
        declared = {cls.name for cls in unit.classes}
        for name in ("Object", "String"):
            if name in declared:
                continue
            body = seq([])
            if name != "Object":
                body = seq(
                    [AtomicStmt(ins.Invoke(None, "this", INIT, [], "Object", "special"))]
                )
            self.program.add_method(
                IRMethod(name, INIT, ["this"], body, False, True, False, [True])
            )

    def synthesize_entry(self, unit: ast.CompilationUnit) -> None:
        mains = [
            cls.name
            for cls in unit.classes
            for mth in cls.methods
            if mth.name == "main" and mth.is_static
        ]
        if not mains:
            return
        if len(mains) > 1:
            raise LoweringError(f"multiple main methods: {', '.join(mains)}")
        main_class = mains[0]
        main_info = self.table.lookup_method(main_class, "main")
        assert main_info is not None
        if main_info.params:
            raise LoweringError("main() must take no parameters", main_info.pos)
        stmts: list[Stmt] = [
            AtomicStmt(ins.Invoke(None, None, CLINIT, [], cname, "static"))
            for cname in self._classes_with_clinit
        ]
        stmts.append(AtomicStmt(ins.Invoke(None, None, "main", [], main_class, "static")))
        entry = IRMethod(ENTRY_CLASS, "$entry", [], seq(stmts), True)
        self.program.add_method(entry)
        self.program.entry = entry.qualified_name


def _walk_ast(stmt: ast.Stmt):
    yield stmt
    if isinstance(stmt, ast.Block):
        for child in stmt.stmts:
            yield from _walk_ast(child)
    elif isinstance(stmt, ast.If):
        yield from _walk_ast(stmt.then)
        if stmt.orelse is not None:
            yield from _walk_ast(stmt.orelse)
    elif isinstance(stmt, ast.While):
        yield from _walk_ast(stmt.body)


def _has_early_return(body: ast.Block) -> bool:
    """True if some return is not in tail position."""
    tails: set[int] = set()

    def mark_tails(stmt: ast.Stmt) -> None:
        tails.add(id(stmt))
        if isinstance(stmt, ast.Block) and stmt.stmts:
            mark_tails(stmt.stmts[-1])
        elif isinstance(stmt, ast.If):
            mark_tails(stmt.then)
            if stmt.orelse is not None:
                mark_tails(stmt.orelse)

    mark_tails(body)
    for stmt in _walk_ast(body):
        if isinstance(stmt, ast.Return) and id(stmt) not in tails:
            return True
    return False


class _LoopContext:
    """Interrupt flags for one lexical loop."""

    def __init__(self, index: int) -> None:
        self.brk_var = f"$brk{index}"
        self.cnt_var = f"$cnt{index}"
        self.brk_used = False
        self.cnt_used = False


class _MethodLowerer:
    """Lowers one method body to structured IR."""

    def __init__(self, builder: _Builder, class_name: str, minfo: MethodInfo) -> None:
        self.builder = builder
        self.table = builder.table
        self.class_name = class_name
        self.minfo = minfo
        self._temp_counter = 0
        self._loop_counter = 0
        self._used_names: set[str] = set()
        self._scopes: list[dict[str, str]] = [{}]
        self._loops: list[_LoopContext] = []
        self.needs_fin = _has_early_return(minfo.body)
        self.params: list[str] = []
        self.param_ref: list[bool] = []
        if not minfo.is_static:
            self.params.append("this")
            self.param_ref.append(True)
            self._used_names.add("this")
        for param in minfo.params:
            self.params.append(param.name)
            self.param_ref.append(_is_ref(param.type))
            self._used_names.add(param.name)
            self._scopes[0][param.name] = param.name

    # -- small helpers -----------------------------------------------------------

    def atomic(self, cmd: ins.Command, pos: Optional[SourcePosition] = None) -> AtomicStmt:
        if pos is not None:
            cmd.pos = pos
        return AtomicStmt(cmd)

    def fresh_temp(self) -> str:
        name = f"$t{self._temp_counter}"
        self._temp_counter += 1
        return name

    def declare_local(self, name: str) -> str:
        ir_name = name
        k = 1
        while ir_name in self._used_names:
            ir_name = f"{name}${k}"
            k += 1
        self._used_names.add(ir_name)
        self._scopes[-1][name] = ir_name
        return ir_name

    def lookup_local(self, name: str) -> str:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise LoweringError(f"unknown local {name!r} during lowering")

    def qname(self) -> str:
        return f"{self.class_name}.{self.minfo.name}"

    def finish(self, body: Stmt) -> IRMethod:
        stmts: list[Stmt] = []
        if self.needs_fin:
            stmts.append(self.atomic(ins.Assign(FIN_VAR, ins.BoolAtom(False))))
        stmts.append(body)
        return IRMethod(
            self.class_name,
            self.minfo.name,
            self.params,
            seq(stmts),
            self.minfo.is_static,
            ret_is_void=self.minfo.ret_type == ast.VOID,
            ret_is_ref=_is_ref(self.minfo.ret_type),
            param_ref=self.param_ref,
        )

    def lower(self, body: ast.Block) -> IRMethod:
        ir, _ = self.lower_block_stmts(body.stmts)
        return self.finish(ir)

    # -- statements -----------------------------------------------------------------

    def lower_block_stmts(self, stmts: list[ast.Stmt]) -> tuple[Stmt, set[str]]:
        """Lower a statement list; returns (ir, interrupt flags possibly set).

        When a statement may set an interrupt flag (early return / break /
        continue), the remaining statements are guarded by a choice on the
        negation of those flags.
        """
        self._scopes.append({})
        try:
            return self._lower_seq(stmts)
        finally:
            self._scopes.pop()

    def _lower_seq(self, stmts: list[ast.Stmt]) -> tuple[Stmt, set[str]]:
        out: list[Stmt] = []
        all_flags: set[str] = set()
        for i, stmt in enumerate(stmts):
            ir, flags = self.lower_stmt(stmt)
            out.append(ir)
            all_flags |= flags
            if flags and i < len(stmts) - 1:
                rest, rest_flags = self._lower_seq(stmts[i + 1 :])
                all_flags |= rest_flags
                guard = _or_flags(flags)
                out.append(
                    Choice(
                        [
                            seq([self.atomic(ins.Assume(guard, False)), rest]),
                            self.atomic(ins.Assume(guard, True)),
                        ]
                    )
                )
                return seq(out), all_flags
        return seq(out), all_flags

    def lower_stmt(self, stmt: ast.Stmt) -> tuple[Stmt, set[str]]:
        if isinstance(stmt, ast.Block):
            return self.lower_block_stmts(stmt.stmts)
        if isinstance(stmt, ast.LocalDecl):
            return self._lower_local_decl(stmt), set()
        if isinstance(stmt, ast.AssignStmt):
            return self._lower_assign(stmt), set()
        if isinstance(stmt, ast.ExprStmt):
            pre, _ = self.lower_expr(stmt.expr, want_value=False)
            return seq(pre), set()
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt)
        if isinstance(stmt, ast.Return):
            return self._lower_return(stmt)
        if isinstance(stmt, ast.Throw):
            pre, var = self.lower_to_var(stmt.value)
            pre.append(self.atomic(ins.ThrowCmd(var), stmt.pos))
            # Nothing after a throw executes; no interrupt flag is needed
            # because the ThrowCmd itself blocks all fall-through.
            return seq(pre), set()
        if isinstance(stmt, ast.Assert):
            # assert e  ==  (assume e) [] (assume !e; throw fresh)
            pre, guard = self.lower_guard(stmt.cond)
            temp = self.fresh_temp()
            site = self.builder.fresh_site("Object", self.qname(), "object")
            failing = seq(
                [
                    self.atomic(ins.Assume(guard, False), stmt.pos),
                    self.atomic(ins.New(temp, site), stmt.pos),
                    self.atomic(ins.ThrowCmd(temp), stmt.pos),
                ]
            )
            passing = self.atomic(ins.Assume(guard, True), stmt.pos)
            return seq(pre + [Choice([passing, failing])]), set()
        if isinstance(stmt, ast.Break):
            if not self._loops:
                raise LoweringError("break outside loop", stmt.pos)
            ctx = self._loops[-1]
            ctx.brk_used = True
            ir = self.atomic(ins.Assign(ctx.brk_var, ins.BoolAtom(True)), stmt.pos)
            return ir, {ctx.brk_var}
        if isinstance(stmt, ast.Continue):
            if not self._loops:
                raise LoweringError("continue outside loop", stmt.pos)
            ctx = self._loops[-1]
            ctx.cnt_used = True
            ir = self.atomic(ins.Assign(ctx.cnt_var, ins.BoolAtom(True)), stmt.pos)
            return ir, {ctx.cnt_var}
        raise LoweringError(f"cannot lower {type(stmt).__name__}", stmt.pos)

    def _lower_local_decl(self, stmt: ast.LocalDecl) -> Stmt:
        pre: list[Stmt] = []
        if stmt.init is not None:
            init_pre, atom = self.lower_expr(stmt.init)
            pre.extend(init_pre)
        else:
            atom = _default_atom(stmt.decl_type)
        ir_name = self.declare_local(stmt.name)
        pre.append(self.atomic(ins.Assign(ir_name, atom), stmt.pos))
        return seq(pre)

    def _lower_assign(self, stmt: ast.AssignStmt) -> Stmt:
        lhs = stmt.lhs
        if isinstance(lhs, ast.VarRef):
            ir_name = self.lookup_local(lhs.name)
            pre, atom = self.lower_expr(stmt.rhs)
            pre.append(self.atomic(ins.Assign(ir_name, atom), stmt.pos))
            return seq(pre)
        if isinstance(lhs, ast.FieldAccess):
            if lhs.is_static:
                assert lhs.decl_class is not None
                pre, atom = self.lower_expr(stmt.rhs)
                pre.append(
                    self.atomic(
                        ins.StaticWrite(lhs.decl_class, lhs.name, atom), stmt.pos
                    )
                )
                return seq(pre)
            pre, base_var = self.lower_to_var(lhs.target)
            rhs_pre, atom = self.lower_expr(stmt.rhs)
            pre.extend(rhs_pre)
            pre.append(
                self.atomic(ins.FieldWrite(base_var, lhs.name, atom), stmt.pos)
            )
            return seq(pre)
        if isinstance(lhs, ast.ArrayIndex):
            pre, base_var = self.lower_to_var(lhs.target)
            idx_pre, idx_atom = self.lower_expr(lhs.index)
            pre.extend(idx_pre)
            rhs_pre, atom = self.lower_expr(stmt.rhs)
            pre.extend(rhs_pre)
            pre.append(
                self.atomic(ins.ArrayWrite(base_var, idx_atom, atom), stmt.pos)
            )
            return seq(pre)
        raise LoweringError("invalid assignment target", stmt.pos)

    def _lower_if(self, stmt: ast.If) -> tuple[Stmt, set[str]]:
        pre, guard = self.lower_guard(stmt.cond)
        then_ir, then_flags = self.lower_stmt(stmt.then)
        then_branch = seq([self.atomic(ins.Assume(guard, True), stmt.pos), then_ir])
        if stmt.orelse is not None:
            else_ir, else_flags = self.lower_stmt(stmt.orelse)
        else:
            else_ir, else_flags = seq([]), set()
        else_branch = seq([self.atomic(ins.Assume(guard, False), stmt.pos), else_ir])
        choice = Choice([then_branch, else_branch])
        return seq(pre + [choice]), then_flags | else_flags

    def _lower_while(self, stmt: ast.While) -> tuple[Stmt, set[str]]:
        ctx = _LoopContext(self._loop_counter)
        self._loop_counter += 1
        self._loops.append(ctx)
        pre, guard = self.lower_guard(stmt.cond)
        body_ir, body_flags = self.lower_stmt(stmt.body)
        self._loops.pop()

        # Flags that terminate iteration: break and early return.
        exit_flags = set()
        if ctx.brk_used:
            exit_flags.add(ctx.brk_var)
        if FIN_VAR in body_flags:
            exit_flags.add(FIN_VAR)

        iter_stmts: list[Stmt] = []
        if ctx.cnt_used:
            iter_stmts.append(self.atomic(ins.Assign(ctx.cnt_var, ins.BoolAtom(False))))
        if exit_flags:
            iter_stmts.append(
                self.atomic(ins.Assume(_or_flags(exit_flags), False), stmt.pos)
            )
        iter_stmts.extend(pre)
        iter_stmts.append(self.atomic(ins.Assume(guard, True), stmt.pos))
        iter_stmts.append(body_ir)
        loop = Loop(seq(iter_stmts))

        out: list[Stmt] = []
        if ctx.brk_used:
            out.append(self.atomic(ins.Assign(ctx.brk_var, ins.BoolAtom(False))))
        out.append(loop)
        normal_exit = seq(pre + [self.atomic(ins.Assume(guard, False), stmt.pos)])
        if exit_flags:
            flag_expr = _or_flags(exit_flags)
            out.append(
                Choice(
                    [
                        seq([self.atomic(ins.Assume(flag_expr, False)), normal_exit]),
                        self.atomic(ins.Assume(flag_expr, True)),
                    ]
                )
            )
        else:
            out.append(normal_exit)
        if ctx.brk_used:
            out.append(self.atomic(ins.Assign(ctx.brk_var, ins.BoolAtom(False))))
        # Break/continue are absorbed by this loop; only $fin escapes.
        escaping = body_flags & {FIN_VAR}
        return seq(out), escaping

    def _lower_return(self, stmt: ast.Return) -> tuple[Stmt, set[str]]:
        out: list[Stmt] = []
        if stmt.value is not None:
            pre, atom = self.lower_expr(stmt.value)
            out.extend(pre)
            out.append(self.atomic(ins.Assign(RET_VAR, atom), stmt.pos))
        if self.needs_fin:
            out.append(self.atomic(ins.Assign(FIN_VAR, ins.BoolAtom(True)), stmt.pos))
            return seq(out), {FIN_VAR}
        return seq(out), set()

    # -- guards -------------------------------------------------------------------

    def lower_guard(self, expr: ast.Expr) -> tuple[list[Stmt], ins.PureExpr]:
        """Lower a branch condition, keeping it symbolic where possible."""
        pure = self._try_pure(expr)
        if pure is not None:
            return [], pure
        if isinstance(expr, ast.Binary) and expr.op in ("&&", "||", "==", "!=", "<", "<=", ">", ">="):
            lhs_pre, lhs_pure = self.lower_guard(expr.left)
            rhs_pre, rhs_pure = self.lower_guard(expr.right)
            is_ref = expr.op in ("==", "!=") and (
                _is_ref(expr.left.type) or _is_ref(expr.right.type)
            )
            return lhs_pre + rhs_pre, ins.PBin(
                expr.op, lhs_pure, rhs_pure, ref_operands=is_ref
            )
        if isinstance(expr, ast.Unary) and expr.op == "!":
            pre, inner = self.lower_guard(expr.operand)
            return pre, ins.PNot(inner)
        pre, atom = self.lower_expr(expr)
        return pre, _atom_to_pure(atom, self)

    def _try_pure(self, expr: ast.Expr) -> Optional[ins.PureExpr]:
        if isinstance(expr, ast.VarRef):
            return ins.PVar(self.lookup_local(expr.name))
        if isinstance(expr, ast.ThisRef):
            return ins.PVar("this")
        if isinstance(expr, ast.IntLit):
            return ins.PInt(expr.value)
        if isinstance(expr, ast.BoolLit):
            return ins.PBool(expr.value)
        if isinstance(expr, ast.NullLit):
            return ins.PNull()
        if isinstance(expr, ast.FieldAccess):
            if expr.is_static:
                assert expr.decl_class is not None
                return ins.PStatic(expr.decl_class, expr.name)
            base = self._try_pure(expr.target)
            if base is None:
                return None
            return ins.PField(base, expr.name)
        if isinstance(expr, ast.Binary):
            left = self._try_pure(expr.left)
            right = self._try_pure(expr.right)
            if left is None or right is None:
                return None
            is_ref = expr.op in ("==", "!=") and (
                _is_ref(expr.left.type) or _is_ref(expr.right.type)
            )
            return ins.PBin(expr.op, left, right, ref_operands=is_ref)
        if isinstance(expr, ast.Unary):
            operand = self._try_pure(expr.operand)
            if operand is None:
                return None
            if expr.op == "!":
                return ins.PNot(operand)
            return ins.PBin("-", ins.PInt(0), operand)
        return None

    # -- expressions -----------------------------------------------------------------

    def lower_to_var(self, expr: ast.Expr) -> tuple[list[Stmt], str]:
        pre, atom = self.lower_expr(expr)
        if isinstance(atom, ins.VarAtom):
            return pre, atom.name
        temp = self.fresh_temp()
        pre.append(self.atomic(ins.Assign(temp, atom), expr.pos))
        return pre, temp

    def lower_expr(
        self, expr: ast.Expr, want_value: bool = True
    ) -> tuple[list[Stmt], ins.Atom]:
        if isinstance(expr, ast.IntLit):
            return [], ins.IntAtom(expr.value)
        if isinstance(expr, ast.BoolLit):
            return [], ins.BoolAtom(expr.value)
        if isinstance(expr, ast.NullLit):
            return [], ins.NullAtom()
        if isinstance(expr, ast.StringLit):
            temp = self.fresh_temp()
            site = self.builder.fresh_site("String", self.qname(), "string")
            return [self.atomic(ins.New(temp, site), expr.pos)], ins.VarAtom(temp)
        if isinstance(expr, ast.VarRef):
            return [], ins.VarAtom(self.lookup_local(expr.name))
        if isinstance(expr, ast.ThisRef):
            return [], ins.VarAtom("this")
        if isinstance(expr, ast.FieldAccess):
            temp = self.fresh_temp()
            if expr.is_static:
                assert expr.decl_class is not None
                cmd: ins.Command = ins.StaticRead(temp, expr.decl_class, expr.name)
                return [self.atomic(cmd, expr.pos)], ins.VarAtom(temp)
            pre, base_var = self.lower_to_var(expr.target)
            pre.append(self.atomic(ins.FieldRead(temp, base_var, expr.name), expr.pos))
            return pre, ins.VarAtom(temp)
        if isinstance(expr, ast.ArrayLength):
            pre, base_var = self.lower_to_var(expr.target)
            temp = self.fresh_temp()
            pre.append(self.atomic(ins.ArrayLen(temp, base_var), expr.pos))
            return pre, ins.VarAtom(temp)
        if isinstance(expr, ast.ArrayIndex):
            pre, base_var = self.lower_to_var(expr.target)
            idx_pre, idx_atom = self.lower_expr(expr.index)
            pre.extend(idx_pre)
            temp = self.fresh_temp()
            pre.append(self.atomic(ins.ArrayRead(temp, base_var, idx_atom), expr.pos))
            return pre, ins.VarAtom(temp)
        if isinstance(expr, ast.NondetCall):
            temp = self.fresh_temp()
            return [self.atomic(ins.Nondet(temp), expr.pos)], ins.VarAtom(temp)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, want_value)
        if isinstance(expr, ast.SuperCall):
            raise LoweringError(
                "super(...) must be the first statement of a constructor", expr.pos
            )
        if isinstance(expr, ast.NewObject):
            return self._lower_new_object(expr)
        if isinstance(expr, ast.NewArray):
            pre, size_atom = self.lower_expr(expr.size)
            temp = self.fresh_temp()
            elem = str(expr.elem_type)
            site = self.builder.fresh_site(elem, self.qname(), "array")
            pre.append(self.atomic(ins.NewArray(temp, site, size_atom), expr.pos))
            return pre, ins.VarAtom(temp)
        if isinstance(expr, ast.Cast):
            pre, src = self.lower_to_var(expr.operand)
            temp = self.fresh_temp()
            assert isinstance(expr.target_type, ast.ClassType)
            pre.append(
                self.atomic(
                    ins.CastCmd(temp, expr.target_type.name, src), expr.pos
                )
            )
            return pre, ins.VarAtom(temp)
        if isinstance(expr, ast.InstanceOf):
            pre, src = self.lower_to_var(expr.operand)
            temp = self.fresh_temp()
            pre.append(
                self.atomic(ins.InstanceOfCmd(temp, src, expr.class_name), expr.pos)
            )
            return pre, ins.VarAtom(temp)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Unary):
            pre, atom = self.lower_expr(expr.operand)
            temp = self.fresh_temp()
            pre.append(self.atomic(ins.UnOpCmd(temp, expr.op, atom), expr.pos))
            return pre, ins.VarAtom(temp)
        raise LoweringError(f"cannot lower {type(expr).__name__}", expr.pos)

    def _lower_call(
        self, expr: ast.Call, want_value: bool
    ) -> tuple[list[Stmt], ins.Atom]:
        assert expr.decl_class is not None
        pre: list[Stmt] = []
        receiver: Optional[str] = None
        if not expr.is_static:
            assert expr.target is not None
            recv_pre, receiver = self.lower_to_var(expr.target)
            pre.extend(recv_pre)
        args: list[ins.Atom] = []
        for arg in expr.args:
            arg_pre, atom = self.lower_expr(arg)
            pre.extend(arg_pre)
            args.append(atom)
        lhs: Optional[str] = None
        if want_value and expr.type != ast.VOID:
            lhs = self.fresh_temp()
        kind = "static" if expr.is_static else "virtual"
        pre.append(
            self.atomic(
                ins.Invoke(lhs, receiver, expr.name, args, expr.decl_class, kind),
                expr.pos,
            )
        )
        if lhs is None:
            return pre, ins.NullAtom()
        return pre, ins.VarAtom(lhs)

    def _lower_new_object(self, expr: ast.NewObject) -> tuple[list[Stmt], ins.Atom]:
        pre: list[Stmt] = []
        args: list[ins.Atom] = []
        for arg in expr.args:
            arg_pre, atom = self.lower_expr(arg)
            pre.extend(arg_pre)
            args.append(atom)
        temp = self.fresh_temp()
        site = self.builder.fresh_site(expr.class_name, self.qname(), "object")
        pre.append(self.atomic(ins.New(temp, site), expr.pos))
        pre.append(
            self.atomic(
                ins.Invoke(None, temp, INIT, args, expr.class_name, "special"),
                expr.pos,
            )
        )
        return pre, ins.VarAtom(temp)

    def _lower_binary(self, expr: ast.Binary) -> tuple[list[Stmt], ins.Atom]:
        pre, left = self.lower_expr(expr.left)
        rhs_pre, right = self.lower_expr(expr.right)
        pre.extend(rhs_pre)
        temp = self.fresh_temp()
        cmd = ins.BinOpCmd(temp, expr.op, left, right)
        if expr.op in ("==", "!=") and _is_ref(expr.left.type):
            cmd.ref_operands = True
        pre.append(self.atomic(cmd, expr.pos))
        return pre, ins.VarAtom(temp)


def _or_flags(flags: set[str]) -> ins.PureExpr:
    exprs: list[ins.PureExpr] = [ins.PVar(name) for name in sorted(flags)]
    result = exprs[0]
    for nxt in exprs[1:]:
        result = ins.PBin("||", result, nxt)
    return result


def _atom_to_pure(atom: ins.Atom, lowerer: "_MethodLowerer") -> ins.PureExpr:
    if isinstance(atom, ins.VarAtom):
        return ins.PVar(atom.name)
    if isinstance(atom, ins.IntAtom):
        return ins.PInt(atom.value)
    if isinstance(atom, ins.BoolAtom):
        return ins.PBool(atom.value)
    return ins.PNull()


def _default_atom(typ: ast.Type) -> ins.Atom:
    if typ == ast.INT:
        return ins.IntAtom(0)
    if typ == ast.BOOLEAN:
        return ins.BoolAtom(False)
    return ins.NullAtom()
