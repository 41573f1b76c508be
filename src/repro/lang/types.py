"""Class table construction and type checking for the mini-Java language.

The type checker resolves every :class:`~repro.lang.ast.NameRef` to a local
variable, an (implicit-``this``) instance field, a static field of the
enclosing class, or a class name, and annotates every expression with its
static type. The IR builder relies on these resolutions being complete.

The class table always contains the two built-in classes ``Object`` (the
root of the hierarchy, no fields) and ``String``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from . import ast
from .errors import SourcePosition, TypeCheckError


@dataclass
class FieldInfo:
    name: str
    type: ast.Type
    is_static: bool
    is_final: bool
    decl_class: str
    init: Optional[ast.Expr]
    pos: SourcePosition


@dataclass
class MethodInfo:
    name: str
    params: list[ast.Param]
    ret_type: ast.Type
    is_static: bool
    is_constructor: bool
    decl_class: str
    body: ast.Block
    pos: SourcePosition

    @property
    def qualified_name(self) -> str:
        return f"{self.decl_class}.{self.name}"


@dataclass
class ClassInfo:
    name: str
    superclass: Optional[str]
    fields: dict[str, FieldInfo] = field(default_factory=dict)
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    pos: SourcePosition = field(default_factory=lambda: SourcePosition(0, 0))


class ClassTable:
    """All classes of a program, with hierarchy-aware lookups."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}
        origin = SourcePosition(0, 0)
        self.classes["Object"] = ClassInfo("Object", None, pos=origin)
        self.classes["String"] = ClassInfo("String", "Object", pos=origin)

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def get(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise TypeCheckError(f"unknown class {name!r}") from None

    def ancestors(self, name: str) -> Iterator[ClassInfo]:
        """Yield the class and all its superclasses, subclass first."""
        seen = set()
        current: Optional[str] = name
        while current is not None:
            if current in seen:
                raise TypeCheckError(f"cyclic inheritance involving {current!r}")
            seen.add(current)
            info = self.get(current)
            yield info
            current = info.superclass

    def is_subclass(self, sub: str, sup: str) -> bool:
        return any(info.name == sup for info in self.ancestors(sub))

    def subclasses(self, name: str) -> list[str]:
        """All classes that are ``name`` or a transitive subclass of it."""
        return [c for c in self.classes if self.is_subclass(c, name)]

    def lookup_field(self, class_name: str, field_name: str) -> Optional[FieldInfo]:
        for info in self.ancestors(class_name):
            if field_name in info.fields:
                return info.fields[field_name]
        return None

    def lookup_method(self, class_name: str, method_name: str) -> Optional[MethodInfo]:
        for info in self.ancestors(class_name):
            if method_name in info.methods:
                return info.methods[method_name]
        return None

    def constructor(self, class_name: str) -> Optional[MethodInfo]:
        """The constructor declared *directly* on ``class_name``, if any."""
        return self.get(class_name).methods.get("<init>")

    def site_is_instance(self, site, target: str) -> bool:
        """Dynamic type test for an allocation site (duck-typed: anything
        with ``kind`` and ``class_name``). Arrays are instances of Object
        only; unknown classes conservatively match only Object."""
        if getattr(site, "kind", "object") == "array":
            return target == "Object"
        class_name = site.class_name
        if class_name not in self.classes:
            return target == "Object"
        return self.is_subclass(class_name, target)

    def is_assignable(self, src: ast.Type, dst: ast.Type) -> bool:
        if src == dst:
            return True
        if isinstance(src, ast.NullType):
            return dst.is_reference()
        if isinstance(src, ast.ClassType) and isinstance(dst, ast.ClassType):
            return self.is_subclass(src.name, dst.name)
        if isinstance(src, ast.ArrayType):
            if isinstance(dst, ast.ClassType) and dst.name == "Object":
                return True
            if isinstance(dst, ast.ArrayType):
                return self.is_assignable(src.elem, dst.elem)
        return False


@dataclass
class CheckedProgram:
    """A type-checked program: the class table plus the original AST."""

    table: ClassTable
    unit: ast.CompilationUnit


def check_program(unit: ast.CompilationUnit) -> CheckedProgram:
    """Type-check ``unit`` in place and return the checked program."""
    table = ClassTable()
    declare_classes(table, unit.classes)
    check_classes(table, unit.classes)
    return CheckedProgram(table, unit)


def check_classes(table: ClassTable, decls: list[ast.ClassDecl]) -> None:
    """Type-check ``decls`` in place against ``table``, which already
    declares them (see :func:`declare_classes`)."""
    checker = _Checker(table)
    for cls in decls:
        checker.check_class(cls)


def declare_classes(table: ClassTable, decls: list[ast.ClassDecl]) -> None:
    """Add ``decls`` to ``table``: their names first, then each one's
    superclass, fields and methods, then an inheritance-cycle check over
    the whole table. ``decls`` may only refer to classes already in
    ``table`` or among themselves."""
    for cls in decls:
        if cls.name in table.classes:
            raise TypeCheckError(f"duplicate class {cls.name!r}", cls.pos)
        superclass = cls.superclass or "Object"
        table.classes[cls.name] = ClassInfo(cls.name, superclass, pos=cls.pos)
    for cls in decls:
        info = table.classes[cls.name]
        if info.superclass not in table.classes:
            raise TypeCheckError(
                f"class {cls.name!r} extends unknown class {info.superclass!r}", cls.pos
            )
        for fld in cls.fields:
            if fld.name in info.fields:
                raise TypeCheckError(
                    f"duplicate field {fld.name!r} in class {cls.name!r}", fld.pos
                )
            info.fields[fld.name] = FieldInfo(
                fld.name, fld.decl_type, fld.is_static, fld.is_final, cls.name, fld.init, fld.pos
            )
        for mth in cls.methods:
            if mth.name in info.methods:
                raise TypeCheckError(
                    f"duplicate method {mth.name!r} in class {cls.name!r}"
                    " (overloading is not supported)",
                    mth.pos,
                )
            info.methods[mth.name] = MethodInfo(
                mth.name,
                mth.params,
                mth.ret_type,
                mth.is_static,
                mth.is_constructor,
                cls.name,
                mth.body,
                mth.pos,
            )
    # Detect inheritance cycles eagerly.
    for name in table.classes:
        list(table.ancestors(name))


class _Scope:
    """A lexical scope of local variables."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.vars: dict[str, ast.Type] = {}

    def lookup(self, name: str) -> Optional[ast.Type]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.vars:
                return scope.vars[name]
            scope = scope.parent
        return None

    def declare(self, name: str, typ: ast.Type, pos: SourcePosition) -> None:
        if self.lookup(name) is not None:
            raise TypeCheckError(f"duplicate local variable {name!r}", pos)
        self.vars[name] = typ


class _Checker:
    def __init__(self, table: ClassTable) -> None:
        self.table = table
        self.current_class: str = ""
        self.current_method: Optional[MethodInfo] = None
        self._loop_depth = 0

    # -- declarations ----------------------------------------------------------

    def check_class(self, cls: ast.ClassDecl) -> None:
        self.current_class = cls.name
        info = self.table.get(cls.name)
        for fld in cls.fields:
            self._check_type_exists(fld.decl_type, fld.pos)
            if fld.init is not None:
                scope = _Scope()
                init_t = self.check_expr(fld.init, scope)
                if not self.table.is_assignable(init_t, fld.decl_type):
                    raise TypeCheckError(
                        f"cannot initialize field {fld.name!r} of type"
                        f" {fld.decl_type} with {init_t}",
                        fld.pos,
                    )
        for mth in cls.methods:
            self.check_method(info.methods[mth.name])

    def check_method(self, method: MethodInfo) -> None:
        self.current_method = method
        self._loop_depth = 0
        self._check_type_exists(method.ret_type, method.pos)
        scope = _Scope()
        for param in method.params:
            self._check_type_exists(param.type, param.pos)
            scope.declare(param.name, param.type, param.pos)
        self.check_stmt(method.body, scope)
        self.current_method = None

    def _check_type_exists(self, typ: ast.Type, pos: SourcePosition) -> None:
        if isinstance(typ, ast.ClassType) and typ.name not in self.table:
            raise TypeCheckError(f"unknown type {typ.name!r}", pos)
        if isinstance(typ, ast.ArrayType):
            self._check_type_exists(typ.elem, pos)

    # -- statements --------------------------------------------------------------

    def check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            inner = _Scope(scope)
            for child in stmt.stmts:
                self.check_stmt(child, inner)
        elif isinstance(stmt, ast.LocalDecl):
            self._check_type_exists(stmt.decl_type, stmt.pos)
            if stmt.init is not None:
                init_t = self.check_expr(stmt.init, scope)
                if not self.table.is_assignable(init_t, stmt.decl_type):
                    raise TypeCheckError(
                        f"cannot initialize {stmt.name!r} of type"
                        f" {stmt.decl_type} with {init_t}",
                        stmt.pos,
                    )
            scope.declare(stmt.name, stmt.decl_type, stmt.pos)
        elif isinstance(stmt, ast.AssignStmt):
            stmt.lhs = self._resolve(stmt.lhs, scope)
            lhs_t = self.check_expr(stmt.lhs, scope, resolved=True)
            if not isinstance(stmt.lhs, (ast.VarRef, ast.FieldAccess, ast.ArrayIndex)):
                raise TypeCheckError("invalid assignment target", stmt.pos)
            if isinstance(stmt.lhs, ast.FieldAccess):
                fld = self.table.lookup_field(
                    stmt.lhs.decl_class or "", stmt.lhs.name
                )
                if fld is not None and fld.is_final and not self._in_initializer(fld):
                    raise TypeCheckError(
                        f"cannot assign to final field {fld.name!r}", stmt.pos
                    )
            rhs_t = self.check_expr(stmt.rhs, scope)
            if not self.table.is_assignable(rhs_t, lhs_t):
                raise TypeCheckError(
                    f"cannot assign {rhs_t} to {lhs_t}", stmt.pos
                )
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._resolve(stmt.expr, scope)
            if not isinstance(stmt.expr, (ast.Call, ast.NewObject, ast.SuperCall, ast.NondetCall)):
                raise TypeCheckError("expression statement has no effect", stmt.pos)
            self.check_expr(stmt.expr, scope, resolved=True)
        elif isinstance(stmt, ast.If):
            cond_t = self.check_expr(stmt.cond, scope)
            if cond_t != ast.BOOLEAN:
                raise TypeCheckError(f"if condition must be boolean, got {cond_t}", stmt.pos)
            self.check_stmt(stmt.then, _Scope(scope))
            if stmt.orelse is not None:
                self.check_stmt(stmt.orelse, _Scope(scope))
        elif isinstance(stmt, ast.While):
            cond_t = self.check_expr(stmt.cond, scope)
            if cond_t != ast.BOOLEAN:
                raise TypeCheckError(
                    f"while condition must be boolean, got {cond_t}", stmt.pos
                )
            self._loop_depth += 1
            self.check_stmt(stmt.body, _Scope(scope))
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Return):
            method = self.current_method
            assert method is not None
            if stmt.value is None:
                if method.ret_type != ast.VOID:
                    raise TypeCheckError("missing return value", stmt.pos)
            else:
                if method.ret_type == ast.VOID:
                    raise TypeCheckError("void method cannot return a value", stmt.pos)
                value_t = self.check_expr(stmt.value, scope)
                if not self.table.is_assignable(value_t, method.ret_type):
                    raise TypeCheckError(
                        f"cannot return {value_t} from method returning"
                        f" {method.ret_type}",
                        stmt.pos,
                    )
        elif isinstance(stmt, ast.Assert):
            cond_t = self.check_expr(stmt.cond, scope)
            if cond_t != ast.BOOLEAN:
                raise TypeCheckError(
                    f"assert condition must be boolean, got {cond_t}", stmt.pos
                )
        elif isinstance(stmt, ast.Throw):
            value_t = self.check_expr(stmt.value, scope)
            if not value_t.is_reference():
                raise TypeCheckError(
                    f"throw needs a reference value, got {value_t}", stmt.pos
                )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if self._loop_depth == 0:
                raise TypeCheckError("break/continue outside of loop", stmt.pos)
        else:
            raise TypeCheckError(f"unknown statement {type(stmt).__name__}", stmt.pos)

    def _in_initializer(self, fld: FieldInfo) -> bool:
        method = self.current_method
        if method is None:
            return False
        if fld.is_static:
            return method.name == "<clinit>"
        return method.is_constructor and method.decl_class == fld.decl_class

    # -- expressions ---------------------------------------------------------------

    def _resolve(self, expr: ast.Expr, scope: _Scope) -> ast.Expr:
        """Rewrite bare names into locals, implicit-this fields, or classes."""
        if isinstance(expr, ast.NameRef):
            if scope.lookup(expr.name) is not None:
                return ast.VarRef(expr.pos, expr.name)
            fld = self.table.lookup_field(self.current_class, expr.name)
            if fld is not None:
                if fld.is_static:
                    target: ast.Expr = ast.ClassRef(expr.pos, fld.decl_class)
                else:
                    target = ast.ThisRef(expr.pos)
                return ast.FieldAccess(expr.pos, target, expr.name)
            if expr.name in self.table:
                return ast.ClassRef(expr.pos, expr.name)
            raise TypeCheckError(f"unresolved name {expr.name!r}", expr.pos)
        if isinstance(expr, ast.FieldAccess):
            expr.target = self._resolve(expr.target, scope)
        if isinstance(expr, ast.ArrayIndex):
            expr.target = self._resolve(expr.target, scope)
        if isinstance(expr, ast.Call) and expr.target is not None:
            expr.target = self._resolve(expr.target, scope)
        return expr

    def check_expr(self, expr: ast.Expr, scope: _Scope, resolved: bool = False) -> ast.Type:
        typ = self._check_expr(expr, scope, resolved)
        expr.type = typ
        return typ

    def _check_expr(self, expr: ast.Expr, scope: _Scope, resolved: bool) -> ast.Type:
        if isinstance(expr, ast.IntLit):
            return ast.INT
        if isinstance(expr, ast.BoolLit):
            return ast.BOOLEAN
        if isinstance(expr, ast.NullLit):
            return ast.NULL
        if isinstance(expr, ast.StringLit):
            return ast.STRING
        if isinstance(expr, ast.NondetCall):
            return ast.BOOLEAN
        if isinstance(expr, ast.ThisRef):
            method = self.current_method
            if method is None or method.is_static:
                raise TypeCheckError("'this' used in a static context", expr.pos)
            return ast.ClassType(self.current_class)
        if isinstance(expr, ast.NameRef):
            if resolved:
                raise TypeCheckError(f"unresolved name {expr.name!r}", expr.pos)
            replacement = self._resolve(expr, scope)
            typ = self.check_expr(replacement, scope, resolved=True)
            # Splice the resolution into the tree by mutating in place.
            expr.__class__ = replacement.__class__  # type: ignore[assignment]
            expr.__dict__.update(replacement.__dict__)
            return typ
        if isinstance(expr, ast.VarRef):
            typ = scope.lookup(expr.name)
            if typ is None:
                raise TypeCheckError(f"unknown variable {expr.name!r}", expr.pos)
            return typ
        if isinstance(expr, ast.ClassRef):
            if expr.name not in self.table:
                raise TypeCheckError(f"unknown class {expr.name!r}", expr.pos)
            return ast.ClassType(expr.name)
        if isinstance(expr, ast.FieldAccess):
            return self._check_field_access(expr, scope)
        if isinstance(expr, ast.ArrayLength):
            return ast.INT
        if isinstance(expr, ast.ArrayIndex):
            target_t = self.check_expr(expr.target, scope)
            if not isinstance(target_t, ast.ArrayType):
                raise TypeCheckError(f"indexing non-array type {target_t}", expr.pos)
            index_t = self.check_expr(expr.index, scope)
            if index_t != ast.INT:
                raise TypeCheckError(f"array index must be int, got {index_t}", expr.pos)
            return target_t.elem
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, ast.SuperCall):
            return self._check_super_call(expr, scope)
        if isinstance(expr, ast.NewObject):
            return self._check_new_object(expr, scope)
        if isinstance(expr, ast.NewArray):
            self._check_type_exists(expr.elem_type, expr.pos)
            size_t = self.check_expr(expr.size, scope)
            if size_t != ast.INT:
                raise TypeCheckError(f"array size must be int, got {size_t}", expr.pos)
            return ast.ArrayType(expr.elem_type)
        if isinstance(expr, ast.Binary):
            return self._check_binary(expr, scope)
        if isinstance(expr, ast.Cast):
            expr.operand = self._resolve(expr.operand, scope)
            operand_t = self.check_expr(expr.operand, scope, resolved=True)
            target = expr.target_type
            if not isinstance(target, ast.ClassType):
                raise TypeCheckError("only class-type casts are supported", expr.pos)
            self._check_type_exists(target, expr.pos)
            if not operand_t.is_reference():
                raise TypeCheckError(
                    f"cannot cast non-reference type {operand_t}", expr.pos
                )
            return target
        if isinstance(expr, ast.InstanceOf):
            expr.operand = self._resolve(expr.operand, scope)
            operand_t = self.check_expr(expr.operand, scope, resolved=True)
            if expr.class_name not in self.table:
                raise TypeCheckError(f"unknown class {expr.class_name!r}", expr.pos)
            if not operand_t.is_reference():
                raise TypeCheckError(
                    f"instanceof needs a reference, got {operand_t}", expr.pos
                )
            return ast.BOOLEAN
        if isinstance(expr, ast.Unary):
            operand_t = self.check_expr(expr.operand, scope)
            if expr.op == "!":
                if operand_t != ast.BOOLEAN:
                    raise TypeCheckError(f"'!' needs boolean, got {operand_t}", expr.pos)
                return ast.BOOLEAN
            if expr.op == "-":
                if operand_t != ast.INT:
                    raise TypeCheckError(f"unary '-' needs int, got {operand_t}", expr.pos)
                return ast.INT
            raise TypeCheckError(f"unknown unary operator {expr.op!r}", expr.pos)
        raise TypeCheckError(f"unknown expression {type(expr).__name__}", expr.pos)

    def _check_field_access(self, expr: ast.FieldAccess, scope: _Scope) -> ast.Type:
        target = self._resolve(expr.target, scope)
        expr.target = target
        if isinstance(target, ast.ClassRef):
            fld = self.table.lookup_field(target.name, expr.name)
            if fld is None or not fld.is_static:
                raise TypeCheckError(
                    f"no static field {expr.name!r} in class {target.name!r}", expr.pos
                )
            expr.decl_class = fld.decl_class
            expr.is_static = True
            return fld.type
        target_t = self.check_expr(target, scope, resolved=True)
        if isinstance(target_t, ast.ArrayType) and expr.name == "length":
            # Rewrite into a dedicated node so later phases need no special case.
            length = ast.ArrayLength(expr.pos, target)
            expr.__class__ = ast.ArrayLength  # type: ignore[assignment]
            expr.__dict__.clear()
            expr.__dict__.update(length.__dict__)
            return ast.INT
        if not isinstance(target_t, ast.ClassType):
            raise TypeCheckError(
                f"field access on non-object type {target_t}", expr.pos
            )
        fld = self.table.lookup_field(target_t.name, expr.name)
        if fld is None:
            raise TypeCheckError(
                f"no field {expr.name!r} in class {target_t.name!r}", expr.pos
            )
        if fld.is_static:
            raise TypeCheckError(
                f"static field {expr.name!r} accessed through an instance", expr.pos
            )
        expr.decl_class = fld.decl_class
        expr.is_static = False
        return fld.type

    def _check_call(self, expr: ast.Call, scope: _Scope) -> ast.Type:
        if expr.target is None:
            method = self.table.lookup_method(self.current_class, expr.name)
            if method is None:
                raise TypeCheckError(
                    f"no method {expr.name!r} in class {self.current_class!r}", expr.pos
                )
            if method.is_static:
                expr.target = ast.ClassRef(expr.pos, method.decl_class)
            else:
                if self.current_method is not None and self.current_method.is_static:
                    raise TypeCheckError(
                        f"instance method {expr.name!r} called from static context",
                        expr.pos,
                    )
                expr.target = ast.ThisRef(expr.pos)
            return self._check_call(expr, scope)
        target = self._resolve(expr.target, scope)
        expr.target = target
        if isinstance(target, ast.ClassRef):
            method = self.table.lookup_method(target.name, expr.name)
            if method is None or not method.is_static:
                raise TypeCheckError(
                    f"no static method {expr.name!r} in class {target.name!r}", expr.pos
                )
            expr.is_static = True
        else:
            target_t = self.check_expr(target, scope, resolved=True)
            if not isinstance(target_t, ast.ClassType):
                raise TypeCheckError(
                    f"method call on non-object type {target_t}", expr.pos
                )
            method = self.table.lookup_method(target_t.name, expr.name)
            if method is None:
                raise TypeCheckError(
                    f"no method {expr.name!r} in class {target_t.name!r}", expr.pos
                )
            if method.is_static:
                raise TypeCheckError(
                    f"static method {expr.name!r} called through an instance", expr.pos
                )
            expr.is_static = False
        expr.decl_class = method.decl_class
        self._check_args(method, expr.args, scope, expr.pos)
        return method.ret_type

    def _check_super_call(self, expr: ast.SuperCall, scope: _Scope) -> ast.Type:
        method = self.current_method
        if method is None or not method.is_constructor:
            raise TypeCheckError("super(...) outside of a constructor", expr.pos)
        info = self.table.get(self.current_class)
        if info.superclass is None:
            raise TypeCheckError("class has no superclass", expr.pos)
        ctor = None
        for ancestor in self.table.ancestors(info.superclass):
            if "<init>" in ancestor.methods:
                ctor = ancestor.methods["<init>"]
                break
        if ctor is None:
            if expr.args:
                raise TypeCheckError(
                    f"superclass {info.superclass!r} has no constructor taking"
                    f" {len(expr.args)} argument(s)",
                    expr.pos,
                )
            expr.decl_class = info.superclass
            return ast.VOID
        expr.decl_class = ctor.decl_class
        self._check_args(ctor, expr.args, scope, expr.pos)
        return ast.VOID

    def _check_new_object(self, expr: ast.NewObject, scope: _Scope) -> ast.Type:
        if expr.class_name not in self.table:
            raise TypeCheckError(f"unknown class {expr.class_name!r}", expr.pos)
        ctor = None
        for ancestor in self.table.ancestors(expr.class_name):
            if "<init>" in ancestor.methods:
                ctor = ancestor.methods["<init>"]
                break
        if ctor is None:
            if expr.args:
                raise TypeCheckError(
                    f"class {expr.class_name!r} has no constructor taking"
                    f" {len(expr.args)} argument(s)",
                    expr.pos,
                )
        else:
            self._check_args(ctor, expr.args, scope, expr.pos)
        return ast.ClassType(expr.class_name)

    def _check_args(
        self,
        method: MethodInfo,
        args: list[ast.Expr],
        scope: _Scope,
        pos: SourcePosition,
    ) -> None:
        if len(args) != len(method.params):
            raise TypeCheckError(
                f"method {method.qualified_name!r} expects {len(method.params)}"
                f" argument(s), got {len(args)}",
                pos,
            )
        for arg, param in zip(args, method.params):
            arg_t = self.check_expr(arg, scope)
            if not self.table.is_assignable(arg_t, param.type):
                raise TypeCheckError(
                    f"argument for {param.name!r} has type {arg_t},"
                    f" expected {param.type}",
                    pos,
                )

    def _check_binary(self, expr: ast.Binary, scope: _Scope) -> ast.Type:
        left_t = self.check_expr(expr.left, scope)
        right_t = self.check_expr(expr.right, scope)
        op = expr.op
        if op in ("+", "-", "*", "/", "%"):
            if left_t == ast.INT and right_t == ast.INT:
                return ast.INT
            raise TypeCheckError(f"operator {op!r} needs int operands", expr.pos)
        if op in ("<", "<=", ">", ">="):
            if left_t == ast.INT and right_t == ast.INT:
                return ast.BOOLEAN
            raise TypeCheckError(f"operator {op!r} needs int operands", expr.pos)
        if op in ("&&", "||"):
            if left_t == ast.BOOLEAN and right_t == ast.BOOLEAN:
                return ast.BOOLEAN
            raise TypeCheckError(f"operator {op!r} needs boolean operands", expr.pos)
        if op in ("==", "!="):
            ok = (
                (left_t == ast.INT and right_t == ast.INT)
                or (left_t == ast.BOOLEAN and right_t == ast.BOOLEAN)
                or (left_t.is_reference() and right_t.is_reference())
            )
            if not ok:
                raise TypeCheckError(
                    f"incomparable operand types {left_t} and {right_t}", expr.pos
                )
            return ast.BOOLEAN
        raise TypeCheckError(f"unknown binary operator {op!r}", expr.pos)
