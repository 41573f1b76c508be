"""Abstract syntax tree for the mini-Java surface language.

The AST is deliberately close to Java's concrete syntax; all desugaring
(``for`` loops, compound assignment, implicit ``this``) happens either in
the parser or during lowering to the structured IR (:mod:`repro.ir.builder`).

Expression nodes carry a ``type`` attribute that the type checker
(:mod:`repro.lang.types`) fills in; it is ``None`` on freshly parsed trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import SourcePosition


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Type:
    """Base class for surface types."""

    def is_reference(self) -> bool:
        return isinstance(self, (ClassType, ArrayType, NullType))


@dataclass(frozen=True)
class PrimType(Type):
    name: str  # "int" | "boolean" | "void"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ClassType(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayType(Type):
    elem: Type

    def __str__(self) -> str:
        return f"{self.elem}[]"


@dataclass(frozen=True)
class NullType(Type):
    """The type of the ``null`` literal; assignable to any reference type."""

    def __str__(self) -> str:
        return "null"


INT = PrimType("int")
BOOLEAN = PrimType("boolean")
VOID = PrimType("void")
NULL = NullType()
STRING = ClassType("String")
OBJECT = ClassType("Object")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    pos: SourcePosition
    type: Optional[Type] = field(default=None, init=False, compare=False)


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class NullLit(Expr):
    pass


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class NameRef(Expr):
    """An unresolved bare name; the type checker rewrites these."""

    name: str = ""


@dataclass
class VarRef(Expr):
    """A resolved reference to a local variable or parameter."""

    name: str = ""


@dataclass
class ClassRef(Expr):
    """A resolved reference to a class, used as the target of statics."""

    name: str = ""


@dataclass
class ThisRef(Expr):
    pass


@dataclass
class FieldAccess(Expr):
    target: Expr = None  # type: ignore[assignment]
    name: str = ""
    # Filled by the type checker: the class that declares the field, and
    # whether the access is static.
    decl_class: Optional[str] = field(default=None, compare=False)
    is_static: bool = field(default=False, compare=False)


@dataclass
class ArrayLength(Expr):
    """``a.length`` on an array-typed target (created by the checker)."""

    target: Expr = None  # type: ignore[assignment]


@dataclass
class ArrayIndex(Expr):
    target: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    """A method call. ``target`` is None for unqualified calls (resolved to
    implicit ``this`` or a static method of the enclosing class), an
    expression for instance calls, or a :class:`ClassRef` for static calls.
    """

    target: Optional[Expr] = None
    name: str = ""
    args: list[Expr] = field(default_factory=list)
    decl_class: Optional[str] = field(default=None, compare=False)
    is_static: bool = field(default=False, compare=False)


@dataclass
class NondetCall(Expr):
    """The ``nondet()`` builtin: a nondeterministic boolean."""


@dataclass
class SuperCall(Expr):
    """``super(args)``, only valid as the first statement of a constructor."""

    args: list[Expr] = field(default_factory=list)
    decl_class: Optional[str] = field(default=None, compare=False)


@dataclass
class NewObject(Expr):
    class_name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewArray(Expr):
    elem_type: Type = None  # type: ignore[assignment]
    size: Expr = None  # type: ignore[assignment]


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class Unary(Expr):
    op: str = ""  # "!" | "-"
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class Cast(Expr):
    """``(T) e`` — a checked downcast (class types only)."""

    target_type: Type = None  # type: ignore[assignment]
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class InstanceOf(Expr):
    """``e instanceof T``."""

    operand: Expr = None  # type: ignore[assignment]
    class_name: str = ""


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt:
    pos: SourcePosition


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class LocalDecl(Stmt):
    decl_type: Type = None  # type: ignore[assignment]
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class AssignStmt(Stmt):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    orelse: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Assert(Stmt):
    """``assert e;`` — desugars to ``if (!e) throw new Object();``."""

    cond: Expr = None  # type: ignore[assignment]


@dataclass
class Throw(Stmt):
    """``throw e;`` — terminates execution (exceptions are never caught,
    per the paper's model)."""

    value: Expr = None  # type: ignore[assignment]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param:
    type: Type
    name: str
    pos: SourcePosition


@dataclass
class FieldDecl:
    name: str
    decl_type: Type
    is_static: bool
    is_final: bool
    init: Optional[Expr]
    pos: SourcePosition


@dataclass
class MethodDecl:
    name: str
    params: list[Param]
    ret_type: Type
    body: Block
    is_static: bool
    is_constructor: bool
    pos: SourcePosition


@dataclass
class ClassDecl:
    name: str
    superclass: Optional[str]
    fields: list[FieldDecl]
    methods: list[MethodDecl]
    pos: SourcePosition
    #: Position of the closing brace.
    end: Optional[SourcePosition] = None


@dataclass
class CompilationUnit:
    classes: list[ClassDecl]


LValue = Union[VarRef, FieldAccess, ArrayIndex]
