"""Recursive-descent parser for the mini-Java surface language.

The parser performs purely syntactic desugaring:

* ``for (init; cond; update) body`` becomes ``{ init; while (cond) { body;
  update; } }`` (note: ``continue`` inside a desugared ``for`` therefore
  skips the update, so the benchmark programs avoid that construct);
* ``x++`` / ``x--`` statements become ``x = x + 1`` / ``x = x - 1``;
* ``x += e`` / ``x -= e`` become ``x = x + e`` / ``x = x - e``.

Name resolution (locals vs fields vs classes) is left to the type checker.
"""

from __future__ import annotations

from typing import Optional

from . import ast
from .errors import ParseError
from .lexer import Token, tokenize

_PRIM_TYPES = {"int": ast.INT, "boolean": ast.BOOLEAN, "void": ast.VOID}


def parse_program(source: str) -> ast.CompilationUnit:
    """Parse a complete compilation unit (a sequence of class declarations)."""
    return Parser(tokenize(source)).parse_unit()


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._idx = 0

    # -- token stream helpers ------------------------------------------------

    # The token list ends with EOF and ``_idx`` never moves past it, so only
    # lookahead needs clamping.

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self._tokens[min(self._idx + offset, len(self._tokens) - 1)]
        return self._tokens[self._idx]

    def _next(self) -> Token:
        tok = self._tokens[self._idx]
        if tok.kind != "eof":
            self._idx += 1
        return tok

    def _expect_op(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_op(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return self._next()

    def _expect_keyword(self, text: str) -> Token:
        tok = self._peek()
        if not tok.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return self._next()

    def _expect_ident(self) -> Token:
        tok = self._peek()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, found {tok.text!r}", tok.pos)
        return self._next()

    def _accept_op(self, text: str) -> bool:
        if self._peek().is_op(text):
            self._next()
            return True
        return False

    def _accept_keyword(self, text: str) -> bool:
        if self._peek().is_keyword(text):
            self._next()
            return True
        return False

    # -- declarations ---------------------------------------------------------

    def parse_unit(self) -> ast.CompilationUnit:
        classes = []
        while not self._peek().kind == "eof":
            classes.append(self._parse_class())
        return ast.CompilationUnit(classes)

    def _parse_class(self) -> ast.ClassDecl:
        start = self._expect_keyword("class")
        name = self._expect_ident().text
        superclass = None
        if self._accept_keyword("extends"):
            superclass = self._expect_ident().text
        self._expect_op("{")
        fields: list[ast.FieldDecl] = []
        methods: list[ast.MethodDecl] = []
        while not self._peek().is_op("}"):
            self._parse_member(name, fields, methods)
        end = self._expect_op("}")
        return ast.ClassDecl(name, superclass, fields, methods, start.pos, end.pos)

    def _parse_modifiers(self) -> tuple[bool, bool]:
        is_static = False
        is_final = False
        while True:
            tok = self._peek()
            if tok.is_keyword("static"):
                is_static = True
                self._next()
            elif tok.is_keyword("final"):
                is_final = True
                self._next()
            elif tok.kind == "keyword" and tok.text in ("public", "private", "protected"):
                self._next()
            else:
                return is_static, is_final

    def _parse_member(
        self,
        class_name: str,
        fields: list[ast.FieldDecl],
        methods: list[ast.MethodDecl],
    ) -> None:
        start = self._peek()
        is_static, is_final = self._parse_modifiers()
        # Constructor: ClassName ( ... ) { ... }
        if (
            self._peek().kind == "ident"
            and self._peek().text == class_name
            and self._peek(1).is_op("(")
        ):
            self._next()
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(
                    "<init>", params, ast.VOID, body, False, True, start.pos
                )
            )
            return
        decl_type = self._parse_type()
        name = self._expect_ident().text
        if self._peek().is_op("("):
            params = self._parse_params()
            body = self._parse_block()
            methods.append(
                ast.MethodDecl(name, params, decl_type, body, is_static, False, start.pos)
            )
        else:
            init = None
            if self._accept_op("="):
                init = self._parse_expr()
            self._expect_op(";")
            fields.append(
                ast.FieldDecl(name, decl_type, is_static, is_final, init, start.pos)
            )

    def _parse_params(self) -> list[ast.Param]:
        self._expect_op("(")
        params: list[ast.Param] = []
        if not self._peek().is_op(")"):
            while True:
                start = self._peek()
                ptype = self._parse_type()
                pname = self._expect_ident().text
                params.append(ast.Param(ptype, pname, start.pos))
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return params

    def _parse_type(self) -> ast.Type:
        tok = self._next()
        if tok.kind == "keyword" and tok.text in _PRIM_TYPES:
            base: ast.Type = _PRIM_TYPES[tok.text]
        elif tok.kind == "ident":
            base = ast.ClassType(tok.text)
        else:
            raise ParseError(f"expected type, found {tok.text!r}", tok.pos)
        while self._peek().is_op("[") and self._peek(1).is_op("]"):
            self._next()
            self._next()
            base = ast.ArrayType(base)
        return base

    # -- statements -----------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        start = self._expect_op("{")
        stmts: list[ast.Stmt] = []
        while not self._peek().is_op("}"):
            stmts.append(self._parse_stmt())
        self._expect_op("}")
        return ast.Block(start.pos, stmts)

    def _looks_like_decl(self) -> bool:
        tok = self._peek()
        if tok.kind == "keyword" and tok.text in ("int", "boolean"):
            return True
        if tok.kind != "ident":
            return False
        nxt = self._peek(1)
        if nxt.kind == "ident":
            return True
        # Array-typed declaration: Foo[] x  /  Foo[][] x
        i = 1
        while self._peek(i).is_op("[") and self._peek(i + 1).is_op("]"):
            i += 2
        return i > 1 and self._peek(i).kind == "ident"

    def _parse_stmt(self) -> ast.Stmt:
        tok = self._peek()
        if tok.is_op("{"):
            return self._parse_block()
        if tok.is_keyword("if"):
            return self._parse_if()
        if tok.is_keyword("while"):
            return self._parse_while()
        if tok.is_keyword("for"):
            return self._parse_for()
        if tok.is_keyword("return"):
            self._next()
            value = None
            if not self._peek().is_op(";"):
                value = self._parse_expr()
            self._expect_op(";")
            return ast.Return(tok.pos, value)
        if tok.is_keyword("break"):
            self._next()
            self._expect_op(";")
            return ast.Break(tok.pos)
        if tok.is_keyword("continue"):
            self._next()
            self._expect_op(";")
            return ast.Continue(tok.pos)
        if tok.is_keyword("throw"):
            self._next()
            value = self._parse_expr()
            self._expect_op(";")
            return ast.Throw(tok.pos, value)
        if tok.is_keyword("assert"):
            self._next()
            cond = self._parse_expr()
            self._expect_op(";")
            return ast.Assert(tok.pos, cond)
        if self._looks_like_decl():
            decl_type = self._parse_type()
            name = self._expect_ident().text
            init = None
            if self._accept_op("="):
                init = self._parse_expr()
            self._expect_op(";")
            return ast.LocalDecl(tok.pos, decl_type, name, init)
        return self._parse_expr_or_assign_stmt()

    def _parse_if(self) -> ast.Stmt:
        start = self._expect_keyword("if")
        self._expect_op("(")
        cond = self._parse_expr()
        self._expect_op(")")
        then = self._parse_stmt()
        orelse = None
        if self._accept_keyword("else"):
            orelse = self._parse_stmt()
        return ast.If(start.pos, cond, then, orelse)

    def _parse_while(self) -> ast.Stmt:
        start = self._expect_keyword("while")
        self._expect_op("(")
        cond = self._parse_expr()
        self._expect_op(")")
        body = self._parse_stmt()
        return ast.While(start.pos, cond, body)

    def _parse_for(self) -> ast.Stmt:
        start = self._expect_keyword("for")
        self._expect_op("(")
        init: Optional[ast.Stmt] = None
        if not self._peek().is_op(";"):
            if self._looks_like_decl():
                decl_type = self._parse_type()
                name = self._expect_ident().text
                init_expr = None
                if self._accept_op("="):
                    init_expr = self._parse_expr()
                init = ast.LocalDecl(start.pos, decl_type, name, init_expr)
            else:
                init = self._parse_simple_assign(start.pos)
            self._expect_op(";")
        else:
            self._expect_op(";")
        cond: ast.Expr = ast.BoolLit(start.pos, True)
        if not self._peek().is_op(";"):
            cond = self._parse_expr()
        self._expect_op(";")
        update: Optional[ast.Stmt] = None
        if not self._peek().is_op(")"):
            update = self._parse_simple_assign(self._peek().pos)
        self._expect_op(")")
        body = self._parse_stmt()
        inner_stmts: list[ast.Stmt] = [body]
        if update is not None:
            inner_stmts.append(update)
        loop = ast.While(start.pos, cond, ast.Block(start.pos, inner_stmts))
        outer: list[ast.Stmt] = []
        if init is not None:
            outer.append(init)
        outer.append(loop)
        return ast.Block(start.pos, outer)

    def _parse_simple_assign(self, pos) -> ast.Stmt:
        """An assignment / increment without trailing semicolon (for-headers)."""
        expr = self._parse_expr()
        return self._finish_assign(pos, expr)

    def _finish_assign(self, pos, expr: ast.Expr) -> ast.Stmt:
        tok = self._peek()
        if tok.is_op("="):
            self._next()
            rhs = self._parse_expr()
            return ast.AssignStmt(pos, expr, rhs)
        if tok.is_op("+=") or tok.is_op("-="):
            self._next()
            rhs = self._parse_expr()
            op = "+" if tok.text == "+=" else "-"
            return ast.AssignStmt(pos, expr, ast.Binary(tok.pos, op, expr, rhs))
        if tok.is_op("++") or tok.is_op("--"):
            self._next()
            op = "+" if tok.text == "++" else "-"
            one = ast.IntLit(tok.pos, 1)
            return ast.AssignStmt(pos, expr, ast.Binary(tok.pos, op, expr, one))
        return ast.ExprStmt(pos, expr)

    def _parse_expr_or_assign_stmt(self) -> ast.Stmt:
        pos = self._peek().pos
        expr = self._parse_expr()
        stmt = self._finish_assign(pos, expr)
        self._expect_op(";")
        return stmt

    # -- expressions ----------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_binary_level(self, ops: tuple[str, ...], sub) -> ast.Expr:
        left = sub()
        while True:
            tok = self._tokens[self._idx]
            if tok.kind != "op" or tok.text not in ops:
                return left
            self._idx += 1
            right = sub()
            left = ast.Binary(tok.pos, tok.text, left, right)

    def _parse_or(self) -> ast.Expr:
        return self._parse_binary_level(("||",), self._parse_and)

    def _parse_and(self) -> ast.Expr:
        return self._parse_binary_level(("&&",), self._parse_eq)

    def _parse_eq(self) -> ast.Expr:
        return self._parse_binary_level(("==", "!="), self._parse_rel)

    def _parse_rel(self) -> ast.Expr:
        left = self._parse_binary_level(("<", "<=", ">", ">="), self._parse_add)
        while self._peek().is_keyword("instanceof"):
            tok = self._next()
            name = self._expect_ident().text
            left = ast.InstanceOf(tok.pos, left, name)
        return left

    def _parse_add(self) -> ast.Expr:
        return self._parse_binary_level(("+", "-"), self._parse_mul)

    def _parse_mul(self) -> ast.Expr:
        return self._parse_binary_level(("*", "/", "%"), self._parse_unary)

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.is_op("!") or tok.is_op("-"):
            self._next()
            operand = self._parse_unary()
            return ast.Unary(tok.pos, tok.text, operand)
        if self._looks_like_cast():
            self._next()  # "("
            name = self._expect_ident().text
            self._expect_op(")")
            operand = self._parse_unary()
            return ast.Cast(tok.pos, ast.ClassType(name), operand)
        return self._parse_postfix()

    def _looks_like_cast(self) -> bool:
        """``( Ident )`` followed by something that starts a unary
        expression is a cast; ``(x) + 1`` stays a parenthesized name."""
        if not (
            self._peek().is_op("(")
            and self._peek(1).kind == "ident"
            and self._peek(2).is_op(")")
        ):
            return False
        after = self._peek(3)
        if after.kind in ("ident", "int", "string"):
            return True
        if after.kind == "keyword" and after.text in ("new", "this", "null", "true", "false"):
            return True
        if after.is_op("(") or after.is_op("!"):
            return True
        return False

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.is_op("."):
                self._next()
                name = self._expect_ident().text
                if self._peek().is_op("("):
                    args = self._parse_args()
                    expr = ast.Call(tok.pos, expr, name, args)
                else:
                    expr = ast.FieldAccess(tok.pos, expr, name)
            elif tok.is_op("["):
                self._next()
                index = self._parse_expr()
                self._expect_op("]")
                expr = ast.ArrayIndex(tok.pos, expr, index)
            else:
                return expr

    def _parse_args(self) -> list[ast.Expr]:
        self._expect_op("(")
        args: list[ast.Expr] = []
        if not self._peek().is_op(")"):
            while True:
                args.append(self._parse_expr())
                if not self._accept_op(","):
                    break
        self._expect_op(")")
        return args

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            return ast.IntLit(tok.pos, int(tok.text))
        if tok.kind == "string":
            self._next()
            return ast.StringLit(tok.pos, tok.text)
        if tok.is_keyword("true"):
            self._next()
            return ast.BoolLit(tok.pos, True)
        if tok.is_keyword("false"):
            self._next()
            return ast.BoolLit(tok.pos, False)
        if tok.is_keyword("null"):
            self._next()
            return ast.NullLit(tok.pos)
        if tok.is_keyword("this"):
            self._next()
            return ast.ThisRef(tok.pos)
        if tok.is_keyword("super"):
            self._next()
            args = self._parse_args()
            return ast.SuperCall(tok.pos, args)
        if tok.is_keyword("new"):
            return self._parse_new()
        if tok.is_op("("):
            self._next()
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        if tok.kind == "ident":
            self._next()
            if self._peek().is_op("("):
                args = self._parse_args()
                if tok.text == "nondet" and not args:
                    return ast.NondetCall(tok.pos)
                return ast.Call(tok.pos, None, tok.text, args)
            return ast.NameRef(tok.pos, tok.text)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _parse_new(self) -> ast.Expr:
        start = self._expect_keyword("new")
        tok = self._next()
        if tok.kind == "keyword" and tok.text in ("int", "boolean"):
            base: ast.Type = _PRIM_TYPES[tok.text]
            self._expect_op("[")
            size = self._parse_expr()
            self._expect_op("]")
            return ast.NewArray(start.pos, base, size)
        if tok.kind != "ident":
            raise ParseError(f"expected class name after 'new', found {tok.text!r}", tok.pos)
        if self._peek().is_op("["):
            self._next()
            size = self._parse_expr()
            self._expect_op("]")
            return ast.NewArray(start.pos, ast.ClassType(tok.text), size)
        args = self._parse_args()
        return ast.NewObject(start.pos, tok.text, args)
