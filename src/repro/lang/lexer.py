"""Lexer for the mini-Java surface language.

The language is a small Java subset sufficient to express the benchmark
applications of the Thresher paper: classes with single inheritance, static
and instance fields/methods, constructors, arrays, the usual statements and
expressions, and a ``nondet()`` builtin modelling environment choice.
"""

from __future__ import annotations

import re

from .errors import LexError, SourcePosition

KEYWORDS = frozenset(
    [
        "class",
        "extends",
        "static",
        "final",
        "public",
        "private",
        "protected",
        "void",
        "int",
        "boolean",
        "if",
        "else",
        "while",
        "for",
        "return",
        "new",
        "null",
        "true",
        "false",
        "this",
        "super",
        "break",
        "continue",
        "assert",
        "instanceof",
        "throw",
    ]
)

# Multi-character operators must be listed before their prefixes.
OPERATORS = [
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ";",
    ",",
    ".",
]


class Token:
    """A single lexical token.

    ``kind`` is one of ``"ident"``, ``"int"``, ``"string"``, ``"op"``,
    ``"keyword"``, or ``"eof"``; ``text`` is the exact source text (for
    string literals, the *unquoted* contents).
    """

    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: SourcePosition) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.text!r}, {self.pos})"

    def is_op(self, text: str) -> bool:
        return self.kind == "op" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text


# One alternative per lexeme, tried in order at each position. Whitespace
# and comments are alternatives of their own (never a prefix of a token
# pattern), and come before the operators so that ``//`` and ``/*`` are
# never read as ``/``. Identifier and integer classes are ASCII only:
# Python's ``\d``/``\w`` disagree with ``str.isdigit``/``isalpha`` on some
# non-ASCII characters, so those are lexed with the ``str`` predicates, both
# where a token starts (:func:`_scan_unmatched`) and where an ASCII match
# stops at one.
_MASTER = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<ident>[A-Za-z_$][A-Za-z0-9_$]*)
    | (?P<int>[0-9]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<open_string>")
    | (?P<op>"""
    + "|".join(re.escape(op) for op in OPERATORS)
    + """)
    """,
    re.VERBOSE | re.DOTALL,
)

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def _unescape(match: re.Match) -> str:
    esc = match.group(1)
    return _ESCAPES.get(esc, esc)


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def _scan_while(source: str, j: int, accept) -> int:
    n = len(source)
    while j < n and accept(source[j]):
        j += 1
    return j


def tokenize(source: str, line: int = 1, column: int = 1) -> list[Token]:
    """Tokenize ``source``, returning a token list terminated by EOF.

    ``source`` starts at ``line``:``column``: a fragment cut out of a
    larger text lexes to the positions it has there."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    n = len(source)
    i = 0
    line_start = 1 - column  # offset of the first character of ``line``
    while i < n:
        m = match(source, i)
        if m is None:
            pos = SourcePosition(line, i - line_start + 1)
            i = _scan_unmatched(source, i, pos, append)
            continue
        kind = m.lastgroup
        end = m.end()
        if kind == "ws" or kind == "block_comment" or kind == "string":
            if kind == "string":
                body = source[i + 1 : end - 1]
                if "\\" in body:
                    body = _ESCAPE.sub(_unescape, body)
                append(Token("string", body, SourcePosition(line, i - line_start + 1)))
            newlines = source.count("\n", i, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", i, end) + 1
        elif kind == "ident":
            if end < n and source[end] >= "\x80":
                end = _scan_while(source, end, _is_ident_char)
            text = source[i:end]
            kind = "keyword" if text in KEYWORDS else "ident"
            append(Token(kind, text, SourcePosition(line, i - line_start + 1)))
        elif kind == "op":
            append(Token("op", m.group(), SourcePosition(line, i - line_start + 1)))
        elif kind == "int":
            if end < n and source[end] >= "\x80":
                end = _scan_while(source, end, str.isdigit)
            append(Token("int", source[i:end], SourcePosition(line, i - line_start + 1)))
        elif kind != "line_comment":
            what = "block comment" if kind == "open_comment" else "string literal"
            pos = SourcePosition(line, i - line_start + 1)
            raise LexError(f"unterminated {what}", pos)
        i = end
    append(Token("eof", "", SourcePosition(line, n - line_start + 1)))
    return tokens


def _scan_unmatched(source: str, i: int, pos: SourcePosition, append) -> int:
    """Lex the token at ``i``, where no pattern matched, with the ``str``
    predicates: a (non-ASCII) digit starts an integer, a letter an
    identifier; anything else is an error. Returns the token's end."""
    ch = source[i]
    if ch.isdigit():
        end = _scan_while(source, i, str.isdigit)
        append(Token("int", source[i:end], pos))
    elif ch.isalpha():
        end = _scan_while(source, i, _is_ident_char)
        append(Token("ident", source[i:end], pos))
    else:
        raise LexError(f"unexpected character {ch!r}", pos)
    return end
