"""The single-regex lexer against the per-character lexer it replaced.

The oracle below is the previous ``repro.lang.lexer`` scanning loop, kept
verbatim: one ``advance()`` per character and a first-match scan over the
operator list. Both must produce the same ``(kind, text, line, column)``
stream, or the same ``LexError`` message at the same position.
"""

from __future__ import annotations

from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.android.library import LIBRARY_SOURCE
from repro.bench import APPS
from repro.bench.workloads import (
    branchy_app,
    entailed_app,
    lattice_app,
    layered_app,
    lifecycle_app,
    lifecycle_edit,
)
from repro.lang.errors import LexError, SourcePosition
from repro.lang.lexer import KEYWORDS, OPERATORS, Token, tokenize


def _oracle_tokens(source: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(source)

    def pos() -> SourcePosition:
        return SourcePosition(line, col)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start = pos()
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start)
            advance(2)
            continue
        if ch.isdigit():
            start = pos()
            j = i
            while j < n and source[j].isdigit():
                j += 1
            text = source[i:j]
            advance(j - i)
            yield Token("int", text, start)
            continue
        if ch.isalpha() or ch == "_" or ch == "$":
            start = pos()
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            advance(j - i)
            kind = "keyword" if text in KEYWORDS else "ident"
            yield Token(kind, text, start)
            continue
        if ch == '"':
            start = pos()
            j = i + 1
            chars: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    chars.append(source[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string literal", start)
            advance(j + 1 - i)
            yield Token("string", "".join(chars), start)
            continue
        matched = False
        for op in OPERATORS:
            if source.startswith(op, i):
                start = pos()
                advance(len(op))
                yield Token("op", op, start)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", pos())
    yield Token("eof", "", pos())


def _outcome(lex, source: str):
    """The token stream as plain tuples, or the error's message and
    position."""
    try:
        return [
            (t.kind, t.text, t.pos.line, t.pos.column) for t in lex(source)
        ]
    except LexError as exc:
        return ("error", exc.message, exc.pos.line, exc.pos.column)


def _assert_parity(source: str) -> None:
    expected = _outcome(lambda s: list(_oracle_tokens(s)), source)
    assert _outcome(tokenize, source) == expected


_FRAGMENTS = (
    OPERATORS
    + sorted(KEYWORDS)
    + ["//", "/*", "*/", '"', "\\", "\\n", '\\"', "\r\n", "\n", " ", "\t"]
    + ["x", "Foo_1", "$r", "_", "0", "42", "007", "a1b2"]
    + ["é", "²", "٣", "½", "x²", "٣4", "ß", " ", "#", "@", "'", "\x0b"]
)

_SOURCES = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join)


@settings(
    max_examples=600,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_SOURCES)
def test_random_fragments_match_oracle(source):
    _assert_parity(source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_arbitrary_text_matches_oracle(source):
    _assert_parity(source)


@pytest.mark.parametrize(
    "source",
    [
        "é = 1;",
        "x² = ٣4;",
        "½",
        "a ½",
        "12é",
        "classé class",
        "/*/ x",
        "/* a */*/",
        "a//b\nc",
        "a/ /b",
        '"a\\',
        '"a\\"',
        '"line\nbreak" x',
        '"\\q\\\\n"',
        "x\r\n  y",
        "\n\n   ",
    ],
)
def test_edge_cases_match_oracle(source):
    _assert_parity(source)


def _repo_sources() -> list:
    sources = [("library", LIBRARY_SOURCE)]
    sources += [(app.name, app.source) for app in APPS]
    sources += [
        ("branchy", branchy_app(8, leaky=False)),
        ("entailed", entailed_app(8)),
        ("lattice", lattice_app(5)),
        ("layered", layered_app(8, 10)),
    ]
    serve = lifecycle_app(4, leaky=1, branches=6)
    sources += [("lifecycle", serve), ("lifecycle_edit", lifecycle_edit(serve, 1))]
    return [pytest.param(source, id=name) for name, source in sources]


@pytest.mark.parametrize("source", _repo_sources())
def test_repo_sources_match_oracle(source):
    _assert_parity(source)
