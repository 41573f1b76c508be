"""Top-level class spans, and building one edited class on its own.

A serve ``update`` whose edit lies inside one top-level class needs only
that class re-lexed, re-parsed, re-checked and re-lowered: the rest of
the text is unchanged, and so is every other class's IR as long as the
edited class declares the same things. :func:`build_class` does that
build against the loaded program's class table and returns ``None``
whenever it cannot stand in for a whole-program build, so the caller
falls back to one.

The session locates classes by *span*: the offsets of a class's
``class`` keyword and of its closing brace (exclusive end) in the app
source. Spans come from the parser's positions (:func:`decl_spans`) after
a full build, or from the lexer's tokens (:func:`token_spans`) for a
standalone source.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Optional

from ..ir.builder import _Builder, site_stem
from ..ir.program import IRMethod, IRProgram
from ..lang import FrontendError, tokenize
from ..lang.ast import ClassDecl
from ..lang.errors import SourcePosition
from ..lang.parser import Parser
from ..lang.types import ClassInfo, ClassTable, check_classes, declare_classes
from .invalidation import class_signature, method_signature

#: One top-level class: ``[name, start, end]``, offsets into the source.
Span = list


def _line_starts(source: str) -> list[int]:
    return [0] + [m.end() for m in re.finditer("\n", source)]


def decl_spans(
    decls: list[ClassDecl], source: str, line_base: int = 0
) -> list[Span]:
    """Spans of the parsed classes that lie in ``source``, which starts
    on line ``line_base + 1`` of the text the decls were parsed from."""
    starts = _line_starts(source)

    def offset(pos: SourcePosition) -> int:
        return starts[pos.line - line_base - 1] + pos.column - 1

    return [
        [decl.name, offset(decl.pos), offset(decl.end) + 1]
        for decl in decls
        if decl.pos.line > line_base
    ]


def token_spans(source: str) -> list[Span]:
    """Spans of ``source``'s top-level classes, found on the lexer's
    tokens: ``class`` in a comment and braces in comments or string
    literals do not count."""
    starts = _line_starts(source)

    def offset(tok) -> int:
        return starts[tok.pos.line - 1] + tok.pos.column - 1

    out: list[Span] = []
    tokens = tokenize(source)
    depth = 0
    start = None
    name = ""
    for index, tok in enumerate(tokens):
        if depth == 0 and tok.is_keyword("class"):
            start = offset(tok)
            name = tokens[index + 1].text
        elif tok.is_op("{"):
            depth += 1
        elif tok.is_op("}"):
            depth -= 1
            if depth == 0 and start is not None:
                out.append([name, start, offset(tok) + 1])
                start = None
    return out


def position_of(source: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``source``."""
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _agreeing(old: str, new: str, limit: int, from_end: bool) -> int:
    """How many leading (or trailing) characters, at most ``limit``, the
    two texts share. Binary search over slice comparisons."""
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if from_end:
            same = old[len(old) - mid :] == new[len(new) - mid :]
        else:
            same = old[:mid] == new[:mid]
        if same:
            lo = mid
        else:
            hi = mid - 1
    return lo


def edit_region(old: str, new: str) -> tuple[int, int, int]:
    """The stretch an edit replaced: ``old[start:old_end]`` became
    ``new[start:new_end]``, and the texts agree on either side of it."""
    limit = min(len(old), len(new))
    start = _agreeing(old, new, limit, from_end=False)
    suffix = _agreeing(old, new, limit - start, from_end=True)
    return start, len(old) - suffix, len(new) - suffix


def enclosing_span(spans: list[Span], start: int, end: int) -> Optional[int]:
    """Index of the span that holds ``[start, end)``, if one does."""
    for index, (_, lo, hi) in enumerate(spans):
        if lo <= start and end <= hi:
            return index
    return None


def hints_before(program: IRProgram, name: str) -> Counter:
    """Per hint stem, the allocation sites of the classes lowered before
    ``name``: where a whole-program build's hint counters stand when it
    starts on that class. Every site in ``program.alloc_sites`` is live
    (grafts only ever add sites; anything else rebuilds the program)."""
    order = list(program.class_table.classes)
    before = set(order[: order.index(name)])
    return Counter(
        site_stem(site.class_name, site.kind)
        for site in program.alloc_sites
        if site.method.split(".", 1)[0] in before
    )


def build_class(
    table: ClassTable,
    name: str,
    text: str,
    at: tuple[int, int],
    hints: Counter,
    old_methods: list[IRMethod],
) -> Optional[tuple[ClassInfo, IRProgram]]:
    """Build class ``name`` from ``text``, which starts at line/column
    ``at`` of the program text, against a copy of ``table``. Returns the
    class's table entry and a program holding just its lowered methods,
    or ``None`` when only a whole-program build can decide: the text does
    not lex or parse, is not exactly that one class from its first
    character to its last, changes the class's declarations or the set of
    methods lowering produces (``old_methods``), or fails to type-check or
    lower."""
    line, column = at
    try:
        tokens = tokenize(text, line, column)
        unit = Parser(tokens).parse_unit()
    except FrontendError:
        return None
    if len(unit.classes) != 1:
        return None
    decl = unit.classes[0]
    # Nothing before ``class`` and nothing after ``}``: a trailing comment
    # or an unclosed one could reach into the next class.
    eof = tokens[-1].pos
    if (
        decl.name != name
        or decl.pos != SourcePosition(line, column)
        or decl.end != SourcePosition(eof.line, eof.column - 1)
    ):
        return None
    scratch = ClassTable()
    scratch.classes = {k: v for k, v in table.classes.items() if k != name}
    try:
        declare_classes(scratch, [decl])
        info = scratch.classes[name]
        if class_signature(info) != class_signature(table.classes[name]):
            return None
        scratch.classes = {k: scratch.classes[k] for k in table.classes}
        check_classes(scratch, [decl])
        builder = _Builder(scratch, hints)
        builder.lower_class(decl)
    except FrontendError:
        return None
    program = builder.program
    if sorted(map(method_signature, program.methods.values())) != sorted(
        map(method_signature, old_methods)
    ):
        return None
    return info, program


def split_classes(source: str) -> dict[str, str]:
    """Split mini-Java source into its top-level class texts, keyed by
    class name, in order (see :func:`token_spans`)."""
    return {name: source[start:end] for name, start, end in token_spans(source)}


def splice_classes(
    source: str, replacements: dict[str, str], spans: Optional[list[Span]] = None
) -> str:
    """Replace whole top-level classes in ``source`` by name, at their
    spans (``spans`` when the caller keeps them, else the lexer's), so a
    copy of a class's text in a comment or string literal stays as it
    is. Every name in ``replacements`` must already exist (adding or
    removing classes is a declaration-level change — ship full
    ``source`` for that, and the session takes the rebuild path)."""
    where = {name: (start, end) for name, start, end in spans or token_spans(source)}
    missing = sorted(set(replacements) - set(where))
    if missing:
        raise ValueError(
            f"class(es) not in the loaded program: {', '.join(missing)};"
            " to add classes, send a full source= update"
        )
    for name in sorted(replacements, key=lambda n: where[n][0], reverse=True):
        start, end = where[name]
        source = source[:start] + replacements[name] + source[end:]
    return source
