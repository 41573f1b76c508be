"""Harness synthesis: a ``main`` that exercises every event handler.

Mirrors the paper's setup: "We use a top-level harness that invokes every
event handler defined for an application. Our harness allows event handlers
to be invoked in any order, but insists that each handler is called only
once in order to prevent termination issues."

We realize "called only once, possibly skipped" with nondeterministically
guarded calls in lifecycle order; the guard nondeterminism gives the
analysis every subset of handler invocations. (Arbitrary inter-handler
orderings beyond the lifecycle order are approximated — see DESIGN.md.)
"""

from __future__ import annotations

from ..lang import ast, parse_program
from ..lang.types import (
    CheckedProgram,
    ClassTable,
    MethodInfo,
    check_classes,
    declare_classes,
)
from .library import LIBRARY_SOURCE
from .lifecycle import component_classes, default_argument, handlers_of

HARNESS_CLASS = "AndroidHarness"

_LIBRARY_LINES = LIBRARY_SOURCE.count("\n")


def combined_source(app_source: str, include_library: bool = True) -> str:
    """Library + app, as one compilation unit for the frontend.

    The library comes first so that its class initializers (e.g.
    ``Vec.EMPTY``) run before any app ``<clinit>`` that allocates library
    objects — our stand-in for Java's lazy class initialization.
    """
    library = LIBRARY_SOURCE if include_library else ""
    return library + "\n" + app_source


def add_harness(
    checked: CheckedProgram, source: str, include_library: bool = True
) -> CheckedProgram:
    """``checked`` (the frontend's result on ``source``, a
    :func:`combined_source` text) plus the synthesized harness class.

    The app's classes are those declared on or after the app's first line.
    Only the harness text is parsed, declared and type-checked, into
    ``checked``'s table; it is padded with newlines so that it sits, with
    every position, on the line after ``source`` ends. The result equals
    the frontend's result on ``source + "\\n" + harness``.
    """
    first_line = (_LIBRARY_LINES if include_library else 0) + 2
    app_classes = {
        cls.name for cls in checked.unit.classes if cls.pos.line >= first_line
    }
    harness = generate_harness(checked.table, app_classes)
    padding = "\n" * (source.count("\n") + 1)
    decls = parse_program(padding + harness).classes
    declare_classes(checked.table, decls)
    check_classes(checked.table, decls)
    return CheckedProgram(
        checked.table, ast.CompilationUnit(checked.unit.classes + decls)
    )


def generate_harness(table: ClassTable, app_classes: set[str]) -> str:
    lines = [f"class {HARNESS_CLASS} {{", "    static void main() {"]
    components = component_classes(table, app_classes)
    for index, class_name in enumerate(components):
        var = f"act{index}"
        ctor_args = _ctor_args(table, class_name)
        lines.append(f"        {class_name} {var} = new {class_name}({ctor_args});")
        for handler in handlers_of(table, class_name):
            if handler.method.decl_class not in app_classes:
                continue  # library-defined defaults carry no app logic
            args = _handler_args(table, class_name, var, handler.method)
            lines.append(
                f"        if (nondet()) {{ {var}.{handler.name}({args}); }}"
            )
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _ctor_args(table: ClassTable, class_name: str) -> str:
    ctor = table.lookup_method(class_name, "<init>")
    if ctor is None:
        return ""
    return ", ".join(default_argument(table, p.type) for p in ctor.params)


def _handler_args(
    table: ClassTable, class_name: str, activity_var: str, method: MethodInfo
) -> str:
    args = []
    for param in method.params:
        if isinstance(param.type, ast.ClassType) and table.is_assignable(
            ast.ClassType(class_name), param.type
        ):
            # Context-like parameters receive the activity itself — the
            # typical way an Activity reference escapes into helpers.
            args.append(activity_var)
        else:
            args.append(default_argument(table, param.type))
    return ", ".join(args)
