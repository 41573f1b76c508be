"""One frontend run per Android program against the text path it replaced.

The oracle is the previous pipeline, kept here: type-check library + app,
parse the app alone for its class names, generate the harness, append its
text, and run the whole frontend again on the result.
:func:`repro.api.frontend_app` instead runs the frontend once and adds the
harness class to that checked program. Both must give the same program —
the same pretty-printed unit, class table, IR command positions and
allocation sites — or raise the same error at the same position.
"""

from __future__ import annotations

import pytest

from repro.android.harness import HARNESS_CLASS, generate_harness
from repro.android.library import LIBRARY_SOURCE
from repro.api import frontend_app
from repro.bench import APPS
from repro.bench.workloads import lifecycle_app
from repro.ir import build_program
from repro.ir.printer import print_program
from repro.lang import FrontendError, frontend, parse_program, pretty_program

from ..integration.test_figure5 import FIGURE5_APP
from ..integration.test_megaapp import MEGA_APP


def _oracle_frontend(app_source: str, include_library: bool = True):
    if not include_library:
        return frontend(app_source)
    combined = LIBRARY_SOURCE + "\n" + app_source
    checked = frontend(combined)
    app_classes = {cls.name for cls in parse_program(app_source).classes}
    harness = generate_harness(checked.table, app_classes)
    return frontend(combined + "\n" + harness)


def _fingerprint(checked) -> dict:
    table = [
        (name, info.superclass, list(info.fields), list(info.methods), info.pos)
        for name, info in checked.table.classes.items()
    ]
    out = {"unit": pretty_program(checked.unit), "table": table}
    try:
        program = build_program(checked)
    except FrontendError as exc:
        out["build_error"] = (type(exc), exc.message, exc.pos)
        return out
    out["ir"] = print_program(program)
    out["commands"] = [
        (label, program.command_method[label], repr(cmd), cmd.pos)
        for label, cmd in program.commands.items()
    ]
    out["sites"] = [
        (s.site_id, s.class_name, s.method, s.kind, s.hint)
        for s in program.alloc_sites
    ]
    return out


def _outcome(run, source: str, include_library: bool):
    try:
        checked = run(source, include_library)
    except FrontendError as exc:
        return ("error", type(exc), exc.message, exc.pos)
    return _fingerprint(checked)


def _assert_parity(source: str, include_library: bool = True) -> None:
    expected = _outcome(_oracle_frontend, source, include_library)
    assert _outcome(frontend_app, source, include_library) == expected


_PROGRAMS = [pytest.param(app.source, id=app.name) for app in APPS] + [
    pytest.param(MEGA_APP, id="MEGA_APP"),
    pytest.param(FIGURE5_APP, id="FIGURE5_APP"),
    pytest.param(lifecycle_app(3, leaky=1, branches=2), id="lifecycle_app"),
]


@pytest.mark.parametrize("source", _PROGRAMS)
def test_programs_match_text_path(source):
    _assert_parity(source)


def test_program_without_library_matches_text_path():
    _assert_parity(lifecycle_app(3, leaky=1, branches=2), include_library=False)


_ACTIVITY = "class A extends Activity {\n    void onCreate() { }\n}\n"

_ERRORS = {
    "type error in an app body": _ACTIVITY
    + "class B {\n    void m() { int x = true; }\n}\n",
    "unknown superclass": _ACTIVITY + "class B extends Nowhere { }\n",
    "lex error in the app": _ACTIVITY + "class B {\n  int # x;\n}\n",
    "app declares the harness class": _ACTIVITY
    + f"class {HARNESS_CLASS} {{\n    static void main() {{ }}\n}}\n",
}


@pytest.mark.parametrize("source", _ERRORS.values(), ids=list(_ERRORS))
def test_errors_match_text_path(source):
    expected = _outcome(_oracle_frontend, source, True)
    assert expected[0] == "error"
    assert _outcome(frontend_app, source, True) == expected
