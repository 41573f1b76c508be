"""Unit tests for the Android client: library, lifecycle, harness, driver."""

import pytest

from repro.android import (
    CONTAINER_CLASSES,
    HARNESS_CLASS,
    LIBRARY_SOURCE,
    LeakChecker,
    generate_harness,
    library_class_names,
)
from repro.android.leaks import ALARM_CONFIRMED, ALARM_REFUTED
from repro.android.lifecycle import handlers_of, is_event_handler
from repro.api import frontend_app
from repro.lang import frontend


class TestLibrary:
    def test_library_typechecks_standalone(self):
        frontend(LIBRARY_SOURCE)

    def test_library_class_names(self):
        names = library_class_names()
        for expected in ("Activity", "Context", "Vec", "HashMap", "CursorAdapter"):
            assert expected in names

    def test_container_classes_exist_in_library(self):
        assert CONTAINER_CLASSES <= library_class_names()

    def test_vec_uses_null_object_pattern(self):
        checked = frontend(LIBRARY_SOURCE)
        vec = checked.table.get("Vec")
        assert "EMPTY" in vec.fields and vec.fields["EMPTY"].is_static

    def test_adapter_chain_reaches_context(self):
        checked = frontend(LIBRARY_SOURCE)
        fld = checked.table.lookup_field("ResourceCursorAdapter", "mContext")
        assert fld is not None and fld.decl_class == "CursorAdapter"


class TestLifecycle:
    def make_table(self, source):
        return frontend(source + LIBRARY_SOURCE).table

    def test_on_methods_are_handlers(self):
        table = self.make_table("class A extends Activity { void onCreate() { } }")
        handlers = handlers_of(table, "A")
        assert [h.name for h in handlers] == ["onCreate"]

    def test_non_on_methods_excluded(self):
        table = self.make_table(
            "class A extends Activity { void helper() { } void once() { } }"
        )
        assert handlers_of(table, "A") == []

    def test_lifecycle_ordering(self):
        table = self.make_table(
            "class A extends Activity {"
            " void onDestroy() { } void onCreate() { } void onResume() { } }"
        )
        names = [h.name for h in handlers_of(table, "A")]
        assert names == ["onCreate", "onResume", "onDestroy"]

    def test_inherited_handlers_found(self):
        table = self.make_table(
            "class Base extends Activity { void onCreate() { } }"
            " class A extends Base { void onClick() { } }"
        )
        names = {h.name for h in handlers_of(table, "A")}
        assert names == {"onCreate", "onClick"}

    def test_is_event_handler_requires_instance_method(self):
        table = self.make_table(
            "class A extends Activity { static void onWeird() { } }"
        )
        method = table.get("A").methods["onWeird"]
        assert not is_event_handler(method)


class TestHarness:
    def test_harness_compiles_with_app(self):
        checked = frontend_app(
            "class A extends Activity { void onCreate() { } }"
        )
        assert HARNESS_CLASS in checked.table

    def test_harness_calls_each_handler_once_guarded(self):
        app = (
            "class A extends Activity {"
            " void onCreate() { } void onDestroy() { } }"
        )
        checked = frontend(app + LIBRARY_SOURCE)
        harness = generate_harness(checked.table, {"A"})
        assert harness.count("onCreate()") == 1
        assert harness.count("onDestroy()") == 1
        assert harness.count("nondet()") == 2

    def test_harness_instantiates_every_activity(self):
        app = (
            "class A extends Activity { void onCreate() { } }"
            " class B extends Activity { void onCreate() { } }"
        )
        checked = frontend(app + LIBRARY_SOURCE)
        harness = generate_harness(checked.table, {"A", "B"})
        assert "new A(" in harness and "new B(" in harness

    def test_context_parameter_receives_activity(self):
        app = "class A extends Activity { void onAttach(Context c) { } }"
        checked = frontend(app + LIBRARY_SOURCE)
        harness = generate_harness(checked.table, {"A"})
        assert "act0.onAttach(act0)" in harness

    def test_primitive_parameters_get_defaults(self):
        app = "class A extends Activity { void onScroll(int dx, boolean fast) { } }"
        checked = frontend(app + LIBRARY_SOURCE)
        harness = generate_harness(checked.table, {"A"})
        assert "onScroll(0, false)" in harness

    def test_library_initializers_run_before_app(self):
        # The combined unit puts the library first so Vec.EMPTY is
        # initialized before any app <clinit> allocates a Vec.
        checked = frontend_app(
            "class S { static Vec v = new Vec(); }"
            " class A extends Activity { void onCreate() { } }"
        )
        names = [cls.name for cls in checked.unit.classes]
        assert names.index("Vec") < names.index("S")

    def test_non_activity_classes_not_driven(self):
        app = "class Util { void onSomething() { } }"
        checked = frontend(app + LIBRARY_SOURCE)
        harness = generate_harness(checked.table, {"Util"})
        assert "onSomething" not in harness


class TestLeakChecker:
    def test_direct_static_leak_confirmed(self):
        report = LeakChecker(
            "class A extends Activity {"
            " static Activity leaked;"
            " void onCreate() { A.leaked = this; } }",
            "direct",
        ).run()
        alarm = next(a for a in report.alarms if a.root.field == "leaked")
        assert alarm.status == ALARM_CONFIRMED
        assert alarm.witnessed_path is not None

    def test_no_static_no_alarm(self):
        report = LeakChecker(
            "class A extends Activity { Activity self;"
            " void onCreate() { this.self = this; } }",
            "instance-only",
        ).run()
        assert report.num_alarms == 0

    def test_guarded_never_enabled_refuted(self):
        report = LeakChecker(
            "class A extends Activity {"
            " static boolean keep = false;"
            " static Activity cache;"
            " void onCreate() { if (A.keep) { A.cache = this; } } }",
            "guarded",
        ).run()
        alarm = next(a for a in report.alarms if a.root.field == "cache")
        assert alarm.status == ALARM_REFUTED

    def test_report_counts_consistent(self):
        report = LeakChecker(
            "class A extends Activity {"
            " static Activity leaked;"
            " void onCreate() { A.leaked = this; } }",
            "counts",
        ).run()
        assert report.num_alarms == report.refuted_alarms + len(report.reported_alarms)
        assert report.refuted_fields <= report.fields

    def test_handler_interplay(self):
        # The leak only happens if onCreate ran before onClick; the harness
        # lifecycle ordering makes that feasible: confirmed.
        report = LeakChecker(
            "class A extends Activity {"
            " static Activity cache;"
            " Activity pending;"
            " void onCreate() { this.pending = this; }"
            " void onClick() { A.cache = this.pending; } }",
            "interplay",
        ).run()
        alarm = next(a for a in report.alarms if a.root.field == "cache")
        assert alarm.status == ALARM_CONFIRMED

    def test_annotated_flag_suppresses_container_statics(self):
        app = (
            "class A extends Activity {"
            " void onCreate() { Vec v = new Vec(); v.push(this); } }"
        )
        plain = LeakChecker(app, "ann", annotated=False).run()
        annotated = LeakChecker(app, "ann", annotated=True).run()
        assert annotated.num_alarms <= plain.num_alarms
        assert annotated.num_alarms == 0
