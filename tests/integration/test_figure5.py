"""Integration test: the paper's Figure 5 — the K9Mail singleton leak.

`EmailAddressAdapter.getInstance(context)` stores the Activity (passed as
the context) through two super-constructors into `CursorAdapter.mContext`,
reachable forever from the static `sInstance`. Thresher must *confirm*
this alarm (witness every edge on the heap path), and the witness trace
must pass through the singleton constructor chain.
"""

import pytest

from repro.android.leaks import ALARM_CONFIRMED, LeakChecker
from repro.symbolic.witness import render_witness, witness_steps

FIGURE5_APP = """
class MainActivity extends Activity {
    void onCreate() {
        EmailAddressAdapter a = EmailAddressAdapter.getInstance(this);
    }
}
class EmailAddressAdapter extends ResourceCursorAdapter {
    static EmailAddressAdapter sInstance;
    static EmailAddressAdapter getInstance(Context context) {
        if (EmailAddressAdapter.sInstance == null) {
            EmailAddressAdapter.sInstance = new EmailAddressAdapter(context);
        }
        return EmailAddressAdapter.sInstance;
    }
    EmailAddressAdapter(Context context) { super(context); }
}
"""


@pytest.fixture(scope="module")
def fig5():
    checker = LeakChecker(FIGURE5_APP, "k9mail-fig5")
    return checker, checker.run()


class TestFigure5:
    def test_flow_insensitive_alarm_exists(self, fig5):
        _, report = fig5
        roots = {str(a.root) for a in report.alarms}
        assert "EmailAddressAdapter.sInstance" in roots

    def test_leak_confirmed_not_refuted(self, fig5):
        _, report = fig5
        alarm = next(
            a for a in report.alarms if str(a.root) == "EmailAddressAdapter.sInstance"
        )
        assert alarm.status == ALARM_CONFIRMED

    def test_witnessed_path_matches_paper(self, fig5):
        """The paper's heap path:
        EmailAddressAdapter.sInstance ↪ adr0, adr0.mContext ↪ act0."""
        _, report = fig5
        alarm = next(
            a for a in report.alarms if str(a.root) == "EmailAddressAdapter.sInstance"
        )
        assert alarm.witnessed_path is not None
        fields = [edge.field for edge in alarm.witnessed_path]
        assert fields == ["sInstance", "mContext"]

    def test_witness_trace_goes_through_super_ctor_chain(self, fig5):
        checker, report = fig5
        alarm = next(
            a for a in report.alarms if str(a.root) == "EmailAddressAdapter.sInstance"
        )
        mcontext_edge = alarm.witnessed_path[1]
        result = checker.engine.refute_edge(mcontext_edge)
        assert result.witnessed
        methods = {
            step.method for step in witness_steps(checker.program, result.witness_trace)
        }
        assert "CursorAdapter.<init>" in methods
        assert "EmailAddressAdapter.getInstance" in methods

    def test_render_witness_is_readable(self, fig5):
        checker, report = fig5
        alarm = next(a for a in report.alarms if not a.refuted)
        result = checker.engine.refute_edge(alarm.witnessed_path[0])
        text = render_witness(checker.program, result)
        assert "witness for" in text
        assert "getInstance" in text

    def test_concrete_ground_truth_agrees(self, fig5):
        from repro.api import frontend_app
        from repro.ir import Interpreter, build_program, heap_reaches

        program = build_program(frontend_app(FIGURE5_APP))
        leaks = set()
        for run in Interpreter(program).explore():
            for key, _ in heap_reaches(run.statics, program.class_table, {"Activity"}):
                leaks.add(key)
        assert ("EmailAddressAdapter", "sInstance") in leaks


class TestFixedVersion:
    """The K9Mail developers later removed the singleton (confirmed fix);
    without the static, no alarm remains."""

    FIXED = """
    class MainActivity extends Activity {
        void onCreate() {
            EmailAddressAdapter a = new EmailAddressAdapter(this);
        }
    }
    class EmailAddressAdapter extends ResourceCursorAdapter {
        EmailAddressAdapter(Context context) { super(context); }
    }
    """

    def test_no_alarm_after_fix(self):
        report = LeakChecker(self.FIXED, "k9mail-fixed").run()
        assert all(a.refuted for a in report.alarms)
