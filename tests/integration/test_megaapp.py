"""Whole-pipeline stress: one larger app exercising every language and
library feature at once — multiple components, containers, casts,
instanceof, asserts, throws, fragments, services, async tasks — checked
end-to-end for soundness against interpreter ground truth."""

import pytest

from repro.android.harness import build_full_source
from repro.android.leaks import LeakChecker
from repro.clients import analyze_casts, analyze_immutability
from repro.ir import Interpreter, Limits, build_program, heap_reaches
from repro.lang import frontend

MEGA_APP = """
class Session {
    Activity owner;
    int token;
    Session(Activity a, int t) { this.owner = a; this.token = t; }
}

class SessionStore {
    static HashMap live = new HashMap();
    static Session current;
    static boolean pinSessions = false;

    static void open(Activity a, int t) {
        Session s = new Session(a, t);
        SessionStore.live.put("session", s);
        if (SessionStore.pinSessions) {
            SessionStore.current = s;
        }
    }
}

class Router {
    static Object lastScreen;
    static void navigate(Object screen, int commit) {
        if (!(screen instanceof Activity)) {
            throw new Object();
        }
        Activity a = (Activity) screen;
        if (commit == 1) {
            Router.lastScreen = a;
        }
    }
}

class InboxActivity extends Activity {
    void onCreate() {
        SessionStore.open(this, 7);
        Vec drafts = new Vec();
        drafts.push(this);
        drafts.push("draft");
        assert drafts.size() == 2;
    }
    void onResume() {
        Router.navigate(this, 1);
    }
}

class SettingsActivity extends Activity {
    void onCreate() {
        ArrayList prefs = new ArrayList();
        prefs.add("dark-mode");
        prefs.add(this);
        Router.navigate(this, 0);
    }
}

class InboxFragment extends Fragment {
    static InboxFragment shown;
    void onAttach(Activity a) {
        this.attach(a);
        if (nondet()) { InboxFragment.shown = this; }
    }
}

class RefreshTask extends AsyncTask {
    Object doInBackground(Object p) { return p; }
    void onPostExecute(Object r) { }
}

class MailService extends Service {
    void onStartCommand() {
        RefreshTask t = new RefreshTask();
        t.execute(this);
    }
}
"""


@pytest.fixture(scope="module")
def mega():
    checker = LeakChecker(MEGA_APP, "mega")
    return checker, checker.run()


def concrete_truth():
    program = build_program(frontend(build_full_source(MEGA_APP)))
    interp = Interpreter(
        program, Limits(max_loop_iterations=4, max_steps=80_000, max_paths=800)
    )
    truth = set()
    for run in interp.explore():
        for key, site in heap_reaches(run.statics, program.class_table, {"Activity"}):
            truth.add((key, site))
    return truth


class TestMegaApp:
    def test_pipeline_runs(self, mega):
        _, report = mega
        assert report.num_alarms > 0
        assert report.seconds < 120

    def test_soundness_against_ground_truth(self, mega):
        checker, report = mega
        truth = concrete_truth()
        reported = {
            ((a.root.class_name, a.root.field), a.target.site)
            for a in report.reported_alarms
        }
        refuted = {
            ((a.root.class_name, a.root.field), a.target.site)
            for a in report.alarms
            if a.refuted
        }
        assert truth <= reported, f"missed true leaks: {truth - reported}"
        assert not (truth & refuted), f"unsoundly refuted: {truth & refuted}"

    def test_pinned_session_flag_refuted(self, mega):
        # pinSessions is never true: SessionStore.current alarms refute.
        _, report = mega
        flagged = [a for a in report.alarms if a.root.field == "current"]
        assert flagged and all(a.refuted for a in flagged)

    def test_uncommitted_navigation_refuted(self, mega):
        # SettingsActivity navigates with commit=0; only the Inbox commit=1
        # flow can reach Router.lastScreen.
        _, report = mega
        by_target = {
            str(a.target): a for a in report.alarms if a.root.field == "lastScreen"
        }
        assert by_target, "router alarms expected"
        settings = [a for t, a in by_target.items() if "settings" in t.lower()]
        inbox = [a for t, a in by_target.items() if "inbox" in t.lower()]
        assert settings and all(a.refuted for a in settings)
        assert inbox and all(not a.refuted for a in inbox)

    def test_fragment_pin_is_reported(self, mega):
        _, report = mega
        flagged = [
            a for a in report.alarms if a.root.field == "shown" and not a.refuted
        ]
        assert flagged  # nondet() guard: genuinely reachable

    def test_live_hashmap_session_leak_reported(self, mega):
        _, report = mega
        flagged = [a for a in report.alarms if a.root.field == "live"]
        assert flagged and any(not a.refuted for a in flagged)

    def test_casts_all_safe(self, mega):
        # The only cast is guarded by instanceof (+ throw on failure).
        checker, _ = mega
        reports = analyze_casts(checker.pta, engine=checker.engine).results
        assert reports
        assert all(r.status == "safe" for r in reports)

    def test_session_immutable_after_construction(self, mega):
        checker, _ = mega
        result = analyze_immutability(checker.pta, "Session", engine=checker.engine)
        assert result.verified
