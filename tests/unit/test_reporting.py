"""Unit tests for the bench apps, workload generators, and table renderers."""

import pytest

from repro.api import frontend_app
from repro.bench import APPS, app_by_name, branchy_app, chain_app, container_app
from repro.reporting import (
    Table1Row,
    Table2Row,
    render_table1,
    render_table2,
)


class TestBenchApps:
    def test_seven_apps_like_the_paper(self):
        assert len(APPS) == 7
        assert [a.name for a in APPS] == [
            "PulsePoint",
            "StandupTimer",
            "DroidLife",
            "OpenSudoku",
            "SMSPopUp",
            "aMetro",
            "K9Mail",
        ]

    @pytest.mark.parametrize("app", APPS, ids=lambda a: a.name)
    def test_every_app_compiles_with_harness(self, app):
        frontend_app(app.source)

    def test_app_lookup(self):
        assert app_by_name("k9mail").name == "K9Mail"
        with pytest.raises(KeyError):
            app_by_name("nope")

    def test_k9mail_contains_figure5_pattern(self):
        app = app_by_name("K9Mail")
        assert "getInstance" in app.source
        assert "ResourceCursorAdapter" in app.source

    def test_standuptimer_contains_latent_flag(self):
        app = app_by_name("StandupTimer")
        assert "cacheDAOInstances = false" in app.source


class TestWorkloadGenerators:
    @pytest.mark.parametrize("depth", [0, 1, 5])
    def test_chain_app_compiles(self, depth):
        frontend_app(chain_app(depth))

    @pytest.mark.parametrize("branches,leaky", [(1, True), (3, False)])
    def test_branchy_app_compiles(self, branches, leaky):
        frontend_app(branchy_app(branches, leaky))

    @pytest.mark.parametrize("n", [1, 4])
    def test_container_app_compiles(self, n):
        source = container_app(n)
        frontend_app(source)
        assert source.count("class LocalAct") == n


def _row(app="X", annotated=False, **over):
    base = dict(
        app=app,
        annotated=annotated,
        sloc=10,
        cg_commands=100,
        alarms=10,
        refuted_alarms=6,
        true_alarms=3,
        false_alarms=1,
        fields=4,
        refuted_fields=2,
        edges_refuted=8,
        edges_witnessed=5,
        edge_timeouts=0,
        seconds=1.25,
        unsound_refutations=0,
    )
    base.update(over)
    return Table1Row(**base)


class TestRenderers:
    def test_table1_renders_rows_and_totals(self):
        text = render_table1([_row("Alpha"), _row("Beta", annotated=True)])
        assert "Alpha" in text and "Beta" in text
        assert text.count("Total") == 2  # one per configuration
        assert "Ann?" in text

    def test_table1_percentages(self):
        row = _row(alarms=4, refuted_alarms=2, true_alarms=1, false_alarms=1)
        assert row.pct(row.refuted_alarms) == 50
        assert _row(alarms=0, refuted_alarms=0).pct(0) == 0

    def test_table2_slowdown(self):
        row = Table2Row(
            app="X",
            annotated=False,
            mixed_seconds=2.0,
            symbolic_seconds=5.0,
            mixed_timeouts=0,
            symbolic_timeouts=2,
            mixed_refuted_alarms=4,
            symbolic_refuted_alarms=4,
        )
        assert row.slowdown == pytest.approx(2.5)
        assert row.timeout_delta == 2
        text = render_table2([row])
        assert "2.5X" in text and "+2" in text

    def test_table2_zero_mixed_time(self):
        row = Table2Row("X", False, 0.0, 3.0, 0, 0, 1, 1)
        assert row.slowdown == 1.0
