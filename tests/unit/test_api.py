"""Tests for the ``repro.api`` facade and the normalized client protocol."""

import warnings

import pytest

from repro.api import (
    CLIENTS,
    SCHEMA_VERSION,
    SELECTORS,
    AnalysisRequest,
    AnalysisResult,
    analyze,
    validate_selectors,
)
from repro.clients import (
    POSSIBLY_UNSAFE,
    analyze_casts,
    analyze_reachability,
)
from repro.engine import RunReport
from repro.ir import compile_program
from repro.pointsto import analyze as pointsto_analyze

CAST_SAFE = (
    "class A { } class B { } class M { static void main() {"
    " int tag = 0;"
    " Object o = new A();"
    " if (tag == 1) { o = new B(); }"
    " A a = (A) o; } }"
)
CAST_UNSAFE = (
    "class A { } class B { } class M { static void main() {"
    " Object o = new B(); A a = (A) o; } }"
)
IMMUTABLE_SRC = (
    "class Point { int x; Point(int x) { this.x = x; } }"
    " class M { static void main() {"
    " Point p = new Point(1);"
    " int debug = 0;"
    " if (debug == 1) { p.x = 9; } } }"
)
MUTATED_SRC = (
    "class Point { int x; Point(int x) { this.x = x; } }"
    " class M { static void main() {"
    " Point p = new Point(1); p.x = 2; } }"
)
LEAKED_REP_SRC = (
    "class Rep { } class Owner { Rep rep;"
    "   Owner() { this.rep = new Rep(); }"
    "   Rep expose() { return this.rep; } }"
    " class M { static Rep stolen; static void main() {"
    " Owner o = new Owner(); M.stolen = o.expose(); } }"
)
REACH_VERIFIED_SRC = (
    "class Secret { } class M { static Object pub;"
    " static void main() {"
    " Object o = new Object();"
    " int k = 0;"
    " if (k == 5) { o = new Secret(); }"
    " M.pub = o; } }"
)


def pta_of(source):
    return pointsto_analyze(compile_program(source))


class TestFacade:
    def test_casts_from_source(self):
        result = analyze(client="casts", source=CAST_SAFE)
        assert isinstance(result, AnalysisResult)
        assert result.client == "casts"
        assert result.verified and result.status == "verified"
        assert result.stats.items == 1 and result.stats.verified_items == 1
        assert isinstance(result.report, RunReport)
        assert result.report.command == "casts"
        assert len(result.report.records) == 1  # one non-trivial cast job

    def test_casts_violated(self):
        result = analyze(client="casts", source=CAST_UNSAFE)
        assert not result.verified
        assert result.status == "violated"
        assert result.stats.violated_items == 1
        assert result.results[0].status == POSSIBLY_UNSAFE

    def test_request_object_and_prebuilt_stages(self):
        # The same analysis from source, program, and pta must agree.
        program = compile_program(CAST_UNSAFE)
        pta = pointsto_analyze(program)
        by_source = analyze(AnalysisRequest(client="casts", source=CAST_UNSAFE))
        by_program = analyze(AnalysisRequest(client="casts", program=program))
        by_pta = analyze(AnalysisRequest(client="casts", pta=pta))
        assert by_source.status == by_program.status == by_pta.status
        assert (
            by_source.stats.to_dict()["items"]
            == by_program.stats.to_dict()["items"]
            == by_pta.stats.to_dict()["items"]
        )

    def test_immutability(self):
        ok = analyze(client="immutability", source=IMMUTABLE_SRC, class_name="Point")
        assert ok.verified
        assert ok.stats.items == 1 and ok.stats.verified_items == 1
        bad = analyze(client="immutability", source=MUTATED_SRC, class_name="Point")
        assert bad.status == "violated"

    def test_encapsulation(self):
        result = analyze(
            client="encapsulation",
            source=LEAKED_REP_SRC,
            owner_class="Owner",
            field_name="rep",
        )
        assert result.status == "violated"
        assert any(str(r.root) == "M.stolen" for r in result.results)

    def test_reachability(self):
        result = analyze(
            client="reachability",
            source=REACH_VERIFIED_SRC,
            root_class="M",
            root_field="pub",
            target_class="Secret",
        )
        assert result.verified
        assert result.stats.items == 1

    def test_reachability_site_flavor(self):
        src = (
            "class Box { Object v; } class M { static Box keep;"
            " static void main() {"
            " Box local = new Box();"
            " Box kept = new Box();"
            " M.keep = kept; } }"
        )
        assert analyze(client="reachability", source=src, site="box0").verified
        leaked = analyze(client="reachability", source=src, site="box1")
        assert leaked.status == "violated"

    def test_budget_and_jobs_knobs(self):
        result = analyze(
            client="casts", source=CAST_UNSAFE, jobs=2, budget=500
        )
        assert result.report.jobs == 2
        assert result.report.path_budget == 500

    def test_context_policy_knob(self):
        from repro.pointsto import ObjectSensitive

        result = analyze(
            client="casts",
            source=CAST_UNSAFE,
            context_policy=ObjectSensitive(2),
        )
        assert result.status == "violated"
        with pytest.raises(ValueError, match="context_policy"):
            analyze(
                client="casts",
                pta=pta_of(CAST_UNSAFE),
                context_policy=ObjectSensitive(2),
            )

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unknown client"):
            analyze(client="nonsense", source=CAST_SAFE)
        with pytest.raises(ValueError, match="source=, program=, or pta="):
            analyze(client="casts")
        with pytest.raises(ValueError, match="class_name"):
            analyze(client="immutability", source=IMMUTABLE_SRC)
        with pytest.raises(ValueError, match="owner_class"):
            analyze(client="encapsulation", source=LEAKED_REP_SRC)
        with pytest.raises(ValueError, match="root_class"):
            analyze(client="reachability", source=REACH_VERIFIED_SRC)
        with pytest.raises(TypeError, match="not both"):
            analyze(AnalysisRequest(client="casts", source=CAST_SAFE), jobs=2)

    def test_clients_constant_covers_all_four(self):
        assert set(CLIENTS) == {
            "reachability", "casts", "immutability", "encapsulation",
        }

    def test_top_level_reexports(self):
        import repro

        assert repro.AnalysisRequest is AnalysisRequest
        assert repro.api.analyze is analyze
        # The historical export is untouched: repro.analyze is points-to.
        assert repro.analyze is pointsto_analyze


#: One wire-legal request per client, used by the round-trip tests.
WIRE_REQUESTS = {
    "casts": AnalysisRequest(client="casts", source=CAST_SAFE),
    "immutability": AnalysisRequest(
        client="immutability", source=IMMUTABLE_SRC, class_name="Point"
    ),
    "encapsulation": AnalysisRequest(
        client="encapsulation",
        source=LEAKED_REP_SRC,
        owner_class="Owner",
        field_name="rep",
    ),
    "reachability": AnalysisRequest(
        client="reachability",
        source=REACH_VERIFIED_SRC,
        root_class="M",
        root_field="pub",
        target_class="Secret",
        jobs=2,
        budget=5_000,
    ),
}


class TestWireSchema:
    """`AnalysisRequest.to_dict()`/`from_dict()` — the serve daemon's v1
    request schema — and `AnalysisResult.to_dict()`."""

    @pytest.mark.parametrize("client", sorted(WIRE_REQUESTS))
    def test_round_trip_all_four_clients(self, client):
        import json

        request = WIRE_REQUESTS[client]
        wire = request.to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION
        # Everything on the wire is JSON-serializable as-is.
        rebuilt = AnalysisRequest.from_dict(json.loads(json.dumps(wire)))
        assert rebuilt == request
        # And idempotent: a second trip is byte-identical.
        assert rebuilt.to_dict() == wire

    def test_round_tripped_request_analyzes_identically(self):
        request = WIRE_REQUESTS["casts"]
        direct = analyze(request)
        rebuilt = analyze(AnalysisRequest.from_dict(request.to_dict()))
        assert direct.status == rebuilt.status
        stats_a, stats_b = direct.stats.to_dict(), rebuilt.stats.to_dict()
        stats_a.pop("seconds"), stats_b.pop("seconds")
        assert stats_a == stats_b

    def test_local_only_fields_refuse_to_serialize(self):
        program = compile_program(CAST_SAFE)
        with pytest.raises(ValueError, match="program=.*cannot cross the wire"):
            AnalysisRequest(client="casts", program=program).to_dict()
        with pytest.raises(ValueError, match="pta=.*cannot cross the wire"):
            AnalysisRequest(client="casts", pta=pta_of(CAST_SAFE)).to_dict()
        with pytest.raises(ValueError, match="on_event="):
            AnalysisRequest(
                client="casts", source=CAST_SAFE, on_event=lambda e: None
            ).to_dict()

    def test_from_dict_rejects_unknown_fields_helpfully(self):
        with pytest.raises(
            ValueError, match=r"unknown AnalysisRequest field\(s\) sauce"
        ) as err:
            AnalysisRequest.from_dict(
                {"client": "casts", "sauce": CAST_SAFE}
            )
        # The error teaches the accepted schema.
        assert "source" in str(err.value) and "budget" in str(err.value)
        # The retired solver-partitioning toggle is an unknown field too.
        with pytest.raises(
            ValueError, match=r"unknown AnalysisRequest field\(s\) partition"
        ):
            AnalysisRequest.from_dict(
                {"client": "casts", "source": CAST_SAFE, "partition": False}
            )

    def test_from_dict_rejects_wrong_schema_version(self):
        with pytest.raises(ValueError, match="unsupported schema_version 99"):
            AnalysisRequest.from_dict(
                {"client": "casts", "source": CAST_SAFE, "schema_version": 99}
            )

    def test_from_dict_requires_client(self):
        with pytest.raises(ValueError, match="needs client="):
            AnalysisRequest.from_dict({"source": CAST_SAFE})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ValueError, match="needs a dict, got list"):
            AnalysisRequest.from_dict(["casts"])

    def test_result_to_dict_shape(self):
        result = analyze(WIRE_REQUESTS["reachability"])
        wire = result.to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION
        assert wire["client"] == "reachability"
        assert wire["verified"] is True and wire["status"] == "verified"
        assert wire["stats"] == result.stats.to_dict()
        assert isinstance(wire["results"], list) and wire["results"]
        assert all("description" in r for r in wire["results"])
        assert wire["report"]["command"] == "reachability"


class TestSelectorValidation:
    """The per-client selector table: misapplied selectors raise before
    any pipeline work instead of being silently ignored."""

    def test_table_covers_all_clients(self):
        assert set(SELECTORS) == set(CLIENTS)

    def test_casts_takes_no_selectors(self):
        with pytest.raises(
            ValueError, match="class_name=.*'casts'.*takes no selectors"
        ):
            analyze(client="casts", source=CAST_SAFE, class_name="A")

    def test_immutability_rejects_reachability_selectors(self):
        with pytest.raises(
            ValueError, match="root_class=.*'immutability'.*accepts class_name="
        ):
            analyze(
                client="immutability",
                source=IMMUTABLE_SRC,
                class_name="Point",
                root_class="M",
            )

    def test_encapsulation_missing_fields_spelled_out(self):
        with pytest.raises(ValueError, match="needs field_name="):
            analyze(
                client="encapsulation",
                source=LEAKED_REP_SRC,
                owner_class="Owner",
            )

    def test_reachability_site_and_triple_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            analyze(
                client="reachability",
                source=REACH_VERIFIED_SRC,
                site="secret0",
                root_class="M",
                root_field="pub",
                target_class="Secret",
            )

    def test_reachability_partial_triple(self):
        with pytest.raises(
            ValueError, match="site= or all of root_class=, root_field="
        ):
            analyze(
                client="reachability",
                source=REACH_VERIFIED_SRC,
                root_class="M",
            )

    def test_validate_selectors_is_pure_precheck(self):
        # Validation never needs the program: a bogus selector fails even
        # with no program input at all.
        with pytest.raises(ValueError, match="do not apply"):
            validate_selectors(AnalysisRequest(client="casts", site="x"))

    def test_over_specified_program_input(self):
        program = compile_program(CAST_SAFE)
        with pytest.raises(
            ValueError, match="exactly one of source=, program=, or pta=; got"
        ):
            analyze(
                AnalysisRequest(
                    client="casts", source=CAST_SAFE, program=program
                )
            )


class TestParityWithLegacyEntryPoints:
    """The normalized entry points wrap — not reimplement — the originals."""

    def test_reachability_parity(self):
        pta = pta_of(REACH_VERIFIED_SRC)
        from repro.clients import assert_unreachable, verified

        legacy = assert_unreachable(pta, "M", "pub", "Secret")
        modern = analyze_reachability(pta, "M", "pub", "Secret")
        assert modern.verified == verified(legacy)
        assert [r.status for r in legacy] == [r.status for r in modern.results]


class TestDeprecationShims:
    """The deprecated per-client entry points are gone; what replaced them
    must not warn."""

    def test_normalized_entry_points_do_not_warn(self):
        pta = pta_of(CAST_SAFE)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            analyze_casts(pta)
            analyze(client="casts", pta=pta)
