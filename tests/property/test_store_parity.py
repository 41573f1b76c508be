"""Warm-store vs cold parity (the persistent store's soundness contract).

The disk-backed verdict store (:mod:`repro.perf.store`) may only skip
decision-procedure runs whose outcome an earlier run already proved —
never change an answer. Three layers of evidence:

* a Hypothesis sweep over generated mini-Java programs: every edge is
  refuted cold (no store), then against a freshly populated store after
  the in-memory caches are wiped — verdicts and witness traces must be
  bit-identical;
* the same claim through :func:`repro.api.analyze` for all four clients
  (their wire renderings must match, and the warm run must actually hit
  the store);
* the process-pool backend: workers attach the same store directory and
  their hits surface in the merged run report.

Budgets are generous for the same reason as ``test_memo_parity``: a
tight budget could flip a TIMEOUT to a verdict across runs and fake a
mismatch that is really a budget artifact.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, seed, settings

from repro.api import CLIENTS, analyze
from repro.ir import compile_program
from repro.perf import store as perf_store
from repro.perf.memo import SOLVER_MEMO
from repro.pointsto import analyze as pointsto_analyze
from repro.symbolic import Engine, SearchConfig

from .test_refutation_soundness import programs

CONFIG = SearchConfig(path_budget=4_000)


@pytest.fixture(autouse=True)
def detached_store():
    perf_store.deactivate()
    yield
    perf_store.deactivate()


def refute_all(pta, config):
    """(status, witness trace) per edge, in deterministic edge order,
    from cold in-memory caches."""
    SOLVER_MEMO.clear()
    engine = Engine(pta, config)
    out = {}
    edges = list(pta.graph.heap_edges()) + list(pta.graph.static_edges())
    for edge in edges:
        result = engine.refute_edge(edge)
        trace = tuple(result.witness_trace) if result.witness_trace else None
        out[str(edge)] = (result.status, trace)
    return out


@seed(20130613)  # PLDI'13 — fixed so CI failures reproduce locally
@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_warm_store_verdicts_and_witnesses_identical_to_cold(source):
    pta = pointsto_analyze(compile_program(source))
    perf_store.deactivate()
    cold = refute_all(pta, CONFIG)
    with tempfile.TemporaryDirectory() as cache_dir:
        stored = CONFIG.copy(cache_dir=cache_dir)
        try:
            populating = refute_all(pta, stored)
            # Close the store (flushing the write-behind queue) and run
            # again: every reused verdict now provably came off disk.
            perf_store.deactivate()
            warm = refute_all(pta, stored)
        finally:
            perf_store.deactivate()
    assert populating == cold, (
        "populating the store changed an answer\nprogram:\n" + source
    )
    assert warm == cold, (
        "a warm store changed an answer\nprogram:\n" + source
    )


# -- client-level parity ------------------------------------------------------

CLIENT_REQUESTS = {
    "casts": dict(
        source=(
            "class A { } class B { } class M { static void main() {"
            " int tag = 0;"
            " Object o = new B();"
            " if (tag == 1) { o = new A(); }"
            " A a = (A) o; } }"
        ),
    ),
    "immutability": dict(
        source=(
            "class Point { int x; Point(int x) { this.x = x; } }"
            " class M { static void main() {"
            " Point p = new Point(1);"
            " int debug = 0;"
            " if (debug == 1) { p.x = 9; } } }"
        ),
        class_name="Point",
    ),
    "encapsulation": dict(
        source=(
            "class Rep { } class Owner { Rep rep;"
            "   Owner() { this.rep = new Rep(); }"
            "   Rep expose() { return this.rep; } }"
            " class M { static Rep stolen; static void main() {"
            " Owner o = new Owner(); M.stolen = o.expose(); } }"
        ),
        owner_class="Owner",
        field_name="rep",
    ),
    "reachability": dict(
        source=(
            "class Secret { } class M { static Object pub;"
            " static void main() {"
            " Object o = new Object();"
            " int k = 0;"
            " if (k == 5) { o = new Secret(); }"
            " M.pub = o; } }"
        ),
        root_class="M",
        root_field="pub",
        target_class="Secret",
    ),
}


#: Two downcasts, each of an object a dead branch may swap in.
TWO_CASTS = (
    "class A { } class B { } class M { static void main() {"
    " int tag = 0;"
    " Object o = new B();"
    " if (tag == 1) { o = new A(); }"
    " A a = (A) o;"
    " Object p = new A();"
    " if (tag == 2) { p = new B(); }"
    " B b = (B) p; } }"
)


def canon(result) -> dict:
    """The result's wire rendering minus everything timing- or
    cache-shaped: what "bit-identical verdicts" means on the wire."""
    d = result.to_dict()
    d["stats"].pop("seconds", None)
    report = d.pop("report") or {}
    d["records"] = sorted(
        (r["kind"], r["description"], r["status"])
        for r in report.get("records", [])
    )
    return d


class TestClientParity:
    @pytest.mark.parametrize("client", CLIENTS)
    def test_warm_equals_cold_for_every_client(self, client, tmp_path):
        kwargs = CLIENT_REQUESTS[client]
        SOLVER_MEMO.clear()
        cold = canon(analyze(client=client, **kwargs))
        cache_dir = str(tmp_path)

        SOLVER_MEMO.clear()
        populating = canon(analyze(client=client, cache_dir=cache_dir, **kwargs))
        perf_store.deactivate()

        SOLVER_MEMO.clear()
        warm = canon(analyze(client=client, cache_dir=cache_dir, **kwargs))
        assert perf_store.ACTIVE is not None
        assert perf_store.ACTIVE.hits > 0, "warm run never touched the store"

        assert populating == cold, f"{client}: populating changed the answer"
        assert warm == cold, f"{client}: a warm store changed the answer"

    def test_process_backend_shares_the_store(self, tmp_path):
        """``--backend process`` parity: workers attach the same store
        directory, and their hits surface in the merged run report. Two
        suspicious casts make a flat batch of two fact jobs, which runs on
        the pool."""
        kwargs = dict(source=TWO_CASTS)
        cache_dir = str(tmp_path)
        SOLVER_MEMO.clear()
        cold = canon(analyze(client="casts", jobs=2, **kwargs))

        SOLVER_MEMO.clear()
        analyze(client="casts", cache_dir=cache_dir, **kwargs)
        perf_store.deactivate()

        SOLVER_MEMO.clear()
        warm_result = analyze(
            client="casts",
            cache_dir=cache_dir,
            jobs=2,
            backend="process",
            **kwargs,
        )
        assert canon(warm_result) == cold
        workers = [r.worker for r in warm_result.report.records]
        assert len(workers) == 2, workers
        assert all(w.startswith("process-") for w in workers), workers
        store_section = warm_result.report.cache["store"]
        assert store_section["enabled"]
        assert store_section["hits"] > 0, "no worker ever hit the store"
