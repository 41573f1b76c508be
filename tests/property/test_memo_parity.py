"""Cached vs uncached parity (the repro.perf soundness contract).

Hypothesis generates small mini-Java programs (same universe as the
refutation-soundness suite); every heap/static edge is refuted twice —
once with all caches on (solver memoization + worklist subsumption),
once with everything ablated — and the verdicts and witness traces must
be identical. The caches may only skip work whose outcome is already
proven, never change an answer.

Budgets are generous on purpose: with caches on, the same path budget
stretches further, so a tight budget could flip a TIMEOUT to a verdict
and produce a spurious "mismatch" that is really a budget artifact.
"""

from hypothesis import HealthCheck, given, seed, settings

from repro.ir import compile_program
from repro.perf.memo import SOLVER_MEMO
from repro.pointsto import analyze
from repro.symbolic import Engine, SearchConfig

from .test_refutation_soundness import programs

CACHED = SearchConfig(
    path_budget=4_000, memoize_solver=True, state_subsumption=True
)
UNCACHED = SearchConfig(
    path_budget=4_000, memoize_solver=False, state_subsumption=False
)


def refute_all(pta, config):
    """(status, witness trace) per edge, in deterministic edge order."""
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
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_verdicts_and_witnesses_identical_with_and_without_caches(source):
    pta = analyze(compile_program(source))
    with_caches = refute_all(pta, CACHED)
    without_caches = refute_all(pta, UNCACHED)
    assert with_caches == without_caches, (
        "memoization changed an answer\nprogram:\n" + source
    )


@seed(20130613)
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_each_ablation_is_independently_neutral(source):
    """Each cache is neutral on its own, not just in combination."""
    pta = analyze(compile_program(source))
    baseline = refute_all(pta, UNCACHED)
    memo_only = refute_all(
        pta, UNCACHED.copy(memoize_solver=True)
    )
    subsumption_only = refute_all(
        pta, UNCACHED.copy(state_subsumption=True)
    )
    assert memo_only == baseline, "solver memo changed an answer\n" + source
    assert subsumption_only == baseline, (
        "state subsumption changed an answer\n" + source
    )
