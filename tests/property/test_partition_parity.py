"""Partitioned vs monolithic solver parity (the repro.solver.partition
soundness contract).

The oracle is the whole-conjunction decider: union-find plus
Fourier–Motzkin over every atom at once (``_decide_component`` on the
full atom list), with no splitting, record or cache. Two layers of
evidence that relevance partitioning never changes an answer, only skips
work:

* **atom-level** — Hypothesis generates random mixed ``RefAtom`` /
  ``LinAtom`` conjunctions (shared variables, NULL operands, nonnull
  facts, ground contradictions); ``check_sat`` must agree with the
  oracle in every flavor (cold, memo-warmed, record-warmed,
  memo-disabled);
* **client-level** — Hypothesis generates small mini-Java programs (same
  universe as the refutation-soundness suite) and all four analysis
  clients run end to end on ``check_sat`` and on the oracle; verdicts,
  per-item outcomes, and per-job record statuses must be bit-identical.
"""

from types import SimpleNamespace
from unittest import mock

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.api import AnalysisRequest, analyze
from repro.perf.memo import SOLVER_MEMO
from repro.solver import (
    NULL,
    LinAtom,
    LinExpr,
    SolverStats,
    check_sat,
)
from repro.solver import core
from repro.symbolic import query as query_mod

from .test_refutation_soundness import programs



def monolithic(atoms, nonnull=None, stats=None, separation=(), lineage=None):
    """The whole-conjunction oracle, with ``check_sat``'s signature."""
    return core._decide_component(
        list(atoms) + list(separation), nonnull or frozenset(), stats or SolverStats()
    )


REF_VARS = ["r0", "r1", "r2", "r3"]
INT_VARS = ["x0", "x1", "x2", "x3", "x4"]


@st.composite
def lin_atoms(draw):
    n = draw(st.integers(0, 3))
    vs = draw(
        st.lists(st.sampled_from(INT_VARS), min_size=n, max_size=n, unique=True)
    )
    coeffs = {
        v: draw(st.integers(-3, 3).filter(lambda c: c != 0)) for v in vs
    }
    const = draw(st.integers(-8, 8))
    op = draw(st.sampled_from(["<=", "==", "!="]))
    return LinAtom(op, LinExpr.of(coeffs, const))


@st.composite
def ref_atoms(draw):
    from repro.solver import ref_eq, ref_ne

    sides = REF_VARS + [NULL]
    a = draw(st.sampled_from(sides))
    b = draw(st.sampled_from(sides))
    return draw(st.sampled_from([ref_eq, ref_ne]))(a, b)


@st.composite
def conjunctions(draw):
    atoms = draw(
        st.lists(st.one_of(lin_atoms(), ref_atoms()), min_size=0, max_size=10)
    )
    nonnull = frozenset(
        draw(st.lists(st.sampled_from(REF_VARS), max_size=3, unique=True))
    )
    return atoms, nonnull


@seed(20130613)  # PLDI'13 — fixed so CI failures reproduce locally
@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(conjunctions())
def test_partitioned_check_sat_agrees_with_monolithic(case):
    atoms, nonnull = case
    memo_was = SOLVER_MEMO.enabled
    try:
        mono = monolithic(atoms, nonnull)

        SOLVER_MEMO.set_enabled(True)
        SOLVER_MEMO.clear()
        cold = check_sat(atoms, nonnull=nonnull)
        warm = check_sat(atoms, nonnull=nonnull)  # component memo hits
        # Record-warmed: grown from a SAT prefix with fewer non-null
        # facts (only the changed components are decided), and answered
        # whole from a record of the same query.
        got = [cold, warm]
        half = len(atoms) // 2
        prefix, fewer = atoms[:half], frozenset(sorted(nonnull)[1:])
        SOLVER_MEMO.clear()
        lineage = SimpleNamespace(components=None)
        if check_sat(prefix, nonnull=fewer, lineage=lineage):
            got.append(check_sat(atoms, nonnull=nonnull, lineage=lineage))
        if cold:
            lineage = SimpleNamespace(components=None)
            check_sat(atoms, nonnull=nonnull, lineage=lineage)
            got.append(check_sat(atoms, nonnull=nonnull, lineage=lineage))

        SOLVER_MEMO.set_enabled(False)
        got.append(check_sat(atoms, nonnull=nonnull))  # memo disabled

        assert all(v == mono for v in got), (
            f"partitioned solver diverged: monolithic={mono} got={got}\n"
            f"atoms={atoms}\nnonnull={set(nonnull)}"
        )
    finally:
        SOLVER_MEMO.set_enabled(memo_was)
        SOLVER_MEMO.clear()


# -- client-level parity -------------------------------------------------------

#: The four clients with the selectors matching the generated program
#: universe (classes Box and M, statics M.s / M.o).
CLIENT_REQUESTS = (
    dict(client="reachability", root_class="M", root_field="s", target_class="Box"),
    dict(client="casts"),
    dict(client="immutability", class_name="Box"),
    dict(client="encapsulation", owner_class="M", field_name="s"),
)


def _outcome(source: str, partition: bool) -> list:
    """Deterministic fingerprint of all four clients' results, solved by
    ``check_sat`` (``partition``) or by the whole-conjunction oracle."""
    if not partition:
        with mock.patch.object(query_mod, "check_sat", monolithic):
            return _outcome(source, partition=True)
    out = []
    for req in CLIENT_REQUESTS:
        SOLVER_MEMO.clear()
        result = analyze(AnalysisRequest(source=source, budget=3_000, **req))
        records = (
            tuple(
                (record.description, record.status)
                for record in result.report.records
            )
            if result.report is not None
            else None
        )
        stats = result.stats
        out.append(
            (
                result.client,
                result.verified,
                result.status,
                stats.items,
                stats.verified_items,
                stats.violated_items,
                stats.inconclusive_items,
                stats.path_programs,
                records,
            )
        )
    return out


@seed(20130613)
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_all_four_clients_identical_with_and_without_partition(source):
    assert _outcome(source, partition=True) == _outcome(
        source, partition=False
    ), "partitioning changed a client outcome\nprogram:\n" + source
