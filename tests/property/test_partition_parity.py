"""Partitioned vs monolithic solver parity (the repro.solver.partition
soundness contract).

Two layers of evidence that relevance partitioning never changes an
answer, only skips work:

* **atom-level** — Hypothesis generates random mixed ``RefAtom`` /
  ``LinAtom`` conjunctions (shared variables, NULL operands, nonnull
  facts, ground contradictions); ``check_sat`` must agree between the
  monolithic path and every partitioned flavor (cold, memo-warmed,
  basis-warmed, memo-disabled);
* **client-level** — Hypothesis generates small mini-Java programs (same
  universe as the refutation-soundness suite) and all four analysis
  clients run end to end with partitioning on and off; verdicts, per-item
  outcomes, and per-job record statuses must be bit-identical
  (``--no-partition`` restores the exact pre-partitioning solver path).
"""

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.api import AnalysisRequest, analyze
from repro.perf.memo import SOLVER_MEMO, SOLVER_PARTITION
from repro.solver import (
    NULL,
    LinAtom,
    LinExpr,
    check_sat,
)

from .test_refutation_soundness import programs

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
    memo_was, part_was = SOLVER_MEMO.enabled, SOLVER_PARTITION.enabled
    try:
        SOLVER_MEMO.set_enabled(True)
        SOLVER_MEMO.clear()
        SOLVER_PARTITION.set_enabled(False)
        mono = check_sat(atoms, nonnull=nonnull)

        SOLVER_PARTITION.set_enabled(True)
        SOLVER_MEMO.clear()
        cold = check_sat(atoms, nonnull=nonnull)
        warm = check_sat(atoms, nonnull=nonnull)  # component memo hits
        # Basis-warmed: grown from a SAT prefix with fewer non-null
        # facts (only the changed components are decided), and answered
        # whole from a basis equal to the query.
        got = [cold, warm]
        half = len(atoms) // 2
        prefix, fewer = atoms[:half], frozenset(sorted(nonnull)[1:])
        SOLVER_MEMO.clear()
        if check_sat(prefix, nonnull=fewer):
            basis = (frozenset(prefix), fewer)
            got.append(check_sat(atoms, nonnull=nonnull, basis=basis))
        if cold:
            basis = (frozenset(atoms), nonnull)
            got.append(check_sat(atoms, nonnull=nonnull, basis=basis))

        SOLVER_MEMO.set_enabled(False)
        got.append(check_sat(atoms, nonnull=nonnull))  # memo disabled

        assert all(v == mono for v in got), (
            f"partitioned solver diverged: monolithic={mono} got={got}\n"
            f"atoms={atoms}\nnonnull={set(nonnull)}"
        )
    finally:
        SOLVER_MEMO.set_enabled(memo_was)
        SOLVER_PARTITION.set_enabled(part_was)
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
    """Deterministic fingerprint of all four clients' results."""
    out = []
    for req in CLIENT_REQUESTS:
        SOLVER_MEMO.clear()
        result = analyze(
            AnalysisRequest(
                source=source, budget=3_000, partition=partition, **req
            )
        )
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
