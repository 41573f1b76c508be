"""Scheduling vs verdict parity (the repro.engine.schedule contract).

The scheduling layer reorders and re-budgets *work*, never answers:

* **priority vs LIFO** — the cost-model dispatch order and best-first
  worklist change which state is expanded next, but on budget-ample runs
  every search still converges to the same verdict;
* **portfolio vs single rung** — cheap-first budget rungs re-run only
  survivors, and the final rung is the full configured budget, so every
  job ends with exactly the single-rung verdict.

Hypothesis generates small mini-Java programs (same universe as the
refutation-soundness suite) and all four analysis clients run end to end
under each policy pair; verdicts and per-item outcomes must match, and
for priority-vs-LIFO the per-job record statuses too. Effort counters
(path programs, wall clock) are deliberately *not* compared —
reordering and re-running legitimately change them. The portfolio's
path-level ladder may resolve a *different set* of edges than the
serial Section 2 walk (a cheap path-mate can break the path before an
expensive edge is escalated — the same latitude the jobs>1 contract
already grants), so for the portfolio the record check is agreement:
any job recorded by both runs must carry the same status.
"""

from hypothesis import HealthCheck, given, seed, settings

from repro.api import AnalysisRequest, analyze
from repro.perf.memo import SOLVER_MEMO

from .test_refutation_soundness import programs

#: The four clients with the selectors matching the generated program
#: universe (classes Box and M, statics M.s / M.o).
CLIENT_REQUESTS = (
    dict(client="reachability", root_class="M", root_field="s", target_class="Box"),
    dict(client="casts"),
    dict(client="immutability", class_name="Box"),
    dict(client="encapsulation", owner_class="M", field_name="s"),
)


def _verdicts(source: str, **knobs) -> list:
    """Deterministic verdict fingerprint of all four clients' results —
    statuses and per-record verdicts only, no effort counters."""
    out = []
    for req in CLIENT_REQUESTS:
        SOLVER_MEMO.clear()
        result = analyze(
            AnalysisRequest(source=source, budget=3_000, **req, **knobs)
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
                records,
            )
        )
    return out


@seed(20130613)  # PLDI'13 — fixed so CI failures reproduce locally
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_priority_schedule_matches_lifo_for_all_four_clients(source):
    assert _verdicts(source, schedule="priority") == _verdicts(
        source, schedule="lifo"
    ), "priority scheduling changed a client outcome\nprogram:\n" + source


def _strip_records(fingerprint: list) -> list:
    return [entry[:-1] for entry in fingerprint]


def _record_maps(fingerprint: list) -> list:
    return [dict(entry[-1] or ()) for entry in fingerprint]


@seed(20130613)
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(programs())
def test_portfolio_matches_single_rung_for_all_four_clients(source):
    ladder = _verdicts(source, portfolio=True)
    single = _verdicts(source)
    assert _strip_records(ladder) == _strip_records(single), (
        "the budget portfolio changed a client outcome\nprogram:\n" + source
    )
    # The ladder may resolve a different *set* of jobs (a cheap path-mate
    # can break a path before an expensive edge escalates), but any job
    # both runs recorded must agree on its status.
    for ladder_records, single_records in zip(
        _record_maps(ladder), _record_maps(single)
    ):
        for description in ladder_records.keys() & single_records.keys():
            assert ladder_records[description] == single_records[description], (
                f"portfolio flipped {description!r}\nprogram:\n" + source
            )
