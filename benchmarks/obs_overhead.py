#!/usr/bin/env python
"""Guard: disabled tracing AND journaling must stay near-zero-cost.

The observability layer (:mod:`repro.obs`) promises that when no tracer is
installed, every instrumentation point costs one function call returning a
shared no-op span — and that when no search journal is installed
(:mod:`repro.obs.provenance`), every journaling hook in the executor and
solver is a guard check that falls through. This script keeps both
promises honest, and CI runs it:

1. microbenchmark the no-op ``trace.span(...)`` call itself;
2. run a real refutation workload with tracing disabled and time it;
3. run it again with a tracer installed to count how many spans the
   workload actually opens;
4. estimate the disabled-mode overhead as (span count x no-op cost) and
   assert it is below ``--threshold`` (default 5%) of the disabled-mode
   wall time;
5. repeat the same count-times-unit-cost estimate for journaling: count
   the journal events the workload records when a journal is installed,
   microbenchmark the disabled ``provenance.enabled()`` guard (the
   costliest disabled-path hook — it runs once per solver check), and
   assert that estimate is under the same threshold.

Exit status 0 = within budget, 1 = overhead budget blown.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py [--threshold 0.05]
"""

from __future__ import annotations

import argparse
import sys
import time


def noop_span_cost(calls: int = 200_000) -> float:
    """Seconds per disabled ``trace.span(...)`` enter/exit round trip."""
    from repro.obs import trace

    assert not trace.enabled(), "tracing must be disabled for the microbench"
    span = trace.span
    start = time.perf_counter()
    for _ in range(calls):
        with span("overhead.probe"):
            pass
    return (time.perf_counter() - start) / calls


def workload_seconds(repeats: int = 3) -> float:
    """Best-of-N wall time of the reference workload, tracing disabled."""
    from repro.android.leaks import LeakChecker
    from repro.bench.workloads import container_app

    source = container_app(3)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        LeakChecker(source, "obs-overhead").run()
        best = min(best, time.perf_counter() - start)
    return best


def workload_span_count() -> int:
    """How many spans the reference workload opens when tracing is on."""
    from repro.android.leaks import LeakChecker
    from repro.bench.workloads import container_app
    from repro.obs import trace

    tracer = trace.install()
    try:
        LeakChecker(container_app(3), "obs-overhead").run()
    finally:
        trace.disable()
    return len(tracer.spans()) + tracer.dropped_spans


def noop_journal_guard_cost(calls: int = 200_000) -> float:
    """Seconds per disabled journaling guard check.

    The executor's per-state hooks reduce to an ``is None`` attribute
    test; the solver's unsat-detail hook calls ``provenance.enabled()``
    once per ``check_sat``. We benchmark the latter — the most expensive
    shape a disabled journaling hook takes."""
    from repro.obs import provenance

    assert (
        not provenance.enabled()
    ), "journaling must be disabled for the microbench"
    enabled = provenance.enabled
    start = time.perf_counter()
    for _ in range(calls):
        if enabled():
            raise AssertionError("journal unexpectedly installed")
    return (time.perf_counter() - start) / calls


def workload_journal_events() -> int:
    """How many journal events the workload records when one is attached."""
    from repro.android.leaks import LeakChecker
    from repro.bench.workloads import container_app
    from repro.obs import provenance

    book = provenance.install()
    try:
        LeakChecker(container_app(3), "obs-overhead").run()
    finally:
        provenance.disable()
    return sum(
        len(journal.events) + journal.dropped_events
        for journal in book.searches
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="max tolerated disabled-tracing overhead fraction (default 0.05)",
    )
    args = parser.parse_args(argv)

    per_span = noop_span_cost()
    base = workload_seconds()
    spans = workload_span_count()
    estimate = spans * per_span
    fraction = estimate / base if base > 0 else 0.0

    per_guard = noop_journal_guard_cost()
    events = workload_journal_events()
    journal_estimate = events * per_guard
    journal_fraction = journal_estimate / base if base > 0 else 0.0

    print(f"no-op span cost:           {per_span * 1e9:8.1f} ns/span")
    print(f"workload (disabled):       {base * 1e3:8.1f} ms")
    print(f"spans opened (enabled):    {spans:8d}")
    print(
        f"estimated trace overhead:  {estimate * 1e3:8.3f} ms"
        f" ({fraction * 100:.2f}% of the workload)"
    )
    print(f"journal guard cost:        {per_guard * 1e9:8.1f} ns/check")
    print(f"journal events (enabled):  {events:8d}")
    print(
        f"estimated journal overhead:{journal_estimate * 1e3:8.3f} ms"
        f" ({journal_fraction * 100:.2f}% of the workload)"
    )
    failed = False
    if fraction >= args.threshold:
        print(
            f"FAIL: disabled-tracing overhead {fraction * 100:.2f}%"
            f" >= {args.threshold * 100:.1f}% budget",
            file=sys.stderr,
        )
        failed = True
    if journal_fraction >= args.threshold:
        print(
            f"FAIL: disabled-journaling overhead {journal_fraction * 100:.2f}%"
            f" >= {args.threshold * 100:.1f}% budget",
            file=sys.stderr,
        )
        failed = True
    if failed:
        return 1
    print(f"OK: within the {args.threshold * 100:.1f}% budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
