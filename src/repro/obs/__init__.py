"""Observability for the refutation pipeline: spans, metrics and journals.

Three complementary substrates, plus an exposition of the registry (see
docs/observability.md):

* :mod:`repro.obs.trace` — hierarchical span tracing with a near-zero-cost
  disabled default and Chrome trace-event JSON export (``--trace FILE``,
  loadable in ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — an always-on process-wide registry of named
  counters, gauges, and p50/p95 histograms (``--metrics FILE``);
* :mod:`repro.obs.provenance` — per-query search journals recording every
  state spawned/killed/witnessed during backwards symbolic execution, with
  typed kill reasons, JSONL/DOT export, and refutation certificates
  (``--journal FILE``, ``repro explain``). No-op unless installed.
* :mod:`repro.obs.telemetry` — the registry as Prometheus text
  exposition (``GET /metrics`` and the serve ``metrics`` op).

Usage from pipeline code::

    from ..obs import metrics, trace

    _SEARCHES = metrics.counter("executor.searches")

    with trace.span("executor.search", edge=str(edge)) as sp:
        ...
        sp.set(status=result.status)
    _SEARCHES.inc()
"""

from . import metrics, provenance, telemetry, trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, REGISTRY
from .provenance import RunJournal, SearchJournal
from .trace import SpanRecord, Tracer

__all__ = [
    "metrics",
    "provenance",
    "telemetry",
    "trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "RunJournal",
    "SearchJournal",
    "SpanRecord",
    "Tracer",
]
