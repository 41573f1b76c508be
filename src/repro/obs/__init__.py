"""Observability for the refutation pipeline: span tracing + metrics.

Three complementary substrates (see docs/observability.md):

* :mod:`repro.obs.trace` — hierarchical span tracing with a near-zero-cost
  disabled default and Chrome trace-event JSON export (``--trace FILE``,
  loadable in ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.metrics` — an always-on process-wide registry of named
  counters, gauges, and p50/p95 histograms (``--metrics FILE``);
* :mod:`repro.obs.provenance` — per-query search journals recording every
  state spawned/killed/witnessed during backwards symbolic execution, with
  typed kill reasons, JSONL/DOT export, and refutation certificates
  (``--journal FILE``, ``repro explain``). No-op unless installed.
* :mod:`repro.obs.telemetry` — the operational layer on top: Prometheus
  text exposition of the registry (``GET /metrics``), the lifecycle-event
  hub behind ``watch`` / ``repro top``, the always-on slow-query flight
  recorder, which persists a slow search's journal beside its run-report
  record (``repro explain --slow``), and periodic snapshot streaming
  (``--metrics-stream FILE``).

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
from .telemetry import FlightRecorder, MetricsStreamer, TelemetryHub
from .trace import SpanRecord, Tracer

__all__ = [
    "metrics",
    "provenance",
    "telemetry",
    "trace",
    "FlightRecorder",
    "MetricsStreamer",
    "TelemetryHub",
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
