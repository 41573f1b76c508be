"""Operational telemetry: exposition, live streaming, and the flight recorder.

The other :mod:`repro.obs` substrates (spans, metrics, journals) were
built for one-shot batch runs: install, run, dump a file. A resident
``repro serve`` daemon under portfolio scheduling needs the *operational*
layer on top — the ability to scrape, watch, and post-mortem a process
that never exits. Four pieces, all layered on the existing substrates
rather than new instrumentation:

* :func:`render_prometheus` — a versioned Prometheus text exposition of
  the process-wide metrics registry. Families that the registry keeps as
  flat dotted names (``executor.kill.<reason>``, the solver answer
  tiers, ``driver.rung.<event>.<rung>``, the store operations) are
  folded into properly *labeled* series so one scrape graphs the kill
  taxonomy, cache-tier mix, and rung ladder without regex gymnastics.
  Served as ``GET /metrics`` and the stdio ``metrics`` verb; batch runs
  can stream periodic snapshots to JSONL via :class:`MetricsStreamer`.
* :class:`TelemetryHub` — a bounded, cursor-addressable ring of per-edge
  lifecycle events (scheduled → rung-escalated → resolved)
  fed straight from the driver's event bus, plus the derived live state
  (in-flight searches, worker utilization, verdict totals) that the
  ``watch`` verb / ``GET /v1/watch`` stream and ``repro top`` render.
* :class:`FlightRecorder` — always-on slow-query capture. Any search
  slower than ``SearchConfig.slow_query_ms`` is *captured*: its full
  journal (and trace, when one can be recorded without disturbing an
  installed tracer) is persisted under :func:`flight_dir` beside a
  summary — the search's run-report record plus its cost-model
  estimate — so ``repro explain --slow`` works after the fact on a run
  that never passed ``--journal``.
* run-report diffing lives in :mod:`repro.engine.diff` (it needs the
  report model); this module stays importable from anywhere below the
  engine.

Import discipline: this module must not import :mod:`repro.engine` (the
driver imports ``repro.obs``); driver events are therefore consumed by
duck typing on the dataclass name and fields.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from typing import Callable, Optional

from . import metrics, provenance, trace

#: Bumped whenever the exposition's family names/labels change shape.
EXPOSITION_VERSION = 4

#: The scrape Content-Type (the standard Prometheus text format).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

#: Flat registry names folded into the labeled solver-answer family,
#: mirroring the tier names of ``perf.cache_report()["tiers"]``.
_TIER_LABELS = {
    "solver.context_hits": "context",
    "solver.component_memo_hits": "component_memo",
    # Whole queries the component record answered (a stable name).
    "solver.memo_hits": "whole_query_memo",
    "solver.fastpath_unsat": "fastpath_unsat",
    "solver.checks": "decision",
}

#: Persistent verdict-store counters (``repro.perf.store``) folded into one
#: labeled family; the store's size gauges (``store.entries``,
#: ``store.bytes``) stay generic ``repro_store_*`` gauges.
_STORE_LABELS = {
    "store.hits": "hit",
    "store.misses": "miss",
    "store.writes": "write",
    "store.evictions": "evict",
    "store.errors": "error",
}

_KILL_PREFIX = "executor.kill."
_RUNG_RE = re.compile(r"^driver\.rung\.(scheduled|resolved|carryover)\.(\d+)$")

_FAMILY_HELP = {
    "repro_executor_kills_total": "Path states killed, by kill-taxonomy reason.",
    "repro_solver_answers_total": "Solver queries answered, by cache tier.",
    "repro_driver_rung_jobs_total":
        "Portfolio-ladder jobs, by lifecycle event and rung.",
    "repro_store_ops_total":
        "Persistent verdict-store operations, by outcome.",
}


def _sanitize(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_]", "_", name)


def _fmt(value) -> str:
    if value is None:
        return "NaN"
    f = float(value)
    if f.is_integer():
        return str(int(f))
    return repr(f)


def render_prometheus(registry: Optional[metrics.MetricsRegistry] = None) -> str:
    """The registry as Prometheus text exposition (format 0.0.4).

    Deterministic: families and sample lines are emitted sorted, and the
    first line carries :data:`EXPOSITION_VERSION` so golden tests (and
    scrapers that care) can pin the shape.
    """
    registry = registry if registry is not None else metrics.REGISTRY
    dump = registry.to_dict()
    families: dict[str, dict] = {}

    def family(name: str, ftype: str, help_text: str) -> dict:
        fam = families.get(name)
        if fam is None:
            fam = families[name] = {
                "type": ftype, "help": help_text, "samples": [],
            }
        return fam

    for name in sorted(dump):
        data = dump[name]
        mtype = data.get("type")
        if mtype == "histogram":
            fam_name = "repro_" + _sanitize(name)
            fam = family(fam_name, "summary", f"Distribution of {name}.")
            for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
                value = data.get(key)
                if value is not None:
                    fam["samples"].append(
                        (f'{fam_name}{{quantile="{quantile}"}}', value)
                    )
            fam["samples"].append((fam_name + "_sum", data.get("sum", 0.0)))
            fam["samples"].append((fam_name + "_count", data.get("count", 0)))
            continue
        labels = None
        rung = _RUNG_RE.match(name)
        if name.startswith(_KILL_PREFIX):
            fam_name = "repro_executor_kills_total"
            labels = f'reason="{name[len(_KILL_PREFIX):]}"'
        elif name in _TIER_LABELS:
            fam_name = "repro_solver_answers_total"
            labels = f'tier="{_TIER_LABELS[name]}"'
        elif name in _STORE_LABELS:
            fam_name = "repro_store_ops_total"
            labels = f'op="{_STORE_LABELS[name]}"'
        elif rung is not None:
            fam_name = "repro_driver_rung_jobs_total"
            labels = f'event="{rung.group(1)}",rung="{rung.group(2)}"'
        if labels is not None:
            fam = family(fam_name, "counter", _FAMILY_HELP[fam_name])
            fam["samples"].append(
                (f"{fam_name}{{{labels}}}", data.get("value", 0))
            )
        elif mtype == "counter":
            fam_name = "repro_" + _sanitize(name) + "_total"
            fam = family(fam_name, "counter", f"Total {name}.")
            fam["samples"].append((fam_name, data.get("value", 0)))
        else:
            fam_name = "repro_" + _sanitize(name)
            fam = family(fam_name, "gauge", f"Current {name}.")
            fam["samples"].append((fam_name, data.get("value", 0)))

    lines = [f"# repro-exposition-version {EXPOSITION_VERSION}"]
    for fam_name in sorted(families):
        fam = families[fam_name]
        lines.append(f"# HELP {fam_name} {fam['help']}")
        lines.append(f"# TYPE {fam_name} {fam['type']}")
        for sample, value in sorted(fam["samples"]):
            lines.append(f"{sample} {_fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Live lifecycle streaming
# ---------------------------------------------------------------------------

#: Driver event classes that constitute the per-edge lifecycle (matched by
#: name — see the module docstring's import-discipline note).
_LIFECYCLE = frozenset({
    "RunStarted",
    "EdgeScheduled",
    "EdgeEscalated",
    "EdgeFinished",
    "RunFinished",
})


class TelemetryHub:
    """A bounded, cursor-addressable ring of driver lifecycle events.

    Subscribe :meth:`sink` to a driver's event bus (the serve session
    does this for its resident driver). Consumers poll
    :meth:`events_since` with the cursor from their previous call —
    the ``watch`` verb's wire protocol — or take a :meth:`snapshot` of
    the *derived* live state for one-shot renderers like ``repro top``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._seq = 0
        self._in_flight: dict[str, dict] = {}
        self._workers: dict[str, int] = {}
        self._totals = {
            "scheduled": 0,
            "escalated": 0,
            "refuted": 0,
            "witnessed": 0,
            "timeout": 0,
            "cached": 0,
        }
        self._run: Optional[dict] = None

    # -- ingestion ----------------------------------------------------------

    def sink(self, event) -> None:
        """An ``EventSink``: convert one driver event into a ring row."""
        kind = type(event).__name__
        if kind not in _LIFECYCLE:
            return
        row = {"event": kind}
        for field in getattr(event, "__dataclass_fields__", ()):
            row[field] = getattr(event, field)
        now = time.time()
        with self._lock:
            self._seq += 1
            row["seq"] = self._seq
            row["ts"] = now
            self._events.append(row)
            self._fold(kind, row, now)

    def _fold(self, kind: str, row: dict, now: float) -> None:
        """Fold one event into the derived live state (lock held)."""
        if kind == "RunStarted":
            self._run = {
                "total_jobs": row.get("total_jobs", 0),
                "jobs": row.get("jobs", 0),
                "backend": row.get("backend", ""),
                "started": now,
                "finished": None,
                "seconds": None,
            }
        elif kind == "EdgeScheduled":
            self._totals["scheduled"] += 1
            self._in_flight.setdefault(
                row["description"], {"since": now, "rung": 0}
            )
        elif kind == "EdgeEscalated":
            self._totals["escalated"] += 1
            entry = self._in_flight.get(row["description"])
            if entry is not None:
                entry["rung"] = row.get("rung", 0) + 1
        elif kind == "EdgeFinished":
            status = row.get("status", "")
            if row.get("cached"):
                self._totals["cached"] += 1
            elif status in self._totals:
                self._totals[status] += 1
            self._in_flight.pop(row["description"], None)
            worker = row.get("worker", "")
            self._workers[worker] = self._workers.get(worker, 0) + 1
        elif kind == "RunFinished":
            if self._run is not None:
                self._run["finished"] = now
                self._run["seconds"] = row.get("seconds")
            self._in_flight.clear()

    # -- consumption --------------------------------------------------------

    def events_since(
        self, cursor: int = 0, limit: int = 500
    ) -> tuple[int, list[dict]]:
        """Events with ``seq > cursor`` (oldest first, at most ``limit``)
        and the new cursor to resume from. A consumer that fell more than
        ``capacity`` events behind silently resumes from the oldest
        retained row — the ring never blocks the producer."""
        with self._lock:
            rows = [dict(r) for r in self._events if r["seq"] > cursor]
        rows = rows[:limit]
        new_cursor = rows[-1]["seq"] if rows else cursor
        return new_cursor, rows

    def snapshot(self) -> dict:
        """The derived live state for one-shot renderers (``repro top``)."""
        with self._lock:
            in_flight = [
                {"description": desc, **entry}
                for desc, entry in sorted(
                    self._in_flight.items(), key=lambda kv: kv[1]["since"]
                )
            ]
            return {
                "seq": self._seq,
                "in_flight": in_flight,
                "workers": dict(sorted(self._workers.items())),
                "totals": dict(self._totals),
                "run": dict(self._run) if self._run is not None else None,
            }


# ---------------------------------------------------------------------------
# Slow-query flight recorder
# ---------------------------------------------------------------------------

def flight_dir() -> str:
    """Where slow-query captures land: ``$REPRO_FLIGHT_DIR`` or
    ``.repro-flight`` under the working directory."""
    return os.environ.get("REPRO_FLIGHT_DIR", ".repro-flight")


class FlightRecorder:
    """Slow-query capture.

    :meth:`capture` persists a slow search's journal/trace; it reuses the
    installed run journal when there is one (never re-running, never
    mutating it), and otherwise replays the search on a fresh engine
    under a *temporary* journal — safe because the search is deterministic
    in ``(program, config)`` and the replay's temporary installs are
    restored before returning. Captures are capped per process
    (``max_captures``) and can be vetoed wholesale with
    ``REPRO_FLIGHT_DISABLE=1``.
    """

    def __init__(self, max_captures: int = 8) -> None:
        self.max_captures = max_captures
        self._lock = threading.Lock()
        self._captures = 0

    @staticmethod
    def capture_enabled() -> bool:
        return os.environ.get("REPRO_FLIGHT_DISABLE", "") != "1"

    def capture(
        self,
        description: str,
        summary: dict,
        replay: Optional[Callable[[], object]] = None,
        directory: Optional[str] = None,
    ) -> Optional[dict]:
        """Persist a slow search's journal (+ trace when recordable).

        Returns the capture's meta dict (also written as ``*.meta.json``)
        or ``None`` when capture is disabled, the per-process cap is
        reached, or no journal could be obtained."""
        if not self.capture_enabled():
            return None
        with self._lock:
            if self._captures >= self.max_captures:
                return None
            self._captures += 1
            index = self._captures
        journal, tracer = self._acquire(description, replay)
        if journal is None or not journal.searches:
            return None
        directory = directory or flight_dir()
        os.makedirs(directory, exist_ok=True)
        slug = _sanitize(description)[:60] or "search"
        stem = os.path.join(directory, f"{index:03d}-{slug}")
        journal_path = stem + ".journal.jsonl"
        journal.write_jsonl(journal_path)
        trace_path = None
        if tracer is not None and tracer.spans():
            trace_path = stem + ".trace.json"
            tracer.write(trace_path)
        meta = {
            "capture": index,
            "description": description,
            "summary": summary,
            "journal": os.path.basename(journal_path),
            "trace": os.path.basename(trace_path) if trace_path else None,
            "attribution": journal.attribution(),
            "ts": time.time(),
        }
        with open(stem + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return meta

    def _acquire(self, description: str, replay):
        """The capture's (journal, tracer) pair.

        With a run journal installed the search was already journaled:
        extract its entries into a standalone sub-journal (the installed
        journal is read, never re-run into — re-running would double the
        kill counts that ``RunReport.attribution`` is asserted against).
        With no journal installed, replay the search under temporary
        instruments; a temporary tracer is only installed when tracing is
        off, so an installed tracer is never swapped out.
        The temporary installs act process-wide: the caller keeps other
        searches from running meanwhile (the driver holds its search
        lock)."""
        book = provenance.get_journal()
        if book is not None:
            searches = book.searches_for(description)
            if not searches:
                return None, None
            sub = provenance.RunJournal()
            sub.absorb([sj.to_dict() for sj in searches])
            return sub, None
        if replay is None:
            return None, None
        temp_journal = provenance.install(provenance.RunJournal())
        temp_tracer = None if trace.enabled() else trace.install(
            trace.Tracer(max_spans=100_000)
        )
        try:
            # The search already counted itself once; the replay runs only
            # for its journal and trace, so this thread's registry updates
            # are dropped (other workers keep counting).
            with metrics.muted():
                replay()
        except Exception:
            pass
        finally:
            provenance.disable()
            if temp_tracer is not None:
                trace.disable()
        sub = provenance.RunJournal()
        sub.absorb(
            [sj.to_dict() for sj in temp_journal.searches_for(description)]
        )
        return sub, temp_tracer


#: The process-wide recorder the driver feeds. Always on; captures capped.
RECORDER = FlightRecorder()


def list_captures(directory: Optional[str] = None) -> list[dict]:
    """Capture metas persisted under ``directory`` (oldest first). Each
    meta gains a ``path`` key pointing at its journal for loading."""
    directory = directory or flight_dir()
    if not os.path.isdir(directory):
        return []
    out = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".meta.json"):
            continue
        try:
            with open(os.path.join(directory, name)) as fh:
                meta = json.load(fh)
        except (OSError, ValueError):
            continue
        if meta.get("journal"):
            meta["path"] = os.path.join(directory, meta["journal"])
        out.append(meta)
    return out


# ---------------------------------------------------------------------------
# Periodic snapshot streaming (batch runs)
# ---------------------------------------------------------------------------

class MetricsStreamer:
    """Append periodic registry snapshots to a JSONL file.

    The batch-run analogue of being scraped: ``--metrics-stream FILE``
    starts one of these for the duration of the run, so post-hoc tooling
    sees the metric *trajectory*, not just the final dump. One JSON
    object per line: ``{"ts", "seq", "metrics": {...}}``; a final
    snapshot is flushed on :meth:`stop`."""

    def __init__(
        self,
        path: str,
        interval: float = 5.0,
        registry: Optional[metrics.MetricsRegistry] = None,
    ) -> None:
        self.path = path
        self.interval = max(0.05, float(interval))
        self.registry = registry if registry is not None else metrics.REGISTRY
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._seq = 0

    def _flush(self) -> None:
        self._seq += 1
        row = {
            "ts": time.time(),
            "seq": self._seq,
            "metrics": self.registry.to_dict(),
        }
        with open(self.path, "a") as fh:
            fh.write(json.dumps(row, sort_keys=True) + "\n")

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._flush()

    def start(self) -> "MetricsStreamer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="metrics-stream", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the ticker and flush one final snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._flush()


__all__ = [
    "CONTENT_TYPE",
    "EXPOSITION_VERSION",
    "FlightRecorder",
    "MetricsStreamer",
    "RECORDER",
    "TelemetryHub",
    "flight_dir",
    "list_captures",
    "render_prometheus",
]
