"""The serve daemon's stateful core: one loaded program, re-analyzed at
edit granularity.

A :class:`ProgramSession` runs the pipeline front half (frontend → IR →
Andersen with a *retained* solver) once at startup and keeps everything a
later request can reuse:

* the **verdict table** — every per-edge :class:`EdgeResult`, with the
  search footprint recorded (``SearchConfig.record_footprints``);
* the **fact table** — per-fact verdicts for the casts/immutability
  clients, keyed by ``(label, bindings, description)``;
* the persistent :class:`_SessionDriver`, whose shared result cache is
  seeded from the verdict table so repeated or overlapping requests are
  answered without re-searching;
* the process-wide pure-function caches (``SOLVER_MEMO``, the component
  memo), which survive updates untouched because their keys are
  content-addressed, not program-addressed.

On ``update`` the session diffs the edited source against the loaded
program at *method* granularity. An additive edit (old pointer facts all
preserved) is grafted into the retained program and fed through the
Andersen delta worklist (:func:`repro.pointsto.reanalyze`); only verdicts
whose footprint intersects the change — per
:func:`repro.serve.invalidation.verdict_is_stale` — are dropped. Anything
non-additive falls back to a cold rebuild, which conservatively clears
both tables. The pta-scoped :class:`RefutedStateCache` lives and dies
with the driver, i.e. with the pta, never across an update.

Concurrency: many concurrent readers (``analyze``/``explain``/``status``),
updates serialized and exclusive (:class:`_RWLock`).
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from typing import Optional

from ..android.harness import add_harness, combined_source
from ..api import (
    _SELECTOR_FIELDS,
    CLIENTS,
    AnalysisRequest,
    _run_client,
    validate_selectors,
)
from ..engine import RefutationDriver
from ..engine.driver import Job
from ..ir import build_program
from ..lang import frontend, tokenize
from .. import perf
from ..obs import metrics, provenance, telemetry
from ..pointsto import analyze as pointsto_analyze
from ..pointsto import reanalyze
from ..symbolic import SearchConfig
from .invalidation import (
    footprint_signatures,
    graft_method,
    is_additive,
    method_fingerprints,
    program_signature,
    stable_edge_token,
    stable_site_tokens,
    verdict_is_stale,
)

_REQUESTS = metrics.counter("serve.requests")
_INVALIDATED = metrics.counter("serve.invalidated_edges")
_REUSED = metrics.counter("serve.verdicts_reused")


class _RWLock:
    """Many readers or one writer; writers wait for in-flight readers."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._writer = threading.Lock()
        self._readers = 0

    @contextmanager
    def read(self):
        with self._mutex:
            self._readers += 1
            if self._readers == 1:
                self._writer.acquire()
        try:
            yield
        finally:
            with self._mutex:
                self._readers -= 1
                if self._readers == 0:
                    self._writer.release()

    @contextmanager
    def write(self):
        with self._writer:
            yield


def _fact_key(job) -> tuple:
    """Canonical retained-table key for one fact job: the query label,
    the bindings (var name → suspect location set), and the description.
    Labels and :class:`AbsLoc` objects are stable across additive grafts
    for unchanged methods, which is what makes the key survive updates."""
    label, bindings, description = job
    canon = tuple(
        (var, frozenset(locs)) for var, locs in bindings
    )
    return (label, canon, description)


class _SessionDriver(RefutationDriver):
    """A :class:`RefutationDriver` that also answers *fact* jobs from a
    session-owned table. Edge jobs already flow through the driver's
    shared result cache (seeded from the session's verdict table); facts
    have no driver-level cache, so this subclass intercepts
    :meth:`refute_facts`, serves hits, and records misses back into the
    table. Hits count into :attr:`cache_hits` exactly like edge hits."""

    def __init__(self, fact_table: dict, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fact_table = fact_table

    def refute_facts(self, requests):
        results = [None] * len(requests)
        misses, miss_indices = [], []
        for i, job in enumerate(requests):
            hit = self._fact_table.get(_fact_key(job))
            if hit is not None:
                results[i] = hit
                with self._lock:
                    self.cache_hits += 1
                self._finish(
                    Job(("fact", i), job[2], label=job[0], bindings=job[1]),
                    hit,
                    "cache",
                )
            else:
                misses.append(job)
                miss_indices.append(i)
        if misses:
            ran = super().refute_facts(misses)
            for i, job, result in zip(miss_indices, misses, ran):
                results[i] = result
                self._fact_table[_fact_key(job)] = result
        return [r for r in results if r is not None]


#: ``analyze`` params: the client plus its selectors. Program input is the
#: session's job — shipping ``source`` here is the ``update`` op's role.
_ANALYZE_FIELDS = frozenset({"client", *_SELECTOR_FIELDS})


class ProgramSession:
    """One loaded program and everything retained across requests."""

    def __init__(
        self,
        source: str,
        *,
        include_library: bool = False,
        config: Optional[SearchConfig] = None,
        context_policy=None,
        jobs: int = 1,
        deadline: Optional[float] = None,
        budget: Optional[int] = None,
        backend: Optional[str] = None,
        journal: bool = False,
    ) -> None:
        self._source = source
        self._include_library = include_library
        base = config or SearchConfig()
        if budget is not None:
            base = base.copy(path_budget=budget)
        #: Footprints are the invalidation currency — always recorded.
        self._config = base.copy(record_footprints=True)
        self._policy = context_policy
        self._jobs = jobs
        self._deadline = deadline
        self._backend = backend
        self._journal = None
        if journal:
            self._journal = provenance.get_journal() or provenance.install()
        self._rw = _RWLock()
        self._verdicts: dict = {}  # EdgeKey -> EdgeResult (with footprint)
        self._facts: dict = {}  # _fact_key -> EdgeResult
        self._updates_applied = 0
        self._closed = False
        #: Session-lifetime lifecycle hub: every driver (including those
        #: created by rebuilds) feeds it, so ``watch`` cursors survive
        #: updates and the ``top`` renderer sees one continuous stream.
        self.hub = telemetry.TelemetryHub()
        self._rebuild(self._build(source))

    # -- pipeline front half -------------------------------------------------

    def _build(self, source: str):
        """Frontend and IR for ``source`` (with the Android library and
        harness when the session includes them)."""
        if not self._include_library:
            return build_program(frontend(source))
        combined = combined_source(source)
        return build_program(add_harness(frontend(combined), combined))

    def _rebuild(self, program) -> None:
        """Cold path: build everything after the IR from scratch and start
        a fresh driver. Callers have already cleared (or decided to keep)
        the verdict and fact tables."""
        self._program = program
        self._pta = pointsto_analyze(
            program, policy=self._policy, retain_solver=True
        )
        self._fingerprints = method_fingerprints(program)
        self._site_tokens = stable_site_tokens(program)
        self._driver = self._new_driver()

    def _new_driver(self) -> _SessionDriver:
        return _SessionDriver(
            self._facts,
            self._pta,
            self._config,
            jobs=self._jobs,
            deadline=self._deadline,
            backend=self._backend,
            on_event=self.hub.sink,
        )

    # -- request ops ---------------------------------------------------------

    def analyze(self, params: dict) -> tuple[dict, dict]:
        """Run one client against the session program. ``params`` is the
        client name plus its selectors — the program is the session's."""
        _REQUESTS.inc()
        for banned in ("source", "program", "pta"):
            if banned in params:
                raise ValueError(
                    f"analyze runs against the session's loaded program;"
                    f" {banned}= is not accepted — use the update op to"
                    " change the program"
                )
        unknown = sorted(set(params) - _ANALYZE_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown analyze param(s) {', '.join(unknown)}; accepted:"
                f" {', '.join(sorted(_ANALYZE_FIELDS))}"
            )
        client = params.get("client")
        if client not in CLIENTS:
            raise ValueError(
                f"unknown client {client!r}; expected one of {CLIENTS}"
            )
        request = AnalysisRequest(**params)
        validate_selectors(request)
        started = time.perf_counter()
        with self._rw.read():
            records_before, hits_before = self._driver.mark()
            result = _run_client(request, self._pta, self._config, self._driver)
            # Re-slice the report to this request's jobs (the client built
            # a driver-lifetime one; the persistent driver accumulates).
            result.report = self._driver.build_report(
                command=request.client, since=records_before
            )
            self._verdicts.update(self._driver.edge_results())
            reused = self._driver.cache_hits - hits_before
        _REUSED.inc(reused)
        seconds = time.perf_counter() - started
        payload = result.to_dict()
        payload["verdicts"] = self.verdict_payloads()
        meta = {
            "seconds": seconds,
            "jobs_run": len(result.report.records),
            "verdicts_reused": reused,
            "cache_tiers": (result.report.cache or {}).get("tiers"),
            "updates_applied": self._updates_applied,
        }
        return payload, meta

    def update(self, params: dict) -> tuple[dict, dict]:
        """Apply an edit and re-analyze incrementally where sound.

        ``params`` carries either ``source`` (the full replacement app
        source) or ``classes`` (``{class name: replacement class text}``
        spliced into the current source). Returns what happened: the
        changed methods, whether the incremental path applied, and how
        many retained verdicts each rule invalidated vs. kept."""
        _REQUESTS.inc()
        unknown = sorted(set(params) - {"source", "classes"})
        if unknown:
            raise ValueError(
                f"unknown update param(s) {', '.join(unknown)}; accepted:"
                " source, classes"
            )
        source = params.get("source")
        classes = params.get("classes")
        if (source is None) == (classes is None):
            raise ValueError("update needs exactly one of source= or classes=")
        started = time.perf_counter()
        with self._rw.write():
            if classes is not None:
                source = splice_classes(self._source, classes)
            new_program = self._build(source)
            new_prints = method_fingerprints(new_program)
            if program_signature(new_program) != program_signature(
                self._program
            ):
                return self._full_update(
                    source, new_program, started, reason="declarations"
                )
            changed = sorted(
                qname
                for qname, print_ in new_prints.items()
                if self._fingerprints.get(qname) != print_
            )
            if not changed:
                self._source = source
                return (
                    {"mode": "noop", "changed_methods": []},
                    {"seconds": time.perf_counter() - started,
                     "invalidated_edges": 0,
                     "retained_verdicts": len(self._verdicts)},
                )
            additive = all(
                is_additive(
                    self._program.methods[qname], new_program.methods[qname]
                )
                for qname in changed
            )
            if not additive:
                return self._full_update(
                    source, new_program, started, reason="non-additive edit"
                )
            return self._incremental_update(
                source, new_program, changed, started
            )

    def _full_update(
        self, source: str, program, started: float, reason: str
    ) -> tuple[dict, dict]:
        """The conservative path: everything retained is dropped, and the
        session restarts from ``program``, built from ``source``."""
        invalidated = len(self._verdicts)
        _INVALIDATED.inc(invalidated)
        self._verdicts = {}
        self._facts.clear()
        self._driver.close()
        self._source = source
        self._rebuild(program)
        self._updates_applied += 1
        return (
            {"mode": "rebuild", "reason": reason, "changed_methods": None},
            {
                "seconds": time.perf_counter() - started,
                "invalidated_edges": invalidated,
                "retained_verdicts": 0,
            },
        )

    def _incremental_update(
        self, source: str, new_program, changed: list, started: float
    ) -> tuple[dict, dict]:
        changed_set = frozenset(changed)
        # Signatures and producer lists must be captured *before* the
        # graft: reanalyze mutates the retained call graph in place.
        fp_methods = set()
        for result in self._verdicts.values():
            if result.footprint:
                fp_methods |= result.footprint
        for result in self._facts.values():
            if result.footprint:
                fp_methods |= result.footprint
        sigs_before = footprint_signatures(self._pta, fp_methods)
        producers_before = {
            key: sorted(self._pta.producers.get(key, []))
            for key in self._verdicts
        }
        for qname in changed:
            graft_method(self._program, new_program.methods[qname])
        self._pta, delta = reanalyze(self._pta, set(changed))
        sigs_after = footprint_signatures(self._pta, fp_methods)
        surviving: dict = {}
        for key, result in self._verdicts.items():
            producers_now = sorted(self._pta.producers.get(key, []))
            stale = producers_before[key] != producers_now or verdict_is_stale(
                result.footprint,
                changed_set,
                sigs_before,
                sigs_after,
                self._pta.modref,
                delta,
            )
            if not stale:
                surviving[key] = result
        invalidated = len(self._verdicts) - len(surviving)
        facts_dropped = 0
        for key in list(self._facts):
            label = key[0]
            result = self._facts[key]
            if label not in self._program.commands or verdict_is_stale(
                result.footprint,
                changed_set,
                sigs_before,
                sigs_after,
                self._pta.modref,
                delta,
            ):
                del self._facts[key]
                facts_dropped += 1
        _INVALIDATED.inc(invalidated)
        # The driver is pta-scoped (its RefutedStateCache must not outlive
        # the solution it pruned against): retire it and seed a fresh one
        # with the surviving verdicts.
        self._driver.close()
        self._verdicts = surviving
        self._driver = self._new_driver()
        self._driver.seed_results(surviving)
        self._fingerprints = method_fingerprints(self._program)
        self._site_tokens = stable_site_tokens(self._program)
        self._source = source
        self._updates_applied += 1
        return (
            {
                "mode": "incremental",
                "changed_methods": changed,
                "points_to_growth": {
                    "new_points": delta.new_points,
                    "grown_methods": sorted(delta.grown_methods),
                    "grown_fields": sorted(delta.grown_fields),
                    "grown_statics": sorted(map(list, delta.grown_statics)),
                },
            },
            {
                "seconds": time.perf_counter() - started,
                "invalidated_edges": invalidated,
                "invalidated_facts": facts_dropped,
                "retained_verdicts": len(surviving),
            },
        )

    def explain(self, params: dict) -> tuple[dict, dict]:
        """Render the refutation certificate (or search provenance) for
        one retained job, from the session journal."""
        _REQUESTS.inc()
        if self._journal is None:
            raise ValueError(
                "explain needs the session journal: start the daemon with"
                " --journal (or ProgramSession(journal=True))"
            )
        description = params.get("description")
        if not description:
            raise ValueError("explain needs description= (job description)")
        status = None
        with self._rw.read():
            for record in self._driver._records.values():
                if (
                    record.description == description
                    or description in record.description
                ):
                    status = record.status
                    description = record.description
                    break
        certificate = provenance.render_certificate(
            description, self._journal, status=status
        )
        return {"description": description, "status": status,
                "certificate": certificate}, {}

    def status(self) -> tuple[dict, dict]:
        """Session vitals: the loaded program, retained state sizes, and
        the serve/incremental metric counters."""
        _REQUESTS.inc()
        with self._rw.read():
            counters = {
                name: inst.value
                for name, inst in (
                    (name, metrics.REGISTRY.get(name))
                    for name in (
                        "serve.requests",
                        "serve.invalidated_edges",
                        "serve.verdicts_reused",
                        "pointsto.incremental_solves",
                        "pointsto.incremental_new_points",
                        "driver.priority_inversions",
                    )
                )
                if inst is not None
            }
            cache = perf.cache_report()
            return (
                {
                    "program": self._program.stats(),
                    "retained_verdicts": len(self._verdicts),
                    "retained_facts": len(self._facts),
                    "updates_applied": self._updates_applied,
                    "jobs": self._jobs,
                    "journal": self._journal is not None,
                    "metrics": counters,
                    #: Scheduling efficacy without a full report: the
                    #: per-rung table plus the inversion count.
                    "schedule": self._driver._schedule_section(),
                    "cache_tiers": cache.get("tiers", {}),
                    #: The persistent verdict store this session shares
                    #: with other processes (enabled=False when no
                    #: --cache-dir was given).
                    "store": cache.get("store", {}),
                    "telemetry": self.hub.snapshot(),
                },
                {},
            )

    def metrics_exposition(self, params: dict) -> tuple[dict, dict]:
        """The ``metrics`` op: the process-wide registry, as Prometheus
        text (default) or the raw JSON dump (``format: "json"``)."""
        _REQUESTS.inc()
        fmt = params.get("format", "prometheus")
        if fmt == "prometheus":
            return (
                {
                    "format": "prometheus",
                    "content_type": telemetry.CONTENT_TYPE,
                    "exposition": telemetry.render_prometheus(),
                },
                {},
            )
        if fmt == "json":
            return (
                {"format": "json", "metrics": metrics.REGISTRY.to_dict()},
                {},
            )
        raise ValueError(
            f"unknown metrics format {fmt!r}; expected prometheus or json"
        )

    def watch(self, params: dict) -> tuple[dict, dict]:
        """The ``watch`` op (stdio flavor): cursor-polled lifecycle
        events. Pass the returned ``cursor`` back as ``since`` to resume;
        ``snapshot: true`` additionally returns the derived live state."""
        _REQUESTS.inc()
        since = int(params.get("since", 0))
        limit = max(1, int(params.get("limit", 500)))
        cursor, events = self.hub.events_since(since, limit=limit)
        result = {"cursor": cursor, "events": events}
        if params.get("snapshot"):
            result["snapshot"] = self.hub.snapshot()
        return result, {}

    # -- retained-state views ------------------------------------------------

    def verdict_payloads(self) -> dict[str, dict]:
        """The verdict table rendered through rebuild-independent tokens
        (and without wall-clock seconds): two sessions that agree on the
        program agree on this payload byte for byte."""
        out = {}
        for key, result in self._verdicts.items():
            token = stable_edge_token(key, self._site_tokens)
            out[token] = {
                "status": result.status,
                "refuted": result.refuted,
                "path_programs": result.path_programs,
            }
        return dict(sorted(out.items()))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._driver.close()


# ---------------------------------------------------------------------------
# Per-class source splicing (the `classes` update flavor)
# ---------------------------------------------------------------------------


def split_classes(source: str) -> dict[str, str]:
    """Split mini-Java source into its top-level class texts, keyed by
    class name, in order. Works on tokens, so ``class`` in a comment and
    braces in comments or string literals do not count."""
    line_starts = [0] + [m.end() for m in re.finditer("\n", source)]

    def offset(tok) -> int:
        return line_starts[tok.pos.line - 1] + tok.pos.column - 1

    out: dict[str, str] = {}
    tokens = tokenize(source)
    depth = 0
    start = None
    name = ""
    for index, tok in enumerate(tokens):
        if depth == 0 and tok.is_keyword("class"):
            start = offset(tok)
            name = tokens[index + 1].text
        elif tok.is_op("{"):
            depth += 1
        elif tok.is_op("}"):
            depth -= 1
            if depth == 0 and start is not None:
                out[name] = source[start : offset(tok) + 1]
                start = None
    return out


def splice_classes(source: str, replacements: dict[str, str]) -> str:
    """Replace whole top-level classes in ``source`` by name. Every name
    in ``replacements`` must already exist (adding or removing classes is
    a declaration-level change — ship full ``source`` for that, and the
    session takes the rebuild path)."""
    classes = split_classes(source)
    missing = sorted(set(replacements) - set(classes))
    if missing:
        raise ValueError(
            f"class(es) not in the loaded program: {', '.join(missing)};"
            " to add classes, send a full source= update"
        )
    for name, text in replacements.items():
        source = source.replace(classes[name], text)
    return source
