"""The serve daemon's stateful core: one loaded program, re-analyzed at
edit granularity.

A :class:`ProgramSession` runs the pipeline front half (frontend → IR →
Andersen with a *retained* solver) once at startup and keeps everything a
later request can reuse:

* the **verdict table** — every job's final :class:`EdgeResult`, edges
  and the casts/immutability clients' facts alike, keyed by job key
  (:attr:`repro.engine.driver.Job.key`), with the search footprint
  recorded (``SearchConfig.record_footprints``);
* the :class:`~repro.engine.RefutationDriver`, whose verdict cache is
  seeded from that table so repeated or overlapping requests are
  answered without re-searching;
* the process-wide pure-function caches (``SOLVER_MEMO``, the component
  memo), which survive updates untouched because their keys are
  content-addressed, not program-addressed.

On ``update`` the session diffs the edited source against the loaded
program at *method* granularity. An edit that lies inside one top-level
class rebuilds only that class (:mod:`repro.serve.classbuild`); anything
that class build cannot decide alone rebuilds the whole program first.
An additive edit (old pointer facts all
preserved) is grafted into the retained program and fed through the
Andersen delta worklist (:func:`repro.pointsto.reanalyze`); only verdicts
whose footprint intersects the change — per
:func:`repro.serve.invalidation.verdict_is_stale` — are dropped. Anything
non-additive falls back to a cold rebuild, which conservatively clears
the table. The driver, whose engines are bound to one pta, lives and
dies with that pta, never across an update.

Concurrency: many concurrent readers (``analyze``/``explain``/``status``),
updates serialized and exclusive (:class:`_RWLock`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from itertools import chain
from typing import Optional

from ..android.harness import _LIBRARY_LINES, add_harness, combined_source
from ..api import (
    _SELECTOR_FIELDS,
    CLIENTS,
    AnalysisRequest,
    _run_client,
    validate_selectors,
)
from ..engine import RefutationDriver
from ..ir import build_program
from ..ir.stmts import walk_commands
from ..lang import frontend
from ..lang.errors import SourcePosition
from .. import perf
from ..obs import metrics, provenance, telemetry
from ..pointsto import analyze as pointsto_analyze
from ..pointsto import reanalyze
from ..symbolic import SearchConfig
# split_classes and splice_classes are part of this module's interface.
from .classbuild import (
    build_class,
    decl_spans,
    edit_region,
    enclosing_span,
    hints_before,
    position_of,
    splice_classes,
    split_classes,
)
from .invalidation import (
    footprint_signatures,
    graft_method,
    is_additive,
    method_fingerprints,
    program_signature,
    reference_names,
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


#: ``analyze`` params: the client plus its selectors. Program input is the
#: session's job — shipping ``source`` here is the ``update`` op's role.
_ANALYZE_FIELDS = frozenset({"client", *_SELECTOR_FIELDS})


def _table_entries(table):
    """Every positioned entry of a class table (each class, field and
    method) with a key naming it."""
    for name, info in table.classes.items():
        yield name, info
        for field in info.fields.values():
            yield (name, "field", field.name), field
        for method in info.methods.values():
            yield (name, "method", method.name), method


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
        # Whether this session installed the process-wide journal, which
        # close() then uninstalls.
        self._installed_journal = False
        if journal:
            self._journal = provenance.get_journal()
            if self._journal is None:
                self._journal = provenance.install()
                self._installed_journal = True
        self._rw = _RWLock()
        self._verdicts: dict = {}  # job key -> EdgeResult (with footprint)
        self._updates_applied = 0
        self._closed = False
        #: Lines ahead of the app source in the text the frontend parses.
        self._line_base = _LIBRARY_LINES + 1 if include_library else 0
        self._rebuild(self._build(source))

    # -- pipeline front half -------------------------------------------------

    def _build(self, source: str):
        """Frontend and IR for ``source`` (with the Android library and
        harness when the session includes them). Also records the app
        classes' spans in ``source``: every caller installs ``source``
        once this returns."""
        if not self._include_library:
            checked = frontend(source)
            program = build_program(checked)
        else:
            combined = combined_source(source)
            checked = frontend(combined)
            program = build_program(add_harness(checked, combined))
        self._spans = decl_spans(checked.unit.classes, source, self._line_base)
        return program

    def _rebuild(self, program) -> None:
        """Cold path: build everything after the IR from scratch and start
        a fresh driver. Callers have already cleared (or decided to keep)
        the verdict table."""
        self._program = program
        self._pta = pointsto_analyze(
            program, policy=self._policy, retain_solver=True
        )
        self._fingerprints = method_fingerprints(program)
        self._site_tokens = stable_site_tokens(program)
        self._driver = self._new_driver()

    def _new_driver(self) -> RefutationDriver:
        return RefutationDriver(
            self._pta,
            self._config,
            jobs=self._jobs,
            deadline=self._deadline,
            backend=self._backend,
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
            self._verdicts.update(self._driver.results())
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
        changed methods, whether the incremental path applied, how many
        retained verdicts each rule invalidated vs. kept, and which build
        (one class or the whole program) decided it."""
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
                source = splice_classes(self._source, classes, self._spans)
            if source == self._source:
                return self._noop(started, "class")
            region = edit_region(self._source, source)
            built = self._class_build(source, region)
            if built is not None:
                index, info, new_program, growth = built
                build = "class"
            else:
                new_program = self._build(source)
                if program_signature(new_program) != program_signature(
                    self._program
                ):
                    return self._full_update(
                        source, new_program, started, reason="declarations"
                    )
                build = "full"
            new_prints = method_fingerprints(new_program)
            changed = sorted(
                qname
                for qname, print_ in new_prints.items()
                if self._fingerprints[qname] != print_
            )
            ref_names = reference_names(self._program)
            if not all(
                is_additive(
                    self._program.methods[qname],
                    new_program.methods[qname],
                    self._program,
                    ref_names,
                )
                for qname in changed
            ):
                if build == "class":
                    new_program = self._build(source)
                return self._full_update(
                    source, new_program, started, reason="non-additive edit"
                )
            if build == "class":
                # The edit stays: everything after it moves, the retained
                # table takes the class's new entry, and every span from
                # the edited class on moves.
                self._shift_positions(source, region)
                self._program.class_table.classes[info.name] = info
                self._spans[index][2] += growth
                for span in self._spans[index + 1 :]:
                    span[1] += growth
                    span[2] += growth
            else:
                # Equal signatures: the same classes, fields and methods,
                # perhaps in another order.
                fresh = dict(_table_entries(new_program.class_table))
                for key, entry in _table_entries(self._program.class_table):
                    entry.pos = fresh[key].pos
            self._copy_positions(new_program, changed)
            if not changed:
                self._source = source
                return self._noop(started, build)
            return self._incremental_update(
                source,
                new_program,
                {**self._fingerprints, **new_prints},
                changed,
                started,
                build,
            )

    def _class_build(self, source: str, region: tuple[int, int, int]):
        """Build only the class that the edit ``region`` of ``source``
        lies in, or return ``None`` when the edit touches text outside one
        class or the class build cannot decide alone (see
        :func:`~repro.serve.classbuild.build_class`). Returns the class's
        span index, its new table entry, its lowered methods and how many
        characters the edit added."""
        start, old_end, new_end = region
        index = enclosing_span(self._spans, start, old_end)
        if index is None:
            return None
        name, lo, hi = self._spans[index]
        growth = new_end - old_end
        line, column = position_of(source, lo)
        built = build_class(
            self._program.class_table,
            name,
            source[lo : hi + growth],
            (line + self._line_base, column),
            hints_before(self._program, name),
            [m for m in self._program.methods.values() if m.class_name == name],
        )
        if built is None:
            return None
        return (index, *built, growth)

    def _retained(self) -> tuple[int, int]:
        """How many edge and fact verdicts the table holds."""
        facts = sum(1 for result in self._verdicts.values() if result.edge is None)
        return len(self._verdicts) - facts, facts

    def _shift_positions(self, source: str, region: tuple[int, int, int]) -> None:
        """Move every retained command and class-table entry after the
        edit the way the edit moved the text there: other classes, and the
        harness after the app, keep their text but not its place."""
        _, old_end, new_end = region
        old_line, old_col = position_of(self._source, old_end)
        new_line, new_col = position_of(source, new_end)
        lines, along = new_line - old_line, new_col - old_col
        old_line += self._line_base
        table = (entry for _, entry in _table_entries(self._program.class_table))
        for item in chain(self._program.commands.values(), table):
            pos = item.pos
            if pos.line > old_line:
                item.pos = SourcePosition(pos.line + lines, pos.column)
            elif pos.line == old_line and pos.column >= old_col:
                item.pos = SourcePosition(pos.line + lines, pos.column + along)

    def _copy_positions(self, new_program, changed: list) -> None:
        """Give each kept method that ``new_program`` also holds (the same
        body, command for command) the fresh build's positions."""
        skip = set(changed)
        for qname, method in new_program.methods.items():
            if qname not in skip:
                kept = walk_commands(self._program.methods[qname].body)
                for old, new in zip(kept, walk_commands(method.body)):
                    old.pos = new.pos

    def _noop(self, started: float, build: str) -> tuple[dict, dict]:
        return (
            {"mode": "noop", "changed_methods": []},
            {"seconds": time.perf_counter() - started,
             "invalidated_edges": 0,
             "invalidated_facts": 0,
             "retained_verdicts": self._retained()[0],
             "build": build},
        )

    def _full_update(
        self, source: str, program, started: float, reason: str
    ) -> tuple[dict, dict]:
        """The conservative path: everything retained is dropped, and the
        session restarts from ``program``, built from ``source``."""
        invalidated, facts = self._retained()
        _INVALIDATED.inc(invalidated)
        self._verdicts = {}
        self._driver.close()
        self._source = source
        self._rebuild(program)
        self._updates_applied += 1
        return (
            {"mode": "rebuild", "reason": reason, "changed_methods": None},
            {
                "seconds": time.perf_counter() - started,
                "invalidated_edges": invalidated,
                "invalidated_facts": facts,
                "retained_verdicts": 0,
                "build": "full",
            },
        )

    def _incremental_update(
        self,
        source: str,
        new_program,
        new_prints: dict,
        changed: list,
        started: float,
        build: str,
    ) -> tuple[dict, dict]:
        changed_set = frozenset(changed)
        # Signatures and producer lists must be captured *before* the
        # graft: reanalyze refreshes the retained call graph and summaries
        # in place (safe only here, under the write lock).
        fp_methods = set()
        for result in self._verdicts.values():
            if result.footprint:
                fp_methods |= result.footprint
        sigs_before = footprint_signatures(self._pta, fp_methods)
        producers_before = {
            key: sorted(self._pta.producers.get(key, []))
            for key, result in self._verdicts.items()
            if result.edge is not None
        }
        for qname in changed:
            graft_method(self._program, new_program.methods[qname])
        self._pta, delta = reanalyze(self._pta, set(changed))
        sigs_after = footprint_signatures(self._pta, fp_methods)
        # A verdict survives when its footprint is untouched and its root
        # is: an edge keeps its producer list, a fact keeps its label.
        surviving: dict = {}
        for key, result in self._verdicts.items():
            if result.edge is not None:
                moved = producers_before[key] != sorted(
                    self._pta.producers.get(key, [])
                )
            else:
                moved = key[0] not in self._program.commands
            if not moved and not verdict_is_stale(
                result.footprint,
                changed_set,
                sigs_before,
                sigs_after,
                self._pta.modref,
                delta,
            ):
                surviving[key] = result
        edges_before, facts_before = self._retained()
        # The driver is pta-scoped (its engines search against one
        # solution): retire it and seed a fresh one with the surviving
        # verdicts.
        self._driver.close()
        self._verdicts = surviving
        edges_kept, facts_kept = self._retained()
        invalidated = edges_before - edges_kept
        _INVALIDATED.inc(invalidated)
        self._driver = self._new_driver()
        self._driver.seed_results(surviving)
        # Fingerprints are label- and site-free, so the grafted program's
        # are the edited build's; the edited methods' site tokens must see
        # the re-pointed sites.
        self._fingerprints = new_prints
        self._site_tokens.update(stable_site_tokens(self._program, changed))
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
                "invalidated_facts": facts_before - facts_kept,
                "retained_verdicts": edges_kept,
                "build": build,
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
                    )
                )
                if inst is not None
            }
            cache = perf.cache_report()
            edges, facts = self._retained()
            return (
                {
                    "program": self._program.stats(),
                    "retained_verdicts": edges,
                    "retained_facts": facts,
                    "updates_applied": self._updates_applied,
                    "jobs": self._jobs,
                    "journal": self._journal is not None,
                    "metrics": counters,
                    #: Scheduling efficacy without a full report: the
                    #: per-rung table.
                    "schedule": self._driver._schedule_section(),
                    "cache_tiers": cache.get("tiers", {}),
                    #: The persistent verdict store this session shares
                    #: with other processes (enabled=False when no
                    #: --cache-dir was given).
                    "store": cache.get("store", {}),
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

    # -- retained-state views ------------------------------------------------

    def verdict_payloads(self) -> dict[str, dict]:
        """The table's edge verdicts rendered through rebuild-independent
        tokens (and without wall-clock seconds): two sessions that agree on
        the program agree on this payload byte for byte."""
        out = {}
        for key, result in self._verdicts.items():
            if result.edge is None:
                continue
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
            if self._installed_journal and provenance.get_journal() is self._journal:
                provenance.disable()
