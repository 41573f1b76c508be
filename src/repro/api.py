"""The one-call programmatic facade: build → point-to → refute → report.

Each analysis client historically had its own entry point, argument order,
and return shape. This module fronts all four with a single pair of types:

>>> from repro.api import AnalysisRequest, analyze
>>> result = analyze(AnalysisRequest(client="casts", source=src))
>>> result.verified, result.status, result.stats.items
(True, 'verified', 3)

or, equivalently, keyword-only::

    result = analyze(client="immutability", source=src, class_name="Box")

``analyze`` accepts the program in any stage of preparation — raw
mini-Java ``source``, a built IR ``program``, or a finished points-to
``pta`` — runs the missing front half of the pipeline, constructs a
:class:`~repro.engine.RefutationDriver` with the requested parallelism,
dispatches to the client, and returns the shared
:class:`~repro.clients.result.AnalysisResult` protocol (``.verified``,
``.status``, ``.results``, ``.stats``, ``.report``). The attached
:class:`~repro.engine.report.RunReport` carries per-job records and, when
tracing is installed (:func:`repro.obs.trace.install`), per-phase timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .clients.casts import analyze_casts
from .clients.encapsulation import analyze_encapsulation
from .clients.immutability import analyze_immutability
from .clients.reachability import analyze_reachability
from .clients.result import WIRE_SCHEMA_VERSION, AnalysisResult, AnalysisStats
from .symbolic import SearchConfig

CLIENTS = ("reachability", "casts", "immutability", "encapsulation")

SCHEMA_VERSION = WIRE_SCHEMA_VERSION

#: The per-client selector fields, flat on :class:`AnalysisRequest`.
_SELECTOR_FIELDS = (
    "root_class",
    "root_field",
    "target_class",
    "site",
    "class_name",
    "owner_class",
    "field_name",
)

#: Which selector fields each client consults. ``analyze`` validates a
#: request against this table *before* running the pipeline front half, so
#: a selector the chosen client would silently ignore is an error instead.
SELECTORS: dict[str, frozenset] = {
    "casts": frozenset(),
    "immutability": frozenset({"class_name"}),
    "encapsulation": frozenset({"owner_class", "field_name"}),
    "reachability": frozenset(
        {"root_class", "root_field", "target_class", "site"}
    ),
}

#: Fields that cannot cross the wire: live objects and callbacks.
_LOCAL_ONLY_FIELDS = ("program", "pta", "config", "context_policy", "on_event")

#: The v1 wire schema: every field of :class:`AnalysisRequest` that
#: serializes. Everything else is process-local (`_LOCAL_ONLY_FIELDS`).
_WIRE_FIELDS = (
    "client",
    "source",
    "include_library",
    *_SELECTOR_FIELDS,
    "jobs",
    "deadline",
    "budget",
    "memoize",
    "subsumption",
    "backend",
    "journal",
    "portfolio",
    "cache_dir",
)


@dataclass
class AnalysisRequest:
    """Everything one analysis run needs, in one declarative object.

    Exactly one of ``source`` / ``program`` / ``pta`` must be given; the
    facade runs whatever remains of the front half of the pipeline.
    Selector fields are per-client: ``root_class``/``root_field``/
    ``target_class`` or ``site`` for ``reachability``, ``class_name`` for
    ``immutability``, ``owner_class``/``field_name`` for
    ``encapsulation``; ``casts`` needs none."""

    client: str  # one of CLIENTS
    # -- program input, in increasing stages of preparation ----------------
    source: Optional[str] = None  # mini-Java source text
    program: Optional["object"] = None  # built repro.ir Program
    pta: Optional["object"] = None  # finished PointsToResult
    include_library: bool = False  # wrap source in the Android library+harness
    # -- per-client selectors ----------------------------------------------
    root_class: Optional[str] = None
    root_field: Optional[str] = None
    target_class: Optional[str] = None
    site: Optional[str] = None
    class_name: Optional[str] = None
    owner_class: Optional[str] = None
    field_name: Optional[str] = None
    # -- analysis / refutation-driver knobs --------------------------------
    context_policy: Optional["object"] = None  # pointsto ContextPolicy
    jobs: int = 1
    deadline: Optional[float] = None
    budget: Optional[int] = None  # path_budget override
    #: Cache toggles (repro.perf): ``None`` keeps the config's value,
    #: ``False`` ablates the layer (CLI --no-memo / --no-subsumption).
    memoize: Optional[bool] = None
    subsumption: Optional[bool] = None
    #: "process" runs flat batches (the casts and immutability clients'
    #: fact batches) on ``jobs > 1`` worker processes and path batches
    #: in-process; "thread" (default) runs every search in-process,
    #: whatever ``jobs`` says.
    backend: Optional[str] = None
    #: Record a per-query search journal for the run and attach it to the
    #: result (``result.journal``, ``result.certificate(desc)``). If a
    #: journal is already installed process-wide it is reused.
    journal: bool = False
    #: Ignored: every run keeps the LIFO worklist and dispatches its
    #: batches cheapest first. It is no longer on the v1 wire schema. It
    #: goes away once the ledger's ``layered`` child stops passing it
    #: (ROADMAP item 2's benchmark PR).
    schedule: Optional[str] = None
    #: Cheap-first budget rungs (CLI --portfolio); ``False`` keeps the
    #: config's value.
    portfolio: bool = False
    #: Persistent cross-run verdict store directory (CLI --cache-dir, env
    #: REPRO_CACHE_DIR); ``None`` keeps the config's value (persistence
    #: stays off unless the environment variable is set).
    cache_dir: Optional[str] = None
    config: Optional[SearchConfig] = None
    on_event: Optional[Callable[[object], None]] = None

    # -- v1 wire schema -----------------------------------------------------

    def to_dict(self) -> dict:
        """The v1 wire rendering of this request: plain JSON-serializable
        values plus a ``schema_version`` stamp. Raises :class:`ValueError`
        when a process-local field (``program``/``pta``/``config``/
        ``context_policy``/``on_event``) is set — those hold live objects;
        send ``source=`` over the wire instead."""
        local = [
            name
            for name in _LOCAL_ONLY_FIELDS
            if getattr(self, name) is not None
        ]
        if local:
            raise ValueError(
                f"{', '.join(f'{n}=' for n in local)} cannot cross the wire"
                " (live process-local objects); serve-side requests carry"
                " source= and let the daemon build the rest"
            )
        out: dict = {"schema_version": SCHEMA_VERSION}
        for name in _WIRE_FIELDS:
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisRequest":
        """Rebuild a request from its v1 wire dict. Rejects unknown fields
        and unsupported schema versions with a message naming both the
        offender and what the schema accepts."""
        if not isinstance(data, dict):
            raise ValueError(
                f"AnalysisRequest.from_dict needs a dict, got {type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {version!r}: this build speaks"
                f" version {SCHEMA_VERSION}"
            )
        unknown = sorted(set(data) - set(_WIRE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown AnalysisRequest field(s) {', '.join(unknown)};"
                f" the v1 wire schema accepts {', '.join(_WIRE_FIELDS)}"
            )
        if "client" not in data:
            raise ValueError("AnalysisRequest.from_dict needs client=")
        return cls(**data)


def validate_selectors(request: AnalysisRequest) -> None:
    """Check the request's selector fields against the per-client table
    *before* any pipeline work: a selector the client would ignore raises,
    and missing required selectors raise with the field names spelled out."""
    allowed = SELECTORS[request.client]
    given = {
        name
        for name in _SELECTOR_FIELDS
        if getattr(request, name) is not None
    }
    misapplied = sorted(given - allowed)
    if misapplied:
        accepts = (
            f"accepts {', '.join(sorted(f + '=' for f in allowed))}"
            if allowed
            else "takes no selectors"
        )
        raise ValueError(
            f"selector(s) {', '.join(f + '=' for f in misapplied)} do not"
            f" apply to client {request.client!r}, which {accepts}"
        )
    if request.client == "immutability":
        if "class_name" not in given:
            raise ValueError("immutability needs class_name=")
    elif request.client == "encapsulation":
        missing = sorted({"owner_class", "field_name"} - given)
        if missing:
            raise ValueError(
                f"encapsulation needs {' and '.join(f + '=' for f in missing)}"
            )
    elif request.client == "reachability":
        triple = {"root_class", "root_field", "target_class"}
        if "site" in given:
            if given & triple:
                raise ValueError(
                    "reachability takes site= or the"
                    " root_class=/root_field=/target_class= triple, not both"
                )
        elif given < triple:
            raise ValueError(
                "reachability needs site= or all of root_class=,"
                " root_field=, and target_class="
            )


def _resolve_pta(request: AnalysisRequest) -> "object":
    given = [
        name
        for name in ("source", "program", "pta")
        if getattr(request, name) is not None
    ]
    if len(given) > 1:
        raise ValueError(
            "AnalysisRequest needs exactly one of source=, program=, or"
            f" pta=; got {' and '.join(f'{n}=' for n in given)}"
        )
    if request.pta is not None:
        if request.context_policy is not None:
            raise ValueError("context_policy has no effect on a finished pta=")
        return request.pta
    from .ir import build_program
    from .pointsto import analyze as pointsto_analyze

    program = request.program
    if program is None:
        if request.source is None:
            raise ValueError(
                "AnalysisRequest needs one of source=, program=, or pta="
            )
        program = build_program(
            frontend_app(request.source, request.include_library)
        )
    return pointsto_analyze(program, policy=request.context_policy)


def frontend_app(source: str, include_library: bool = True) -> "object":
    """Run the frontend over ``source``, with the Android library before it
    and the synthesized harness after it when ``include_library``."""
    from .lang import frontend

    if not include_library:
        return frontend(source)
    from .android.harness import add_harness, combined_source

    combined = combined_source(source)
    return add_harness(frontend(combined), combined)


def _resolve_config(request: AnalysisRequest) -> SearchConfig:
    config = request.config or SearchConfig()
    if request.budget is not None:
        config = config.copy(path_budget=request.budget)
    if request.memoize is not None:
        config = config.copy(memoize_solver=request.memoize)
    if request.subsumption is not None:
        config = config.copy(state_subsumption=request.subsumption)
    if request.portfolio:
        config = config.copy(portfolio=True)
    if request.cache_dir is not None:
        config = config.copy(cache_dir=request.cache_dir)
    return config


def analyze(request: Optional[AnalysisRequest] = None, /, **kwargs) -> AnalysisResult:
    """Run one analysis client end to end and return its
    :class:`AnalysisResult`. Pass an :class:`AnalysisRequest`, or its
    fields as keywords — ``analyze(client="casts", source=src)``."""
    if request is None:
        request = AnalysisRequest(**kwargs)
    elif kwargs:
        raise TypeError("pass an AnalysisRequest or keywords, not both")
    if request.client not in CLIENTS:
        raise ValueError(
            f"unknown client {request.client!r}; expected one of {CLIENTS}"
        )
    validate_selectors(request)
    pta = _resolve_pta(request)
    config = _resolve_config(request)
    from .engine import RefutationDriver
    from .obs import provenance

    journal = provenance.get_journal()
    installed = False
    if request.journal and journal is None:
        journal = provenance.install()
        installed = True
    driver = RefutationDriver(
        pta,
        config,
        jobs=request.jobs,
        deadline=request.deadline,
        backend=request.backend,
        on_event=request.on_event,
    )
    try:
        result = _run_client(request, pta, config, driver)
    finally:
        driver.close()
        if installed:
            provenance.disable()
    if request.journal:
        result.journal = journal
    return result


def _run_client(
    request: AnalysisRequest, pta: "object", config: SearchConfig, driver: "object"
) -> AnalysisResult:
    """Dispatch a validated request to its client against a caller-supplied
    driver. Shared between :func:`analyze` (fresh driver per call) and the
    serve session (one persistent driver across requests; clients never
    close an engine they did not create)."""
    if request.client == "casts":
        return analyze_casts(pta, config=config, engine=driver)
    if request.client == "immutability":
        return analyze_immutability(
            pta, request.class_name, config=config, engine=driver
        )
    if request.client == "encapsulation":
        return analyze_encapsulation(
            pta,
            request.owner_class,
            request.field_name,
            config=config,
            engine=driver,
        )
    return analyze_reachability(
        pta,
        request.root_class,
        request.root_field,
        request.target_class,
        site=request.site,
        config=config,
        engine=driver,
    )


__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisStats",
    "analyze",
    "validate_selectors",
    "CLIENTS",
    "SELECTORS",
    "SCHEMA_VERSION",
]
