"""Layer spans for the ledger's traced run, recorded from outside ``src/``.

Each wrapper is installed on the name a caller looks up at call time: a
module global such as ``repro.android.leaks.frontend`` (the leak checker
calls ``frontend(...)`` through its own module namespace), or a method on
the class that defines it, such as ``Engine.refute_edge``. Nothing in the
package is edited; :meth:`Recorder.uninstall` puts every original back.

Spans live in memory on per-thread stacks and carry the id of the job in
flight. A span's *self* time is its duration minus what its direct child
spans cover, so on one thread the self times of a job's spans add up to the
job's wall time exactly. Worker threads (the ``layered`` workload's pool)
open their own stacks: their spans are not children of the waiting
``engine.refute_path`` span, so across threads self times add up to more
than wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager

#: Layer -> the call targets timed as that layer. ``"module:name"`` is a
#: module global; ``"module:Class.name"`` is a method of ``Class``.
HOOKS: dict[str, tuple[str, ...]] = {
    "lang.frontend": (
        "repro.android.leaks:frontend",
        "repro.lang:frontend",
        "repro.serve.session:frontend",
    ),
    "ir.build_program": (
        "repro.android.leaks:build_program",
        "repro.ir:build_program",
        "repro.serve.session:build_program",
    ),
    "pointsto.analyze": (
        "repro.android.leaks:analyze",
        "repro.pointsto:analyze",
        "repro.serve.session:pointsto_analyze",
    ),
    "pointsto.find_heap_path": (
        "repro.android.leaks:find_heap_path",
        "repro.clients.reachability:find_heap_path",
    ),
    "pointsto.incremental": ("repro.serve.session:reanalyze",),
    "serve.invalidation": (
        "repro.serve.session:method_fingerprints",
        "repro.serve.session:program_signature",
        "repro.serve.session:is_additive",
        "repro.serve.session:graft_method",
        "repro.serve.session:footprint_signatures",
        "repro.serve.session:verdict_is_stale",
        "repro.serve.session:stable_site_tokens",
    ),
    "perf.store": (
        "repro.perf.store:VerdictStore.get",
        "repro.perf.store:VerdictStore.put",
        "repro.perf.store:VerdictStore.load_refuted",
    ),
    "engine.refute_path": ("repro.engine.driver:RefutationDriver.refute_path",),
    "symbolic.refute_edge": ("repro.symbolic.executor:Engine.refute_edge",),
    "symbolic.transfer": ("repro.symbolic.executor:transfer_command",),
    "symbolic.loops": ("repro.symbolic.loops:saturate",),
    "symbolic.simplification": (
        "repro.symbolic.simplification:QueryHistory.should_drop",
        "repro.symbolic.executor:query_entails",
        "repro.symbolic.loops:query_entails",
    ),
    "solver.check_sat": ("repro.symbolic.query:check_sat",),
}

#: The root span of one benchmark job; its self time is the job's time
#: spent outside every hooked layer.
JOB = "job"

#: The layer whose calls are also tallied as *free* when they ran no
#: decision procedure (``solver.checks`` did not move during the call).
SOLVER = "solver.check_sat"

#: Chrome-trace events kept per run; beyond this only the per-layer totals
#: keep counting (the file notes how many events were dropped).
MAX_EVENTS = 200_000


def resolve(target: str) -> tuple[object, str]:
    """``(owner, attribute)`` for a hook target. Raises when the module,
    class or attribute is gone, so a rename in ``src/`` fails loudly. A
    method must be defined on the named class itself, not inherited."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise AttributeError(f"{target}: not defined on {owner.__name__}")
    elif not callable(getattr(owner, attr)):
        raise AttributeError(f"{target}: not callable")
    return owner, attr


class _ThreadState:
    __slots__ = ("stack", "self_s", "total_s", "calls", "fired", "free", "events", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: list[float] = []
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.fired: dict[str, int] = {}
        self.free = 0
        self.events: list[tuple] = []
        self.tid = tid


class Recorder:
    """In-memory span store plus the install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.job = 0
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._tls, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._tls.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _close(
        self, state: _ThreadState, layer: str, target: str, start: float
    ) -> None:
        end = time.perf_counter()
        duration = end - start
        children = state.stack.pop()
        if state.stack:
            state.stack[-1] += duration
        state.self_s[layer] = state.self_s.get(layer, 0.0) + duration - children
        state.total_s[layer] = state.total_s.get(layer, 0.0) + duration
        state.calls[layer] = state.calls.get(layer, 0) + 1
        state.fired[target] = state.fired.get(target, 0) + 1
        state.events.append((layer, start, duration, self.job))

    def wrap(self, layer: str, target: str, fn):
        record = self

        def wrapper(*args, **kwargs):
            state = record._state()
            state.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record._close(state, layer, target, start)

        return functools.update_wrapper(wrapper, fn)

    def wrap_solver(self, target: str, fn, decisions):
        """:meth:`wrap` for :data:`SOLVER`, also counting the calls during
        which the ``decisions`` counter did not move."""
        record = self

        def wrapper(*args, **kwargs):
            state = record._state()
            state.stack.append(0.0)
            before = decisions.value
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if decisions.value == before:
                    state.free += 1
                record._close(state, SOLVER, target, start)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Resolve every target first (importing its module), then patch:
        a module imported mid-install must not capture a wrapper."""
        from repro.obs import metrics

        decisions = metrics.counter("solver.checks")
        resolved = [
            (layer, target, *resolve(target))
            for layer, targets in HOOKS.items()
            for target in targets
        ]
        for layer, target, owner, attr in resolved:
            original = (
                vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            if layer == SOLVER:
                wrapper = self.wrap_solver(target, original, decisions)
            else:
                wrapper = self.wrap(layer, target, original)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def job_span(self, job_id: int):
        """The root span of one job; spans opened inside carry its id."""
        self.job = job_id
        state = self._state()
        state.stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(state, JOB, JOB, start)

    def totals(self, field: str) -> dict:
        """One per-thread tally (``self_s``, ``total_s``, ``calls`` or
        ``fired``) summed over threads."""
        out: dict = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for key, value in getattr(state, field).items():
                out[key] = out.get(key, 0) + value
        return out

    def free(self) -> int:
        """:data:`SOLVER` calls that ran no decision procedure, all threads."""
        with self._lock:
            return sum(state.free for state in self._states)

    def write_chrome(self, path: str, meta: dict) -> None:
        """Write every span as a Chrome trace-event ``X`` event (timestamps
        in microseconds), keeping at most :data:`MAX_EVENTS`."""
        pid = os.getpid()
        events = []
        dropped = 0
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, start, duration, job in state.events:
                if len(events) >= MAX_EVENTS:
                    dropped += 1
                    continue
                events.append(
                    {
                        "name": layer,
                        "ph": "X",
                        "ts": round(start * 1e6, 3),
                        "dur": round(duration * 1e6, 3),
                        "pid": pid,
                        "tid": state.tid,
                        "args": {"job": job},
                    }
                )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": dict(meta, dropped_events=dropped),
                },
                fh,
            )

