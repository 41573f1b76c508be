"""LRU-bounded memo tables for the pure-constraint decision procedure.

The backwards executor re-issues the same satisfiability queries
constantly: branch siblings share all constraints but the guard, loop
saturation re-checks a shrinking fixed point pass after pass, and
parallel edge jobs traverse the same callees. With terms hash-consed
(:mod:`repro.solver.terms`) the canonical key — the *frozen set* of atoms
plus the non-null root set — costs one frozenset build, so a table lookup
is far cheaper than even our small Fourier–Motzkin runs.

Both tables are pure-function caches: ``check_sat`` and ``entails`` depend
only on their arguments, so there is no invalidation story — only an LRU
bound to keep memory flat on long runs. The process-wide instance
:data:`SOLVER_MEMO` is switched off by ``SearchConfig.memoize_solver=False``
(CLI ``--no-memo``); hit/miss tallies are reported by the callers in
:mod:`repro.solver.core` into ``repro.obs.metrics``.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Hashable, Optional

#: Default per-table capacity; entries are (small tuple key -> bool).
MEMO_CAPACITY = 1 << 16


def _configured_capacity() -> int:
    """The memo-table bound, overridable via ``REPRO_MEMO_CAPACITY`` for
    long-lived ``repro serve`` daemons that want a tighter (or looser)
    ceiling than the default."""
    raw = os.environ.get("REPRO_MEMO_CAPACITY")
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            pass
    return MEMO_CAPACITY


class LRUCache:
    """A thread-safe, bounded map with least-recently-used eviction."""

    __slots__ = ("capacity", "_data", "_lock")

    def __init__(self, capacity: int = MEMO_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("LRUCache capacity must be positive")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


class SolverMemo:
    """The solver front-end's memo tables (+ master switch).

    ``enabled`` is process-wide: the :class:`~repro.symbolic.executor.Engine`
    sets it from ``SearchConfig.memoize_solver`` at construction, and the
    process-pool initializer replays the same config in workers, so one
    flag consistently governs a whole run.

    ``check`` keys whole-query verdicts and is used only by the
    monolithic (``--no-partition``) solver path; the partitioned path
    answers repeated queries from each query's SAT basis instead.
    ``component`` keys per-component verdicts (the relevance-partitioned
    path of :mod:`repro.solver.partition`, where the key space collapses
    from "every distinct path constraint" to "every distinct constraint
    fragment"); ``entailment`` keys :func:`repro.solver.core.entails`.
    """

    __slots__ = ("enabled", "check", "entailment", "component")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is None:
            capacity = _configured_capacity()
        self.enabled = True
        self.check = LRUCache(capacity)
        self.entailment = LRUCache(capacity)
        self.component = LRUCache(capacity)

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def clear(self) -> None:
        self.check.clear()
        self.entailment.clear()
        self.component.clear()

    def sizes(self) -> dict:
        return {
            "check": len(self.check),
            "entailment": len(self.entailment),
            "component": len(self.component),
            "capacity": self.component.capacity,
        }


#: Process-wide instance consulted by :func:`repro.solver.core.check_sat`
#: and :func:`repro.solver.core.entails`.
SOLVER_MEMO = SolverMemo()


class SolverPartition:
    """Process-wide switch for relevance-partitioned incremental solving
    (:mod:`repro.solver.partition`): component decomposition, per-component
    verdict caching, SAT-basis delta checks, and the syntactic UNSAT fast
    path. Governed by ``SearchConfig.partition_solver`` (CLI
    ``--no-partition``) exactly like :data:`SOLVER_MEMO`; disabling it
    restores the monolithic pre-partitioning solver path bit-for-bit.
    """

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = True

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)


#: Process-wide instance consulted by :func:`repro.solver.core.check_sat`.
SOLVER_PARTITION = SolverPartition()
