"""LRU-bounded memo table for the pure-constraint decision procedure.

The backwards executor re-issues the same constraint fragments
constantly: branch siblings share all constraints but the guard, loop
saturation re-checks a shrinking fixed point pass after pass, and
parallel edge jobs traverse the same callees. The relevance-partitioned
``check_sat`` splits each query into variable-connected components and
keys each component's verdict on its canonical alpha-renamed signature
(:func:`repro.solver.partition.canonical_key`), so a table lookup is far
cheaper than even our small Fourier–Motzkin runs.

The table is a pure-function cache: a component's verdict depends only on
its atoms and non-null facts, so there is no invalidation story — only an
LRU bound to keep memory flat on long runs. The process-wide instance
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
    """The solver's per-component verdict table (+ master switch).

    ``enabled`` is process-wide: the :class:`~repro.symbolic.executor.Engine`
    sets it from ``SearchConfig.memoize_solver`` at construction, and the
    process-pool initializer replays the same config in workers, so one
    flag consistently governs a whole run.

    ``component`` keys per-component verdicts on canonical signatures
    (:mod:`repro.solver.partition`), where the key space collapses from
    "every distinct path constraint" to "every distinct constraint
    fragment". Repeated whole queries never reach it: each query's SAT
    basis answers them.
    """

    __slots__ = ("enabled", "component")

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is None:
            capacity = _configured_capacity()
        self.enabled = True
        self.component = LRUCache(capacity)

    def set_enabled(self, enabled: bool) -> None:
        self.enabled = bool(enabled)

    def clear(self) -> None:
        self.component.clear()

    def sizes(self) -> dict:
        return {
            "component": len(self.component),
            "capacity": self.component.capacity,
        }


#: Process-wide instance consulted by :func:`repro.solver.core.check_sat`.
SOLVER_MEMO = SolverMemo()
