"""Symbolic variables (the paper's "instances").

A symbolic variable is an existential standing for one concrete value: a
heap instance (kind ``REF``) drawn from a points-to region, or a primitive
value (kind ``DATA``, the paper's special ``data`` region). Identity is by
allocation of the Python object; queries relate variables through their own
union-find, so a :class:`SymVar` itself is immutable and freely shared
between forked queries.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Iterator

_ids = itertools.count()

# Threads inside :func:`private_ids`. While zero, creating a variable
# reads no thread-local state.
_PRIVATE_THREADS = 0
_PRIVATE_LOCK = threading.Lock()
_local = threading.local()

REF = "ref"
DATA = "data"


class SymVar:
    """An instance variable; hashable, identity-based."""

    __slots__ = ("vid", "kind", "hint")

    def __init__(self, kind: str, hint: str = "") -> None:
        if kind not in (REF, DATA):
            raise ValueError(f"bad symvar kind {kind!r}")
        self.vid = next(
            _local.ids if _PRIVATE_THREADS and hasattr(_local, "ids") else _ids
        )
        self.kind = kind
        self.hint = hint

    @property
    def is_ref(self) -> bool:
        return self.kind == REF

    def __repr__(self) -> str:
        stem = self.hint or ("v" if self.is_ref else "d")
        return f"{stem}̂{self.vid}"

    def __lt__(self, other: "SymVar") -> bool:
        return self.vid < other.vid


def fresh_ref(hint: str = "") -> SymVar:
    return SymVar(REF, hint)


def fresh_data(hint: str = "") -> SymVar:
    return SymVar(DATA, hint)


@contextmanager
def private_ids() -> Iterator[None]:
    """Number the calling thread's new variables from a private counter
    while the block runs; the process-wide numbering stays where it was.

    Variable names order the terms of linear atoms (by ``repr``), so the
    numbering steers how much work the solver's caches save. A run inside
    the block numbers its variables from zero whatever ran before it, so
    two such runs do the same solver work, and work done inside the block
    cannot change the work of any search that runs after it. Other
    threads keep drawing from the shared counter, so no two live
    variables of one search ever share a name."""
    global _PRIVATE_THREADS
    with _PRIVATE_LOCK:
        _PRIVATE_THREADS += 1
    _local.ids = itertools.count()
    try:
        yield
    finally:
        del _local.ids
        with _PRIVATE_LOCK:
            _PRIVATE_THREADS -= 1
