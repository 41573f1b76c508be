"""Process-wide metrics registry: counters, gauges, and histograms.

This is the measurement substrate behind the paper's effort accounting
(Table 1's path programs, refutation kinds, per-edge seconds): every layer
of the pipeline reports into one named registry instead of ad-hoc counter
objects. It is the cross-run aggregate, dumped by ``--metrics``; one
run's per-job verdicts and effort live in its
:class:`~repro.engine.report.RunReport`.

Design constraints, in order:

1. *cheap* — instruments are plain objects with one lock each; hot loops
   hold a local tally and flush once per phase (see
   :meth:`Counter.inc` callers in :mod:`repro.pointsto.andersen`);
2. *thread-safe* — serve's request threads write concurrently; every
   read-modify-write is under the instrument's lock;
3. *always on* — unlike tracing there is no disabled mode: the registry
   is the single source of truth, and dumping it (``--metrics FILE``)
   costs nothing extra during the run.

Histograms keep a bounded value buffer (deterministic stride thinning
beyond ``keep``) from which p50/p95 are estimated; count/sum/min/max are
exact regardless.
"""

from __future__ import annotations

import json
import threading
from typing import Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: Number = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> Number:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self._value}

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}

    def merge(self, snap: dict) -> None:
        """Fold another process's counter into this one (values add)."""
        self.inc(snap.get("value", 0))

    def drain(self) -> dict:
        """:meth:`snapshot`, then zero the count."""
        with self._lock:
            snap = {"type": "counter", "value": self._value}
            self._value = 0
        return snap


class Gauge:
    """A value that goes up and down (e.g. live worker count)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def add(self, delta: Number) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> Number:
        return self._value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self._value}

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """A distribution summary: exact count/sum/min/max, estimated quantiles.

    Beyond ``keep`` observations the value buffer is thinned by doubling a
    deterministic keep-every-Nth stride — no randomness, so repeated runs
    of a deterministic workload produce identical dumps.
    """

    __slots__ = ("name", "keep", "count", "total", "min", "max", "_values",
                 "_stride", "_skip", "_lock")

    def __init__(self, name: str, keep: int = 8192) -> None:
        self.name = name
        self.keep = keep
        self.count = 0
        self.total = 0.0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self._values: list[Number] = []
        self._stride = 1
        self._skip = 0
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._skip += 1
            if self._skip >= self._stride:
                self._skip = 0
                self._values.append(value)
                if len(self._values) > self.keep:
                    # Thin to every other sample and double the stride.
                    self._values = self._values[::2]
                    self._stride *= 2

    def percentile(self, p: float) -> Optional[Number]:
        """Estimated p-th percentile (0..100) from the retained samples."""
        with self._lock:
            values = sorted(self._values)
        if not values:
            return None
        rank = max(0, min(len(values) - 1, round(p / 100 * (len(values) - 1))))
        return values[rank]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """Full serializable state, including the retained sample buffer
        (unlike :meth:`to_dict`, which summarizes it as quantiles)."""
        with self._lock:
            return self._state()

    def _state(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "values": list(self._values),
            "stride": self._stride,
        }

    def merge(self, snap: dict) -> None:
        """Fold another process's histogram into this one: exact moments
        add, and the sample buffers concatenate then re-thin to ``keep``."""
        with self._lock:
            self.count += snap.get("count", 0)
            self.total += snap.get("sum", 0.0)
            for bound, better in (("min", min), ("max", max)):
                other = snap.get(bound)
                if other is not None:
                    ours = getattr(self, bound)
                    setattr(
                        self, bound,
                        other if ours is None else better(ours, other),
                    )
            self._values.extend(snap.get("values", []))
            self._stride = max(self._stride, snap.get("stride", 1))
            while len(self._values) > self.keep:
                self._values = self._values[::2]
                self._stride *= 2

    def drain(self) -> dict:
        """:meth:`snapshot`, then reset to empty."""
        with self._lock:
            snap = self._state()
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self._values = []
            self._stride = 1
            self._skip = 0
        return snap

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, created on first use, dumped as one JSON object."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls, **kwargs) -> Instrument:
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = cls(name, **kwargs)
                    self._instruments[name] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as"
                f" {type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, keep: int = 8192) -> Histogram:
        return self._get_or_create(name, Histogram, keep=keep)

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (test isolation; not used in production)."""
        with self._lock:
            self._instruments.clear()

    def to_dict(self) -> dict:
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].to_dict() for name in sorted(instruments)}

    def snapshot(self) -> dict:
        """Serializable state of every instrument."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: inst.snapshot() for name, inst in instruments.items()}

    def drain(self) -> dict:
        """The counters and histograms accumulated since the last drain,
        zeroed *in place* as they are read (callers holding module-level
        handles keep reporting into the registry): what a process worker
        ships to its parent's :meth:`merge_snapshot` after each job.
        Gauges are this process's own levels and are not drained."""
        with self._lock:
            instruments = dict(self._instruments)
        return {
            name: inst.drain()
            for name, inst in instruments.items()
            if not isinstance(inst, Gauge)
        }

    def merge_snapshot(self, snap: dict) -> None:
        """Fold another process's :meth:`drain` into this registry:
        counters add, histograms merge samples; gauges are skipped."""
        kinds = {"counter": Counter, "histogram": Histogram}
        for name, data in snap.items():
            cls = kinds.get(data.get("type"))
            if cls is None:
                continue
            self._get_or_create(name, cls).merge(data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


#: The process-wide default registry: every pipeline layer reports here.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str, keep: int = 8192) -> Histogram:
    return REGISTRY.histogram(name, keep=keep)
