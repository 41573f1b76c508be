"""Prometheus text exposition of the process-wide metrics registry.

:func:`render_prometheus` renders :data:`repro.obs.metrics.REGISTRY` as
versioned Prometheus text. Families that the registry keeps as flat
dotted names (``executor.kill.<reason>``, the solver answer tiers,
``driver.rung.<event>.<rung>``, the store operations) are folded into
*labeled* series, so one scrape graphs the kill taxonomy, the cache-tier
mix and the rung ladder. It is served as ``GET /metrics`` and as the
stdio ``metrics`` op of ``repro serve``. Run-report diffing lives in
:mod:`repro.engine.diff`, which needs the report model.

Import discipline: this module must not import :mod:`repro.engine` (the
driver imports ``repro.obs``).
"""

from __future__ import annotations

import re
from typing import Optional

from . import metrics

#: Bumped whenever the exposition's family names/labels change shape.
EXPOSITION_VERSION = 6

#: The scrape Content-Type (the standard Prometheus text format).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

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


__all__ = [
    "CONTENT_TYPE",
    "EXPOSITION_VERSION",
    "render_prometheus",
]
