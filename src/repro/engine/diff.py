"""Run-report diffing: per-edge blame for wall/solver/verdict regressions.

``benchmarks/compare_bench.py`` can tell you *that* a run regressed;
this module tells you *where*. Two :class:`~repro.engine.report.RunReport`
artifacts are joined on the stable job token ``(kind, description)`` —
the same token the driver sorts records by, so the join is insensitive
to ``--jobs``, backend, and schedule permutations — and every delta is
attributed:

* per-record: wall seconds, path programs, verdict flips, rung moves;
* run-level: total wall, the solver answer-tier mix (per-edge solver
  calls are not recorded, so solver-call deltas are attributed at the
  tier level), kill-reason attribution, and scheduler efficacy
  (priority inversions).

Used by ``repro explain --diff A.json B.json``.
"""

from __future__ import annotations

from .report import RunReport


def _tiers(report: RunReport) -> dict:
    tiers = (report.cache or {}).get("tiers") or {}
    return {k: v for k, v in tiers.items() if isinstance(v, (int, float))}


def _store(report: RunReport) -> dict:
    store = (report.cache or {}).get("store") or {}
    return {
        k: v
        for k, v in store.items()
        if k in ("hits", "misses", "writes", "evictions", "errors")
        and isinstance(v, (int, float))
    }


def _counts(a: dict, b: dict) -> dict:
    """Keywise ``{key: {a, b, delta}}`` over the union of two count maps."""
    out = {}
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key, 0), b.get(key, 0)
        out[key] = {"a": va, "b": vb, "delta": vb - va}
    return out


def diff_reports(a: RunReport, b: RunReport) -> dict:
    """Attribute the differences between two run reports (``b - a``)."""
    a_records = {(r.kind, r.description): r for r in a.records}
    b_records = {(r.kind, r.description): r for r in b.records}
    shared = sorted(set(a_records) & set(b_records))
    records = []
    for token in shared:
        ra, rb = a_records[token], b_records[token]
        records.append(
            {
                "kind": token[0],
                "description": token[1],
                "status_a": ra.status,
                "status_b": rb.status,
                "verdict_changed": ra.status != rb.status,
                "seconds_a": ra.seconds,
                "seconds_b": rb.seconds,
                "seconds_delta": rb.seconds - ra.seconds,
                "path_programs_a": ra.path_programs,
                "path_programs_b": rb.path_programs,
                "path_programs_delta": rb.path_programs - ra.path_programs,
                "rung_a": ra.rung,
                "rung_b": rb.rung,
            }
        )
    sched_a, sched_b = a.schedule or {}, b.schedule or {}
    return {
        "a": {"app": a.app, "command": a.command, "jobs": a.jobs,
              "wall_seconds": a.wall_seconds},
        "b": {"app": b.app, "command": b.command, "jobs": b.jobs,
              "wall_seconds": b.wall_seconds},
        "wall_delta": b.wall_seconds - a.wall_seconds,
        "records": records,
        "verdict_changes": [r for r in records if r["verdict_changed"]],
        "only_in_a": [list(t) for t in sorted(set(a_records) - set(b_records))],
        "only_in_b": [list(t) for t in sorted(set(b_records) - set(a_records))],
        "tiers": _counts(_tiers(a), _tiers(b)),
        "store": _counts(_store(a), _store(b)),
        "attribution": _counts(
            a.attribution.get("kills", {}), b.attribution.get("kills", {})
        ),
        "schedule": _counts(
            {
                "priority_inversions": sched_a.get("priority_inversions", 0)
                or 0,
            },
            {
                "priority_inversions": sched_b.get("priority_inversions", 0)
                or 0,
            },
        ),
    }


def render_diff(diff: dict, top: int = 10) -> str:
    """Human rendering of :func:`diff_reports`: run totals, verdict flips,
    then the ``top`` records by absolute wall delta."""
    lines = []
    a, b = diff["a"], diff["b"]
    lines.append(
        f"run diff: A={a['app'] or a['command'] or 'report'}"
        f" ({a['wall_seconds']:.2f}s)"
        f"  B={b['app'] or b['command'] or 'report'}"
        f" ({b['wall_seconds']:.2f}s)"
        f"  wall delta {diff['wall_delta']:+.2f}s"
    )
    if diff["verdict_changes"]:
        lines.append("verdict changes:")
        for r in diff["verdict_changes"]:
            lines.append(
                f"  {r['kind']:4s} {r['description']}: "
                f"{r['status_a']} -> {r['status_b']}"
            )
    for side, key in (("A", "only_in_a"), ("B", "only_in_b")):
        if diff[key]:
            tokens = ", ".join(t[1] for t in diff[key][:5])
            more = len(diff[key]) - 5
            suffix = f" (+{more} more)" if more > 0 else ""
            lines.append(f"only in {side}: {tokens}{suffix}")
    movers = sorted(
        diff["records"], key=lambda r: -abs(r["seconds_delta"])
    )[:top]
    if movers:
        lines.append(f"top {len(movers)} records by |wall delta| (B - A):")
        for r in movers:
            rung = (
                f"  rung {r['rung_a']}->{r['rung_b']}"
                if r["rung_a"] != r["rung_b"]
                else ""
            )
            lines.append(
                f"  {r['seconds_delta']:+8.3f}s"
                f"  {r['path_programs_delta']:+6d} pp"
                f"  {r['kind']:4s} {r['description']}"
                f" [{r['status_b']}]{rung}"
            )
    tier_moves = {
        name: d for name, d in diff["tiers"].items() if d["delta"] != 0
    }
    if tier_moves:
        lines.append("solver answer tiers (B - A):")
        for name, d in tier_moves.items():
            lines.append(
                f"  {name:20s} {d['a']:>10} -> {d['b']:>10}"
                f"  ({d['delta']:+})"
            )
    store_moves = {
        name: d for name, d in diff["store"].items() if d["delta"] != 0
    }
    if store_moves:
        lines.append("persistent store (B - A):")
        for name, d in store_moves.items():
            lines.append(
                f"  {name:20s} {d['a']:>10} -> {d['b']:>10}"
                f"  ({d['delta']:+})"
            )
    kill_moves = {
        name: d for name, d in diff["attribution"].items() if d["delta"] != 0
    }
    if kill_moves:
        lines.append("kill attribution (B - A):")
        for name, d in kill_moves.items():
            lines.append(
                f"  {name:20s} {d['a']:>10} -> {d['b']:>10}"
                f"  ({d['delta']:+})"
            )
    sched_moves = {
        name: d for name, d in diff["schedule"].items() if d["delta"] != 0
    }
    if sched_moves:
        lines.append("scheduler (B - A):")
        for name, d in sched_moves.items():
            lines.append(
                f"  {name:20s} {d['a']:>10} -> {d['b']:>10}"
                f"  ({d['delta']:+})"
            )
    return "\n".join(lines)


__all__ = ["diff_reports", "render_diff"]
