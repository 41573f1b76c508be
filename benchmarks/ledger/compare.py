"""Compare two sets of ledger runs, workload by workload.

    python benchmarks/ledger/compare.py A B

``A`` and ``B`` are results directories (``run.py --out DIR`` writes them
under ``DIR/runs``) or single results files; ``A`` is the baseline. For
every workload x end-to-end metric the table shows each set's median and
quartiles, the change of B against A, the bound from ``BENCHMARK.json``
and a verdict:

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than A's own spread, and B
  wins at least nine in ten of all (B run, A run) pairs;
* ``same``: neither;
* ``unresolved``: a set's spread (interquartile range over median) exceeds
  the bound, unless every B run beats, or loses to, every A run.

Traced runs are compared on their per-layer counts (unit ``count``), which
must match exactly for the same workload and seed. The exit status is 1
when any verdict is ``worse`` or any count differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

LEDGER = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(LEDGER)), "BENCHMARK.json")


def load_runs(path: str) -> list[dict]:
    """Every results file under ``path`` (or ``path`` itself)."""
    if os.path.isfile(path):
        files = [path]
    else:
        files = sorted(
            os.path.join(folder, name)
            for folder, _, names in os.walk(path)
            for name in names
            if name.endswith(".json")
        )
    runs = []
    for name in files:
        with open(name) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "result" in data and "workload" in data:
            runs.append(data)
    return runs


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)``; change > 0 means B improved on A."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    pairs = [sign * (x - y) for x in b for y in a]
    if max(spread(a), spread(b)) > bound:
        if all(p > 0 for p in pairs):
            return "better", change
        if all(p < 0 for p in pairs):
            return "worse", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    wins = sum(1 for p in pairs if p > 0) / len(pairs)
    if change > spread(a) and wins >= 0.9:
        return "better", change
    return "same", change


def compare_e2e(spec: dict, runs_a: list, runs_b: list) -> list[str]:
    def by_workload(runs):
        out: dict = {}
        for run in runs:
            if not run["trace"]:
                out.setdefault(run["workload"], []).append(run)
        return out

    set_a, set_b = by_workload(runs_a), by_workload(runs_b)
    def cell(values):
        q1, median, q3 = quartiles(values)
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    verdicts = []
    print(
        f"{'workload':9s} {'metric':13s} {'A median [q1, q3]':32s}"
        f" {'B median [q1, q3]':32s} {'change':>7s} {'bound':>6s} verdict"
    )
    for workload in sorted(set(set_a) & set(set_b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in set_a[workload]]
            b = [r["result"]["metrics"][name]["value"] for r in set_b[workload]]
            result, change = verdict(a, b, metric["better"], metric["bound"])
            verdicts.append(result)
            print(
                f"{workload:9s} {name:13s} {cell(a):32s} {cell(b):32s}"
                f" {change:>+7.1%} {metric['bound']:>6.3g} {result}"
                f" (n={len(a)}/{len(b)})"
            )
    for workload in sorted(set(set_a) ^ set(set_b)):
        print(f"{workload:9s} only in {'A' if workload in set_a else 'B'}")
    return verdicts


def compare_counts(spec: dict, runs_a: list, runs_b: list) -> list[str]:
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    def by_key(runs):
        return {
            (r["workload"], r["seed"], r["tiny"]): r["result"]["metrics"]
            for r in runs
            if r["trace"]
        }

    set_a, set_b = by_key(runs_a), by_key(runs_b)
    differ = []
    for key in sorted(set(set_a) & set(set_b)):
        diff = [
            f"{name} {set_a[key][name]['value']} != {set_b[key][name]['value']}"
            for name in counts
            if set_a[key][name]["value"] != set_b[key][name]["value"]
        ]
        workload, seed, _ = key
        print(
            f"counts {workload} seed={seed}: "
            + ("identical" if not diff else "; ".join(diff))
        )
        differ.extend(diff)
    return differ


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    runs_a, runs_b = load_runs(argv[1]), load_runs(argv[2])
    verdicts = compare_e2e(spec, runs_a, runs_b)
    differ = compare_counts(spec, runs_a, runs_b)
    return 1 if "worse" in verdicts or differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
