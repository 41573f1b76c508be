"""Where a serve ``update`` spends its time, phase by phase, in-process.

Drives one ``ProgramSession`` over the ledger's ``serve`` program
(``lifecycle_app(12, leaky=1, branches=6)`` with a store in a temporary
directory) through a seeded stream of edits (one more ``pad`` bump in a
screen: additive) and undos (one bump removed: a rebuild), each followed
by an analyze, and prints the mean milliseconds per request of each phase:

* ``build``: whole-program builds (``ProgramSession._build``) plus class
  builds (``ProgramSession._class_build``, where the tree has one);
* ``fingerprints``: ``method_fingerprints``;
* ``points-to``: the incremental re-solve (``reanalyze``) and cold solves
  (``pointsto_analyze``);
* ``summaries``: inside those, the summary passes of ``repro.pointsto``:
  producers (``compute_producers``, or ``ProducerMap``), mod/ref
  (``ModRefAnalysis``), normal completion (``NormalCompletion``) and
  ``PointsToGraph.seal``, or their incremental ``refresh``/``update``;
* ``invalidation``: ``verdict_is_stale`` and ``stable_site_tokens``;
* ``update``: the whole ``update`` call; ``analyze``: the analyze after it.

A name a tree does not define is skipped, so the same script measures an
older or a newer tree; a call nested in another call of its own phase
counts once::

    PYTHONHASHSEED=0 PYTHONPATH=src taskset -c 1 python benchmarks/serve_phases.py
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import tempfile
import time
from collections import defaultdict

import repro.pointsto as pointsto
from repro.bench.workloads import lifecycle_app, lifecycle_edit
from repro.pointsto.graph import PointsToGraph
from repro.serve import session as session_module
from repro.serve.session import ProgramSession
from repro.symbolic import SearchConfig

QUERY = {
    "client": "reachability",
    "root_class": "Registry",
    "root_field": "hold",
    "target_class": "Item",
}

#: Phase -> (owner, attribute) pairs timed as that phase.
PHASES = {
    "build": ((ProgramSession, "_build"), (ProgramSession, "_class_build")),
    "fingerprints": ((session_module, "method_fingerprints"),),
    "points-to": (
        (session_module, "reanalyze"),
        (session_module, "pointsto_analyze"),
    ),
    "summaries": (
        (pointsto, "compute_producers"),
        (getattr(pointsto, "ProducerMap", None), "refresh"),
        (pointsto.ModRefAnalysis, "__init__"),
        (pointsto.ModRefAnalysis, "update"),
        (pointsto.NormalCompletion, "__init__"),
        (pointsto.NormalCompletion, "update"),
        (PointsToGraph, "seal"),
    ),
    "invalidation": (
        (session_module, "verdict_is_stale"),
        (session_module, "stable_site_tokens"),
    ),
}


def source_for(bumps: list) -> str:
    source = lifecycle_app(len(bumps), leaky=1, branches=6)
    for screen, count in enumerate(bumps):
        for _ in range(count):
            source = lifecycle_edit(source, screen)
    return source


def install(spent: dict) -> None:
    depth: dict = defaultdict(int)
    for phase, targets in PHASES.items():
        for owner, name in targets:
            original = getattr(owner, name, None)
            if original is None:
                continue

            @functools.wraps(original)
            def timed(*args, _original=original, _phase=phase, **kwargs):
                depth[_phase] += 1
                start = time.perf_counter()
                try:
                    return _original(*args, **kwargs)
                finally:
                    depth[_phase] -= 1
                    if not depth[_phase]:
                        spent[_phase] += time.perf_counter() - start

            setattr(owner, name, timed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=48)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    bumps = [1] * 12
    spent: dict = defaultdict(float)
    rows: dict = defaultdict(lambda: defaultdict(list))
    with tempfile.TemporaryDirectory() as tmp:
        config = SearchConfig(cache_dir=os.path.join(tmp, "store"))
        session = ProgramSession(
            source_for(bumps), include_library=False, config=config
        )
        session.analyze(dict(QUERY))
        install(spent)
        try:
            for _ in range(args.requests):
                kind = "edit" if rng.random() < 12 / 17 else "undo"
                if kind == "edit":
                    bumps[rng.randrange(len(bumps))] += 1
                else:
                    live = [i for i, count in enumerate(bumps) if count]
                    bumps[rng.choice(live)] -= 1
                source = source_for(bumps)
                spent.clear()
                start = time.perf_counter()
                session.update({"source": source})
                middle = time.perf_counter()
                session.analyze(dict(QUERY))
                end = time.perf_counter()
                for phase in PHASES:
                    rows[kind][phase].append(spent[phase])
                rows[kind]["update"].append(middle - start)
                rows[kind]["analyze"].append(end - middle)
        finally:
            session.close()
            from repro.perf import store

            store.deactivate()

    columns = [*PHASES, "update", "analyze"]
    print(f"{'request':8} {'n':>3} " + " ".join(f"{c:>12}" for c in columns))
    for kind in ("edit", "undo"):
        n = len(rows[kind]["update"])
        means = [1000 * sum(rows[kind][c]) / max(1, n) for c in columns]
        print(f"{kind:8} {n:>3} " + " ".join(f"{m:>12.2f}" for m in means))


if __name__ == "__main__":
    main()
