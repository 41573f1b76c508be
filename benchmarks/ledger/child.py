"""The measured side of the ledger: one workload, one fresh process.

``run.py`` starts this script once per set-up-only run, timed loop and
trace sample, with a JSON spec as its only argument::

    {"workload": "table1", "seed": 1, "tiny": false, "mode": "measure",
     "seconds": 18, "trace": false, "trace_path": null, "tmp": "<dir>"}

``mode`` is ``setup`` (set up, report the time, exit), ``measure`` (the
closed loop: rounds of jobs, one after another, until ``seconds`` have
passed and at least one round is done; exactly one round with ``tiny``)
or ``sample`` (the workload's fixed trace sample). The last line of
standard output is one JSON document: the set-up time, one record per
job, the registry counter deltas of the jobs, peak RSS and, when traced,
the per-layer span totals.

All the while a :class:`HostClock` thread times a fixed piece of
pure-Python work every few milliseconds, which tracks how fast the host
runs the interpreter; each timed stretch (the set-up, each job) carries
the clock's reading over it, and ``run.py`` uses that to take the host's
speed out of the timings.

Nothing here decides correctness; the records carry what ``run.py``'s
oracle needs. A job that raises is recorded with its error and the loop
goes on; so is a set-up that raises.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import resource
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext

#: Registry counters read before and after the jobs (deltas are reported).
COUNTERS = (
    "solver.checks",
    "solver.fastpath_unsat",
    "solver.component_memo_hits",
    "solver.component_memo_misses",
    "store.hits",
    "store.misses",
    "executor.states_explored",
    "executor.worklist_subsumed",
    "executor.refuted_cache_hits",
    "executor.refuted_cache_misses",
    "driver.rung.scheduled.0",
    "driver.rung.resolved.0",
)

REACH = {
    "client": "reachability",
    "root_class": "Registry",
    "root_field": "hold",
    "target_class": "Item",
}

_PROBE_TABLE = {i: i * 3 for i in range(512)}


def _probe() -> int:
    # Dict lookups and integer arithmetic. Of five probes tried (with
    # strings, tuples and frozensets made, a pointer chase over 100,000
    # objects, attribute walks), this one's slowdown matched the analysis's
    # most closely: the job's time over the probe's then varied least. It
    # makes no object the cyclic collector tracks, so it never moves the
    # program's collections. Never change it: timings compare across
    # commits only while the probe stays the same.
    acc = 0
    table = _PROBE_TABLE
    for i in range(2_500):
        acc = (acc + table[i & 511] * 7) & 0xFFFFF
    return acc


class HostClock:
    """How fast the host runs the interpreter, sampled all through the
    measured process by a thread that times :func:`_probe` every
    :data:`PERIOD` seconds.

    On a shared host the same job can take twice as long in one minute as
    in the next, and each vCPU drifts on its own (the two vCPUs' speeds
    correlate at about 0.2), so :func:`main` pins the process to one vCPU
    and this thread samples that vCPU. The probe's time during a job
    follows the job's speed: ``job seconds / probe seconds`` measures the
    job, not the host's moment. Probes between jobs track a 2-second job
    too coarsely (its time over theirs spread by 20%); probes during it
    cut that to 8-9%."""

    PERIOD = 0.01
    #: An interval with fewer samples inside borrows the nearest ones.
    MIN_SAMPLES = 5

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []  # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostclock", daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            start = time.perf_counter()
            _probe()
            self._samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def over(self, start: float, end: float) -> dict:
        """For an interval of ``perf_counter`` time, once sampling has
        stopped: the median probe seconds in it (``probe_s``) and the
        seconds the probes took from it (``sampler_s``)."""
        starts = [s for s, _ in self._samples]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        inside = self._samples[lo:hi]
        near = inside
        if len(near) < self.MIN_SAMPLES:
            mid = bisect.bisect_left(starts, (start + end) / 2)
            first = max(0, mid - self.MIN_SAMPLES // 2)
            near = self._samples[first : first + self.MIN_SAMPLES]
        return {
            "probe_s": statistics.median(d for _, d in near) if near else float("nan"),
            "sampler_s": sum(d for _, d in inside),
        }


def _edge_tally(records) -> dict:
    """Edge searches a job completed, from its run report's records (one
    per freshly decided edge; cache hits add none)."""
    return {
        "edges": len(records),
        "timeouts": sum(1 for r in records if r.status == "timeout"),
    }


class Table1:
    """The paper's Table 1 traffic: every app, annotations off and on,
    in a seeded shuffle per round. Each job starts as one ``repro check``
    run would (see :meth:`prepare`)."""

    name = "table1"
    #: Rounds of the trace sample.
    sample_rounds = 1

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        from repro.android.leaks import LeakChecker
        from repro.bench import APPS
        from repro.perf.memo import SOLVER_MEMO

        self._checker = LeakChecker
        self._memo = SOLVER_MEMO
        self.apps = {app.name: app for app in (APPS[:3] if tiny else APPS)}
        self.keys = [
            f"{name}/{ann}" for name in self.apps for ann in ("N", "Y")
        ]
        self.rng = random.Random(seed)
        #: A fixed warm-up, whatever the seed: the largest app in the set.
        self.warm_key = f"{list(self.apps)[-1]}/N"

    def setup(self) -> None:
        self.prepare(self.warm_key)
        self.execute(self.warm_key)

    def next_round(self) -> list:
        keys = list(self.keys)
        self.rng.shuffle(keys)
        return keys

    def prepare(self, key: str) -> None:
        # As in a fresh process: a cold memo, and no garbage from earlier
        # jobs left to collect inside this one, so a job's time does not
        # depend on the jobs that ran before it.
        self._memo.clear()
        gc.collect()

    def execute(self, key: str):
        name, ann = key.split("/")
        app = self.apps[name]
        return self._checker(app.source, app.name, annotated=ann == "Y").run()

    def record(self, key: str, report) -> dict:
        alarms = sorted(
            [
                f"{a.root.class_name}.{a.root.field}",
                f"{a.target.site.hint}@{a.target.site.site_id}",
                a.status,
            ]
            for a in report.alarms
        )
        return dict(
            _edge_tally(report.run_report.records),
            refuted=report.refuted_alarms,
            total=report.num_alarms,
            verdict=alarms,
        )

    def close(self) -> None:
        pass


class Ablation(Table1):
    """The Section 4 ablation program at budget 20,000: path enumeration,
    redundant guards and a product-shaped constraint lattice, all
    refutable. Search-bound, with a negligible front half."""

    name = "ablation"
    sample_rounds = 3
    budget = 20_000

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        from repro.android.leaks import LeakChecker
        from repro.bench.workloads import branchy_app, entailed_app, lattice_app
        from repro.perf.memo import SOLVER_MEMO
        from repro.symbolic import SearchConfig

        self._checker = LeakChecker
        self._memo = SOLVER_MEMO
        self._config = SearchConfig(path_budget=self.budget)
        branches, lattice = (4, 3) if tiny else (8, 5)
        self.source = (
            branchy_app(branches, leaky=False)
            + entailed_app(branches)
            + lattice_app(lattice)
        )
        if tiny:
            self.sample_rounds = 2
        self.warm_key = self.name

    def next_round(self) -> list:
        return [self.name]

    def execute(self, key: str):
        return self._checker(self.source, self.name, config=self._config).run()


class Layered(Ablation):
    """Two-edge heap paths, expensive edge first, through
    ``repro.api.analyze`` with the priority schedule and the cheap-first
    portfolio on two pool threads: the only workload that runs the driver
    pool and the rung ladder."""

    name = "layered"

    @staticmethod
    def size(tiny: bool) -> int:
        """Jobs (heap paths) in the program, each one verified item."""
        return 1 if tiny else 8

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        from repro.api import AnalysisRequest, analyze
        from repro.bench.workloads import layered_app
        from repro.perf.memo import SOLVER_MEMO

        self._memo = SOLVER_MEMO
        self._analyze = analyze
        self.request = AnalysisRequest(
            source=layered_app(self.size(tiny), hard_branches=10),
            portfolio=True,
            schedule="priority",
            jobs=2,
            backend="thread",
            **REACH,
        )
        self.sample_rounds = 2 if tiny else 3
        self.warm_key = self.name

    def execute(self, key: str):
        return self._analyze(self.request)

    def record(self, key: str, result) -> dict:
        return dict(
            _edge_tally(result.report.records),
            refuted=result.stats.verified_items,
            total=result.stats.items,
            workers=self.request.jobs,
            verdict=[result.status, result.stats.items, result.stats.verified_items],
        )


def serve_source(bumps: list, tiny: bool) -> str:
    """The ``serve`` program for a vector of extra ``pad`` bumps per
    screen (a pure function of it, so the oracle can rebuild any state)."""
    from repro.bench.workloads import lifecycle_app, lifecycle_edit

    source = lifecycle_app(len(bumps), leaky=1, branches=3 if tiny else 6)
    for screen, count in enumerate(bumps):
        for _ in range(count):
            source = lifecycle_edit(source, screen)
    return source


class Serve:
    """A resident ``ProgramSession`` with a persistent store, under a
    seeded request stream. Every round is 20 requests in a fresh shuffle:
    12 edits (an extra ``pad`` bump, handled incrementally), 5 undos (a
    bump removed: non-additive, so a full rebuild that reads the store)
    and 3 plain queries; an analyze follows each."""

    name = "serve"
    sample_rounds = 1
    MIX = ("edit",) * 12 + ("undo",) * 5 + ("query",) * 3
    #: Every this many requests the warm verdict payload is shipped for the
    #: cold-session parity check (done by run.py, outside this process).
    CHECK_EVERY = 10

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        from repro.serve.session import ProgramSession
        from repro.symbolic import SearchConfig

        self._session_type = ProgramSession
        self.config = SearchConfig(cache_dir=os.path.join(tmp, "store"))
        self.tiny = tiny
        self.bumps = [1] * (4 if tiny else 12)
        self.rng = random.Random(seed)
        self.requests = 0
        self.session = None
        self.source = None

    def setup(self) -> None:
        self.session = self._session_type(
            serve_source(self.bumps, self.tiny),
            include_library=False,
            config=self.config,
        )
        self.session.analyze(dict(REACH))

    def next_round(self) -> list:
        kinds = list(self.MIX)
        self.rng.shuffle(kinds)
        return kinds

    def prepare(self, kind: str) -> None:
        # The edited text comes from the client: composing it is not the
        # server's work, so it happens before the clock starts.
        self.requests += 1
        self.source = None
        if kind == "edit":
            self.bumps[self.rng.randrange(len(self.bumps))] += 1
        elif kind == "undo":
            live = [i for i, count in enumerate(self.bumps) if count]
            self.bumps[self.rng.choice(live)] -= 1
        if kind != "query":
            self.source = serve_source(self.bumps, self.tiny)

    def execute(self, kind: str):
        update = None
        if self.source is not None:
            update, _ = self.session.update({"source": self.source})
        payload, meta = self.session.analyze(dict(REACH))
        return update, payload, meta

    def record(self, kind: str, outcome) -> dict:
        update, payload, meta = outcome
        records = payload["report"]["records"]
        out = {
            "edges": len(records),
            "timeouts": sum(1 for r in records if r["status"] == "timeout"),
            "refuted": payload["stats"]["verified_items"],
            "total": payload["stats"]["items"],
            "mode": update["mode"] if update is not None else "none",
            "reused": meta["verdicts_reused"],
            "verdict": payload["status"],
        }
        if self.requests % self.CHECK_EVERY == 0:
            out["check"] = {
                "bumps": list(self.bumps),
                "payload": json.dumps(payload["verdicts"], sort_keys=True),
            }
        return out

    def close(self) -> None:
        from repro.perf import store

        if self.session is not None:
            self.session.close()
        store.deactivate()


WORKLOADS = {w.name: w for w in (Table1, Ablation, Layered, Serve)}


def _counters() -> dict:
    from repro.obs import metrics

    out = {}
    for name in COUNTERS:
        instrument = metrics.REGISTRY.get(name)
        out[name] = instrument.value if instrument is not None else 0
    return out


def _run_job(workload, job, recorder, job_id: int) -> dict:
    try:
        workload.prepare(job)
        span = recorder.job_span(job_id) if recorder is not None else nullcontext()
        start = time.perf_counter()
        with span:
            outcome = workload.execute(job)
        end = time.perf_counter()
        record = workload.record(job, outcome)
    except Exception as exc:  # counted by run.py as a failed job
        return {
            "key": job,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    return dict(record, key=job, seconds=end - start, interval=(start, end), error=None)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list) -> int:
    spec = json.loads(argv[1])
    # Threads started later (the clock's, the pool's) inherit the pin.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    clock = HostClock()
    clock.start()
    start = time.perf_counter()
    workload = WORKLOADS[spec["workload"]](spec["seed"], spec["tiny"], spec["tmp"])
    out: dict = {"setup_error": None}
    try:
        workload.setup()
    except Exception as exc:  # reported by run.py; the jobs still run
        out["setup_error"] = f"{type(exc).__name__}: {exc}"
        out["setup_traceback"] = traceback.format_exc()
    setup = (start, time.perf_counter())
    out["setup_s"] = setup[1] - setup[0]
    if spec["mode"] != "setup":
        recorder = None
        if spec["trace"]:
            import spans

            recorder = spans.Recorder()
            recorder.install()
        before = _counters()
        jobs: list = []
        # A timed run starts jobs until ``seconds`` have passed; peak RSS is
        # read after its first round, a fixed amount of work (the serve
        # session grows with every request, so a longer run would read more).
        rounds = workload.sample_rounds if spec["mode"] == "sample" else 1
        timed = spec["mode"] == "measure" and not spec["tiny"]
        loop_start = time.perf_counter()

        def more() -> bool:
            return timed and time.perf_counter() - loop_start < spec["seconds"]

        index = 0
        while index < rounds or more():
            for job in workload.next_round():
                if index >= rounds and not more():
                    break
                record = _run_job(workload, job, recorder, len(jobs))
                jobs.append(dict(record, round=index))
            index += 1
            if index == 1:
                out["peak_rss_mb"] = _peak_rss_mb()
        out["loop_s"] = time.perf_counter() - loop_start
        after = _counters()
        out["counters"] = {k: after[k] - before[k] for k in COUNTERS}
        out["jobs"] = jobs
        if recorder is not None:
            recorder.uninstall()
            out["layers"] = {
                field: recorder.totals(field)
                for field in ("self_s", "total_s", "calls", "fired")
            }
            out["layers"]["free"] = recorder.free()
            recorder.write_chrome(
                spec["trace_path"],
                {"workload": spec["workload"], "seed": spec["seed"]},
            )
    workload.close()
    clock.stop()
    out["setup_clock"] = clock.over(*setup)
    for record in out.get("jobs", ()):
        if "interval" in record:
            record.update(clock.over(*record.pop("interval")))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
