"""Command-line interface: ``thresher``.

Subcommands::

    thresher check APP.mj [--annotated] [--budget N]   leak-check an app
    thresher graph APP.mj [--no-library]               dump the points-to graph
    thresher bench [--table1 | --table2] [--app NAME]  run the evaluation
    thresher witness APP.mj CLASS.FIELD                witness/refute one field
    thresher casts APP.mj                              check every downcast
    thresher explain --report R.json [--journal J.jsonl]
                                                       render a refutation
                                                       certificate or witness
                                                       narrative for one edge
    thresher serve APP.mj [--stdio | --port N]         long-lived analysis
                                                       daemon with edit-level
                                                       incremental re-analysis
                                                       (see docs/serve.md)

``APP.mj`` is a mini-Java source file (the app only; the Android library
and the lifecycle harness are added automatically unless ``--no-library``).

The refutation subcommands (``check``, ``witness``, ``casts``, ``bench``)
share the parallel-driver flags:

``--jobs N``
    Refute independent edges on N workers (default 1: the deterministic
    serial mode that reproduces the paper's tables bit-identically).
``--deadline S``
    Per-edge wall-clock deadline in seconds; an edge that exceeds it is
    reported TIMEOUT (not refuted), like the paper's per-edge timeout.
``--json-report PATH``
    Write the structured per-edge run report (JSON) to PATH.
``--progress``
    Stream per-edge progress lines to stderr as jobs finish.
``--no-memo`` / ``--no-subsumption``
    Ablation switches for the :mod:`repro.perf` caches: disable solver
    verdict memoization, or the refuted-state cache plus worklist
    subsumption, respectively (see ``docs/performance.md``).
``--backend {thread,process}``
    Worker pool flavor for ``--jobs N > 1`` (default thread). The process
    backend ships per-worker metrics/span/journal payloads back to the
    parent and merges them.
``--journal FILE``
    Record a per-query search journal (every state spawned/killed/
    witnessed, with typed kill reasons) and write it as JSONL; feed it to
    ``thresher explain`` for refutation certificates.

Every subcommand additionally accepts the observability flags:

``--trace FILE``
    Record hierarchical spans and write a Chrome trace-event JSON file
    (open it in ``chrome://tracing`` or https://ui.perfetto.dev).
``--metrics FILE``
    Write the process-wide metrics registry (counters, gauges,
    p50/p95 histograms) as JSON when the command finishes.
``--metrics-stream FILE`` / ``--metrics-interval S``
    Append a metrics-registry snapshot to FILE as JSONL every S seconds
    (default 5.0) while the command runs — the batch-mode equivalent of
    scraping the daemon's ``GET /metrics``.

``thresher top`` renders a live terminal dashboard (in-flight searches,
rung occupancy, worker utilization, cache hit-rates) against a running
``thresher serve --port N`` daemon. ``thresher explain --diff A.json
B.json`` attributes wall/verdict/tier deltas between two run reports,
and ``thresher explain --slow`` lists the slow-query flight recorder's
captures (see docs/observability.md).

See ``docs/cli.md`` for the full reference with examples and
``docs/observability.md`` for the span/metric catalogue.
"""

from __future__ import annotations

import argparse
import sys


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event JSON file (chrome://tracing, Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the metrics registry (counters/gauges/histograms) as JSON",
    )
    parser.add_argument(
        "--metrics-stream",
        default=None,
        metavar="FILE",
        help="append periodic metrics-registry snapshots to FILE as JSONL",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=5.0,
        metavar="S",
        help="seconds between --metrics-stream snapshots (default 5)",
    )


def _add_driver_flags(parser: argparse.ArgumentParser) -> None:
    _add_obs_flags(parser)
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker count for edge refutation (default 1: deterministic serial)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-edge wall-clock deadline in seconds (exceeded => TIMEOUT)",
    )
    parser.add_argument(
        "--json-report",
        default=None,
        metavar="PATH",
        help="write the structured per-edge run report (JSON) to PATH",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream per-edge progress to stderr",
    )
    parser.add_argument(
        "--no-memo",
        action="store_true",
        help="disable solver verdict memoization (ablation)",
    )
    parser.add_argument(
        "--no-subsumption",
        action="store_true",
        help="disable the refuted-state cache and worklist subsumption (ablation)",
    )
    parser.add_argument(
        "--backend",
        choices=["thread", "process"],
        default=None,
        help="worker pool flavor for --jobs N (default: thread)",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write the per-query search journal (JSONL) for 'thresher explain'",
    )
    parser.add_argument(
        "--schedule",
        choices=["lifo", "priority"],
        default=None,
        help=(
            "search scheduling policy: 'lifo' (the paper's DFS, default) or"
            " 'priority' (cost-model cheapest-first job dispatch and"
            " best-first worklist)"
        ),
    )
    parser.add_argument(
        "--portfolio",
        action="store_true",
        help=(
            "cheap-first portfolio: run every job at a small budget rung"
            " first, escalating only the survivors (same final verdicts)"
        ),
    )
    parser.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "flight-recorder capture threshold in milliseconds (default"
            " 2000; 0 disables capture): searches slower than this"
            " auto-persist their journal/trace for 'thresher explain"
            " --slow'"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persistent cross-run verdict store: read/write solver"
            " verdicts and refuted states in DIR/verdicts.sqlite (env"
            " REPRO_CACHE_DIR; default: no persistence)"
        ),
    )


def _search_config(args, **overrides):
    """Build a SearchConfig from the shared perf flags plus overrides."""
    from .symbolic import SearchConfig

    if getattr(args, "schedule", None):
        overrides.setdefault("schedule", args.schedule)
    if getattr(args, "portfolio", False):
        overrides.setdefault("portfolio", True)
    slow_ms = getattr(args, "slow_query_ms", None)
    if slow_ms is not None:
        overrides.setdefault(
            "slow_query_ms", slow_ms if slow_ms > 0 else None
        )
    if getattr(args, "cache_dir", None):
        overrides.setdefault("cache_dir", args.cache_dir)
    return SearchConfig(
        memoize_solver=not getattr(args, "no_memo", False),
        state_subsumption=not getattr(args, "no_subsumption", False),
        **overrides,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thresher",
        description="Precise refutations for heap reachability (PLDI'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="find Activity leaks in an app")
    p_check.add_argument("file")
    p_check.add_argument("--annotated", action="store_true", help="Ann?=Y configuration")
    p_check.add_argument("--budget", type=int, default=10_000)
    p_check.add_argument("--witnesses", action="store_true", help="print path program witnesses")
    _add_driver_flags(p_check)

    p_graph = sub.add_parser("graph", help="dump the flow-insensitive points-to graph")
    p_graph.add_argument("file")
    p_graph.add_argument("--no-library", action="store_true")
    _add_obs_flags(p_graph)

    p_bench = sub.add_parser("bench", help="run the paper's evaluation tables")
    p_bench.add_argument("--table", choices=["1", "2"], default="1")
    p_bench.add_argument("--app", default=None, help="restrict to one benchmark app")
    _add_driver_flags(p_bench)

    p_wit = sub.add_parser("witness", help="witness or refute alarms for one static field")
    p_wit.add_argument("file")
    p_wit.add_argument("field", help="Class.field")
    p_wit.add_argument("--budget", type=int, default=10_000)
    _add_driver_flags(p_wit)

    p_casts = sub.add_parser("casts", help="check every downcast for safety")
    p_casts.add_argument("file")
    p_casts.add_argument("--no-library", action="store_true")
    p_casts.add_argument("--budget", type=int, default=10_000)
    _add_driver_flags(p_casts)

    p_serve = sub.add_parser(
        "serve",
        help="long-lived analysis daemon with edit-level incremental re-analysis",
    )
    p_serve.add_argument("file")
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="speak JSON lines on stdin/stdout (default when --port is absent)",
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="N",
        help="serve HTTP/JSON on 127.0.0.1:N (POST /v1, GET /v1/status)",
    )
    p_serve.add_argument("--no-library", action="store_true")
    p_serve.add_argument("--budget", type=int, default=10_000)
    _add_driver_flags(p_serve)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard for a running 'thresher serve' daemon",
    )
    p_top.add_argument(
        "--url", default=None, metavar="URL",
        help="daemon base URL (overrides --host/--port)",
    )
    p_top.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default 127.0.0.1)"
    )
    p_top.add_argument(
        "--port", type=int, default=8787, metavar="N",
        help="daemon port (default 8787)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh interval in seconds (default 2)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit (no screen refresh)",
    )

    p_explain = sub.add_parser(
        "explain",
        help="render a refutation certificate (or witness narrative) for one edge",
    )
    p_explain.add_argument(
        "--report", default=None, metavar="R.json",
        help="run report written by --json-report",
    )
    p_explain.add_argument(
        "--diff", nargs=2, default=None, metavar=("A.json", "B.json"),
        help=(
            "diff two run reports: attribute wall/verdict/tier/kill deltas"
            " per edge token (B - A)"
        ),
    )
    p_explain.add_argument(
        "--slow", action="store_true",
        help="list the slow-query flight recorder's captured searches",
    )
    p_explain.add_argument(
        "--flight-dir", default=None, metavar="DIR",
        help="flight-recorder capture directory (default .repro-flight)",
    )
    p_explain.add_argument(
        "--journal", default=None, metavar="J.jsonl",
        help="search journal written by --journal (needed for certificates)",
    )
    p_explain.add_argument(
        "--edge", default=None, metavar="DESC",
        help="edge/fact description to explain (substring match)",
    )
    p_explain.add_argument(
        "--status", nargs="?", const="run",
        choices=["run", "refuted", "witnessed", "timeout"], default=None,
        help=(
            "with a verdict: explain the first record with that verdict"
            " instead of --edge; bare --status: print the run-level status"
            " (verdict summary + scheduling/per-rung table) and exit"
        ),
    )
    p_explain.add_argument(
        "--dot", default=None, metavar="FILE",
        help="also write the search tree as Graphviz DOT",
    )
    p_explain.add_argument(
        "--source", default=None, metavar="APP.mj",
        help="app source, enables the witness path narrative for witnessed edges",
    )
    p_explain.add_argument(
        "--no-library", action="store_true",
        help="with --source: do not wrap the app in the Android harness",
    )
    p_explain.add_argument(
        "--list", action="store_true",
        help="list the report's records (description + verdict) and exit",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or maintain the persistent cross-run verdict store",
    )
    p_cache.add_argument(
        "action", choices=["stats", "prune", "clear"],
        help=(
            "stats: print store contents and session counters; prune:"
            " LRU-evict down to --max-entries; clear: drop every stored"
            " verdict and refuted state"
        ),
    )
    p_cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store directory (default: env REPRO_CACHE_DIR)",
    )
    p_cache.add_argument(
        "--max-entries", type=_positive_int, default=None, metavar="N",
        help="with prune: target row cap per table",
    )
    p_cache.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )

    args = parser.parse_args(argv)
    tracer = None
    journal = None
    streamer = None
    if getattr(args, "trace", None) and args.command != "explain":
        from .obs import trace

        tracer = trace.install()
    if getattr(args, "journal", None) and args.command != "explain":
        from .obs import provenance

        journal = provenance.install()
    if getattr(args, "metrics_stream", None) and args.command != "explain":
        from .obs.telemetry import MetricsStreamer

        streamer = MetricsStreamer(
            args.metrics_stream, interval=args.metrics_interval
        )
        streamer.start()
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "witness":
            return _cmd_witness(args)
        if args.command == "casts":
            return _cmd_casts(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "top":
            return _cmd_top(args)
        if args.command == "cache":
            return _cmd_cache(args)
        return 2
    finally:
        if streamer is not None:
            streamer.stop()
        if tracer is not None:
            from .obs import trace

            tracer.write(args.trace)
            trace.disable()
        if journal is not None:
            from .obs import provenance

            journal.write_jsonl(args.journal)
            provenance.disable()
        if getattr(args, "metrics", None):
            from . import perf
            from .obs import metrics

            perf.refresh_intern_gauges()
            metrics.REGISTRY.write(args.metrics)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _on_event(args):
    from .engine import ProgressPrinter

    return ProgressPrinter() if getattr(args, "progress", False) else None


def _cmd_check(args) -> int:
    from .android.leaks import LeakChecker
    from .symbolic.witness import render_witness

    checker = LeakChecker(
        _read(args.file),
        app_name=args.file,
        annotated=args.annotated,
        config=_search_config(args, path_budget=args.budget),
        jobs=args.jobs,
        deadline=args.deadline,
        backend=args.backend,
        on_event=_on_event(args),
    )
    report = checker.run()
    print(
        f"{report.num_alarms} alarm(s) from the points-to analysis;"
        f" {report.refuted_alarms} refuted,"
        f" {len(report.reported_alarms)} reported"
        f" ({report.edges_refuted} edges refuted, {report.edges_witnessed}"
        f" witnessed, {report.edge_timeouts} timeouts, {report.seconds:.1f}s)"
    )
    for alarm in report.alarms:
        print(f"  {alarm.status:9s} {alarm.root} ↪ {alarm.target}")
        if args.witnesses and alarm.witnessed_path:
            for edge in alarm.witnessed_path:
                result = checker.engine.refute_edge(edge)
                if result.witnessed:
                    print("    " + render_witness(checker.program, result).replace("\n", "\n    "))
    if args.json_report and report.run_report is not None:
        report.run_report.write(args.json_report)
    return 0 if not report.reported_alarms else 1


def _cmd_graph(args) -> int:
    from .api import frontend_app
    from .ir import build_program
    from .pointsto import analyze

    checked = frontend_app(_read(args.file), not args.no_library)
    pta = analyze(build_program(checked))
    print(pta.graph.to_dot())
    return 0


def _cmd_bench(args) -> int:
    from .bench import APPS, app_by_name
    from .reporting import render_table1, render_table2, table1_row, table2_row

    apps = [app_by_name(args.app)] if args.app else APPS
    on_event = _on_event(args)
    if args.table == "1":
        rows = []
        reports = []
        for app in apps:
            for annotated in (False, True):
                row, report = table1_row(
                    app,
                    annotated,
                    config=_search_config(args),
                    jobs=args.jobs,
                    deadline=args.deadline,
                    on_event=on_event,
                )
                rows.append(row)
                reports.append(report)
        print(render_table1(rows))
        if args.json_report:
            _write_bench_reports(args.json_report, reports)
    else:
        rows = [
            table2_row(
                app,
                config=_search_config(args),
                jobs=args.jobs,
                deadline=args.deadline,
                on_event=on_event,
            )
            for app in apps
        ]
        print(render_table2(rows))
    return 0


def _write_bench_reports(path: str, reports) -> int:
    """Concatenate the per-app run reports into one JSON array."""
    import json

    payload = [
        r.run_report.to_dict() for r in reports if r.run_report is not None
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_witness(args) -> int:
    from .android.leaks import LeakChecker
    from .pointsto import StaticFieldNode
    from .symbolic.witness import render_witness

    class_name, _, field_name = args.field.partition(".")
    if not field_name:
        print("field must be Class.field", file=sys.stderr)
        return 2
    checker = LeakChecker(
        _read(args.file),
        args.file,
        config=_search_config(args, path_budget=args.budget),
        jobs=args.jobs,
        deadline=args.deadline,
        backend=args.backend,
        on_event=_on_event(args),
    )
    root = StaticFieldNode(class_name, field_name)
    edges = [e for e in checker.pta.graph.static_edges() if e.src == root]
    if not edges:
        print(f"no points-to edges out of {args.field}")
        return 0
    results = checker.driver.refute_edges(edges)
    from .pointsto.producers import edge_key

    for edge in edges:
        result = results[edge_key(edge)]
        print(f"{edge}: {result.status.upper()} ({result.path_programs} path programs)")
        if result.witnessed:
            print(render_witness(checker.program, result))
    if args.json_report:
        checker.driver.build_report(app=args.file, command="witness").write(
            args.json_report
        )
    checker.driver.close()
    return 0


def _cmd_casts(args) -> int:
    from .api import frontend_app
    from .clients import SAFE, analyze_casts
    from .engine import RefutationDriver
    from .ir import build_program
    from .pointsto import analyze

    program = build_program(frontend_app(_read(args.file), not args.no_library))
    pta = analyze(program)
    driver = RefutationDriver(
        pta,
        _search_config(args, path_budget=args.budget),
        jobs=args.jobs,
        deadline=args.deadline,
        backend=args.backend,
        on_event=_on_event(args),
    )
    result = analyze_casts(pta, engine=driver)
    reports = result.results
    flagged = 0
    for report in reports:
        line = program.commands[report.label].pos.line
        print(
            f"L{line} in {report.method}: ({report.cast.class_name})"
            f" {report.cast.src} -> {report.status}"
        )
        if report.status != SAFE:
            flagged += 1
    print(f"{len(reports)} cast(s) checked, {flagged} flagged")
    if args.json_report:
        driver.build_report(app=args.file, command="casts").write(args.json_report)
    driver.close()
    return 0


def _cmd_serve(args) -> int:
    from .serve import ProgramSession, serve_http, serve_stdio

    if args.stdio and args.port is not None:
        print("pass --stdio or --port N, not both", file=sys.stderr)
        return 2
    session = ProgramSession(
        _read(args.file),
        include_library=not args.no_library,
        config=_search_config(args, path_budget=args.budget),
        jobs=args.jobs,
        deadline=args.deadline,
        backend=args.backend,
        journal=bool(args.journal),
    )
    try:
        if args.port is not None:
            return serve_http(session, args.port)
        return serve_stdio(session)
    finally:
        session.close()


def _cmd_top(args) -> int:
    """Poll a serve daemon's ``GET /v1/status`` and render a refreshing
    terminal dashboard (in-flight searches, rung occupancy, workers,
    cache hit-rates)."""
    import json
    import time
    import urllib.error
    import urllib.request

    base = args.url or f"http://{args.host}:{args.port}"
    url = base.rstrip("/") + "/v1/status"
    while True:
        try:
            with urllib.request.urlopen(url, timeout=10) as resp:
                envelope = json.loads(resp.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"top: cannot reach {url}: {exc}", file=sys.stderr)
            return 1
        if not envelope.get("ok", False):
            message = (envelope.get("error") or {}).get("message", "error")
            print(f"top: daemon error: {message}", file=sys.stderr)
            return 1
        body = _render_top(envelope.get("result") or {})
        if args.once:
            print(body)
            return 0
        # Home + clear-to-end keeps the refresh flicker-free.
        sys.stdout.write("\x1b[H\x1b[2J" + body + "\n")
        sys.stdout.flush()
        try:
            time.sleep(max(0.1, args.interval))
        except KeyboardInterrupt:
            return 0


def _render_top(status: dict) -> str:
    """One dashboard frame from a serve ``status`` payload. Pure —
    exercised directly by the tests."""
    lines = []
    program = status.get("program") or {}
    telemetry = status.get("telemetry") or {}
    run = telemetry.get("run") or {}
    totals = telemetry.get("totals") or {}
    head = "thresher top"
    if program:
        head += (
            f" — {program.get('methods', '?')} methods,"
            f" {program.get('commands', '?')} commands"
        )
    if run:
        state = "running" if run.get("finished") is None else "idle"
        head += (
            f" | last run: {state}, {run.get('total_jobs', 0)} job(s)"
            f" on {run.get('jobs', 0)}x{run.get('backend', '?')}"
        )
    lines.append(head)
    lines.append(
        "totals: "
        + "  ".join(
            f"{name} {totals.get(name, 0)}"
            for name in (
                "scheduled",
                "refuted",
                "witnessed",
                "timeout",
                "cached",
                "escalated",
            )
        )
    )
    in_flight = telemetry.get("in_flight") or []
    lines.append(f"in flight ({len(in_flight)}):")
    for entry in in_flight[:10]:
        lines.append(
            f"  rung {entry.get('rung', 0)}"
            f"  {entry.get('description', '?')}"
        )
    if len(in_flight) > 10:
        lines.append(f"  ... +{len(in_flight) - 10} more")
    rungs = (status.get("schedule") or {}).get("rungs") or []
    if rungs:
        lines.append("rung occupancy (scheduled/resolved/carryover):")
        for row in rungs:
            lines.append(
                f"  rung {row.get('rung', 0)} @ {row.get('budget', 0)}:"
                f" {row.get('scheduled', 0)}/{row.get('resolved', 0)}"
                f"/{row.get('carryover', 0)}"
            )
    workers = telemetry.get("workers") or {}
    if workers:
        done = sum(workers.values()) or 1
        lines.append("workers (completions):")
        for name, count in sorted(workers.items()):
            share = 100.0 * count / done
            lines.append(f"  {name or '<serial>'}: {count} ({share:.0f}%)")
    tiers = status.get("cache_tiers") or {}
    if tiers:
        answered = sum(
            tiers.get(k, 0)
            for k in (
                "context_hits",
                "component_memo_hits",
                "whole_query_memo_hits",
                "fastpath_unsat",
            )
        )
        asked = answered + tiers.get("decisions", 0)
        rate = 100.0 * answered / asked if asked else 0.0
        lines.append(
            f"cache: {answered}/{asked} solver questions answered from"
            f" cache ({rate:.0f}%)"
        )
    counters = status.get("metrics") or {}
    lines.append(
        f"serve: {counters.get('serve.requests', 0)} request(s),"
        f" {counters.get('serve.verdicts_reused', 0)} verdict(s) reused,"
        f" {counters.get('driver.priority_inversions', 0)} inversion(s)"
    )
    return "\n".join(lines)


def _explain_slow(args) -> int:
    """List the flight recorder's persisted slow-query captures."""
    from .obs import telemetry

    captures = telemetry.list_captures(args.flight_dir)
    directory = args.flight_dir or telemetry.flight_dir()
    if not captures:
        print(f"no flight-recorder captures under {directory}")
        print(
            "searches slower than --slow-query-ms (default 2000) are"
            " captured automatically; REPRO_FLIGHT_DISABLE=1 vetoes",
            file=sys.stderr,
        )
        return 0
    print(f"{len(captures)} slow-query capture(s) under {directory}:")
    for meta in captures:
        summary = meta.get("summary") or {}
        estimate = summary.get("estimate")
        estimate_text = (
            f", estimate {estimate}" if estimate is not None else ""
        )
        print(
            f"  [{meta.get('capture', '?')}] {meta.get('description', '?')}:"
            f" {summary.get('status', '?')} in"
            f" {summary.get('seconds', 0.0):.2f}s"
            f" ({summary.get('path_programs', 0)} path programs,"
            f" rung {summary.get('rung')}{estimate_text})"
        )
        kills = (meta.get("attribution") or {}).get("kills") or {}
        if kills:
            mix = ", ".join(
                f"{reason} {count}"
                for reason, count in sorted(kills.items())
            )
            print(f"      kills: {mix}")
        if meta.get("path"):
            print(f"      journal: {meta['path']}")
        if meta.get("trace"):
            print(f"      trace:   {meta['trace']}")
    return 0


def _cmd_explain(args) -> int:
    from .engine.report import RunReport
    from .obs import provenance

    if args.diff is not None:
        from .engine import diff_reports, render_diff

        a = RunReport.from_json(_read(args.diff[0]))
        b = RunReport.from_json(_read(args.diff[1]))
        print(render_diff(diff_reports(a, b)))
        return 0
    if args.slow:
        return _explain_slow(args)
    if args.report is None:
        print(
            "explain needs one of --report R.json, --diff A.json B.json,"
            " or --slow",
            file=sys.stderr,
        )
        return 2
    report = RunReport.from_json(_read(args.report))
    if args.list:
        for record in report.records:
            kills = sum(record.kill_reasons.values())
            extra = f", {kills} dead branch(es)" if kills else ""
            print(f"{record.status:9s} {record.description}{extra}")
        _print_cache_tiers(report.cache)
        _print_sched_table(report.schedule)
        return 0
    if args.status == "run":
        print(
            f"{report.command or 'run'}: {len(report.records)} job(s) —"
            f" {report.edges_refuted} refuted, {report.edges_witnessed}"
            f" witnessed, {report.edge_timeouts} timeout"
            f" ({report.wall_seconds:.2f}s wall, jobs={report.jobs},"
            f" backend={report.backend})"
        )
        _print_cache_tiers(report.cache)
        _print_sched_table(report.schedule)
        return 0
    record = _pick_record(report, args.edge, args.status)
    if record is None:
        wanted = args.edge or args.status or "<first>"
        print(f"no record matching {wanted!r} in {args.report}", file=sys.stderr)
        print("records:", file=sys.stderr)
        for r in report.records:
            print(f"  {r.status:9s} {r.description}", file=sys.stderr)
        return 2
    journal = None
    if args.journal:
        journal = provenance.RunJournal.read_jsonl(args.journal)
    if record.status == "witnessed":
        _explain_witness(args, record)
    else:
        if journal is None:
            print(
                f"{record.description}: {record.status.upper()}"
                f" ({record.path_programs} path programs,"
                f" {record.seconds:.2f}s)"
            )
            print(
                "pass --journal J.jsonl (recorded with the run's --journal"
                " flag) for the full refutation certificate",
                file=sys.stderr,
            )
        else:
            print(
                provenance.render_certificate(
                    record.description, journal, status=record.status
                )
            )
    if args.dot:
        if journal is None:
            print("--dot requires --journal", file=sys.stderr)
            return 2
        searches = journal.searches_for(record.description)
        with open(args.dot, "w") as fh:
            fh.write(provenance.to_dot(searches, title=record.description))
            fh.write("\n")
    return 0


def _print_cache_tiers(cache: dict) -> None:
    """Per-tier cache efficacy, from the run report's ``cache`` section:
    how many solver questions each tier answered without running the
    decision procedure, against the decisions that actually ran."""
    if not cache:
        return
    tiers = cache.get("tiers") or {}
    if not tiers:
        return
    print("cache tiers (answered without deciding):")
    print(f"  solver context hits    {tiers.get('context_hits', 0):>8}")
    print(f"  component memo hits    {tiers.get('component_memo_hits', 0):>8}")
    print(f"  whole-query memo hits  {tiers.get('whole_query_memo_hits', 0):>8}")
    print(f"  syntactic UNSAT        {tiers.get('fastpath_unsat', 0):>8}")
    store = cache.get("store") or {}
    if store.get("enabled") or store.get("hits") or store.get("writes"):
        print(f"  persistent store hits  {store.get('hits', 0):>8}")
    print(f"  decisions actually run {tiers.get('decisions', 0):>8}")
    _print_store_row(store)


def _print_store_row(store: dict) -> None:
    """The persistent verdict store's run-report row (``explain --status``):
    session hit/miss/write/evict counters plus the durable file identity."""
    if not store or not (
        store.get("enabled")
        or store.get("hits")
        or store.get("misses")
        or store.get("writes")
    ):
        return
    line = (
        f"store: {store.get('hits', 0)} hit(s) /"
        f" {store.get('misses', 0)} miss(es),"
        f" {store.get('writes', 0)} write(s),"
        f" {store.get('evictions', 0)} eviction(s)"
    )
    if store.get("bytes") is not None:
        line += f", {store['bytes']} bytes on disk"
    print(line)
    if store.get("fingerprint"):
        print(
            f"  {store.get('entries', 0)} verdict(s) +"
            f" {store.get('refuted_entries', 0)} refuted state(s) at"
            f" {store.get('path', '?')} (fingerprint"
            f" {store['fingerprint']})"
        )


def _cmd_cache(args) -> int:
    import json as _json
    import os

    from .perf import store as perf_store

    cache_dir = perf_store.resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print(
            "cache: no store directory (pass --cache-dir DIR or set"
            " REPRO_CACHE_DIR)",
            file=sys.stderr,
        )
        return 2
    if args.action == "stats":
        stats = perf_store.stats_for_dir(cache_dir)
        if stats is None:
            print(f"cache: no store at {perf_store.store_path(cache_dir)}")
            return 0
        if args.json:
            print(_json.dumps(stats, indent=2, sort_keys=True))
            return 0
        if "error" in stats:
            print(f"cache: {stats['path']}: {stats['error']}", file=sys.stderr)
            return 1
        print(f"store {stats['path']}")
        print(f"  schema version     {stats['schema_version']}")
        print(f"  solver fingerprint {stats['fingerprint']}")
        print(f"  verdicts           {stats['entries']}")
        print(f"  refuted states     {stats['refuted_entries']}")
        print(f"  stored hits        {stats['stored_hits']}")
        print(f"  size on disk       {stats['bytes']} bytes")
        return 0
    path = perf_store.store_path(cache_dir)
    if not os.path.exists(path):
        print(f"cache: no store at {path}", file=sys.stderr)
        return 2
    try:
        store = perf_store.VerdictStore(path)
    except perf_store.StoreInvalid as exc:
        if args.action == "clear":
            # A store the current build cannot even open (corrupt file,
            # old schema) is exactly what clear is for: start over.
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(path + suffix)
                except OSError:
                    pass
            print(f"cache: removed unreadable store at {path} ({exc})")
            return 0
        print(f"cache: {path}: {exc}", file=sys.stderr)
        return 1
    try:
        if args.action == "clear":
            store.clear()
            print(f"cache: cleared {path}")
        else:
            target = args.max_entries or perf_store.DEFAULT_MAX_ENTRIES
            dropped = store.prune(target)
            print(
                f"cache: pruned {dropped} row(s) from {path}"
                f" (cap {target} per table)"
            )
    finally:
        store.close()
    return 0


def _print_sched_table(schedule: dict) -> None:
    """The run's scheduling behavior, from the report's ``schedule``
    section: active policy/toggles, one row per portfolio rung (jobs
    scheduled / resolved / carried over at each budget), and the
    priority-inversion counter."""
    if not schedule:
        return
    print(
        f"scheduling: policy={schedule.get('policy', 'lifo')}"
        f" portfolio={'on' if schedule.get('portfolio') else 'off'}"
    )
    rungs = schedule.get("rungs") or []
    if rungs:
        print("  rung   budget  deadline  scheduled  resolved  carryover")
        for row in rungs:
            deadline = row.get("deadline")
            print(
                f"  {row.get('rung', 0):>4}"
                f"  {row.get('budget', 0):>7}"
                f"  {deadline if deadline is not None else '-':>8}"
                f"  {row.get('scheduled', 0):>9}"
                f"  {row.get('resolved', 0):>8}"
                f"  {row.get('carryover', 0):>9}"
            )
    inversions = schedule.get("priority_inversions", 0)
    if inversions:
        print(f"  priority inversions {inversions}")


def _pick_record(report, edge: str | None, status: str | None):
    records = report.records
    if edge is not None:
        for r in records:
            if r.description == edge:
                return r
        for r in records:
            if edge in r.description:
                return r
        return None
    if status is not None:
        for r in records:
            if r.status == status:
                return r
        return None
    return records[0] if records else None


def _explain_witness(args, record) -> None:
    from .symbolic.witness import render_trace

    header = (
        f"witness for {record.description} [{record.status}]"
        f" — the alarm survives: a concrete path produces the edge"
    )
    if not args.source:
        print(header)
        if record.witness_trace:
            print("  trace labels: " + " -> ".join(map(str, record.witness_trace)))
        print(
            "pass --source APP.mj to render the source-anchored path program",
            file=sys.stderr,
        )
        return
    from .api import frontend_app
    from .ir import build_program

    program = build_program(
        frontend_app(_read(args.source), not args.no_library)
    )
    print(render_trace(program, record.witness_trace or [], header))


if __name__ == "__main__":
    raise SystemExit(main())
