"""Command-line front door: subcommands over one shared job model.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments fig5 [--alphas 1,2,4,8] [--full]
    python -m repro.experiments fig6 [--alphas 1,2,4,8] [--full]
    python -m repro.experiments all
    python -m repro.experiments campaign [--fig 5|6 | --n N] [options]
    python -m repro.experiments scenario --seed N [--scheme S]
    python -m repro.experiments replay <trace.npz>
    python -m repro.experiments serve [--port P] [--cache-dir D] [...]
    python -m repro.experiments submit --url URL [matrix options]
    python -m repro.experiments timeline <dump.json> [--width W]

Every target is a real argparse subcommand; the recurring flag groups
(problem matrix, dtype, result cache, drivers) are shared
parent parsers, so ``campaign``, ``serve`` and ``submit`` spell them
identically.  ``--full`` runs the paper's actual problem sizes
(equivalent to setting ``REPRO_FULL=1``); default is the laptop-scale
ratio-preserving setup.

``scenario`` runs one seeded fault-injection scenario
(:mod:`repro.scenarios`) — crash/restart, churn, link degradation —
against a live solve and checks the standing invariants; ``replay``
re-executes a dumped schedule trace (``.npz``) and verifies the replay
reproduces the recorded per-sweep diffs bit-exactly.

``campaign`` runs a whole grid through the batched campaign engine
(:mod:`repro.campaign`): one shared resource context and — with
``--cache-dir`` — a persistent result cache, so
re-running the same command is served from disk instead of re-solving.
``--fig 5``/``--fig 6`` regenerates that figure's grid through the
engine; ``--n`` runs a custom matrix over the given axes.  With
``--warm-start``, delta-sweep groups are chained so each solve starts
from its neighbour's solution.  With ``--ladder``, every eligible
float64 job gets a mixed-precision multigrid chain planned in front of
it — half-size float32 solve, trilinearly interpolated float32 warm
start, float64 polish to the requested tolerance — same verified STOP,
less float64 work.  ``--min-cache-hits K`` exits non-zero
when fewer than K jobs were served from cache — the CI smoke job uses
it to assert that a second pass actually hits.  ``--drivers N`` runs
independent campaign branches in N driver worker processes sharing the
disk cache; records stay bit-identical to ``--drivers 1``.

``campaign``, ``scenario`` and ``serve`` accept ``--telemetry-json
PATH``: on exit they write the run's merged telemetry snapshot (see
:mod:`repro.telemetry`) as JSON — counters, histograms, and, when
``REPRO_TELEMETRY=spans`` is set, the span ring buffer.  ``timeline``
renders such a dump as a per-peer span timeline (solve → iteration →
sweep → ghost-exchange) for profiling without any external tooling.

``serve`` starts the campaign service daemon (:mod:`repro.service`):
a long-lived HTTP front door over one persistent result cache and
driver pool.  ``submit`` builds the same job matrix ``campaign`` would
and POSTs it to a running daemon instead of solving locally — same
jobs, same cache keys, bit-identical records.
"""

from __future__ import annotations

import argparse
import os
import sys

from .figures import (
    FIG5_N,
    FIG6_N,
    check_paper_claims,
    figure_series,
    scaled_size,
)
from .reporting import figure_report, format_table
from .table1 import audit_table1


def cmd_table1() -> int:
    audit = audit_table1()
    rows = [
        [scheme.value, conn.value, cfg.mode.value,
         "reliable" if cfg.reliable else "unreliable", cfg.congestion]
        for (scheme, conn), cfg in audit.observed.items()
    ]
    print(format_table(
        ["scheme", "connection", "mode", "reliability", "congestion"],
        rows, title="Table I — observed on live P2PSAP sessions",
    ))
    if audit.ok:
        print("\nall 6 cells match the paper")
        return 0
    print("\nMISMATCHES:")
    for m in audit.mismatches:
        print(" ", m)
    return 1


def cmd_figure(n_paper: int, alphas: tuple[int, ...]) -> int:
    label = "Figure 5" if n_paper == FIG5_N else "Figure 6"
    print(f"regenerating {label} (paper n={n_paper}) "
          f"with α ∈ {list(alphas)} ...\n", flush=True)
    series = figure_series(n_paper, peer_counts=alphas)
    print(figure_report(series, title=f"{label} (run n={series.n})"))
    failures = check_paper_claims(series)
    if failures:
        print("\nclaim violations:")
        for f in failures:
            print(" ", f)
        return 1
    print("\nall Section V.C claims hold")
    return 0


def _build_cache(args):
    """The ResultCache the cache flag group describes (None without
    ``--cache-dir``)."""
    from ..campaign import ResultCache

    if not args.cache_dir:
        return None
    budget = None
    if args.cache_budget_mb is not None:
        budget = int(args.cache_budget_mb * 1024 * 1024)
    return ResultCache(args.cache_dir, max_disk_bytes=budget)


def _dump_telemetry(path: str, snapshot: dict) -> None:
    """Write a merged telemetry snapshot as JSON (``--telemetry-json``)."""
    import json

    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=1)
    spans = len(snapshot.get("spans", []))
    print(f"telemetry snapshot -> {path} "
          f"({len(snapshot.get('counters', {}))} counter(s), "
          f"{spans} span(s))", flush=True)


def _matrix_jobs(args):
    """The job list the matrix flag group describes — one builder for
    ``campaign`` (local engine) and ``submit`` (HTTP), so both sides
    produce identical jobs and hence identical cache keys."""
    from ..campaign import expand_matrix
    from .figures import figure_jobs

    schemes = tuple(s for s in args.schemes.split(",") if s)
    clusters = tuple(int(c) for c in args.clusters.split(","))
    deltas = tuple(float(d) for d in args.deltas.split(",") if d)
    if args.fig:
        n_paper = FIG5_N if args.fig == 5 else FIG6_N
        _n, _alphas, baseline, job_for = figure_jobs(
            n_paper, peer_counts=args.alphas, schemes=schemes,
            cluster_counts=clusters, tol=args.tol,
            dtype=args.dtype,
        )
        jobs = [baseline, *job_for.values()]
        title = f"Figure {args.fig} grid (paper n={n_paper})"
    else:
        n = args.n if args.n is not None else scaled_size(FIG5_N)
        jobs = expand_matrix(
            ns=[n], n_peers=args.alphas, n_clusters=clusters,
            schemes=schemes, deltas=deltas or (None,),
            dtypes=[args.dtype], tol=args.tol,
        )
        title = f"campaign matrix (n={n})"
    return jobs, title


def _reject_subfloor_tols(jobs) -> int:
    """Refuse jobs whose tolerance their dtype cannot resolve.

    The solver would raise the same :class:`ToleranceFloorError` at
    construction; validating the matrix up front turns that into one
    readable CLI error instead of a traceback from inside a solve (or a
    driver worker).  Returns 0 when every job is fine.
    """
    from ..numerics import ToleranceFloorError, check_termination_tol

    for job in jobs:
        try:
            check_termination_tol(job.tol, job.dtype)
        except ToleranceFloorError as exc:
            print(f"error: {job.label()}: {exc}", file=sys.stderr)
            return 2
    return 0


def _print_rows(rows, title) -> None:
    headers = sorted({k for row in rows for k in row})
    print()
    print(format_table(headers, [[row.get(h, "") for h in headers]
                                 for row in rows], title=title))


def cmd_campaign(args) -> int:
    from ..campaign import Campaign

    cache = _build_cache(args)
    jobs, title = _matrix_jobs(args)
    rc = _reject_subfloor_tols(jobs)
    if rc:
        return rc
    print(f"{title}: {len(jobs)} job(s)"
          + (f", cache at {args.cache_dir}" if args.cache_dir else ""),
          flush=True)

    def progress(record):
        print(f"  [{record.source:5s}] {record.job.label()}  "
              f"({record.wall_time:.2f}s wall)", flush=True)

    with Campaign(jobs, cache=cache, warm_start=args.warm_start,
                  ladder=args.ladder, drivers=args.drivers) as campaign:
        outcome = campaign.run(progress=progress)
        cache_stats = campaign.cache_stats()  # summed over the drivers
    _print_rows(outcome.rows(), title)
    print(f"\njobs: {outcome.n_jobs}  solved: {outcome.runs}  "
          f"cache hits: {outcome.cache_hits}  "
          f"duplicates: {outcome.duplicates}")
    if cache_stats is not None:
        print(f"result cache: {cache_stats['hits']} hits, "
              f"{cache_stats['misses']} misses, "
              f"{cache_stats['stores']} stores, "
              f"{cache_stats['evictions']} evictions "
              f"(hit rate {cache_stats['hit_rate']:.0%})")
    if args.telemetry_json:
        # After close(): the snapshot then includes the final
        # close-handshake telemetry of every driver worker.
        _dump_telemetry(args.telemetry_json,
                        campaign.telemetry_snapshot())
    if args.min_cache_hits and outcome.cache_hits < args.min_cache_hits:
        print(f"FAIL: expected >= {args.min_cache_hits} cache hits, "
              f"got {outcome.cache_hits}")
        return 1
    return 0


def cmd_serve(args) -> int:
    from ..service import CampaignService, ServiceDaemon

    service = CampaignService(
        cache=_build_cache(args), drivers=args.drivers,
        max_queue=args.max_queue,
    )
    daemon = ServiceDaemon(service, host=args.host, port=args.port,
                           quiet=not args.verbose)
    host, port = daemon.address
    if args.port_file:
        with open(args.port_file, "w") as fh:
            fh.write(f"{port}\n")
    print(f"campaign service listening on {daemon.url} "
          f"({args.drivers} driver(s), queue <= {args.max_queue}"
          + (f", cache at {args.cache_dir}" if args.cache_dir else "")
          + ")", flush=True)
    print("POST /shutdown (or Ctrl-C) drains in-flight work and exits",
          flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupted: accepted work was drained", flush=True)
    if args.telemetry_json:
        _dump_telemetry(args.telemetry_json,
                        service.telemetry_snapshot())
    print("campaign service stopped", flush=True)
    return 0


def cmd_submit(args) -> int:
    from ..service import ServiceClient, ServiceError

    jobs, title = _matrix_jobs(args)
    rc = _reject_subfloor_tols(jobs)
    if rc:
        return rc
    print(f"{title}: {len(jobs)} job(s) -> {args.url}", flush=True)
    try:
        with ServiceClient(args.url) as client:
            cid = client.submit(jobs, warm_start=args.warm_start,
                                ladder=args.ladder, tag=args.tag)
            print(f"campaign {cid} accepted", flush=True)
            status = client.wait(cid, timeout=args.timeout)
            if status["status"] != "done":
                print(f"FAIL: campaign {cid} {status['status']}:")
                for branch in status["branches"]:
                    if branch.get("error"):
                        print(f"  branch {branch['index']}: "
                              f"{branch['error']}")
                return 1
            results = client.results(cid)
            rc = 0
            if args.shutdown_after:
                client.shutdown()
    except ServiceError as exc:
        print(f"FAIL: {exc}")
        return 1
    _print_rows([job["row"] for job in results["jobs"]], title)
    summary = results["summary"]
    print(f"\njobs: {summary['jobs']}  solved: {summary['solved']}  "
          f"cache hits: {summary['cache_hits']}  "
          f"duplicates: {summary['duplicates']}")
    if args.expect_cached and summary["solved"]:
        print(f"FAIL: expected a fully cache-served campaign, but "
              f"{summary['solved']} job(s) solved fresh")
        rc = 1
    if args.min_cache_hits \
            and summary["cache_hits"] < args.min_cache_hits:
        print(f"FAIL: expected >= {args.min_cache_hits} cache hits, "
              f"got {summary['cache_hits']}")
        rc = 1
    return rc


def cmd_scenario(args) -> int:
    from ..scenarios import generate_script, run_scenario

    script = generate_script(args.seed, scheme=args.scheme)
    result = run_scenario(script, dump_dir=args.dump_dir)
    print(result.summary())
    if args.telemetry_json:
        # Scenarios execute against the process-default context.
        from ..resources import default_context

        _dump_telemetry(args.telemetry_json,
                        default_context().telemetry.snapshot())
    return 0 if result.ok else 1


def cmd_timeline(args) -> int:
    import json

    from ..telemetry import render_timeline

    with open(args.path) as fh:
        snapshot = json.load(fh)
    print(render_timeline(snapshot, width=args.width))
    return 0


def cmd_replay(args) -> int:
    from ..parallel import load_trace, replay_trace

    trace = load_trace(args.path)
    recorded = [(ev.rank, ev.iteration, ev.diff)
                for ev in trace.events if ev.kind == "end"]
    print(f"{args.path}: {len(trace.peers)} peers, "
          f"{len(trace.events)} events ({len(recorded)} sweeps), "
          f"solve={trace.solve}")
    result = replay_trace(trace)
    mismatches = [
        (rank, it, rec, rep)
        for (rank, it, rec), (_r, _i, rep) in zip(recorded, result.diffs)
        if rec is not None and rec != rep
    ]
    if len(result.diffs) != len(recorded):
        print(f"FAIL: replay produced {len(result.diffs)} sweeps, "
              f"trace recorded {len(recorded)}")
        return 1
    if mismatches:
        print(f"FAIL: {len(mismatches)} sweep diff(s) diverge:")
        for rank, it, rec, rep in mismatches[:10]:
            print(f"  rank {rank} it {it}: recorded {rec!r} "
                  f"replayed {rep!r}")
        return 1
    print(f"replay reproduces all {len(recorded)} recorded sweep diffs "
          "bit-exactly")
    return 0


# -- parser -------------------------------------------------------------------------
#
# Shared flag groups are parent parsers: `campaign`, `serve` and
# `submit` accept the *same* spellings for the same concepts, and a new
# subcommand opts into a group with one parents=[...] entry instead of
# re-declaring flags.


def _flag_parents():
    alphas = argparse.ArgumentParser(add_help=False)
    alphas.add_argument(
        "--alphas", default="1,2,4,8",
        help="comma-separated machine counts (default 1,2,4,8; the "
             "paper uses 1,2,4,8,16,24)",
    )
    full = argparse.ArgumentParser(add_help=False)
    full.add_argument(
        "--full", action="store_true",
        help="run the paper's actual problem sizes (96³ / 144³)",
    )
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--fig", type=int, choices=[5, 6], default=None,
                        help="use this figure's grid as the job matrix")
    matrix.add_argument("--n", type=int, default=None,
                        help="custom-matrix problem size (ignored with "
                             "--fig; default: the scaled fig5 size)")
    matrix.add_argument("--schemes",
                        default="synchronous,asynchronous,hybrid",
                        help="comma-separated schemes")
    matrix.add_argument("--clusters", default="1,2",
                        help="comma-separated cluster counts")
    matrix.add_argument("--deltas", default="",
                        help="comma-separated relaxation steps (delta "
                             "sweep); empty = the problem default")
    matrix.add_argument("--tol", type=float, default=1e-4)
    matrix.add_argument("--warm-start", action="store_true",
                        help="seed each delta-sweep solve from its "
                             "neighbour's solution")
    matrix.add_argument("--ladder", action="store_true",
                        help="plan a mixed-precision multigrid chain in "
                             "front of each eligible float64 job: "
                             "half-size float32 solve, interpolated "
                             "float32 warm start, float64 polish")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--dtype", default="float64",
                        choices=["float64", "float32"])
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache-dir", default=None,
                       help="persistent result-cache directory (created "
                            "if missing); omit for no cross-run cache")
    cache.add_argument("--cache-budget-mb", type=float, default=None,
                       help="bound the disk cache to this many MiB with "
                            "least-recently-used eviction (default: "
                            "unbounded)")
    drivers = argparse.ArgumentParser(add_help=False)
    drivers.add_argument("--drivers", type=int, default=1,
                         help="driver worker processes executing "
                              "independent campaign branches in "
                              "parallel (default 1 = sequential "
                              "in-process; results are bit-identical "
                              "either way)")
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry-json", metavar="PATH", default=None,
        help="write the run's merged telemetry snapshot here as JSON "
             "on exit (set REPRO_TELEMETRY=spans to include the span "
             "buffer; render with the `timeline` subcommand)")
    return alphas, full, matrix, solver, cache, drivers, telemetry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures, run "
                    "campaigns, or serve them over HTTP.",
    )
    alphas, full, matrix, solver, cache, drivers, telemetry = \
        _flag_parents()
    sub = parser.add_subparsers(dest="target", required=True,
                                metavar="target")
    sub.add_parser("table1", parents=[alphas, full],
                   help="audit Table I against live P2PSAP sessions")
    sub.add_parser("fig5", parents=[alphas, full],
                   help="regenerate Figure 5 and check its claims")
    sub.add_parser("fig6", parents=[alphas, full],
                   help="regenerate Figure 6 and check its claims")
    sub.add_parser("all", parents=[alphas, full],
                   help="table1 + fig5 + fig6")

    campaign = sub.add_parser(
        "campaign", parents=[alphas, full, matrix, solver, cache,
                             drivers, telemetry],
        help="run a job matrix through the batched campaign engine")
    campaign.add_argument("--min-cache-hits", type=int, default=0,
                          help="exit 1 when fewer jobs were served from "
                               "the cache (CI smoke assertion)")

    serve = sub.add_parser(
        "serve", parents=[cache, drivers, telemetry],
        help="start the campaign service daemon (HTTP front door)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 = ephemeral; see --port-file)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port here (for scripts "
                            "using --port 0)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="admission-queue bound in branches; past "
                            "it submissions get 503")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")

    submit = sub.add_parser(
        "submit", parents=[alphas, full, matrix, solver],
        help="submit a job matrix to a running campaign service")
    submit.add_argument("--url", required=True,
                        help="base URL of the daemon (e.g. "
                             "http://127.0.0.1:8765)")
    submit.add_argument("--tag", default=None,
                        help="label the submission in daemon status")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait before giving up")
    submit.add_argument("--min-cache-hits", type=int, default=0,
                        help="exit 1 when fewer jobs were served from "
                             "the daemon's cache")
    submit.add_argument("--expect-cached", action="store_true",
                        help="exit 1 if anything solved fresh (CI "
                             "resubmission assertion)")
    submit.add_argument("--shutdown-after", action="store_true",
                        help="POST /shutdown once results are fetched")

    scenario = sub.add_parser(
        "scenario", parents=[telemetry],
        help="run one seeded fault-injection scenario")
    scenario.add_argument("--seed", type=int, default=0,
                          help="scenario seed (the script is a pure "
                               "function of it)")
    scenario.add_argument("--scheme", default=None,
                          choices=["synchronous", "asynchronous",
                                   "hybrid"],
                          help="override the seed-derived scheme")
    scenario.add_argument("--dump-dir", default=None,
                          help="dump schedule traces here when an "
                               "invariant fails")

    replay = sub.add_parser(
        "replay", help="re-execute a dumped schedule trace bit-exactly")
    replay.add_argument("path", help="trace file (.npz)")

    timeline = sub.add_parser(
        "timeline",
        help="render a --telemetry-json dump as a per-peer span "
             "timeline")
    timeline.add_argument("path", help="telemetry dump (.json)")
    timeline.add_argument("--width", type=int, default=72,
                          help="timeline lane width in characters")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache_budget_mb", None) is not None:
        if not args.cache_dir:
            parser.error("--cache-budget-mb requires --cache-dir "
                         "(there is no disk cache to bound without one)")
        if args.cache_budget_mb <= 0:
            parser.error("--cache-budget-mb must be positive")
    if getattr(args, "drivers", 1) < 1:
        parser.error("--drivers must be >= 1")
    if getattr(args, "max_queue", 1) < 1:
        parser.error("--max-queue must be >= 1")
    if getattr(args, "full", False):
        os.environ["REPRO_FULL"] = "1"
    if hasattr(args, "alphas"):
        args.alphas = tuple(int(a) for a in args.alphas.split(","))

    if args.target == "scenario":
        return cmd_scenario(args)
    if args.target == "replay":
        return cmd_replay(args)
    if args.target == "timeline":
        return cmd_timeline(args)
    if args.target == "campaign":
        return cmd_campaign(args)
    if args.target == "serve":
        return cmd_serve(args)
    if args.target == "submit":
        return cmd_submit(args)

    rc = 0
    if args.target in ("table1", "all"):
        rc |= cmd_table1()
    if args.target in ("fig5", "all"):
        rc |= cmd_figure(FIG5_N, args.alphas)
    if args.target in ("fig6", "all"):
        rc |= cmd_figure(FIG6_N, args.alphas)
    return rc


if __name__ == "__main__":
    sys.exit(main())
