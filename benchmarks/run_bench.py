#!/usr/bin/env python
"""Run the micro-benchmarks and write a machine-readable ``BENCH_micro.json``.

Usage (from the repository root)::

    python benchmarks/run_bench.py [--out BENCH_micro.json]
    python benchmarks/run_bench.py --check [--tolerance 1.0]

Runs ``benchmarks/test_bench_micro.py``,
``benchmarks/test_bench_campaign.py`` and
``benchmarks/test_bench_ladder.py`` under pytest-benchmark, collects
the per-benchmark mean/ops numbers, derives the fused-vs-reference
speedups for the relaxation kernels, the float32-vs-float64 speedup of
the fused sweeps (the dtype dimension — bandwidth-bound kernels at half
the element width), and the campaign cache-service hit rate
(``campaign_cache_service``, lifted from the
cached-sweep benchmark's ``extra_info`` counters and gated exactly —
the counts are deterministic), and the telemetry overhead of the
default-on counters (``telemetry_overhead``: the fused Jacobi sweep
with the kernel probe active vs ``REPRO_TELEMETRY=off``, interleaved
in one process — gated by
``--check`` at an absolute ≤ 3% ceiling, independent of
``--tolerance``), and the mixed-precision ladder speedup
(``ladder_vs_cold_float64``: one float64 job at tol 1e-6 solved cold
vs through the campaign ladder, all stages timed — gated by
``--check`` at an absolute ≥ 1.5x floor), and the protocol stack's
exact per-message work counts (``protocol_path``, from
``benchmarks/protocol_path.py``: DES events, event-handler calls,
``payload_nbytes`` calls, generator resumes and timer arms per application message
on a fixed stream and a fixed solve, and per relaxation of a fixed
solve the session-mode lookups, sweep array validations and span-factory
calls with spans off, plus ``payload_nbytes`` calls per environment
message — deterministic integers, so
``--check`` gates them with zero tolerance upward on any machine), and
the service's exact per-round-trip HTTP counts (``service_path``, from
``benchmarks/service_path.py``: TCP connects and requests per
cache-served round trip, status requests per ``wait()`` — gated the
same way), and the result cache's exact per-job counts on a disk-served
campaign re-run (``cache_path``, from ``benchmarks/cache_path.py``:
signature builds, key hashes, entry-file opens, directory-lock
acquisitions and payload bytes read per job — gated the same way), and
the compiled sweep backend's speedup over the numpy kernels
(``compiled_vs_numpy``: a 16-plane Gauss–Seidel block of the 64³
problem on each backend, interleaved in one process — gated by
``--check`` at an absolute ≥ 1.3x floor, skipped with the reason printed where the compiled backend does
not load), and the AVX2 body's speedup over the library's baseline
body (``avx2_vs_baseline``: the same block — gated at an absolute
≥ 1.10x floor, skipped with the reason printed where the CPU does not
run the AVX2 body or no compiled body loads); both pairs time the
compiled sweep as it runs, split into row bands on the worker pool, and
the parallelism of a banded sweep (``sweep_parallelism``: a 64³
whole-block Gauss–Seidel sweep, its bands' run times summed over the
wall time from start to join — gated at an absolute ≥ 1.3 floor where
this process may use two CPUs or more, skipped with the reason printed
elsewhere), and
writes the result as JSON.  The
checked-in ``BENCH_micro.json`` is the perf trajectory record: future
PRs rerun this script and compare against it before touching a hot
path.

``--check`` runs fresh benchmarks and *diffs* them against the committed
JSON instead of overwriting it: any benchmark slower than the committed
mean by more than ``--tolerance`` (a fraction: 1.0 = 2× slower) fails
the run with exit status 1 — the CI perf gate.

Set ``REPRO_FULL=1`` to benchmark at the paper's 96³ size instead of the
default 64³.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: (reference, fused) benchmark pairs whose ratio is the kernel speedup.
SPEEDUP_PAIRS = {
    "jacobi_sweep": ("test_bench_jacobi_sweep_reference",
                     "test_bench_jacobi_sweep_fused"),
    "gauss_seidel_sweep": ("test_bench_gauss_seidel_sweep_reference",
                           "test_bench_gauss_seidel_sweep_fused"),
    "block_sweep": ("test_bench_block_sweep_reference",
                    "test_bench_block_sweep_fused"),
}

#: (float64, float32) fused-kernel pairs whose ratio is the dtype
#: speedup — the sweeps are memory-bandwidth-bound, so halving the
#: element width should buy ~1.5–2x on these.
DTYPE_PAIRS = {
    "jacobi_sweep": ("test_bench_jacobi_sweep_fused",
                     "test_bench_jacobi_sweep_fused_float32"),
    "gauss_seidel_sweep": ("test_bench_gauss_seidel_sweep_fused",
                           "test_bench_gauss_seidel_sweep_fused_float32"),
    "block_sweep": ("test_bench_block_sweep_fused",
                    "test_bench_block_sweep_fused_float32"),
}

#: Benchmarks that time a telemetry-on and a telemetry-off sweep
#: interleaved in one process and record the median per-round ratio of
#: their times as ``extra_info["telemetry_overhead"]``: the cost of the
#: default-on counters on the hottest kernel path.  Unlike the other
#: sections this one is gated against an *absolute* ceiling, not the
#: committed record: the contract is "counters are near-free", and a
#: fixed 3% budget holds regardless of how fast the machine is.
TELEMETRY_PAIRS = {
    "jacobi_sweep": "test_bench_jacobi_sweep_telemetry_pair",
}

#: Absolute gate for ``telemetry_overhead`` ratios under ``--check``.
TELEMETRY_OVERHEAD_CEILING = 1.03

#: (cold, laddered) pairs whose ratio is the mixed-precision ladder
#: speedup: the same float64 job at tol 1e-6 solved cold vs through
#: the campaign ladder (coarse float32 → interpolated float32 warm
#: start → float64 polish), all ladder stages included in the timing.
#: Both sides reach the same verified STOP, and both are single-peer
#: synchronous solves — the ratio is core-count independent.
LADDER_PAIRS = {
    "float64_tol1e-6": ("test_bench_ladder_cold_float64",
                        "test_bench_ladder_mixed_precision"),
}

#: Absolute gate for ``ladder_vs_cold_float64`` under ``--check``: the
#: ladder must beat the cold solve by at least this factor on any
#: machine, independent of ``--tolerance`` and the committed record.
LADDER_SPEEDUP_FLOOR = 1.5

#: Benchmarks that time the numpy kernel and the workspace's own backend
#: interleaved on one sweep and record the median per-round ratio as
#: ``extra_info["compiled_vs_numpy"]``: the compiled sweep backend's
#: speedup over the numpy kernels it replaces.
COMPILED_PAIRS = {
    "gauss_seidel_64cubed_16planes":
        "test_bench_gauss_seidel_block16_backend_pair",
}

#: Absolute gate for ``compiled_vs_numpy`` under ``--check``.
COMPILED_SPEEDUP_FLOOR = 1.3

#: Benchmarks that time the compiled library's baseline and AVX2 bodies
#: interleaved on one sweep and record the median per-round ratio as
#: ``extra_info["avx2_vs_baseline"]``: the AVX2 body's speedup.  They
#: skip where the CPU does not run the AVX2 body.
ISA_PAIRS = {
    "gauss_seidel_64cubed_16planes": "test_bench_gauss_seidel_block16_isa_pair",
}

#: Absolute gate for ``avx2_vs_baseline`` under ``--check``.
ISA_SPEEDUP_FLOOR = 1.10

#: Benchmarks that record the median over sweeps of a banded compiled
#: sweep's summed band run times over its wall time from start to join
#: as ``extra_info["sweep_parallelism"]``.  They skip where this process
#: may use one CPU only (no worker) or the compiled sweeps do not load.
PARALLELISM = {
    "gauss_seidel_64cubed": "test_bench_gauss_seidel_sweep_parallelism",
}

#: Absolute gate for ``sweep_parallelism`` under ``--check``.
PARALLELISM_FLOOR = 1.3

#: The exact-count sections, each printed by ``benchmarks/<name>.py``.
EXACT_SECTIONS = ("protocol_path", "service_path", "cache_path")

#: Keys of the exact-count sections that ``--check`` compares exactly.
EXACT_SUFFIXES = ("_per_msg", "_per_env_msg", "_per_relax", "_per_rt",
                  "_per_wait", "_per_job", "_per_async_send")


def _bench_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def measure_exact_counts(script: str) -> dict:
    """The exact counts ``benchmarks/<script>`` prints, from a fresh
    interpreter."""
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / script)],
        cwd=REPO_ROOT, env=_bench_env(), check=True,
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(done.stdout)


def run_benchmarks(json_path: Path) -> None:
    env = _bench_env()
    subprocess.run(
        [
            sys.executable, "-m", "pytest",
            str(REPO_ROOT / "benchmarks" / "test_bench_micro.py"),
            str(REPO_ROOT / "benchmarks" / "test_bench_campaign.py"),
            str(REPO_ROOT / "benchmarks" / "test_bench_ladder.py"),
            "-q", "--benchmark-only", f"--benchmark-json={json_path}",
        ],
        cwd=REPO_ROOT,
        env=env,
        check=True,
    )


def summarize(raw: dict, exact: dict) -> dict:
    import numpy

    results = {}
    infos = {}
    for bench in raw["benchmarks"]:
        infos[bench["name"]] = bench.get("extra_info") or {}
        stats = bench["stats"]
        results[bench["name"]] = {
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "stddev_s": stats["stddev"],
            "ops_per_s": stats["ops"],
            "rounds": stats["rounds"],
        }
    speedups = {}
    for label, (ref, fused) in SPEEDUP_PAIRS.items():
        if ref in results and fused in results:
            speedups[label] = round(
                results[ref]["mean_s"] / results[fused]["mean_s"], 3
            )
    dtype_speedups = {}
    for label, (f64, f32) in DTYPE_PAIRS.items():
        if f64 in results and f32 in results:
            dtype_speedups[label] = round(
                results[f64]["mean_s"] / results[f32]["mean_s"], 3
            )
    cache_service = {}
    for bench in raw["benchmarks"]:
        info = bench.get("extra_info") or {}
        if "cache_hit_rate" in info:
            cache_service[bench["name"]] = {
                "hits": info["cache_hits"],
                "misses": info["cache_misses"],
                "hit_rate": info["cache_hit_rate"],
            }
    ladder = {}
    for label, (cold, laddered) in LADDER_PAIRS.items():
        if cold in results and laddered in results:
            ladder[label] = round(
                results[cold]["mean_s"] / results[laddered]["mean_s"], 3
            )
    telemetry_overhead = {}
    for label, name in TELEMETRY_PAIRS.items():
        if name in results:
            # Paired in time, not two separate runs' minima: the
            # counters cost ~1% of a sweep, less than two runs drift
            # apart on a shared 2-vCPU VM.
            telemetry_overhead[label] = round(
                infos[name]["telemetry_overhead"], 3)
    if telemetry_overhead:
        telemetry_overhead["cpu_count"] = os.cpu_count()
    compiled = {}
    for label, name in COMPILED_PAIRS.items():
        if name in results:
            compiled[label] = round(infos[name]["compiled_vs_numpy"], 3)
            compiled["backend"] = infos[name]["backend"]
    isa_speedups = {label: round(infos[name]["avx2_vs_baseline"], 3)
                    for label, name in ISA_PAIRS.items() if name in results}
    parallelism = {label: round(infos[name]["sweep_parallelism"], 3)
                   for label, name in PARALLELISM.items() if name in results}
    return {
        "generated_by": "benchmarks/run_bench.py",
        "generated_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_full": os.environ.get("REPRO_FULL", "0") == "1",
        "kernel_speedups_vs_reference": speedups,
        "dtype_speedups_float32_vs_float64": dtype_speedups,
        "campaign_cache_service": cache_service,
        "ladder_vs_cold_float64": ladder,
        "telemetry_overhead": telemetry_overhead,
        "compiled_vs_numpy": compiled,
        "avx2_vs_baseline": isa_speedups,
        "sweep_parallelism": parallelism,
        **exact,
        "benchmarks": results,
    }


def print_summary(summary: dict) -> None:
    for label, ratio in summary["kernel_speedups_vs_reference"].items():
        print(f"  {label}: {ratio:.2f}x vs plane-by-plane reference")
    for label, ratio in summary.get(
            "dtype_speedups_float32_vs_float64", {}).items():
        print(f"  float32 {label}: {ratio:.2f}x vs float64")
    for label, stats in summary.get("campaign_cache_service", {}).items():
        print(f"  cache service {label}: hit rate "
              f"{stats['hit_rate']:.0%} ({stats['hits']} hits, "
              f"{stats['misses']} misses)")
    for label, ratio in summary.get("ladder_vs_cold_float64", {}).items():
        print(f"  ladder {label}: {ratio:.2f}x mixed-precision vs "
              "cold float64")
    for label, ratio in summary.get("telemetry_overhead", {}).items():
        if label == "cpu_count":
            continue
        print(f"  telemetry {label}: {(ratio - 1.0) * 100:+.1f}% "
              "counters-on vs off")
    compiled = dict(summary.get("compiled_vs_numpy", {}))
    backend = compiled.pop("backend", None)
    for label, ratio in compiled.items():
        print(f"  compiled {label}: {ratio:.2f}x vs numpy "
              f"({backend} backend ran)")
    for label, ratio in summary.get("avx2_vs_baseline", {}).items():
        print(f"  avx2 {label}: {ratio:.2f}x vs the baseline body")
    for label, ratio in summary.get("sweep_parallelism", {}).items():
        print(f"  sweep parallelism {label}: {ratio:.2f} band-seconds "
              "per second")
    for section in EXACT_SECTIONS:
        for label, counts in summary.get(section, {}).items():
            shown = ", ".join(f"{key} {value:g}"
                              for key, value in sorted(counts.items())
                              if key.endswith(EXACT_SUFFIXES))
            print(f"  {section.replace('_', ' ')} {label}: {shown}")


def check(fresh: dict, committed: dict, tolerance: float) -> int:
    """Diff fresh results against the committed record; 0 = within
    tolerance.  Only benchmarks present in both are compared, so adding
    or retiring benchmarks never breaks the gate."""
    print(f"checking against committed record "
          f"(generated {committed.get('generated_at', '?')}, "
          f"cpu_count={committed.get('cpu_count', '?')}; "
          f"tolerance {tolerance:.0%})")
    failures = []
    for name, stats in sorted(fresh["benchmarks"].items()):
        base = committed.get("benchmarks", {}).get(name)
        if base is None:
            print(f"  NEW   {name}: {stats['mean_s'] * 1e3:.3f} ms "
                  "(no committed baseline)")
            continue
        ratio = stats["mean_s"] / base["mean_s"]
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "SLOWER"
            failures.append(f"{name}: {ratio:.2f}x slower than committed")
        print(f"  {verdict:6s}{name}: {stats['mean_s'] * 1e3:.3f} ms "
              f"vs {base['mean_s'] * 1e3:.3f} ms ({ratio:.2f}x)")
    for name in sorted(set(committed.get("benchmarks", {})) -
                       set(fresh["benchmarks"])):
        print(f"  GONE  {name}: in committed record only")
    # The cache hit rate is deterministic (fixed pedantic rounds), so
    # it is gated exactly, with no tolerance: any drop means campaign
    # jobs silently stopped being cache-served.
    fresh_cs = fresh.get("campaign_cache_service", {})
    committed_cs = committed.get("campaign_cache_service", {})
    for name in sorted(set(fresh_cs) & set(committed_cs)):
        got = fresh_cs[name]["hit_rate"]
        want = committed_cs[name]["hit_rate"]
        verdict = "ok"
        if got < want:
            verdict = "WORSE"
            failures.append(f"campaign_cache_service/{name}: hit rate "
                            f"{got:.2%} below committed {want:.2%}")
        print(f"  {verdict:6s}cache service {name}: hit rate {got:.2%} "
              f"vs committed {want:.2%}")
    # The ladder gate is absolute too: "the mixed-precision ladder
    # beats a cold float64 solve by >= 1.5x" is the subsystem's
    # acceptance claim and must hold on any machine — both sides are
    # the same single-peer solve, so the ratio is core-count
    # independent and is not skipped on cpu_count mismatch.
    fresh_ladder = dict(fresh.get("ladder_vs_cold_float64", {}))
    for name in sorted(fresh_ladder):
        ratio = fresh_ladder[name]
        verdict = "ok"
        if ratio < LADDER_SPEEDUP_FLOOR:
            verdict = "WORSE"
            failures.append(
                f"ladder_vs_cold_float64/{name}: {ratio:.2f}x below "
                f"the {LADDER_SPEEDUP_FLOOR:.1f}x acceptance floor")
        print(f"  {verdict:6s}ladder {name}: {ratio:.2f}x vs cold "
              f"(floor {LADDER_SPEEDUP_FLOOR:.1f}x)")
    # The telemetry-overhead gate is absolute: default-on counters must
    # stay within a fixed 3% of the telemetry-off sweep, no matter what
    # the committed record says and independent of --tolerance.  Noise
    # floors differ per machine, but a budget this wide holds on every
    # runner we have seen — breaching it means a real hot-path cost.
    fresh_tele = dict(fresh.get("telemetry_overhead", {}))
    fresh_tele.pop("cpu_count", None)
    for name in sorted(fresh_tele):
        ratio = fresh_tele[name]
        verdict = "ok"
        if ratio > TELEMETRY_OVERHEAD_CEILING:
            verdict = "WORSE"
            failures.append(
                f"telemetry_overhead/{name}: {(ratio - 1.0):.1%} "
                f"counters-on overhead exceeds the "
                f"{TELEMETRY_OVERHEAD_CEILING - 1.0:.0%} ceiling")
        print(f"  {verdict:6s}telemetry {name}: "
              f"{(ratio - 1.0) * 100:+.1f}% overhead "
              f"(ceiling +{(TELEMETRY_OVERHEAD_CEILING - 1.0) * 100:.0f}%)")
    # The compiled-backend gate is absolute as well, and meaningful only
    # where the compiled sweeps loaded: on the numpy fallback both sides
    # run the same kernel, so the pair is reported as skipped.
    fresh_compiled = dict(fresh.get("compiled_vs_numpy", {}))
    backend = fresh_compiled.pop("backend", None)
    for name, ratio in sorted(fresh_compiled.items()):
        if backend != "c":
            print(f"  skip  compiled {name}: the {backend} backend ran "
                  "(the compiled sweeps did not load; see the "
                  "RuntimeWarning)")
            continue
        verdict = "ok"
        if ratio < COMPILED_SPEEDUP_FLOOR:
            verdict = "WORSE"
            failures.append(
                f"compiled_vs_numpy/{name}: {ratio:.2f}x below the "
                f"{COMPILED_SPEEDUP_FLOOR:.1f}x floor")
        print(f"  {verdict:6s}compiled {name}: {ratio:.2f}x vs numpy "
              f"(floor {COMPILED_SPEEDUP_FLOOR:.1f}x)")
    # So is the AVX2 body's, where there is one: its benchmark skips
    # where the compiled sweeps did not load or the CPU lacks AVX2.
    fresh_isa = fresh.get("avx2_vs_baseline", {})
    if not fresh_isa:
        print("  skip  avx2_vs_baseline: no AVX2 body ran (the compiled "
              "sweeps did not load, or this CPU does not run AVX2)")
    for name, ratio in sorted(fresh_isa.items()):
        verdict = "ok"
        if ratio < ISA_SPEEDUP_FLOOR:
            verdict = "WORSE"
            failures.append(
                f"avx2_vs_baseline/{name}: {ratio:.2f}x below the "
                f"{ISA_SPEEDUP_FLOOR:.2f}x floor")
        print(f"  {verdict:6s}avx2 {name}: {ratio:.2f}x vs the baseline "
              f"body (floor {ISA_SPEEDUP_FLOOR:.2f}x)")
    # A banded sweep must keep more than one thread busy wherever the
    # pool has a worker; with one usable CPU there is none to gate.
    fresh_parallel = fresh.get("sweep_parallelism", {})
    if not fresh_parallel:
        print("  skip  sweep_parallelism: no banded sweep ran (one usable "
              "CPU, so the pool has no worker, or the compiled sweeps did "
              "not load)")
    for name, ratio in sorted(fresh_parallel.items()):
        verdict = "ok"
        if ratio < PARALLELISM_FLOOR:
            verdict = "WORSE"
            failures.append(
                f"sweep_parallelism/{name}: {ratio:.2f} below the "
                f"{PARALLELISM_FLOOR:.1f} floor")
        print(f"  {verdict:6s}sweep parallelism {name}: {ratio:.2f} "
              f"(floor {PARALLELISM_FLOOR:.1f})")
    # The protocol-path, service-path and cache-path counts are exact
    # (a deterministic simulation, a fixed request or job sequence —
    # counted, not timed), so the gate is zero tolerance upward on every
    # runner: one more event, dispatch, sizing walk or generator resume
    # per message, one more TCP connect or request per round trip, one
    # more signature build, file open or lock per cached job than the
    # committed record is a real regression of the hot path.  Fewer is
    # progress — re-record to lock it in.
    for section in EXACT_SECTIONS:
        fresh_sec = fresh.get(section, {})
        committed_sec = committed.get(section, {})
        for name in sorted(set(fresh_sec) & set(committed_sec)):
            for key in sorted(set(fresh_sec[name])
                              & set(committed_sec[name])):
                if not key.endswith(EXACT_SUFFIXES):
                    continue
                got, want = fresh_sec[name][key], committed_sec[name][key]
                verdict = "ok"
                if got > want:
                    verdict = "WORSE"
                    failures.append(f"{section}/{name}/{key}: {got:g} "
                                    f"above committed {want:g} "
                                    "(exact count)")
                print(f"  {verdict:6s}{section} {name} {key}: {got:g} "
                      f"vs committed {want:g}")
    if failures:
        print(f"{len(failures)} benchmark(s) regressed past tolerance:")
        for message in failures:
            print(f"  {message}")
        return 1
    print("all shared benchmarks within tolerance")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_micro.json",
        help="output path (default: repo-root BENCH_micro.json)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare fresh results against the committed record instead "
             "of overwriting it; exit 1 past --tolerance",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1.0,
        help="allowed slowdown fraction for --check (1.0 = up to 2x "
             "slower passes; perf varies a lot across CI machines)",
    )
    parser.add_argument(
        "--fresh-out", type=Path, default=None,
        help="also write the fresh summary JSON here (useful with "
             "--check, which otherwise never writes a file — CI uploads "
             "it as the bench artifact)",
    )
    args = parser.parse_args()
    committed = None
    if args.check:
        # Guaranteed failures fail *before* the multi-minute benchmark
        # run, not after it.
        if not args.out.exists():
            print(f"no committed record at {args.out}; nothing to check")
            return 1
        committed = json.loads(args.out.read_text())
        full = os.environ.get("REPRO_FULL", "0") == "1"
        if committed.get("repro_full") != full:
            print(
                "grid-size mismatch: committed record has "
                f"repro_full={committed.get('repro_full')} but this run "
                f"would have repro_full={full} — means are not comparable "
                "(set REPRO_FULL to match the record)"
            )
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "bench_raw.json"
        run_benchmarks(raw_path)
        raw = json.loads(raw_path.read_text())
    summary = summarize(raw, {
        section: measure_exact_counts(f"{section}.py")
        for section in EXACT_SECTIONS})
    if args.fresh_out is not None:
        args.fresh_out.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote fresh results to {args.fresh_out}")
    if args.check:
        return check(summary, committed, args.tolerance)
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    print_summary(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
