"""One workload in one fresh interpreter: set up, time passes, report.

``run.py`` starts this file as a child process for every workload (heap and
thread state left by one workload measurably drifts the next one's ms-scale
timings) and reads one JSON document from its standard output.

A run is: set-up; untraced passes for ``--seconds`` (at least two, whole
passes only, so every step is sampled equally often); with ``--trace 1`` one
more pass under :mod:`trace`; tear-down; a check that nothing was left
behind.  Every timing is a median:

* ``wall_s`` is the sum over the steps of a pass of each step's median host
  time across passes — a burst of interference on this shared box then
  costs one sample of one step, not a whole pass;
* ``op_p50_ms`` is the median over the operations of a pass of each
  operation's median latency across passes;
* ``work_per_s`` is one pass's work (fixed by the step list) over ``wall_s``.

Host seconds are *normalised to a reference machine speed*.  The box this
benchmark was built on flips between two speed states a quarter apart and
stays in one for seconds to minutes (a 64**3 run can sit entirely in
either), so raw seconds of identical runs spread by 20 %, which no
estimator inside one run can remove.  :class:`MachineSpeed` therefore times
a fixed synthetic probe — interpreter-bound heap and dict churn plus a
memory-bound numpy stencil, nothing from ``repro`` — every
``PROBE_EVERY_S`` of measured work, and each step's seconds are divided by
the mean of the probes around it over ``REFERENCE_S``.  A commit that makes
the program faster moves the normalised number exactly as it moves the raw
one; a machine that is momentarily slower does not.  The raw wall time and
the measured speed ratio are reported per layer (``bench.raw_wall_s``,
``bench.machine_speed_ratio``).
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Pass index of the traced pass: distinct from every untraced pass, so a
#: workload that needs fresh cache keys per pass gets them.
TRACED_PASS = 900
MIN_PASSES = 2
UNATTRIBUTED_GATE = 0.10
#: Measured work between two machine-speed probes, in seconds.
PROBE_EVERY_S = 0.3


class MachineSpeed:
    """How slow the machine is right now, relative to a fixed reference.

    ``REFERENCE_S`` is the probe's duration in the faster of the two states
    of the 2-core box the committed baseline was recorded on; it only sets
    the scale of the normalised seconds, comparisons between commits do
    not depend on it.
    """

    REFERENCE_S = 0.0062

    def __init__(self):
        import numpy as np

        self._np = np
        self._field = np.random.default_rng(0).random((66, 66, 66))
        self._out = np.empty((64, 64, 64))
        self.ratios = []

    def probe(self):
        """Time the probe once; returns duration / ``REFERENCE_S``."""
        np, a, out = self._np, self._field, self._out
        start = time.perf_counter()
        heap, table = [], {}
        for i in range(6000):
            heapq.heappush(heap, ((i * 7919) % 10007, i, [i]))
            table[i % 512] = (i, str(i))
            if len(heap) > 256:
                heapq.heappop(heap)
        for _ in range(2):
            np.add(a[:-2, 1:-1, 1:-1], a[2:, 1:-1, 1:-1], out=out)
            out += a[1:-1, :-2, 1:-1]
            out += a[1:-1, 2:, 1:-1]
            out += a[1:-1, 1:-1, :-2]
            out += a[1:-1, 1:-1, 2:]
            np.maximum(out, 0.1, out=out)
        ratio = (time.perf_counter() - start) / self.REFERENCE_S
        self.ratios.append(ratio)
        return ratio


def peak_rss_mb():
    """Peak resident memory of this interpreter plus its children: live
    ones from ``/proc`` (``VmHWM``), reaped ones from ``getrusage``."""
    import multiprocessing

    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def telemetry_delta(after, before):
    """Counters and histogram sums of snapshot ``after`` minus ``before``."""
    out = {"counters": {}, "histograms": {}}
    for key, value in after.get("counters", {}).items():
        out["counters"][key] = value - before.get("counters", {}).get(key, 0)
    for key, cells in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key, {})
        out["histograms"][key] = {"sum": cells["sum"] - prior.get("sum", 0.0)}
    return out


class Run:
    """Bookkeeping of one workload run."""

    def __init__(self, workload, speed):
        self.workload = workload
        self.speed = speed
        self.steps = workload.step_names()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: Per step, one entry per untraced pass: normalised seconds of
        #: the step, of each of its operations, raw seconds, and stats.
        self.walls = {name: [] for name in self.steps}
        self.ops = {name: [] for name in self.steps}
        self.raw_walls = {name: [] for name in self.steps}
        self.stats = {name: [] for name in self.steps}
        self.first = {}
        self.pass_walls = []

    def account(self, attempted, messages):
        """Count ``attempted`` operations, of which as many failed as there
        are messages (several messages may describe one operation)."""
        attempted = max(attempted, 1 if messages else 0)
        self.attempted += attempted
        self.failed += min(attempted, len(messages))
        for message in messages:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr)

    def one_pass(self, index, record=True):
        """Run every step once; returns ``{step: (StepResult, speed)}``
        where ``speed`` is the machine-speed ratio around the step."""
        results = {}
        pending = []
        since_probe = 0.0
        before = self.speed.probe()
        for name in self.steps:
            self.workload.tracer.op = f"{name}#{index}"
            try:
                result = self.workload.run_step(name, index)
            except Exception as exc:  # an operation that raised has failed
                self.account(1, [f"{name} raised {exc!r}"])
                continue
            messages = list(result.failures)
            reference = self.first.setdefault(name, result)
            if result.facts != reference.facts:
                messages.append(f"{name}: pass {index} does not reproduce "
                                "the first pass bit for bit")
            self.account(result.attempted, messages)
            pending.append((name, result))
            since_probe += result.wall
            if since_probe >= PROBE_EVERY_S or name == self.steps[-1]:
                after = self.speed.probe()
                for done, finished in pending:
                    results[done] = (finished, (before + after) / 2)
                pending, since_probe, before = [], 0.0, after
        for done, finished in pending:  # the last step raised
            results[done] = (finished, before)
        # Cross-checks between passes are the benchmark's work, not the
        # pass's: they stay out of the trace.
        tracer = self.workload.tracer
        tracing, tracer.enabled = tracer.enabled, False
        try:
            attempted, failures = self.workload.after_pass(index)
        except Exception as exc:
            attempted, failures = 1, [f"after-pass checks raised {exc!r}"]
        finally:
            tracer.enabled = tracing
        self.account(attempted, failures)
        if record:
            for name, (result, speed) in results.items():
                self.walls[name].append(result.wall / speed)
                self.ops[name].append([op / speed for op in result.ops])
                self.raw_walls[name].append(result.wall)
                self.stats[name].append(result.stats)
            self.pass_walls.append(
                sum(result.wall for result, _ in results.values()))
        return results

    def untraced(self, seconds):
        start = time.perf_counter()
        index = 0
        rss = None
        while True:
            self.one_pass(index)
            index += 1
            if rss is None:
                # After exactly one pass: a faster program completes more
                # passes in the same time and must not be charged for what
                # the extra ones retain.
                rss = peak_rss_mb()
            elapsed = time.perf_counter() - start
            if index >= MIN_PASSES and \
                    elapsed + 0.5 * statistics.median(self.pass_walls) \
                    >= seconds:
                return rss

    @staticmethod
    def pass_seconds(walls):
        """Seconds of one pass: each step's median over the passes."""
        return sum(statistics.median(samples)
                   for samples in walls.values() if samples)

    def end_to_end(self, setup_s, rss):
        wall = self.pass_seconds(self.walls)
        work = sum(result.work for result in self.first.values())
        # A failed round trip records no latency, so passes may differ in
        # length; zip keeps the operations every pass completed.
        slots = [statistics.median(samples)
                 for passes in self.ops.values() for samples in zip(*passes)]
        passes = len(self.pass_walls)
        return {
            "setup_s": {"value": setup_s, "unit": "s", "samples": 1},
            "wall_s": {"value": wall, "unit": "s", "samples": passes},
            "work_per_s": {"value": work / wall if wall else 0.0,
                           "unit": "1/s", "samples": passes},
            "op_p50_ms": {"value": 1e3 * statistics.median(slots)
                          if slots else 0.0,
                          "unit": "ms", "samples": len(slots) * passes},
            "peak_rss_mb": {"value": rss, "unit": "MB", "samples": 1},
        }


def traced_pass(run, tracer, out_dir, meta):
    """One more pass with spans recorded; returns the per-layer metrics."""
    import layers

    from repro.telemetry import merge_snapshots

    workload = run.workload
    tracer.install()
    before = merge_snapshots(*workload.registries())
    results = run.one_pass(TRACED_PASS, record=False)
    tracer.enabled = False
    # Registries that live for the whole run, plus those of the campaigns
    # the pass created and closed.
    after = merge_snapshots(
        *workload.registries(),
        *(snapshot for result, _ in results.values()
          for snapshot in result.stats.get("telemetry", ())))
    raw_wall = sum(result.wall for result, _ in results.values())
    context = layers.Context(
        tracer, {name: result for name, (result, _) in results.items()},
        {"walls": run.walls, "ops": run.ops, "stats": run.stats,
         "raw_wall_s": run.pass_seconds(run.raw_walls),
         "speed": statistics.median(run.speed.ratios)},
        telemetry_delta(after, before), workload,
        sum(result.wall / speed for result, speed in results.values()),
        run.pass_seconds(run.walls))
    metrics = layers.compute(context)
    tracer.dump(os.path.join(out_dir, f"trace-{workload.name}.json"),
                dict(meta, traced_wall_s=raw_wall))
    share = metrics.get("bench.unattributed_share")
    if share is not None and share > UNATTRIBUTED_GATE:
        print(f"warning: {workload.name}: {share:.1%} of the traced pass is "
              f"in no layer's span (advisory gate "
              f"{UNATTRIBUTED_GATE:.0%})", file=sys.stderr)
    attribution = {layer: seconds / raw_wall if raw_wall else 0.0
                   for layer, seconds in sorted(context.by_layer.items())}
    return metrics, attribution


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject", default=None)
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    sys.path.insert(0, HERE)
    import trace as e2e_trace
    import workloads

    workdir = os.path.join(args.out, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Machine speed on both sides of set-up; the probes themselves are
    # not part of it.
    speed = MachineSpeed()
    probing = time.perf_counter()
    before = statistics.median(speed.probe() for _ in range(3))
    started += time.perf_counter() - probing
    tracer = e2e_trace.Tracer()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.scale, workdir, tracer, inject=args.inject)
    document = {"workload": args.workload, "seed": args.seed,
                "scale": args.scale, "work_unit": workload.work_unit}
    try:
        workload.setup()
        setup_s = time.perf_counter() - started
        after = statistics.median(speed.probe() for _ in range(3))
        setup_s /= (before + after) / 2
        document["setup_s"] = setup_s
        if not args.setup_only:
            run = Run(workload, speed)
            # A traced run spends half its time untraced: the overhead
            # ratio and the per-phase timings need both sides.
            seconds = args.seconds / 2 if args.trace else args.seconds
            rss = run.untraced(seconds)
            document["end_to_end"] = run.end_to_end(setup_s, rss)
            document["passes"] = len(run.pass_walls)
            document["step_wall_s"] = run.walls
            document["step_raw_wall_s"] = run.raw_walls
            document["machine_speed_ratio"] = statistics.median(speed.ratios)
            if args.trace:
                document["per_layer"], document["attribution"] = traced_pass(
                    run, tracer, args.out,
                    {"workload": args.workload, "seed": args.seed,
                     "scale": args.scale})
                document["missing"] = tracer.missing
    finally:
        tracer.enabled = False
        workload.teardown()
    if not args.setup_only:
        run.account(0, [f"left behind: {leftover}"
                        for leftover in workloads.leftovers(workdir)])
        document["attempted"] = run.attempted
        document["failed"] = run.failed
        document["failures"] = run.failures[:20]
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
