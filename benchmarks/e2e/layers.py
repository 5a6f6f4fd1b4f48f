"""Per-layer metrics: what each ``repro`` package did during one pass.

Sources, in the order they are trusted: exact counts made by the trace
wrappers and the program's own public counters (``stats_*`` attributes,
telemetry registry snapshots, ``GET /stats``, result reports); self seconds
from the traced pass; and, for the few per-phase timings, the untraced
passes of the same run.  Counts repeat exactly for a seed and compare
across commits; seconds from the traced pass carry the tracing overhead
(``bench.trace_overhead_ratio``) and compare only with each other.

``METRICS`` is the single list of names; ``BENCHMARK.json`` must name
exactly these and ``run.py`` fails the run when the two disagree.  A metric
whose traced names no longer exist is reported as ``None``.
"""

from __future__ import annotations

import statistics

#: The layers whose summed self time is the protocol stack's cost per
#: application message.
STACK_LAYERS = ("p2psap", "cactus", "simnet")

GHOSTS = ("BlockState.update_ghost_below", "BlockState.update_ghost_above")
TERMINATION = ("ExactCoordinator.on_diff", "StreakCoordinator.on_conv",
               "StreakCoordinator.on_verify_ack",
               "StreakCoordinator.on_timeout")
RECEIVES = ("TaskContext.p2p_receive", "TaskContext.p2p_receive_nowait",
            "TaskContext.p2p_receive_latest_nowait")
CODEC = ("submission_to_wire", "submission_from_wire")


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def quantile(values, q):
    """The q-quantile of ``values`` (0 when empty), by nearest rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Context:
    """Everything a metric may read."""

    def __init__(self, tracer, traced, untraced, telemetry, workload,
                 traced_wall, untraced_wall):
        self.tracer = tracer
        #: step name -> StepResult of the traced pass
        self.traced = traced
        #: From the untraced passes, one entry per pass: {"walls": {step:
        #: [seconds]}, "ops": {step: [[latency per operation]]}, "stats":
        #: {step: [stats]}} in normalised seconds, plus "raw_wall_s" and the
        #: median "speed"
        self.untraced = untraced
        self.telemetry = telemetry
        self.workload = workload
        self.traced_wall = traced_wall
        self.untraced_wall = untraced_wall
        self.by_name = tracer.by_name()
        self.by_layer = tracer.by_layer()
        self.counts = tracer.counts()
        self.maxima = tracer.maxima()
        self.missing = set(tracer.missing)

    # -- trace aggregates ----------------------------------------------------

    def calls(self, *names):
        return sum(self.by_name.get(n, {}).get("calls", 0) for n in names)

    def self_s(self, *names):
        return sum(self.by_name.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(self, *names):
        return sum(self.by_name.get(n, {}).get("total_s", 0.0) for n in names)

    def layer_self(self, *layers):
        return sum(self.by_layer.get(layer, 0.0) for layer in layers)

    def mean_ms(self, name):
        return 1e3 * ratio(self.total_s(name), self.calls(name))

    # -- workload statistics -------------------------------------------------

    def stat(self, key):
        """Sum of one numeric stat over the steps of the traced pass."""
        return sum(step.stats.get(key, 0) for step in self.traced.values())

    def stat_max(self, key):
        return max((step.stats.get(key, 0) for step in self.traced.values()),
                   default=0)

    def app_messages(self):
        """Application messages of the pass: delivered stream messages, or
        the solvers' socket sends."""
        return self.stat("app_messages") or self.calls("P2PSAPSocket.send")

    def cache_stat(self, key):
        """One result-cache counter over the traced pass: ``cache_stats()``
        of the pass's campaigns plus the growth of the daemon's."""
        campaigns = sum(entry.get(key, 0) for step in self.traced.values()
                        for entry in step.stats.get("cache", ()) if entry)
        return campaigns + self.service_delta("cache", key)

    def service_delta(self, *path):
        """Growth of one ``GET /stats`` number over the traced pass."""
        total = 0.0
        for step in self.traced.values():
            before = step.stats.get("service_before")
            after = step.stats.get("service_after")
            if before is None or after is None:
                continue
            for key in path:
                before, after = before[key], after[key]
            total += after - before
        return total

    # -- telemetry registry --------------------------------------------------

    def counter(self, name):
        return sum(value for key, value
                   in self.telemetry.get("counters", {}).items()
                   if key.split("{")[0] == name)

    def histogram_sum(self, name, label=""):
        return sum(cells["sum"] for key, cells
                   in self.telemetry.get("histograms", {}).items()
                   if key.split("{")[0] == name and label in key)

    # -- untraced passes -----------------------------------------------------

    def step_median(self, step):
        return median(self.untraced["walls"].get(step))

    def ops(self, step):
        """Every operation latency of one step, all passes together."""
        return [op for samples in self.untraced["ops"].get(step, ())
                for op in samples]

    def untraced_stat_median(self, step, key):
        return median([stats[key] for stats
                       in self.untraced["stats"].get(step, ())
                       if key in stats])


def _driver_busy_ratio(c):
    """Share of the two drivers' time spent inside jobs, cold_d2 step."""
    step = c.traced.get("cold_d2")
    if step is None:
        return 0.0
    return ratio(step.stats.get("driver_busy_s", 0.0), 2 * step.wall)


def _warm_saved(c):
    step = c.traced.get("cold")
    cold = getattr(c.workload, "chain_cold_relaxations", 0)
    if step is None or not cold:
        return 0.0
    return 1.0 - step.stats.get("chain_warm_relaxations", 0) / cold


def _unattributed(c):
    """Share of the pass's step spans covered by no layer's span."""
    steps = sum(row["total_s"] for name, row in c.by_name.items()
                if name.startswith("step:"))
    return ratio(c.layer_self("bench"), steps)


#: (name, unit, better, traced names it needs, function of a Context)
METRICS = (
    # -- numerics ----------------------------------------------------------
    ("numerics.kernel_s", "s", "lower", (),
     lambda c: c.histogram_sum("repro_kernel_sweep_seconds")),
    ("numerics.sweeps", "count", "lower", (),
     lambda c: c.counter("repro_kernel_sweeps_total")),
    ("numerics.point_updates", "count", "lower", (),
     lambda c: c.stat("point_updates")),
    ("numerics.ns_per_point", "ns", "lower", (),
     lambda c: 1e9 * ratio(c.histogram_sum("repro_kernel_sweep_seconds"),
                           c.stat("point_updates"))),
    ("numerics.bytes_moved_computed", "B", "lower", (),
     lambda c: c.stat("bytes_moved_computed")),
    ("numerics.workspace_builds", "count", "lower",
     ("SweepWorkspace.__init__",),
     lambda c: c.calls("SweepWorkspace.__init__")),
    ("numerics.problem_build_s", "s", "lower", ("get_problem",),
     lambda c: c.total_s("get_problem")),
    # -- solvers -----------------------------------------------------------
    ("solvers.self_s", "s", "lower", ("Simulator.spawn",),
     lambda c: c.layer_self("solvers")),
    ("solvers.relaxations", "count", "lower", (),
     lambda c: c.stat("relaxations")),
    ("solvers.ghost_updates", "count", "lower", GHOSTS,
     lambda c: c.calls(*GHOSTS)),
    ("solvers.termination_calls", "count", "lower", TERMINATION,
     lambda c: c.calls(*TERMINATION)),
    ("solvers.termination_s", "s", "lower", TERMINATION,
     lambda c: c.total_s(*TERMINATION)),
    ("solvers.export_s", "s", "lower", ("BlockState.export_block",),
     lambda c: c.total_s("BlockState.export_block")),
    ("solvers.wait_sim_s", "sim_s", "lower", (),
     lambda c: c.stat("wait_sim_s")),
    # -- core --------------------------------------------------------------
    ("core.self_s", "s", "lower", ("Simulator.spawn",),
     lambda c: c.layer_self("core")),
    ("core.dispatch_s", "s", "lower",
     ("P2PDC.run_to_completion", "Simulator.step"),
     lambda c: c.self_s("P2PDC.run_to_completion")),
    ("core.p2p_sends", "count", "lower", ("TaskContext.p2p_send",),
     lambda c: c.calls("TaskContext.p2p_send")),
    ("core.p2p_receives", "count", "lower", RECEIVES,
     lambda c: c.calls(*RECEIVES)),
    # -- p2psap ------------------------------------------------------------
    ("p2psap.self_s", "s", "lower", ("Simulator.spawn", "EventBus.bind"),
     lambda c: c.layer_self("p2psap")),
    ("p2psap.socket_sends", "count", "lower", ("P2PSAPSocket.send",),
     lambda c: c.calls("P2PSAPSocket.send")),
    ("p2psap.stack_us_per_msg", "us", "lower",
     ("Simulator.spawn", "EventBus.bind", "Simulator.step"),
     lambda c: 1e6 * ratio(c.layer_self(*STACK_LAYERS), c.app_messages())),
    ("p2psap.retransmits", "count", "lower", ("MicroProtocol.init",),
     lambda c: c.tracer.micro_stat("stats_retransmits")),
    ("p2psap.fragments", "count", "lower", ("MicroProtocol.init",),
     lambda c: c.tracer.micro_stat("stats_fragmented")),
    ("p2psap.reconfigurations", "count", "lower",
     ("DataChannel.reconfigure",),
     lambda c: c.calls("DataChannel.reconfigure")),
    ("p2psap.sessions", "count", "lower", ("P2PSAP.open_session",),
     lambda c: c.calls("P2PSAP.open_session")),
    # -- cactus ------------------------------------------------------------
    ("cactus.self_s", "s", "lower", ("EventBus.raise_event", "EventBus.bind"),
     lambda c: c.layer_self("cactus")),
    ("cactus.raise_event_calls", "count", "lower", ("EventBus.raise_event",),
     lambda c: c.calls("EventBus.raise_event")),
    ("cactus.raise_events_per_msg", "count", "lower",
     ("EventBus.raise_event",),
     lambda c: ratio(c.calls("EventBus.raise_event"), c.app_messages())),
    ("cactus.raise_event_max_depth", "count", "lower",
     ("EventBus.raise_event",),
     lambda c: c.maxima.get("EventBus.raise_event", 0)),
    ("cactus.payload_nbytes_calls", "count", "lower", ("payload_nbytes",),
     lambda c: c.calls("payload_nbytes")),
    ("cactus.payload_nbytes_s", "s", "lower", ("payload_nbytes",),
     lambda c: c.self_s("payload_nbytes")),
    # -- simnet ------------------------------------------------------------
    ("simnet.loop_self_s", "s", "lower", ("Simulator.step", "Simulator.run"),
     lambda c: c.self_s("Simulator.step", "Simulator.run")),
    ("simnet.events", "count", "lower", ("Simulator.step",),
     lambda c: c.calls("Simulator.step")),
    ("simnet.us_per_event", "us", "lower",
     ("Simulator.step", "Simulator.run"),
     lambda c: 1e6 * ratio(c.self_s("Simulator.step", "Simulator.run"),
                           c.calls("Simulator.step"))),
    ("simnet.events_per_msg", "count", "lower", ("Simulator.step",),
     lambda c: ratio(c.calls("Simulator.step"), c.app_messages())),
    ("simnet.process_resumes", "count", "lower", ("Simulator.spawn",),
     lambda c: sum(row["calls"] for name, row in c.by_name.items()
                   if name.startswith("resume:"))),
    ("simnet.net_sends", "count", "lower", ("Link.transmit",),
     lambda c: c.calls("Link.transmit")),
    ("simnet.net_bytes", "B", "lower", ("Link.transmit",),
     lambda c: c.counts.get("net_bytes", 0)),
    ("simnet.packets_dropped", "count", "lower", (),
     lambda c: c.stat("packets_dropped") + c.tracer.des["dropped"]),
    ("simnet.max_queue_depth", "count", "lower", (),
     lambda c: max(c.stat_max("max_queue_depth"),
                   c.tracer.des["max_queue_depth"])),
    ("simnet.sim_time_s", "sim_s", "lower", (),
     lambda c: c.stat("sim_time_s")),
    # -- experiments -------------------------------------------------------
    ("experiments.harness_self_s", "s", "lower",
     ("run_job", "P2PDC.run_to_completion"),
     lambda c: c.self_s("run_job")),
    # -- campaign ----------------------------------------------------------
    ("campaign.plan_s", "s", "lower", ("plan_jobs",),
     lambda c: c.total_s("plan_jobs")),
    ("campaign.engine_self_s", "s", "lower", ("Campaign.run",),
     lambda c: c.self_s("Campaign.run")),
    ("campaign.cache_load_s", "s", "lower", (),
     lambda c: c.histogram_sum("repro_cache_load_seconds")),
    ("campaign.cache_store_s", "s", "lower", (),
     lambda c: c.histogram_sum("repro_cache_store_seconds")),
    ("campaign.cache_hits", "count", "higher", (),
     lambda c: c.cache_stat("hits")),
    ("campaign.cache_misses", "count", "lower", (),
     lambda c: c.cache_stat("misses")),
    ("campaign.cache_hit_ratio", "ratio", "higher", (),
     lambda c: ratio(c.cache_stat("hits"),
                     c.cache_stat("hits") + c.cache_stat("misses"))),
    ("campaign.cache_bytes_written", "B", "lower", (),
     lambda c: c.stat("cache_bytes_written")),
    ("campaign.cache_lock_wait_s", "s", "lower", (),
     lambda c: c.cache_stat("lock_wait_seconds")),
    ("campaign.warm_relax_saved_ratio", "ratio", "higher", (), _warm_saved),
    ("campaign.driver_start_s", "s", "lower", ("DriverPool.__init__",),
     lambda c: c.total_s("DriverPool.__init__")),
    ("campaign.driver_wait_s", "s", "lower", ("DriverPool.wait",),
     lambda c: c.total_s("DriverPool.wait")),
    ("campaign.driver_busy_ratio", "ratio", "higher", (),
     _driver_busy_ratio),
    ("campaign.scaling_efficiency", "ratio", "higher", (),
     lambda c: ratio(c.step_median("cold"), 2 * c.step_median("cold_d2"))),
    ("campaign.cold_s", "s", "lower", (),
     lambda c: c.step_median("cold")),
    ("campaign.cold_d2_s", "s", "lower", (),
     lambda c: c.step_median("cold_d2")),
    ("campaign.cached_s", "s", "lower", (),
     lambda c: median(c.ops("cached"))),
    # -- service -----------------------------------------------------------
    ("service.daemon_start_s", "s", "lower", (),
     lambda c: getattr(c.workload, "daemon_start_s", 0.0)),
    ("service.submit_ms", "ms", "lower", ("ServiceClient.submit",),
     lambda c: c.mean_ms("ServiceClient.submit")),
    ("service.status_ms", "ms", "lower", ("ServiceClient.status",),
     lambda c: c.mean_ms("ServiceClient.status")),
    ("service.results_ms", "ms", "lower", ("ServiceClient.results",),
     lambda c: c.mean_ms("ServiceClient.results")),
    ("service.iterate_ms", "ms", "lower", ("ServiceClient.iterate",),
     lambda c: c.mean_ms("ServiceClient.iterate")),
    ("service.iterate_bytes", "B", "lower", (),
     lambda c: c.counts.get("iterate_bytes", 0)),
    ("service.polls_per_rt", "count", "lower", (),
     lambda c: ratio(c.counts.get("polls", 0),
                     sum(len(step.ops) for step in c.traced.values()))),
    ("service.codec_s", "s", "lower", CODEC, lambda c: c.total_s(*CODEC)),
    ("service.queue_wait_ms", "ms", "lower", (),
     lambda c: 1e3 * ratio(c.service_delta("queue", "wait", "sum"),
                           c.service_delta("queue", "wait", "count"))),
    ("service.branches_inline", "count", "higher", (),
     lambda c: c.service_delta("service", "branches_inline")),
    ("service.branches_driver", "count", "lower", (),
     lambda c: c.service_delta("service", "branches_driver")),
    ("service.duplicate_solves", "count", "lower", (),
     lambda c: c.counts.get("duplicate_solves", 0)),
    ("service.rejected", "count", "lower", (),
     lambda c: getattr(c.workload, "rejected", 0)),
    ("service.rt_cold_ms", "ms", "lower", (),
     lambda c: 1e3 * median(c.ops("rt_cold"))),
    ("service.rt_cached_ms", "ms", "lower", (),
     lambda c: 1e3 * median(c.ops("rt_cached"))),
    ("service.rt_cold_ms_p90", "ms", "lower", (),
     lambda c: 1e3 * quantile(c.ops("rt_cold"), 0.9)),
    ("service.rt_cached_ms_p90", "ms", "lower", (),
     lambda c: 1e3 * quantile(c.ops("rt_cached"), 0.9)),
    ("service.jobs_per_s", "1/s", "higher", (),
     lambda c: ratio(c.untraced_stat_median("burst", "burst_jobs"),
                     c.step_median("burst"))),
    # -- bench -------------------------------------------------------------
    ("bench.trace_overhead_ratio", "ratio", "lower", (),
     lambda c: ratio(c.traced_wall, c.untraced_wall)),
    ("bench.unattributed_share", "ratio", "lower", (), _unattributed),
    ("bench.raw_wall_s", "s", "lower", (),
     lambda c: c.untraced["raw_wall_s"]),
    ("bench.machine_speed_ratio", "ratio", "lower", (),
     lambda c: c.untraced["speed"]),
)


def compute(context):
    """``{name: value or None}`` for every metric in :data:`METRICS`."""
    out = {}
    for name, _unit, _better, needs, function in METRICS:
        if any(need in context.missing for need in needs):
            out[name] = None
        else:
            out[name] = float(function(context))
    return out
