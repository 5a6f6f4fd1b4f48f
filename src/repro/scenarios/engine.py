"""The scenario engine: live solves driven through seeded adversity.

:func:`run_scenario` is the whole pipeline for one script:

1. **Baseline** — deploy the script's topology (same heterogeneous
   rates, same checkpoint cadence) and run the solve fault-free.  Its
   elapsed time T anchors the script's fractional event times; its
   residual anchors the tolerance-match invariant.
2. **Faulted run** — deploy again (same seed, so identical link RNG
   streams), submit, arm the :class:`~repro.scenarios.injector.Injector`
   at the submission instant, and *step the simulator manually* with a
   virtual-time budget per epoch — a run that exceeds it is declared
   deadlocked, torn down, and reported as a violation instead of hanging
   the host.  Churn events abort the solve at an epoch boundary; the
   engine then re-partitions (peer leaves → α−1, spare joins → α+1) and
   resubmits warm-started from the surviving peers' assembled planes.
   The whole faulted run records a schedule trace per epoch.
3. **Invariants** — deadlock-freedom (step 2), then the post-hoc checks
   of :mod:`repro.scenarios.invariants` over the traces and the final
   report: envelope monotonicity between fault epochs, verified STOP,
   no false STOP, tolerance match with the baseline.

Everything is deterministic: same script ⇒ same baseline ⇒ same event
times ⇒ same faulted trajectory, bit for bit.
On violation the recorded traces are dumped (``dump_dir``) in the
``repro.parallel.trace_io`` format for offline replay via
``python -m repro.experiments replay``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional

import numpy as np

from ..core.environment import P2PDC
from ..parallel.trace import ScheduleTrace, record_schedule
from ..parallel.trace_io import save_trace
from ..simnet.kernel import Simulator
from ..simnet.topology import TestbedSpec, nicta_testbed
from ..solvers.distributed_richardson import ObstacleApplication
from .injector import AppliedEvent, Injector
from .invariants import check_all
from .script import ScenarioScript, node_name

__all__ = ["run_scenario", "ScenarioResult", "EpochOutcome"]

#: Per-epoch virtual-time budget, as a multiple of the baseline elapsed
#: time, plus a constant floor.  Generous on purpose: link degradation
#: and crash downtime legitimately stretch an epoch; only a genuine
#: deadlock (or livelock) exceeds 60x + 300 s.
EPOCH_BUDGET_FACTOR = 60.0
EPOCH_BUDGET_FLOOR = 300.0


@dataclasses.dataclass
class EpochOutcome:
    """One submitted solve within the faulted run."""

    index: int
    n_peers: int
    peer_names: list[str]
    elapsed: float
    relaxations: float
    residual: float
    aborted: bool


@dataclasses.dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    script: ScenarioScript
    baseline_elapsed: float
    baseline_residual: float
    epochs: list[EpochOutcome]
    violations: list[str]
    injections: list[AppliedEvent]
    traces: list[ScheduleTrace]
    #: Final assembled iterate (None when the run died before finishing).
    u: Optional[np.ndarray]
    final_residual: Optional[float]
    #: Where traces were dumped on violation (empty otherwise).
    trace_paths: list[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [self.script.describe(), ""]
        lines.append(f"baseline: elapsed={self.baseline_elapsed:.3f}s "
                     f"residual={self.baseline_residual:.3e}")
        for ep in self.epochs:
            state = "aborted (churn)" if ep.aborted else "completed"
            lines.append(
                f"epoch {ep.index}: alpha={ep.n_peers} "
                f"elapsed={ep.elapsed:.3f}s relax={ep.relaxations:.1f} "
                f"residual={ep.residual:.3e} [{state}]"
            )
        for rec in self.injections:
            mark = "applied" if rec.applied else "skipped"
            lines.append(f"t={rec.time:8.3f}  [{mark}] "
                         f"{rec.event.kind}: {rec.detail}")
        if self.final_residual is not None:
            lines.append(f"final residual: {self.final_residual:.3e}")
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  - {v}" for v in self.violations)
            lines.extend(f"  trace dumped: {p}" for p in self.trace_paths)
        else:
            lines.append("all invariants hold")
        return "\n".join(lines)


# -- deployment -----------------------------------------------------------------


def _build_env(script: ScenarioScript) -> P2PDC:
    sim = Simulator()
    net = nicta_testbed(
        sim, script.n_nodes, n_clusters=script.n_clusters,
        spec=TestbedSpec(cpu_hz=script.cpu_hz), seed=script.seed,
    )
    # Heterogeneous compute rates are static node properties — set
    # before P2PDC so the JOIN messages carry them.
    for i, rate in enumerate(script.compute_rates):
        net.nodes[node_name(i)].cpu_hz = script.cpu_hz * rate
    env = P2PDC(sim, net, enable_fault_tolerance=True)
    env.register_everywhere(ObstacleApplication())
    return env


def _solver_params(script: ScenarioScript) -> dict:
    return {
        "n": script.n, "tol": script.tol, "problem": script.problem,
        "checkpoint_every": script.checkpoint_every,
    }


def _emergency_teardown(env: P2PDC) -> None:
    """Abandon a wedged run without poisoning the host process: crash
    every running Calculate() (their ``finally`` blocks release sweep
    workspaces), step the interrupts through, then shut the deployment
    down."""
    for executor in env.executors.values():
        try:
            executor.crash_current_task()
        except Exception:
            pass
    for _ in range(50_000):
        if all(ex._calc_proc is None for ex in env.executors.values()):
            break
        try:
            env.sim.step()
        except Exception:
            break
    env.shutdown()


def _run_baseline(script: ScenarioScript) -> tuple[float, float]:
    env = _build_env(script)
    try:
        run = env.run_to_completion(
            "obstacle", params=_solver_params(script),
            n_peers=script.n_peers, scheme=script.scheme, timeout=36_000.0,
        )
        return run.elapsed, run.output.residual
    except TimeoutError:
        _emergency_teardown(env)
        raise
    finally:
        env.shutdown()


# -- the faulted run ------------------------------------------------------------


def _drive_epochs(env, script, injector, horizon, violations, epochs):
    """Submit/step/re-partition until the solve completes (or dies).

    Returns the final epoch's DistributedSolveReport, or None when the
    run deadlocked or failed (a violation is recorded either way).
    """
    sim = env.sim
    n_peers = script.n_peers
    warm_u = None
    warm_label = None
    leaving: Optional[str] = None
    armed = False
    epoch = 0
    while True:
        outcome: dict = {}
        sim.spawn(
            _epoch_driver(env, script, n_peers, warm_u, warm_label,
                          leaving, epoch, outcome),
            name=f"scenario-epoch{epoch}",
        )
        deadline = sim.now + EPOCH_BUDGET_FACTOR * max(horizon, 1.0) \
            + EPOCH_BUDGET_FLOOR
        while "run" not in outcome and "error" not in outcome:
            if sim.peek_time() > deadline:
                violations.append(
                    f"deadlock: epoch {epoch} still incomplete at "
                    f"t={deadline:.1f} (baseline T={horizon:.2f}s)"
                )
                _emergency_teardown(env)
                return None
            try:
                sim.step()
            except Exception as err:
                violations.append(f"epoch {epoch} crashed the kernel: {err!r}")
                _emergency_teardown(env)
                return None
            if not armed and "submitted_at" in outcome:
                injector.arm(outcome["submitted_at"], horizon)
                armed = True
        if "error" in outcome:
            violations.append(f"epoch {epoch} run failed: {outcome['error']!r}")
            return None
        run = outcome["run"]
        report = run.output
        churn = injector.epoch_breaks[:1]
        injector.epoch_breaks.clear()
        epochs.append(EpochOutcome(
            index=epoch, n_peers=run.n_peers,
            peer_names=list(run.peer_names), elapsed=run.elapsed,
            relaxations=report.relaxations, residual=report.residual,
            aborted=bool(churn),
        ))
        if not churn:
            return report
        # Epoch boundary: re-partition per the churn event and resume
        # from the aborted epoch's assembled planes.
        ev = churn[0]
        warm_u = np.array(report.u, copy=True)
        warm_label = f"scenario-epoch{epoch}"
        leaving = None
        if ev.kind == "leave":
            leaving = run.peer_names[ev.rank]
            env.clients[leaving].leave()
            n_peers -= 1
        else:
            n_peers += 1
        epoch += 1


def _epoch_driver(env, script, n_peers, warm_u, warm_label, leaving,
                  epoch, outcome):
    """DES process submitting one epoch once the topology is ready."""
    sim = env.sim
    try:
        if epoch > 0:
            # Let the previous epoch's LEAVE/RESULT traffic settle.
            yield sim.timeout(1.0)
        while leaving is not None and leaving in env.topology.peers:
            yield sim.timeout(0.05)
        while len(env.topology.peers) < n_peers:
            yield sim.timeout(0.05)
        params = _solver_params(script)
        if warm_u is not None:
            params["warm_start_u"] = warm_u
            params["warm_start_label"] = warm_label
        done = env.run("obstacle", params=params, n_peers=n_peers,
                       scheme=script.scheme)
        outcome["submitted_at"] = sim.now

        def on_done(ev) -> None:
            if ev.ok:
                outcome["run"] = ev.value
            else:
                # A failed TaskRun must not detonate at the next step;
                # the engine reports it as a violation instead.
                ev.defused()
                outcome["error"] = ev.value

        if done.triggered:
            on_done(done)
        else:
            done.callbacks.append(on_done)
    except Exception as err:  # collect() shortfalls etc.
        outcome["error"] = err


def run_scenario(
    script: ScenarioScript,
    dump_dir: Optional[str] = None,
) -> ScenarioResult:
    """Run one scenario end to end and check every standing invariant."""
    script.validate()
    baseline_elapsed, baseline_residual = _run_baseline(script)

    env = _build_env(script)
    injector = Injector(env, script)
    violations: list[str] = []
    epochs: list[EpochOutcome] = []
    final_report = None
    with record_schedule() as recorder:
        try:
            final_report = _drive_epochs(
                env, script, injector, baseline_elapsed, violations, epochs,
            )
        finally:
            injector.close()
            env.shutdown()
    traces = recorder.all_traces()

    check_all(traces, final_report, script.tol, baseline_residual, violations)

    trace_paths: list[str] = []
    if violations and dump_dir is not None:
        out = Path(dump_dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, trace in enumerate(traces):
            path = out / f"scenario-seed{script.seed}-epoch{i}.npz"
            save_trace(trace, path)
            trace_paths.append(str(path))

    return ScenarioResult(
        script=script,
        baseline_elapsed=baseline_elapsed,
        baseline_residual=baseline_residual,
        epochs=epochs,
        violations=violations,
        injections=list(injector.log),
        traces=traces,
        u=None if final_report is None else final_report.u,
        final_residual=None if final_report is None else final_report.residual,
        trace_paths=trace_paths,
    )
