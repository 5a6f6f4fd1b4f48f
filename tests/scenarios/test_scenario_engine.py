"""The scenario engine on hand-built scripts: every fault path and
bit-reproducibility of the whole faulted trajectory."""

import numpy as np
import pytest

from repro.parallel.trace import assert_traces_equal
from repro.scenarios import (
    ScenarioEvent,
    ScenarioScript,
    generate_script,
    run_scenario,
)

def crash_restart_script(scheme="synchronous", **overrides):
    """One mid-solve crash + checkpoint-recovered restart, nothing else.

    ``checkpoint_every=2`` guarantees a checkpoint exists by the crash
    instant, so the restart exercises the recovery path, not a cold
    re-dispatch.
    """
    fields = dict(
        seed=99, scheme=scheme,
        compute_rates=(1.0, 1.0, 1.0), checkpoint_every=2,
        events=(
            ScenarioEvent("crash", 0.45, rank=1),
            ScenarioEvent("restart", 0.65, rank=1),
        ),
    )
    fields.update(overrides)
    return ScenarioScript(**fields)


def test_crash_restart_recovers_to_verified_stop(tmp_path):
    """Acceptance: a peer dies mid-solve on the 2-cluster topology and
    recovers from its checkpoint; the run still reaches a verified STOP
    at the fault-free tolerance (run_scenario asserts the invariants)."""
    result = run_scenario(crash_restart_script(), dump_dir=str(tmp_path))
    assert result.ok, "\n".join(result.violations)
    assert len(result.epochs) == 1 and not result.epochs[0].aborted
    crash, = (r for r in result.injections if r.event.kind == "crash")
    restart, = (r for r in result.injections if r.event.kind == "restart")
    assert crash.applied and restart.applied
    assert "checkpoint@sweep" in restart.detail  # warm, not cold, recovery
    # The faulted trace carries the restore event of the recovery.
    assert any(ev.kind == "restore" for tr in result.traces
               for ev in tr.events)
    assert result.final_residual <= 5 * result.script.tol


def test_faulted_run_is_bit_reproducible():
    """Same script, same trajectory: iterates, traces, firing times."""
    a = run_scenario(crash_restart_script())
    b = run_scenario(crash_restart_script())
    assert a.ok and b.ok
    assert np.array_equal(a.u, b.u)
    assert a.final_residual == b.final_residual
    assert [r.time for r in a.injections] == [r.time for r in b.injections]
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert_traces_equal(ta, tb)


def test_restarted_peer_receives_on_its_rebuilt_endpoints(monkeypatch):
    """The physical layer receives by a callback attached to its node's
    port, not by a process draining an inbox: the endpoints a restarted
    peer (and its neighbours, for the sessions it re-initiates) build
    after the crash must attach theirs, or the recovered solve would
    send into the void."""
    from repro.p2psap.physical.base import PhysicalProtocol

    built = []
    init = PhysicalProtocol.__init__

    def recording_init(self, sim, *args, **kwargs):
        init(self, sim, *args, **kwargs)
        built.append((sim.now, self))

    monkeypatch.setattr(PhysicalProtocol, "__init__", recording_init)
    result = run_scenario(crash_restart_script())
    assert result.ok, "\n".join(result.violations)
    restart, = (r for r in result.injections if r.event.kind == "restart")
    faulted_sim = built[-1][1].sim  # the baseline ran first, on its own sim
    rebuilt = [phys for t, phys in built
               if phys.sim is faulted_sim and t >= restart.time]
    # Rank 1 of 3 has two neighbours: two sessions, two ends each.
    assert len(rebuilt) == 4
    for phys in rebuilt:
        assert phys.stats_rx_frames > 0 and phys.stats_tx_frames > 0


def test_leave_shrinks_the_partition():
    script = crash_restart_script(
        events=(
            ScenarioEvent("crash", 0.3, rank=1),
            ScenarioEvent("restart", 0.45, rank=1),
            ScenarioEvent("leave", 0.6, rank=2),
        ),
    )
    result = run_scenario(script)
    assert result.ok, "\n".join(result.violations)
    assert [ep.n_peers for ep in result.epochs] == [3, 2]
    assert result.epochs[0].aborted and not result.epochs[1].aborted


def test_join_drafts_the_spare():
    script = crash_restart_script(
        n_spares=1, compute_rates=(1.0, 1.0, 1.0, 1.0),
        events=(
            ScenarioEvent("crash", 0.3, rank=1),
            ScenarioEvent("restart", 0.45, rank=1),
            ScenarioEvent("join", 0.6),
        ),
    )
    result = run_scenario(script)
    assert result.ok, "\n".join(result.violations)
    assert [ep.n_peers for ep in result.epochs] == [3, 4]
    # The spare really computes in epoch 1: four ranks in its trace.
    assert sorted(result.traces[-1].peers) == [0, 1, 2, 3]


def test_link_degradation_and_load_apply_mid_run():
    script = crash_restart_script(
        events=(
            ScenarioEvent("link", 0.2, link=("peer01", "peer02"),
                          args=(("delay", 0.05), ("loss", 0.02),
                                ("bandwidth_scale", 0.5))),
            ScenarioEvent("crash", 0.4, rank=1),
            ScenarioEvent("restart", 0.55, rank=1),
            ScenarioEvent("load", 0.7, rank=2,
                          args=(("factor", 0.8),)),
        ),
    )
    result = run_scenario(script)
    assert result.ok, "\n".join(result.violations)
    kinds = {r.event.kind for r in result.injections if r.applied}
    assert {"link", "crash", "restart", "load"} <= kinds
    # Degradation slows the solve but must not change the answer class.
    assert result.final_residual <= 5 * result.script.tol


def test_invalid_script_is_rejected_before_running():
    bad = crash_restart_script(
        events=(ScenarioEvent("crash", 0.3, rank=1),),
    )
    with pytest.raises(ValueError, match="never restarts"):
        run_scenario(bad)


def test_summary_is_self_contained():
    result = run_scenario(generate_script(0))
    text = result.summary()
    assert "baseline:" in text
    assert "epoch 0:" in text
    assert ("all invariants hold" in text) == result.ok
