"""The fault injector on its own: timing, applied vs. skipped events.

A seeded schedule is a fuzzing input, so an event that cannot apply
when it fires (no task running, no crash to undo, the server peer as a
crash target) must be recorded as skipped with its reason — never
raised, never silently dropped.
"""

import pytest

from repro.core import P2PDC
from repro.scenarios.injector import Injector
from repro.scenarios.script import ScenarioEvent, ScenarioScript
from repro.simnet import Simulator, nicta_testbed
from repro.solvers import ObstacleApplication


def deployment(n_nodes=3):
    sim = Simulator()
    net = nicta_testbed(sim, n_nodes, n_clusters=1)
    env = P2PDC(sim, net, enable_fault_tolerance=True)
    env.register_everywhere(ObstacleApplication())
    return env


def fire(env, *events, t0=0.0, horizon=10.0, until=20.0):
    script = ScenarioScript(seed=0, scheme="asynchronous", events=events)
    injector = Injector(env, script)
    injector.arm(t0, horizon)
    env.sim.run(until=until)
    return injector


@pytest.mark.parametrize("kind", ["crash", "leave", "join"])
def test_task_events_are_skipped_between_solves(kind):
    injector = fire(deployment(), ScenarioEvent(kind, 0.1, rank=1))
    [record] = injector.log
    assert not record.applied
    assert record.detail == "no task running at fire time"
    assert injector.epoch_breaks == []
    assert injector.applied() == []


def test_restart_without_a_crash_is_skipped():
    injector = fire(deployment(), ScenarioEvent("restart", 0.1, rank=1))
    [record] = injector.log
    assert not record.applied
    assert record.detail == "no crashed peer to restart"


def test_events_fire_at_fractions_of_the_baseline():
    injector = fire(deployment(),
                    ScenarioEvent("load", 0.25, rank=1,
                                  args=(("factor", 1.0),)),
                    ScenarioEvent("restart", 0.5, rank=1),
                    t0=2.0, horizon=8.0)
    assert [rec.time for rec in injector.log] == [4.0, 6.0]


def test_link_event_degrades_both_directions():
    env = deployment()
    bandwidth = env.network.link("peer00", "peer01").bandwidth_bps
    injector = fire(env, ScenarioEvent(
        "link", 0.1, link=("peer00", "peer01"),
        args=(("bandwidth_scale", 0.5), ("delay", 0.2))))
    for src, dst in (("peer00", "peer01"), ("peer01", "peer00")):
        link = env.network.link(src, dst)
        assert link.bandwidth_bps == bandwidth * 0.5
        assert link.netem.delay == 0.2
    assert [rec.event.kind for rec in injector.applied("link")] == ["link"]
    assert injector.log[0].detail == \
        "degraded peer00<->peer01: bandwidth_scale=0.5,delay=0.2"


def test_load_event_slows_the_named_node():
    env = deployment()
    injector = fire(env, ScenarioEvent("load", 0.1, rank=2,
                                       args=(("factor", 3.0),)))
    assert env.network.nodes["peer02"].background_load == 3.0
    assert injector.applied("load")[0].detail == \
        "background load 3 on peer02"


def test_arming_twice_is_refused():
    env = deployment()
    injector = Injector(env, ScenarioScript(seed=0, scheme="hybrid"))
    injector.arm(0.0, 1.0)
    with pytest.raises(RuntimeError, match="already armed"):
        injector.arm(0.0, 1.0)


def test_close_cancels_the_events_still_ahead():
    env = deployment()
    script = ScenarioScript(seed=0, scheme="hybrid", events=(
        ScenarioEvent("restart", 0.1, rank=1),
        ScenarioEvent("restart", 0.9, rank=1),
    ))
    injector = Injector(env, script)
    injector.arm(0.0, 10.0)
    env.sim.run(until=5.0)
    injector.close()
    env.sim.run(until=20.0)
    assert [rec.time for rec in injector.log] == [1.0]


def test_crash_targets_are_checked_against_the_live_run():
    """Rank 0 of a run collected from the server's own node is the
    server peer, which the injector refuses to kill; a rank past the
    run's peer count resolves to nothing."""
    env = deployment()
    env.sim.run(until=2.0)  # peers join before the submission
    done = env.run("obstacle", params={"n": 8, "tol": 1e-3}, n_peers=2,
                   scheme="synchronous")
    assert env.task_manager._current.peer_names[0] == env.server_name
    script = ScenarioScript(seed=0, scheme="synchronous", events=(
        ScenarioEvent("crash", 0.0, rank=0),
        ScenarioEvent("crash", 0.0, rank=5),
    ))
    injector = Injector(env, script)
    injector.arm(env.sim.now, 1.0)
    assert env.sim.run_until(done, 1e6)
    assert [(rec.applied, rec.detail) for rec in injector.log] == [
        (False, "refusing to crash the server peer"),
        (False, "no task running at fire time"),
    ]
    assert done.value.output.n_peers == 2
