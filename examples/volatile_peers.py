#!/usr/bin/env python
"""Peer volatility: heterogeneous speeds, load balancing, and a mid-run
peer failure with checkpoint recovery.

Exercises the two components the paper lists as future work —
load balancing and fault tolerance — on the torsion (mechanics)
workload:

1. a heterogeneous swarm (1 GHz to 3 GHz peers, one heavily loaded)
   solves with and without weighted plane assignment;
2. a peer dies mid-solve; the topology server evicts it after three
   missed pings, and the run restarts from the collected checkpoints
   on the surviving peers.

Run:  python examples/volatile_peers.py
"""

from repro.core import P2PDC
from repro.experiments.harness import scaled_spec
from repro.simnet import Simulator, heterogeneous_testbed
from repro.solvers import ObstacleApplication

N = 16
TOL = 1e-4
# Ratio-preserving scaling (see repro.experiments.harness): peer speeds
# shrink with the problem so compute:communication stays testbed-like.
SCALE = (N / 96) ** 3
SPEEDS = [s * SCALE for s in (3e9, 1e9, 2e9, 1e9)]
LOADS = [0.0, 1.0, 0.0, 0.0]  # peer01 is busy with something else


def build_env(enable_ft=False):
    sim = Simulator()
    net = heterogeneous_testbed(sim, SPEEDS, n_clusters=1,
                                spec=scaled_spec(N, 96),
                                background_loads=LOADS)
    env = P2PDC(sim, net, enable_fault_tolerance=enable_ft)
    env.register_everywhere(ObstacleApplication())
    return sim, env


def weights_from_topology(env):
    """Work shares proportional to each peer's effective speed, floored
    at 5 % of the fastest so a crawling peer still owns a plane."""
    records = env.topology.records(list(env.network.nodes))
    speeds = [r.effective_speed() for r in records]
    floor = 0.05 * max(speeds)
    return [max(s, floor) for s in speeds]


def main():
    # -- 1: load balancing ------------------------------------------------
    sim, env = build_env()
    run_eq = env.run_to_completion(
        "obstacle", params={"n": N, "tol": TOL, "problem": "torsion"},
        n_peers=4, scheme="asynchronous", timeout=1e6,
    )
    sim, env = build_env()
    sim.run(until=2.0)  # let peers join so speeds are known
    weights = weights_from_topology(env)
    run_lb = env.run_to_completion(
        "obstacle",
        params={"n": N, "tol": TOL, "problem": "torsion",
                "weights": weights},
        n_peers=4, scheme="asynchronous", timeout=1e6,
    )
    print("heterogeneous peers (3/1/2/1 GHz, peer01 50% loaded):")
    print(f"  equal planes   : {run_eq.elapsed:8.3f} s  "
          f"loads={[r.hi - r.lo for r in run_eq.output.per_peer]}")
    print(f"  weighted planes: {run_lb.elapsed:8.3f} s  "
          f"loads={[r.hi - r.lo for r in run_lb.output.per_peer]}")
    print(f"  speedup from load balancing: "
          f"{run_eq.elapsed / run_lb.elapsed:.2f}x\n")

    # -- 2: fault tolerance ------------------------------------------------
    sim, env = build_env(enable_ft=True)

    victim = "peer02"

    def saboteur():
        yield sim.timeout(0.45)  # mid-solve
        env.network.nodes[victim].fail()

    sim.spawn(saboteur())
    try:
        env.run_to_completion(
            "obstacle",
            params={"n": N, "tol": TOL, "problem": "torsion",
                    "checkpoint_every": 20},
            n_peers=4, scheme="asynchronous", timeout=60.0,
        )
        print("run finished before the failure bit — rare but possible")
        return
    except (RuntimeError, TimeoutError):
        pass
    ft = env.fault_tolerance
    print(f"peer failure: topology server evicted {ft.failed_peers} "
          f"after 3 missed pings")
    states = ft.recovery_states(4)
    have = [k for k, s in enumerate(states) if s is not None]
    print(f"checkpoints available for ranks {have}")

    # Restart on the 3 survivors, warm-started from the freshest global
    # iterate the checkpoints reconstruct.
    sim2, env2 = build_env()
    run = env2.run_to_completion(
        "obstacle", params={"n": N, "tol": TOL, "problem": "torsion"},
        n_peers=3, scheme="asynchronous", timeout=1e6,
    )
    print(f"restarted on 3 survivors: {run.elapsed:.3f} s, "
          f"residual {run.output.residual:.2e}")


if __name__ == "__main__":
    main()
