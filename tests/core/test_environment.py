"""P2PDC environment: programming model, task flow, daemon, extensions."""

import pytest

from repro.core import (
    Application,
    LoadBalancer,
    MigrationPlanner,
    MigrationStep,
    P2PDC,
    ProblemDefinition,
)
from repro.core.topology_manager import PeerRecord
from repro.core.user_daemon import CommandError
from repro.numerics.blocks import BlockAssignment
from repro.p2psap.context import Scheme
from repro.simnet import Network, Simulator, nicta_testbed


class EchoApp(Application):
    """Each rank returns (rank, payload); neighbours exchange a token."""

    name = "echo"

    def problem_definition(self, params):
        n = int(params.get("n_peers", 2))
        # Synchronous scheme: P2P_Receive blocks, so the token exchange
        # is deterministic (asynchronous receive returns None when the
        # message has not arrived yet — by design).
        return ProblemDefinition(
            subtasks=[f"task-{i}" for i in range(n)],
            scheme=params.get("scheme", "synchronous"),
            n_peers=n,
        )

    def calculate(self, ctx):
        yield ctx.node.compute(1e6)
        token = None
        if ctx.rank + 1 < ctx.n_workers:
            yield ctx.p2p_send(ctx.rank + 1, f"token-from-{ctx.rank}")
        if ctx.rank > 0:
            token = yield ctx.p2p_receive(ctx.rank - 1)
        return {"rank": ctx.rank, "subtask": ctx.subtask, "token": token}

    def results_aggregation(self, results):
        return sorted(results, key=lambda r: r["rank"])


class FailingApp(Application):
    name = "failing"

    def problem_definition(self, params):
        return ProblemDefinition(subtasks=[0, 1], scheme="asynchronous")

    def calculate(self, ctx):
        yield ctx.node.compute(1e3)
        if ctx.rank == 1:
            raise ValueError("rank 1 exploded")
        return "ok"

    def results_aggregation(self, results):
        return results


def make_env(n=3, clusters=1, **kw):
    sim = Simulator()
    net = nicta_testbed(sim, n, n_clusters=clusters)
    env = P2PDC(sim, net, **kw)
    return sim, env


class TestProblemDefinition:
    def test_peer_count_defaults_to_subtasks(self):
        pd = ProblemDefinition(subtasks=[1, 2, 3])
        assert pd.n_peers == 3

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProblemDefinition(subtasks=[1, 2], n_peers=3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProblemDefinition(subtasks=[])

    def test_scheme_parsed(self):
        pd = ProblemDefinition(subtasks=[1], scheme="synchronous")
        assert pd.scheme is Scheme.SYNCHRONOUS


class TestTaskFlow:
    def test_distribute_compute_aggregate(self):
        sim, env = make_env(3)
        env.register_everywhere(EchoApp())
        run = env.run_to_completion("echo", n_peers=3, timeout=200)
        assert [r["rank"] for r in run.output] == [0, 1, 2]
        assert run.output[1]["token"] == "token-from-0"
        assert run.output[0]["subtask"] == "task-0"
        assert run.elapsed > 0

    def test_peers_released_after_run(self):
        sim, env = make_env(3)
        env.register_everywhere(EchoApp())
        env.run_to_completion("echo", n_peers=3, timeout=200)
        assert all(not r.busy for r in env.topology.peers.values())

    def test_two_sequential_runs(self):
        sim, env = make_env(3)
        env.register_everywhere(EchoApp())
        r1 = env.run_to_completion("echo", n_peers=3, timeout=200)
        r2 = env.run_to_completion("echo", n_peers=2, timeout=400)
        assert len(r1.output) == 3
        assert len(r2.output) == 2

    def test_subtask_error_reported(self):
        sim, env = make_env(2)
        env.register_everywhere(FailingApp())
        with pytest.raises(RuntimeError, match="rank 1 exploded"):
            env.run_to_completion("failing", timeout=200)

    def test_unknown_application(self):
        sim, env = make_env(2)
        with pytest.raises(LookupError):
            env.run_to_completion("ghost", timeout=50)

    def test_application_missing_on_a_peer_is_reported(self):
        """Code distribution is the user's job: a peer that lacks the
        application answers its sub-task with an error, and the run
        fails naming the application instead of hanging."""
        sim, env = make_env(2)
        for name, executor in env.executors.items():
            if name == env.server_name:
                executor.register(EchoApp())
        with pytest.raises(RuntimeError, match="unknown application 'echo'"):
            env.run_to_completion("echo", n_peers=2, timeout=200)

    def test_second_run_while_busy_is_refused(self):
        sim, env = make_env(2)
        env.register_everywhere(EchoApp())
        sim.run(until=2.0)
        done = env.run("echo", n_peers=2)
        with pytest.raises(RuntimeError, match="busy"):
            env.run("echo", n_peers=2)
        sim.run_until(done, 200)
        assert len(done.value.output) == 2

    def test_load_balanced_run_keeps_cluster_contiguity(self):
        """With load balancing on, collected peers are ordered through
        the balancer — which keeps clusters contiguous along the chain,
        so the run's peer order is the plain run's."""
        peer_orders = []
        for balanced in (False, True):
            sim, env = make_env(4, clusters=2,
                                enable_load_balancing=balanced)
            env.register_everywhere(EchoApp())
            run = env.run_to_completion("echo", n_peers=4, timeout=200)
            assert [r["rank"] for r in run.output] == [0, 1, 2, 3]
            peer_orders.append(run.peer_names)
            clusters = [env.network.nodes[p].cluster for p in run.peer_names]
            assert clusters == sorted(clusters)
        assert peer_orders[0] == peer_orders[1]

    def test_empty_network_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="no nodes"):
            P2PDC(sim, Network(sim))

    def test_unknown_server_rejected(self):
        sim = Simulator()
        net = nicta_testbed(sim, 2)
        with pytest.raises(ValueError, match="unknown server node"):
            P2PDC(sim, net, server_name="nowhere")

    def test_scheme_override_reaches_context(self):
        captured = {}

        class SchemeProbe(Application):
            name = "probe"

            def problem_definition(self, params):
                return ProblemDefinition(
                    subtasks=[0], scheme=params.get("scheme", "hybrid"),
                    n_peers=1,
                )

            def calculate(self, ctx):
                captured["scheme"] = ctx.scheme
                yield ctx.node.compute(1)
                return None

            def results_aggregation(self, results):
                return results

        sim, env = make_env(1)
        env.register_everywhere(SchemeProbe())
        env.run_to_completion("probe", scheme="synchronous", timeout=100)
        assert captured["scheme"] is Scheme.SYNCHRONOUS


class TestUserDaemon:
    def test_stat(self):
        sim, env = make_env(2)
        env.register_everywhere(EchoApp())
        sim.run(until=2.0)  # let joins land
        stat = env.daemon.command("stat")
        assert stat["peers_known"] == 2
        assert "echo" in stat["applications"]
        assert not stat["task_running"]

    def test_run_command_with_overrides(self):
        sim, env = make_env(3)
        env.register_everywhere(EchoApp())
        sim.run(until=2.0)
        done = env.daemon.command("run echo peers=3 scheme=synchronous")
        sim.run(until=200)
        assert done.triggered
        assert len(done.value.output) == 3

    def test_run_coerces_params(self):
        captured = {}

        class ParamProbe(Application):
            name = "params"

            def problem_definition(self, params):
                captured.update(params)
                return ProblemDefinition(subtasks=[0], scheme="hybrid")

            def calculate(self, ctx):
                yield ctx.node.compute(1)

            def results_aggregation(self, results):
                return results

        sim, env = make_env(1)
        env.register_everywhere(ParamProbe())
        sim.run(until=2.0)
        env.daemon.command("run params n=42 tol=0.5 verbose=true tag=x")
        assert captured["n"] == 42
        assert captured["tol"] == 0.5
        assert captured["verbose"] is True
        assert captured["tag"] == "x"

    def test_bad_commands(self):
        sim, env = make_env(1)
        with pytest.raises(CommandError):
            env.daemon.command("")
        with pytest.raises(CommandError):
            env.daemon.command("dance")
        with pytest.raises(CommandError):
            env.daemon.command("run")
        with pytest.raises(CommandError):
            env.daemon.command("run echo n")

    def test_exit_shuts_down(self):
        sim, env = make_env(1)
        env.daemon.command("exit")
        assert env.daemon.exited
        with pytest.raises(CommandError):
            env.daemon.command("stat")


class TestLoadBalancer:
    def rec(self, name, hz, load=0.0):
        return PeerRecord(name=name, cluster="c0", cpu_hz=hz,
                          background_load=load, joined_at=0, last_ping=0)

    def test_weights_proportional_to_speed(self):
        lb = LoadBalancer()
        w = lb.weights([self.rec("a", 2e9), self.rec("b", 1e9)])
        assert w[0] == pytest.approx(2 * w[1])

    def test_load_discounts_speed(self):
        lb = LoadBalancer()
        w = lb.weights([self.rec("a", 1e9), self.rec("b", 1e9, load=1.0)])
        assert w[0] == pytest.approx(2 * w[1])

    def test_floor_prevents_starvation(self):
        lb = LoadBalancer(min_speed_ratio=0.1)
        w = lb.weights([self.rec("a", 1e9), self.rec("b", 1e3)])
        assert w[1] >= 0.1 * w[0]

    def test_assignment_weighted(self):
        lb = LoadBalancer()
        a = lb.assignment(12, [self.rec("a", 2e9), self.rec("b", 1e9)])
        assert a.load(0) == 8 and a.load(1) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LoadBalancer().weights([])

    def test_min_speed_ratio_validated(self):
        for ratio in (0.0, 1.5):
            with pytest.raises(ValueError, match="min_speed_ratio"):
                LoadBalancer(min_speed_ratio=ratio)

    def test_order_peers_keeps_the_given_order(self):
        records = [self.rec("slow", 1e8), self.rec("fast", 3e9),
                   self.rec("mid", 1e9)]
        assert LoadBalancer().order_peers(records) == ["slow", "fast", "mid"]


class TestMigrationPlanner:
    def test_no_migration_when_balanced(self):
        planner = MigrationPlanner()
        a = BlockAssignment.balanced(12, 3)
        assert planner.plan(a, [1.0, 1.0, 1.0]) is None

    def test_migrates_from_slow_to_fast_neighbor(self):
        planner = MigrationPlanner()
        a = BlockAssignment.balanced(12, 3)
        step = planner.plan(a, [1.0, 0.2, 1.0])  # middle node is slow
        assert step is not None
        assert step.src == 1 and step.dst in (0, 2)

    def test_apply_preserves_tiling(self):
        planner = MigrationPlanner()
        a = BlockAssignment.balanced(12, 3)
        step = planner.plan(a, [1.0, 0.2, 1.0])
        b = MigrationPlanner.apply(a, step)
        covered = [p for r in b.ranges for p in r]
        assert covered == list(range(12))
        assert b.load(step.src) == a.load(step.src) - step.n_planes

    def test_cannot_strand_a_node(self):
        planner = MigrationPlanner(max_step=5)
        a = BlockAssignment(3, (range(0, 1), range(1, 2), range(2, 3)))
        assert planner.plan(a, [1.0, 0.01, 1.0]) is None

    def test_apply_rejects_non_neighbors(self):
        a = BlockAssignment.balanced(12, 3)
        with pytest.raises(ValueError):
            MigrationPlanner.apply(a, MigrationStep(src=0, dst=2, n_planes=1))

    def test_apply_sheds_from_the_back_towards_the_right(self):
        a = BlockAssignment.balanced(12, 3)
        b = MigrationPlanner.apply(a, MigrationStep(src=1, dst=2, n_planes=2))
        assert [(r.start, r.stop) for r in b.ranges] == [(0, 4), (4, 6),
                                                         (6, 12)]

    def test_apply_refuses_to_empty_the_source(self):
        a = BlockAssignment.balanced(6, 3)
        with pytest.raises(ValueError, match="no planes"):
            MigrationPlanner.apply(a, MigrationStep(src=1, dst=0, n_planes=2))

    def test_single_node_never_migrates(self):
        planner = MigrationPlanner()
        a = BlockAssignment.balanced(5, 1)
        assert planner.plan(a, [1.0]) is None

    def test_rate_length_checked(self):
        planner = MigrationPlanner()
        a = BlockAssignment.balanced(6, 2)
        with pytest.raises(ValueError):
            planner.plan(a, [1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            MigrationPlanner(imbalance_threshold=0.9)
        with pytest.raises(ValueError):
            MigrationPlanner(max_step=0)
