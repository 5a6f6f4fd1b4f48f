"""P2PDC environment: programming model and task flow."""

import pytest

from repro.core import Application, P2PDC, ProblemDefinition
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

    def test_run_keeps_cluster_contiguity(self):
        """Collected peers keep clusters contiguous along the chain (a
        WAN hop mid-chain costs more than a slow middle peer)."""
        sim, env = make_env(4, clusters=2)
        env.register_everywhere(EchoApp())
        run = env.run_to_completion("echo", n_peers=4, timeout=200)
        assert [r["rank"] for r in run.output] == [0, 1, 2, 3]
        clusters = [env.network.nodes[p].cluster for p in run.peer_names]
        assert clusters == sorted(clusters)
        assert len(set(clusters)) == 2

    def test_shutdown_stops_every_background_process(self):
        """``shutdown`` (the paper's ``exit``) ends the ping loops, so
        the event queue drains; a second call is a no-op."""
        sim, env = make_env(2)
        sim.run(until=2.0)
        env.shutdown()
        env.shutdown()
        sim.run()  # raises DeadlockError if a process outlived shutdown
        assert sim.now == 2.0

    def test_run_past_its_timeout_raises(self):
        sim, env = make_env(2)
        env.register_everywhere(EchoApp())
        with pytest.raises(TimeoutError, match="did not complete within"):
            env.run_to_completion("echo", n_peers=2, timeout=0.01)

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


class ParamProbe(Application):
    """Records the params its problem definition sees; one sub-task per
    requested peer."""

    name = "params"

    def __init__(self):
        self.seen = []

    def problem_definition(self, params):
        self.seen.append(params)
        n = int(params.get("n_peers", 1))
        return ProblemDefinition(subtasks=list(range(n)),
                                 scheme=params.get("scheme", "hybrid"))

    def calculate(self, ctx):
        yield ctx.node.compute(1)
        return ctx.rank

    def results_aggregation(self, results):
        return results


class TestRunOverrides:
    """``run``'s ``n_peers=``/``scheme=`` overrides (the paper's run
    command "overridden at start time in command line")."""

    def test_params_reach_the_definition_unchanged(self):
        probe = ParamProbe()
        sim, env = make_env(1)
        env.register_everywhere(probe)
        params = {"n": 42, "tol": 0.5, "verbose": True, "tag": "x"}
        run = env.run_to_completion("params", params=params, timeout=100)
        assert probe.seen == [params]
        assert run.params == params

    def test_overrides_are_merged_without_touching_the_callers_params(self):
        probe = ParamProbe()
        sim, env = make_env(3)
        env.register_everywhere(probe)
        params = {"n": 42}
        run = env.run_to_completion("params", params=params, n_peers=3,
                                    scheme="SYNCHRONOUS", timeout=200)
        assert probe.seen == [{"n": 42, "n_peers": 3,
                               "scheme": "synchronous"}]
        assert params == {"n": 42}
        assert run.output == [0, 1, 2]
        assert run.definition.scheme is Scheme.SYNCHRONOUS

    def test_overrides_win_over_params(self):
        probe = ParamProbe()
        sim, env = make_env(2)
        env.register_everywhere(probe)
        run = env.run_to_completion(
            "params", params={"n_peers": 1, "scheme": "asynchronous"},
            n_peers=2, scheme=Scheme.HYBRID, timeout=200)
        assert run.n_peers == 2
        assert run.definition.scheme is Scheme.HYBRID

    def test_unknown_scheme_override_rejected_before_collecting_peers(self):
        sim, env = make_env(2)
        env.register_everywhere(ParamProbe())
        sim.run(until=2.0)
        with pytest.raises(ValueError, match="unknown scheme 'dance'"):
            env.run("params", scheme="dance")
        assert all(not r.busy for r in env.topology.peers.values())

    def test_peers_registered_before_submission(self):
        """Before any run, every peer has joined and is free, and every
        registered application can be looked up."""
        sim, env = make_env(2)
        env.register_everywhere(EchoApp())
        sim.run(until=2.0)
        assert sorted(env.topology.peers) == sorted(env.network.nodes)
        assert all(not r.busy for r in env.topology.peers.values())
        assert env.application("echo").name == "echo"
        with pytest.raises(LookupError, match="known: \\['echo'\\]"):
            env.application("stat")
