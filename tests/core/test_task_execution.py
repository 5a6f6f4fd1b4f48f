"""Task executor: rank-addressed sessions, env messaging, edge cases."""

import pytest

from repro.core import Application, P2PDC, ProblemDefinition
from repro.simnet import Simulator, nicta_testbed


class SessionProbe(Application):
    """Captures executor internals during calculate()."""

    name = "probe"
    observations: dict = {}

    def problem_definition(self, params):
        n = int(params.get("n_peers", 2))
        return ProblemDefinition(
            subtasks=list(range(n)), scheme="asynchronous", n_peers=n
        )

    def calculate(self, ctx):
        obs = SessionProbe.observations.setdefault(ctx.rank, {})
        obs["n_workers"] = ctx.n_workers
        obs["peer_names"] = list(ctx.peer_names)
        obs["params"] = dict(ctx.params)
        if ctx.rank == 0 and ctx.n_workers > 1:
            sock = yield ctx.connect(1)
            obs["mode"] = ctx.session_mode(1).value
            obs["bandwidth"] = ctx.link_bandwidth(1)
            yield ctx.p2p_send(1, "direct")
        if ctx.rank == 1:
            # Lazy receive without explicit connect: the session is
            # matched by the accept pump.
            msg = None
            for _ in range(200):
                yield ctx.node.busy(0.01)
                ok, msg = ctx.p2p_receive_nowait(0)
                if ok:
                    break
            obs["got"] = msg
        yield ctx.node.compute(1e3)
        return ctx.rank

    def results_aggregation(self, results):
        return results


class EnvMessagingApp(Application):
    name = "envmsg"

    def problem_definition(self, params):
        return ProblemDefinition(
            subtasks=[0, 1, 2], scheme="asynchronous", n_peers=3
        )

    def calculate(self, ctx):
        if ctx.rank != 0:
            ctx.env_send(0, ("hello", ctx.rank))
            yield ctx.node.compute(1e3)
            return None
        got = []
        while len(got) < 2:
            item = yield ctx.env_inbox.get()
            got.append(item)
        return sorted(got)

    def results_aggregation(self, results):
        return results[0]


def make_env(n=2):
    sim = Simulator()
    net = nicta_testbed(sim, n)
    env = P2PDC(sim, net)
    return sim, env


class TestSessionManagement:
    def test_lazy_sessions_and_context_surface(self):
        SessionProbe.observations = {}
        sim, env = make_env(2)
        env.register_everywhere(SessionProbe())
        run = env.run_to_completion("probe", n_peers=2, timeout=500)
        obs0, obs1 = SessionProbe.observations[0], SessionProbe.observations[1]
        assert obs0["n_workers"] == 2
        assert obs0["mode"] == "asynchronous"
        assert obs0["bandwidth"] == pytest.approx(100e6)
        assert obs1["got"] == "direct"
        assert run.output == [0, 1]

    def test_rank_out_of_range(self):
        class BadRank(Application):
            name = "badrank"

            def problem_definition(self, params):
                return ProblemDefinition(subtasks=[0], scheme="asynchronous")

            def calculate(self, ctx):
                yield ctx.node.compute(1)
                ctx.p2p_send(5, "x")

            def results_aggregation(self, results):
                return results

        sim, env = make_env(1)
        env.register_everywhere(BadRank())
        with pytest.raises(RuntimeError, match="IndexError"):
            env.run_to_completion("badrank", timeout=100)

    def test_self_session_rejected(self):
        class SelfTalk(Application):
            name = "selftalk"

            def problem_definition(self, params):
                return ProblemDefinition(subtasks=[0], scheme="asynchronous")

            def calculate(self, ctx):
                yield ctx.node.compute(1)
                ctx.connect(0)

            def results_aggregation(self, results):
                return results

        sim, env = make_env(1)
        env.register_everywhere(SelfTalk())
        with pytest.raises(RuntimeError, match="ValueError"):
            env.run_to_completion("selftalk", timeout=100)

    def test_receive_nowait_without_session(self):
        class NoSession(Application):
            name = "nosession"

            def problem_definition(self, params):
                return ProblemDefinition(
                    subtasks=[0, 1], scheme="asynchronous", n_peers=2
                )

            def calculate(self, ctx):
                yield ctx.node.compute(1)
                return ctx.p2p_receive_nowait(1 - ctx.rank)

            def results_aggregation(self, results):
                return results

        sim, env = make_env(2)
        env.register_everywhere(NoSession())
        run = env.run_to_completion("nosession", timeout=200)
        assert run.output[0] == (False, None)


class TestEnvMessaging:
    def test_app_level_coordination(self):
        sim, env = make_env(3)
        env.register_everywhere(EnvMessagingApp())
        run = env.run_to_completion("envmsg", timeout=500)
        assert run.output == [(1, ("hello", 1)), (2, ("hello", 2))]

    def test_inbox_cleared_between_tasks(self):
        """Stale coordination from a previous run must not leak."""
        sim, env = make_env(3)
        env.register_everywhere(EnvMessagingApp())
        r1 = env.run_to_completion("envmsg", timeout=500)
        r2 = env.run_to_completion("envmsg", timeout=1000)
        assert r1.output == r2.output
