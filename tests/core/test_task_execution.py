"""Task executor: rank-addressed sessions, env messaging, edge cases."""

import pytest

from repro.core import Application, P2PDC, ProblemDefinition
from repro.core.task_execution import TaskExecutor
from repro.p2psap import SessionState
from repro.p2psap.context import Scheme
from repro.simnet import Interrupt, Simulator, nicta_testbed


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


def held_sequence_numbers(link):
    """Sequence numbers a control link keeps, over every peer."""
    held = 0
    for value in vars(link).values():
        for part in value.values() if isinstance(value, dict) else (value,):
            if isinstance(part, set):
                held += len(part)
    return held


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

    def test_closed_sessions_are_forgotten(self):
        """A deployment that runs task after task holds the sessions that
        are open, not every session it ever opened: once the linger after
        the last task has passed, no protocol instance keeps a CLOSED one."""
        SessionProbe.observations = {}
        sim, env = make_env(2)
        env.register_everywhere(SessionProbe())
        opened = 0
        for _ in range(4):
            env.run_to_completion("probe", n_peers=2, timeout=sim.now + 500)
            opened += sum(len(ex.protocol.sessions)
                          for ex in env.executors.values())
        assert opened >= 4  # each task opened a session, seen at both ends
        sim.run(until=sim.now + TaskExecutor.LINGER + 1.0)
        held = [session for ex in env.executors.values()
                for session in ex.protocol.sessions.values()]
        assert [s for s in held if s.state is SessionState.CLOSED] == []

    def test_control_links_hold_what_is_in_flight(self):
        """The reliable links under P2PSAP's control channel and the
        environment bus keep per peer what is unacknowledged or held out
        of order, not a number per message ever exchanged."""
        SessionProbe.observations = {}
        sim, env = make_env(2)
        env.register_everywhere(SessionProbe())
        links = {name: (ex.protocol.control, env.buses[name].link)
                 for name, ex in env.executors.items()}
        for _ in range(20):
            env.run_to_completion("probe", n_peers=2, timeout=sim.now + 500)
        sim.run(until=sim.now + 5.0)  # let the last ACKs land
        for name, ends in links.items():
            assert sum(map(held_sequence_numbers, ends)) == 0, name

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


class CompletionProbe(Application):
    """Checks that P2P_Send/P2P_Receive hand back the very event the
    session completes (no relay event in between)."""

    name = "completion-probe"
    observations: dict = {}

    def __init__(self, scheme):
        self.scheme = scheme

    def problem_definition(self, params):
        return ProblemDefinition(subtasks=[0, 1], scheme=self.scheme, n_peers=2)

    def calculate(self, ctx):
        obs = CompletionProbe.observations.setdefault(ctx.rank, {})
        other = 1 - ctx.rank
        sock = yield ctx.connect(other)
        obs["mode"] = ctx.session_mode(other).value
        seen = []
        bus = sock.session.channel.transport.bus
        if ctx.rank == 0:
            bus.bind("UserSend", seen.append, order=0)
            outer = ctx.p2p_send(other, "plane")
            obs["same"] = [seen[0].meta["completion"] is outer]
            obs["got"] = yield outer
            return None
        bus.bind("UserReceive", seen.append, order=0)
        obs["same"], got = [], None
        while got is None:  # an asynchronous receive may come back empty
            outer = ctx.p2p_receive(other)
            obs["same"].append(seen[-1] is outer)
            got = yield outer
            if got is None:
                yield ctx.node.busy(0.01)
        obs["got"] = got
        return None

    def results_aggregation(self, results):
        return results


class TestCompletionRule:
    @pytest.mark.parametrize("scheme", ["synchronous", "asynchronous"])
    def test_ops_return_the_event_the_session_completes(self, scheme):
        CompletionProbe.observations = {}
        sim, env = make_env(2)
        env.register_everywhere(CompletionProbe(scheme))
        env.run_to_completion("completion-probe", timeout=500)
        sender, receiver = (CompletionProbe.observations[r] for r in (0, 1))
        assert sender["mode"] == receiver["mode"] == scheme
        assert sender["same"] == [True]
        assert receiver["same"] and all(receiver["same"])
        assert receiver["got"] == "plane"
        # A synchronous send completes on the APPACK (its message id),
        # an asynchronous one at once.
        assert sender["got"] is not None

    @staticmethod
    def linked(scheme=Scheme.SYNCHRONOUS):
        """Two executors with a task's rank mapping but no task, and the
        session between them (peer00 initiates)."""
        sim, env = make_env(2)
        ex0, ex1 = env.executor("peer00"), env.executor("peer01")
        names = ["peer00", "peer01"]
        for rank, ex in enumerate((ex0, ex1)):
            ex._rank, ex._peer_names, ex._scheme = rank, names, scheme
        ex0.ensure_session(1)
        sim.run(until=1.0)
        return sim, ex0, ex1

    @staticmethod
    def replace_session(sim, ex0, until):
        """peer00 re-initiates, as a restarted peer does: peer01's
        accept pump adopts the new session and re-issues its ops."""
        old = ex0._sockets.pop(1)
        ex0._force_initiate = True
        ex0.ensure_session(1)
        sim.run(until=until)
        return old, ex0._sockets[1]

    def test_reissued_receive_completes_once(self):
        sim, ex0, ex1 = self.linked()
        resumes = []

        def reader():
            resumes.append((yield ex1.receive_from_rank(0)))

        sim.spawn(reader())
        sim.run(until=1.5)
        assert len(ex1._pending_ops[0]) == 1
        dead = ex1._sockets[0].session.channel
        old, new = self.replace_session(sim, ex0, until=2.0)
        assert ex1._pending_ops[0][0].sock is ex1._sockets[0]  # re-issued
        new.send("fresh")
        sim.run(until=3.0)
        assert resumes == ["fresh"]
        assert ex1._pending_ops == {}
        # A late delivery on the dead session finds the request already
        # fired: it is buffered there, raises nothing, resumes nothing.
        old.send("late")
        sim.run(until=4.0)
        assert resumes == ["fresh"] and dead.pending_rx() == 1
        assert ex1._pending_ops == {}

    def test_reissued_send_completes_once(self):
        sim, ex0, ex1 = self.linked()
        completions = []

        def writer():
            completions.append((yield ex1.send_to_rank(0, "plane")))

        sim.spawn(writer())
        sim.run(until=1.5)
        assert len(ex1._pending_ops[0]) == 1  # synchronous: awaits APPACK
        dead = ex1._sockets[0].session.channel.transport.micro("mode-sync")
        old, new = self.replace_session(sim, ex0, until=2.0)
        assert ex1._pending_ops[0][0].sock is ex1._sockets[0]  # re-issued
        got = []
        sim.spawn((lambda: (got.append((yield new.recv()))))())
        sim.run(until=3.0)
        assert got == ["plane"] and len(completions) == 1
        assert ex1._pending_ops == {}
        # The first copy's APPACK, from the dead session, comes too late
        # to matter.
        sim.spawn((lambda: (got.append((yield old.recv()))))())
        sim.run(until=4.0)
        assert got == ["plane", "plane"] and len(completions) == 1
        assert dead._pending_appack == {} and dead.stats_appacks_rx == 0

    def test_late_completion_after_a_crash_resumes_nothing(self):
        sim, ex0, ex1 = self.linked()
        seen = []

        def calc():
            try:
                yield ex1.send_to_rank(0, "plane")
                seen.append("completed")
            except Interrupt as intr:
                seen.append(intr.cause)

        ex1._calc_proc = sim.spawn(calc())
        ex1._current_task = ("peer00", {})
        sim.run(until=1.5)
        sock = ex1._sockets[0]
        assert ex1.crash_current_task()
        sim.run(until=2.0)
        assert seen == ["crash"] and ex1._pending_ops == {}
        # The survivor reads the message now; its APPACK completes the
        # dead incarnation's send on the dropped session.
        peer_sock = ex0._sockets[1]
        sim.spawn((lambda: (yield peer_sock.recv()))())
        sim.run(until=3.0)
        assert seen == ["crash"] and ex1._pending_ops == {}
        assert sock.session.channel.transport.micro("mode-sync").stats_appacks_rx == 1
