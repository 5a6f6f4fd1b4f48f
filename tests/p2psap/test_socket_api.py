"""Socket API + control channel: sessions, options, adaptation at open."""

import pytest

from repro.p2psap import (
    TABLE_I,
    CommMode,
    ConnectionKind,
    P2PSAP,
    Scheme,
    SessionState,
    SocketError,
)
from repro.simnet import Simulator, nicta_testbed


@pytest.fixture
def deployment():
    sim = Simulator()
    net = nicta_testbed(sim, 4, n_clusters=2)  # 00,01 | 02,03
    protos = {n: P2PSAP(sim, net, n) for n in net.nodes}
    return sim, net, protos


def run_scenario(sim, gen, until=30.0):
    p = sim.spawn(gen)
    sim.run(until=until)
    assert not p.is_alive, "scenario did not finish"
    return p.value


class TestSessionLifecycle:
    def test_connect_accept_roundtrip(self, deployment):
        sim, net, protos = deployment
        received = []

        def server_proc():
            listener = protos["peer01"].socket()
            server = yield listener.accept()
            msg = yield server.recv()
            received.append((msg, server.remote))

        def scenario():
            client = protos["peer00"].socket(scheme="synchronous")
            yield client.connect("peer01")
            # Synchronous send: completes only once the server consumed it,
            # so the server must run concurrently.
            yield client.send("ping")
            return client.getsockopt("state")

        sim.spawn(server_proc())
        state = run_scenario(sim, scenario())
        (msg, remote), = received
        assert msg == "ping"
        assert state is SessionState.ESTABLISHED
        assert remote == "peer00"

    def test_connect_unknown_peer_rejected(self, deployment):
        sim, net, protos = deployment
        sock = protos["peer00"].socket()
        with pytest.raises(SocketError):
            sock.connect("nonexistent")

    def test_connect_to_self_rejected(self, deployment):
        sim, net, protos = deployment
        sock = protos["peer00"].socket()
        with pytest.raises(SocketError):
            sock.connect("peer00")

    def test_double_connect_rejected(self, deployment):
        sim, net, protos = deployment

        def scenario():
            sock = protos["peer00"].socket()
            yield sock.connect("peer01")
            with pytest.raises(SocketError):
                sock.connect("peer02")
            return True

        assert run_scenario(sim, scenario())

    def test_close_propagates_to_peer(self, deployment):
        sim, net, protos = deployment

        def scenario():
            client = protos["peer00"].socket()
            listener = protos["peer01"].socket()
            accept_ev = listener.accept()
            yield client.connect("peer01")
            server = yield accept_ev
            client.close()
            yield sim.timeout(2.0)
            return (client.getsockopt("state"), server.getsockopt("state"))

        c_state, s_state = run_scenario(sim, scenario())
        assert c_state is SessionState.CLOSED
        assert s_state is SessionState.CLOSED

    def test_protocol_close_closes_every_session_on_both_ends(self, deployment):
        sim, net, protos = deployment
        proto = protos["peer00"]
        sent = []
        real_send = proto.control.send

        def spy(dst, body):
            sent.append((dst, body["kind"], body["session_id"]))
            real_send(dst, body)

        def scenario():
            listeners = {r: protos[r].socket() for r in ("peer01", "peer02")}
            accepts = {r: listeners[r].accept() for r in listeners}
            clients = []
            for remote in ("peer01", "peer02"):
                client = proto.socket()
                yield client.connect(remote)
                clients.append(client)
            servers = []
            for remote in ("peer01", "peer02"):
                servers.append((yield accepts[remote]))
            proto.control.send = spy
            proto.close()
            proto.close()  # idempotent: sends nothing more
            yield sim.timeout(2.0)
            return clients, servers

        clients, servers = run_scenario(sim, scenario())
        assert sorted(sent) == sorted(
            (c.remote, "CLOSE", c.session.session_id) for c in clients
        )
        assert len(sent) == 2 and not proto.sessions
        for sock in clients + servers:
            assert sock.getsockopt("state") is SessionState.CLOSED
            assert sock.session.channel.closed

    @pytest.mark.parametrize("closer", ["initiator", "responder"])
    def test_closed_session_leaves_both_session_tables(self, deployment, closer):
        """A closed session is forgotten at both ends, whichever end
        closes it, so a long-lived peer holds only open sessions."""
        sim, net, protos = deployment

        def scenario():
            listener = protos["peer01"].socket()
            accept_ev = listener.accept()
            client = protos["peer00"].socket()
            yield client.connect("peer01")
            server = yield accept_ev
            sid = client.session.session_id
            assert sid in protos["peer00"].sessions
            assert sid in protos["peer01"].sessions
            (client if closer == "initiator" else server).close()
            yield sim.timeout(2.0)
            return client, server

        client, server = run_scenario(sim, scenario())
        assert protos["peer00"].sessions == {}
        assert protos["peer01"].sessions == {}
        assert client.session.channel.closed and server.session.channel.closed

    def test_send_before_connect_rejected(self, deployment):
        _, _, protos = deployment
        with pytest.raises(SocketError):
            protos["peer00"].socket().send("x")


class TestAdaptationAtOpen:
    @pytest.mark.parametrize(
        "scheme,remote,mode,reliable,cc",
        [
            ("synchronous", "peer01", CommMode.SYNCHRONOUS, True, "newreno"),
            ("synchronous", "peer02", CommMode.SYNCHRONOUS, True, "htcp"),
            ("asynchronous", "peer01", CommMode.ASYNCHRONOUS, True, "newreno"),
            ("asynchronous", "peer02", CommMode.ASYNCHRONOUS, False, "none"),
            ("hybrid", "peer01", CommMode.SYNCHRONOUS, True, "newreno"),
            ("hybrid", "peer02", CommMode.ASYNCHRONOUS, False, "none"),
        ],
    )
    def test_table1_cell_applied_to_live_session(
        self, deployment, scheme, remote, mode, reliable, cc
    ):
        sim, net, protos = deployment

        def scenario():
            sock = protos["peer00"].socket(scheme=scheme)
            yield sock.connect(remote)
            return sock.getsockopt("config")

        config = run_scenario(sim, scenario())
        assert config.mode is mode
        assert config.reliable is reliable
        assert config.congestion == cc

    @pytest.mark.parametrize("scheme", ["synchronous", "asynchronous", "hybrid"])
    @pytest.mark.parametrize("remote", ["peer01", "peer02"])
    def test_both_ends_stack_the_micro_protocols_of_their_cell(
        self, deployment, scheme, remote
    ):
        """The data channel realizes the cell: the mode micro-protocol,
        reliability and ordering together iff the cell is reliable, and
        its congestion controller, at both ends of the session."""
        sim, net, protos = deployment

        def scenario():
            listener = protos[remote].socket()
            accept_ev = listener.accept()
            sock = protos["peer00"].socket(scheme=scheme)
            yield sock.connect(remote)
            server = yield accept_ev
            return sock, server

        kind = (ConnectionKind.INTRA_CLUSTER if remote == "peer01"
                else ConnectionKind.INTER_CLUSTER)
        cell = TABLE_I[(Scheme.parse(scheme), kind)]
        mode = "mode-sync" if cell.mode is CommMode.SYNCHRONOUS else "mode-async"
        expected = {"buffers", mode}
        if cell.reliable:
            expected |= {"reliability", "ordering"}
        if cell.congestion != "none":
            expected.add(f"cc-{cell.congestion}")
        for sock in run_scenario(sim, scenario()):
            transport = sock.session.channel.transport
            assert {m.name for m in transport.micros()} == expected

    def test_responder_mirrors_initiator_config(self, deployment):
        sim, net, protos = deployment

        def scenario():
            listener = protos["peer02"].socket()
            accept_ev = listener.accept()
            sock = protos["peer00"].socket(scheme="asynchronous")
            yield sock.connect("peer02")
            server = yield accept_ev
            return (sock.getsockopt("config"), server.getsockopt("config"))

        c1, c2 = run_scenario(sim, scenario())
        assert c1 == c2


class TestConfigFixedAtOpen:
    """A session's config is decided once, when it opens."""

    @staticmethod
    def _connected_pair(sim, protos):
        def scenario():
            listener = protos["peer02"].socket()
            accept_ev = listener.accept()
            client = protos["peer00"].socket(scheme="synchronous")
            yield client.connect("peer02")
            server = yield accept_ev
            return client, server

        return run_scenario(sim, scenario())

    @pytest.mark.parametrize("end", ["initiator", "responder"])
    def test_scheme_change_on_a_connected_socket_is_refused(self, deployment, end):
        sim, net, protos = deployment
        client, server = self._connected_pair(sim, protos)
        sock = client if end == "initiator" else server
        before = sock.getsockopt("config")
        with pytest.raises(SocketError, match="fixed when the session opens"):
            sock.setsockopt("scheme", "asynchronous")
        sim.run(until=sim.now + 5.0)
        assert sock.getsockopt("config") == before
        assert sock.getsockopt("scheme") is Scheme.SYNCHRONOUS
        assert client.getsockopt("config") == server.getsockopt("config")

    def test_preset_before_connect_decides_the_config(self, deployment):
        sim, net, protos = deployment

        def scenario():
            sock = protos["peer00"].socket()
            sock.setsockopt("scheme", "asynchronous")
            yield sock.connect("peer02")
            return sock.getsockopt("config")

        assert run_scenario(sim, scenario()) == TABLE_I[
            (Scheme.ASYNCHRONOUS, ConnectionKind.INTER_CLUSTER)
        ]

    def test_socket_scheme_argument_decides_the_config(self, deployment):
        sim, net, protos = deployment

        def scenario():
            sock = protos["peer00"].socket(scheme=Scheme.SYNCHRONOUS)
            assert sock.getsockopt("scheme") is Scheme.SYNCHRONOUS
            yield sock.connect("peer02")
            return sock.getsockopt("config")

        assert run_scenario(sim, scenario()) == TABLE_I[
            (Scheme.SYNCHRONOUS, ConnectionKind.INTER_CLUSTER)
        ]

    def test_a_new_session_sees_the_new_topology(self, deployment):
        """Moving a peer across clusters changes the cell the *next*
        session to it gets; the open one keeps its config."""
        sim, net, protos = deployment

        def scenario():
            first = protos["peer00"].socket(scheme="hybrid")
            yield first.connect("peer01")
            net.nodes["peer01"].cluster = "cluster1"
            second = protos["peer00"].socket(scheme="hybrid")
            yield second.connect("peer01")
            return first.getsockopt("config"), second.getsockopt("config")

        first, second = run_scenario(sim, scenario())
        assert first == TABLE_I[(Scheme.HYBRID, ConnectionKind.INTRA_CLUSTER)]
        assert second == TABLE_I[(Scheme.HYBRID, ConnectionKind.INTER_CLUSTER)]

    def test_reconfig_control_message_is_unknown(self, deployment):
        _, _, protos = deployment
        with pytest.raises(SocketError, match="unknown control message kind"):
            protos["peer00"]._on_control("peer01", {"kind": "RECONFIG"})


class TestSocketOptions:
    def test_unknown_option(self, deployment):
        _, _, protos = deployment
        sock = protos["peer00"].socket()
        with pytest.raises(SocketError):
            sock.setsockopt("bogus", 1)
        with pytest.raises(SocketError):
            sock.getsockopt("bogus")

    def test_scheme_option_roundtrip(self, deployment):
        _, _, protos = deployment
        sock = protos["peer00"].socket()
        sock.setsockopt("scheme", "asynchronous")
        assert sock.getsockopt("scheme") is Scheme.ASYNCHRONOUS

    def test_state_of_unconnected_socket(self, deployment):
        _, _, protos = deployment
        sock = protos["peer00"].socket()
        assert sock.getsockopt("state") is SessionState.CLOSED
        assert sock.getsockopt("config") is None

    def test_rx_capacity_is_not_an_option(self, deployment):
        _, _, protos = deployment
        sock = protos["peer00"].socket()
        with pytest.raises(SocketError, match="unknown socket option"):
            sock.setsockopt("rx_capacity", 8)
        with pytest.raises(SocketError, match="unknown socket option"):
            sock.getsockopt("rx_capacity")


class TestControlLink:
    def test_control_survives_loss(self):
        from repro.p2psap.control_channel import ReliableControlLink
        from repro.simnet.network import Netem, Network

        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01, loss=0.5))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        la = ReliableControlLink(sim, net, a, lambda s, m: None)
        lb = ReliableControlLink(sim, net, b, lambda s, m: got.append(m))
        for i in range(10):
            la.send("b", {"i": i})
        sim.run(until=120)
        assert sorted(m["i"] for m in got) == list(range(10))
        assert la.stats_retries > 0

    def test_control_dedups(self):
        from repro.p2psap.control_channel import ReliableControlLink
        from repro.simnet.network import Netem, Network

        sim = Simulator()
        # Duplicating network: every packet delivered twice.
        net = Network(sim, intra_netem=Netem(delay=0.01, duplicate=1.0))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        la = ReliableControlLink(sim, net, a, lambda s, m: None)
        lb = ReliableControlLink(sim, net, b, lambda s, m: got.append(m))
        la.send("b", {"x": 1})
        sim.run(until=30)
        assert got == [{"x": 1}]
