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
from repro.p2psap.control_channel import ReliableControlLink
from repro.simnet import Channel, Simulator, nicta_testbed
from repro.simnet.network import Netem, Network


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

    def test_late_acks_to_a_closed_control_port_are_not_kept(self, deployment):
        """``P2PSAP.close()`` sends its CLOSEs, then stops listening on
        the control port, so their ACKs land on a port with no receiver:
        the node drops and counts them rather than keeping them for the
        rest of the simulation."""
        sim, net, protos = deployment
        proto = protos["peer00"]

        def scenario():
            listeners = {r: protos[r].socket() for r in ("peer01", "peer02")}
            accepts = {r: listeners[r].accept() for r in listeners}
            for remote in ("peer01", "peer02"):
                yield proto.socket().connect(remote)
            for remote in ("peer01", "peer02"):
                yield accepts[remote]
            proto.close()
            yield sim.timeout(5.0)

        run_scenario(sim, scenario())
        node = net.nodes["peer00"]
        queued = [chan for table in vars(node).values() if isinstance(table, dict)
                  for chan in table.values() if isinstance(chan, Channel)]
        assert sum(len(chan) for chan in queued) == 0
        assert node.stats_unclaimed == 2  # the ACKs of the two CLOSEs

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
        reliability (in-sequence delivery included) iff the cell is reliable, and
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
            expected.add("reliability")
        if cell.congestion != "none":
            expected.add(f"cc-{cell.congestion}")
        for sock in run_scenario(sim, scenario()):
            transport = sock.session.channel.transport
            assert set(transport._micros) == expected

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

    def test_lossy_reordering_link_dispatches_each_message_once(self):
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01, jitter=0.008, loss=0.3,
                                             duplicate=0.2, reorder=0.2))
        a, b = net.add_node("a"), net.add_node("b")
        got = {"a": [], "b": []}
        la = ReliableControlLink(sim, net, a, lambda s, m: got["a"].append(m["i"]))
        lb = ReliableControlLink(sim, net, b, lambda s, m: got["b"].append(m["i"]))

        def chatter():
            for i in range(60):
                la.send("b", {"i": i})
                if i % 3 == 0:
                    lb.send("a", {"i": i})
                yield sim.timeout(0.003)

        sim.spawn(chatter())
        sim.run(until=300)
        assert sorted(got["b"]) == list(range(60))
        assert sorted(got["a"]) == list(range(0, 60, 3))
        assert got["b"] != list(range(60))  # the link did reorder
        assert la.stats_retries > 0
        # Everything was acknowledged: neither end keeps a number.
        for link in (la, lb):
            assert not any(link._unacked.values())
            assert not any(link._rx_above.values())

    def test_messages_are_numbered_per_destination(self):
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01))
        a, b, c = (net.add_node(name) for name in "abc")
        got = []
        la = ReliableControlLink(sim, net, a, lambda s, m: None)
        for node in (b, c):
            ReliableControlLink(sim, net, node,
                                lambda s, m, n=node.name: got.append((n, m["i"])))
        numbers = {"b": [], "c": []}
        for dst in numbers:
            net.link("a", dst).add_delivery_hook(
                lambda pkt, d=dst: numbers[d].append(pkt.payload["seq"]))
        for i, dst in enumerate("bcb"):
            la.send(dst, {"i": i})
        sim.run(until=5)
        assert numbers == {"b": [0, 1], "c": [0]}
        assert sorted(got) == [("b", 0), ("b", 2), ("c", 1)]

    def test_close_gives_up_unacknowledged_messages(self):
        """A message sent before close() goes out once; close() stops its
        retransmissions and the sender forgets it."""
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01))
        a, b = net.add_node("a"), net.add_node("b")
        la = ReliableControlLink(sim, net, a, lambda s, m: None)
        b.fail()
        la.send("b", {"x": 1})
        la.close()
        sim.run(until=60)
        assert net.link("a", "b").stats_sent == 1
        assert la.stats_retries == 0 and not la._unacked["b"]

    def test_ack_reaching_a_link_that_never_sent_is_ignored(self):
        """A link that takes over a port also receives the ACKs of what
        the previous holder sent; they acknowledge nothing of its own."""
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        old = ReliableControlLink(sim, net, a, lambda s, m: None)
        ReliableControlLink(sim, net, b, lambda s, m: got.append(m))
        old.send("b", {"x": 1})
        new = ReliableControlLink(sim, net, a, lambda s, m: None)
        sim.run(until=5)
        assert got == [{"x": 1}]
        assert new._unacked == {} and new.stats_tx == 0

    def test_watermark_moves_past_an_abandoned_message(self):
        """A message the sender gave up on leaves no gap at the receiver:
        later frames carry the sender's lowest unacknowledged number."""
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        la = ReliableControlLink(sim, net, a, lambda s, m: None)
        lb = ReliableControlLink(sim, net, b, lambda s, m: got.append(m["i"]))
        la.MAX_TRIES = 2
        b.fail()
        la.send("b", {"i": 0})
        sim.run(until=10)
        assert not la._unacked["b"]  # given up
        b.recover()
        la.send("b", {"i": 1})
        la.send("b", {"i": 2})
        sim.run(until=20)
        assert got == [1, 2]
        assert lb._rx_low == {"a": 3} and not lb._rx_above["a"]


class TestControlLinkRetries:
    """The control link's retransmission schedule, run from timer
    callbacks: no process per message."""

    RTO = ReliableControlLink.RTO

    def pair(self):
        sim = Simulator()
        net = Network(sim, intra_netem=Netem(delay=0.01))
        a, b = net.add_node("a"), net.add_node("b")
        got = []
        la = ReliableControlLink(sim, net, a, lambda s, m: None)
        ReliableControlLink(sim, net, b, lambda s, m: got.append(m))
        return sim, net, la, got

    def test_a_lost_message_is_retried_with_backoff_until_acknowledged(self):
        sim, net, la, got = self.pair()
        link = net.link("a", "b")
        sent, transmit = [], link.transmit

        def lose_three(packet):
            sent.append(sim.now)
            if len(sent) > 3:
                transmit(packet)

        link.transmit = lose_three
        la.send("b", {"x": 1})
        sim.run(until=60)
        expected = [0.0]
        for attempt in range(3):
            expected.append(expected[-1] + self.RTO * 1.5 ** attempt)
        assert sent == expected
        assert got == [{"x": 1}]
        assert la.stats_retries == 3 and not la._unacked["b"]

    def test_messages_in_flight_to_one_peer_share_its_timer(self):
        """Each message keeps its own backoff schedule while they share
        the destination's one timer: a later message's shorter deadline
        takes the timer over, and the earlier message's retry still goes
        out at its own time."""
        sim, net, la, got = self.pair()
        link = net.link("a", "b")
        sent, transmit = {0: [], 1: []}, link.transmit
        losses = {0: 4, 1: 1}  # first transmissions lost, per message

        def lossy(packet):
            seq = packet.payload["seq"]
            sent[seq].append(sim.now)
            if len(sent[seq]) > losses[seq]:
                transmit(packet)

        link.transmit = lossy
        la.send("b", {"i": 0})

        def later():
            yield sim.timeout(1.0)
            la.send("b", {"i": 1})

        sim.spawn(later())
        sim.run()

        def schedule(start, tries):
            times = [start]
            for attempt in range(tries - 1):
                times.append(times[-1] + self.RTO * 1.5 ** min(attempt, 8))
            return times

        assert sent == {0: schedule(0.0, 5), 1: schedule(1.0, 2)}
        assert sorted(m["i"] for m in got) == [0, 1]
        assert la.stats_retries == 5 and not la._unacked["b"]
        assert la._armed["b"] is None and not sim._queue

    def test_backoff_is_capped_and_the_sender_gives_up_after_max_tries(self):
        sim, net, la, got = self.pair()
        net.nodes["b"].fail()
        la.send("b", {"x": 1})
        sim.run()  # drains at the last attempt's timeout
        tries = ReliableControlLink.MAX_TRIES
        assert net.link("a", "b").stats_sent == tries
        assert la.stats_retries == tries - 1 and not la._unacked["b"]
        waited = 0.0
        for attempt in range(tries):
            waited += self.RTO * 1.5 ** min(attempt, 8)
        assert sim.now == pytest.approx(waited)

    def test_close_stops_retries_in_progress(self):
        sim, net, la, got = self.pair()
        net.nodes["b"].fail()
        la.send("b", {"x": 1})
        sim.run(until=1.0)  # attempts at 0 and RTO
        la.close()
        sim.run(until=60)
        assert net.link("a", "b").stats_sent == 2
        assert la.stats_retries == 1 and not la._unacked["b"]

    def test_a_send_spawns_no_process(self):
        sim, net, la, got = self.pair()
        la.send("b", {"x": 1})
        assert sim._n_live_processes == 0
        sim.run()
        # The first attempt, its arrival and the ACK's arrival: no
        # process boot or end, and the ACK took the armed RTO timer off
        # the queue (it would have found the message acknowledged).
        assert got == [{"x": 1}] and sim.events_processed == 3
        assert la._armed["b"] is None and not sim._queue
