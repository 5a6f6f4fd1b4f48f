"""The physical-layer composite protocol: framing, host cost, close."""


import pytest

from repro.cactus.composite import CompositeProtocol, ProtocolStack
from repro.cactus.messages import Message
from repro.p2psap.physical import ETHERNET, PhysicalProtocol, PhysicalSpec
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network


def make_link(delay=0.001, spec=ETHERNET):
    sim = Simulator()
    net = Network(sim, intra_netem=Netem(delay=delay))
    a, b = net.add_node("a"), net.add_node("b")
    phy_a = PhysicalProtocol(sim, net, a, "b", 7, spec)
    phy_b = PhysicalProtocol(sim, net, b, "a", 7, spec)
    # Minimal transport layer above each physical to observe deliveries.
    top_a = CompositeProtocol(sim, "top-a")
    top_b = CompositeProtocol(sim, "top-b")
    ProtocolStack([top_a, phy_a])
    ProtocolStack([top_b, phy_b])
    return sim, net, (top_a, phy_a), (top_b, phy_b)


class TestSpecs:
    def test_ethernet_is_the_testbed_fabric(self):
        assert ETHERNET.name == "ethernet"
        assert ETHERNET.header_bytes == 18
        assert ETHERNET.per_message_cost == pytest.approx(10e-6)

    def test_spec_is_frozen(self):
        with pytest.raises(AttributeError):
            ETHERNET.header_bytes = 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhysicalSpec(name="bad", header_bytes=-1)
        with pytest.raises(ValueError):
            PhysicalSpec(name="bad", per_message_cost=-1)

    @pytest.mark.parametrize("cost", [0.0, float("nan")])
    def test_a_host_cost_is_required(self, cost):
        """Every packet is served by an event at the end of its host
        cost, so a fabric without one is not a spec."""
        with pytest.raises(ValueError, match="per_message_cost"):
            PhysicalSpec(name="free", per_message_cost=cost)


class TestFraming:
    def test_message_crosses_wire_with_headers(self):
        sim, net, (top_a, phy_a), (top_b, phy_b) = make_link()
        got = []
        top_b.bus.bind("FromBelow", lambda m: got.append(m))
        msg = Message(b"payload-bytes")
        msg.push_header("transport", seq=3)
        top_a.send_down(msg)
        sim.run(until=1.0)
        assert len(got) == 1
        received = got[0]
        assert received.payload == b"payload-bytes"
        assert received.pop_header("transport") == {"seq": 3}

    def test_header_snapshot_isolated_between_endpoints(self):
        """Receiver-side header mutation must not alias the sender's."""
        sim, net, (top_a, _), (top_b, _) = make_link()
        got = []
        top_b.bus.bind("FromBelow", lambda m: got.append(m))
        msg = Message(None)
        msg.push_header("transport", seq=1)
        top_a.send_down(msg)
        sim.run(until=1.0)
        got[0].pop_header("transport")
        assert msg.headers == [("transport", {"seq": 1})]  # untouched

    def test_frame_overhead_counted_on_wire(self):
        sim, net, (top_a, phy_a), _ = make_link()
        link = net.link("a", "b")
        msg = Message(bytes(100))
        top_a.send_down(msg)
        sim.run(until=1.0)
        assert link.stats_bytes == 100 + ETHERNET.header_bytes

    def test_per_message_host_cost_delays_delivery(self):
        sim, net, (top_a, _), (top_b, _) = make_link(delay=0.0)
        times = []
        top_b.bus.bind("FromBelow", lambda m: times.append(sim.now))
        top_a.send_down(Message(b""))
        sim.run(until=1.0)
        # Ethernet spec charges 10 us of host processing on receive.
        assert times[0] >= ETHERNET.per_message_cost

    def test_closed_physical_drops_traffic(self):
        sim, net, (top_a, phy_a), (top_b, phy_b) = make_link()
        got = []
        top_b.bus.bind("FromBelow", lambda m: got.append(m))
        phy_b.close()
        top_a.send_down(Message(b"x"))
        sim.run(until=1.0)
        assert got == []
        phy_b.close()  # idempotent

    def test_stats(self):
        sim, net, (top_a, phy_a), (top_b, phy_b) = make_link()
        top_b.bus.bind("FromBelow", lambda m: None)
        for _ in range(3):
            top_a.send_down(Message(b"z"))
        sim.run(until=1.0)
        assert phy_a.stats_tx_frames == 3
        assert phy_b.stats_rx_frames == 3

    def test_back_to_back_frames_queue_for_the_host(self):
        """The receive side is a FIFO server: a frame that lands while
        another is in service waits for it, and order is kept."""
        sim, net, (top_a, _), (top_b, _) = make_link(delay=0.0)
        got = []
        top_b.bus.bind("FromBelow", lambda m: got.append((sim.now, m.payload)))
        for i in range(3):
            top_a.send_down(Message(i))
        sim.run(until=1.0)
        assert [payload for _, payload in got] == [0, 1, 2]
        times = [t for t, _ in got]
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= ETHERNET.per_message_cost * (1 - 1e-9)

    def test_close_hands_the_port_back(self):
        """Once closed, an endpoint no longer takes the port's traffic;
        a new endpoint on the same port does."""
        sim, net, (top_a, _), (_, phy_b) = make_link()
        phy_b.close()
        fresh = PhysicalProtocol(sim, net, net.nodes["b"], "a", 7, ETHERNET)
        top = CompositeProtocol(sim, "top-fresh")
        ProtocolStack([top, fresh])
        got = []
        top.bus.bind("FromBelow", lambda m: got.append(m.payload))
        top_a.send_down(Message(b"after-close"))
        sim.run(until=1.0)
        assert got == [b"after-close"]
        assert phy_b.stats_rx_frames == 0


class TestHeldLink:
    """An endpoint looks its link up on the first transmit and holds it."""

    def test_the_held_link_is_the_networks_made_on_first_use(self):
        sim, net, (top_a, phy_a), _ = make_link()
        assert phy_a._link is None and list(net.iter_links()) == []
        top_a.send_down(Message(b"x"))
        assert phy_a._link is net.link("a", "b")
        top_a.send_down(Message(b"y"))
        sim.run(until=1.0)
        assert list(net.iter_links()) == [phy_a._link]
        assert phy_a._link.stats_sent == 2

    def test_a_reconfigure_mid_stream_is_seen_through_it(self):
        sim, net, (top_a, _), (top_b, _) = make_link(delay=0.001)
        got = []
        top_b.bus.bind("FromBelow", lambda m: got.append(sim.now))
        top_a.send_down(Message(b""))
        sim.run(until=1.0)
        net.link("a", "b").reconfigure(netem=Netem(delay=0.25))
        top_a.send_down(Message(b""))
        sim.run(until=2.0)
        first, second = (t - sent for t, sent in zip(got, (0.0, 1.0)))
        assert second - first == pytest.approx(0.249)

    def test_a_lossy_link_drops_what_the_networks_own_lookup_drops(self):
        """The held link draws the same RNG stream as a link looked up
        per packet (``Network.send``): same packets lost."""
        def survivors(through_endpoint):
            sim = Simulator()
            net = Network(sim, seed=3, intra_netem=Netem(delay=0.001,
                                                         loss=0.3))
            a, b = net.add_node("a"), net.add_node("b")
            got = []
            if through_endpoint:
                phy_a = PhysicalProtocol(sim, net, a, "b", 7, ETHERNET)
                phy_b = PhysicalProtocol(sim, net, b, "a", 7, ETHERNET)
                top_a, top_b = (CompositeProtocol(sim, f"top-{n}")
                                for n in "ab")
                ProtocolStack([top_a, phy_a])
                ProtocolStack([top_b, phy_b])
                top_b.bus.bind("FromBelow", lambda m: got.append(m.payload))
                for i in range(40):
                    top_a.send_down(Message(i))
            else:
                b.attach(7, lambda pkt: got.append(pkt.payload[1]))
                for i in range(40):
                    net.send("a", "b", ((), i), 8, port=7)
            sim.run(until=1.0)
            return got

        kept = survivors(True)
        assert 0 < len(kept) < 40
        assert kept == survivors(False)
