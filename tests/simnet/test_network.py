"""Unit tests for the simulated network layer."""

import math

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.network import (
    Netem,
    Network,
    NetworkError,
    NoRouteError,
    Packet,
)


def receive(node, port=0):
    """A test-local channel that takes ``node``'s packets on ``port``."""
    chan = node.sim.channel()
    node.attach(port, chan.put)
    return chan


def make_net(**kwargs):
    sim = Simulator()
    net = Network(sim, **kwargs)
    net.add_node("a", cluster="c0")
    net.add_node("b", cluster="c0")
    net.add_node("c", cluster="c1")
    return sim, net


class TestNetemValidation:
    def test_defaults_are_clean(self):
        ne = Netem()
        assert ne.delay == 0.0 and ne.loss == 0.0

    @pytest.mark.parametrize("field", ["loss", "duplicate", "reorder"])
    def test_probability_bounds(self, field):
        with pytest.raises(ValueError):
            Netem(**{field: 1.5})
        with pytest.raises(ValueError):
            Netem(**{field: -0.1})

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Netem(delay=-1.0)


class TestNodeCompute:
    def test_compute_charges_time(self):
        sim, net = make_net()
        node = net.nodes["a"]

        def work():
            yield node.compute(2e9)  # 2 Gflop at 1 GHz, 1 flop/cycle

        sim.spawn(work())
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_background_load_slows_compute(self):
        sim, net = make_net()
        node = net.nodes["a"]
        node.background_load = 1.0  # 2x slower

        def work():
            yield node.compute(1e9)

        sim.spawn(work())
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_negative_flops_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.nodes["a"].compute(-1)

    def test_stats_accumulate(self):
        sim, net = make_net()
        node = net.nodes["a"]

        def work():
            yield node.compute(1e9)
            yield node.compute(1e9)

        sim.spawn(work())
        sim.run()
        assert node.stats_flops == pytest.approx(2e9)
        assert node.stats_busy_time == pytest.approx(2.0)


class TestLinkTiming:
    def test_propagation_delay_only(self):
        sim, net = make_net(intra_netem=Netem(delay=0.05), intra_bandwidth_bps=math.inf)
        inbox = receive(net.nodes["b"])
        net.send("a", "b", "hello", size_bytes=1000)
        received = []

        def rx():
            pkt = yield inbox.get()
            received.append((sim.now, pkt.payload))

        sim.spawn(rx())
        sim.run()
        assert received == [(pytest.approx(0.05), "hello")]

    def test_serialization_delay(self):
        # 100 Mbit/s, 12500 bytes = 100000 bits -> 1 ms serialization
        sim, net = make_net(intra_netem=Netem(delay=0.0), intra_bandwidth_bps=100e6)
        inbox = receive(net.nodes["b"])
        net.send("a", "b", "x", size_bytes=12500)
        times = []

        def rx():
            yield inbox.get()
            times.append(sim.now)

        sim.spawn(rx())
        sim.run()
        assert times == [pytest.approx(0.001)]

    def test_fifo_serialization_queues_packets(self):
        sim, net = make_net(intra_netem=Netem(delay=0.0), intra_bandwidth_bps=100e6)
        inbox = receive(net.nodes["b"])
        # Two back-to-back packets of 1 ms each must arrive at 1 ms and 2 ms.
        net.send("a", "b", 1, size_bytes=12500)
        net.send("a", "b", 2, size_bytes=12500)
        times = []

        def rx():
            for _ in range(2):
                yield inbox.get()
                times.append(sim.now)

        sim.spawn(rx())
        sim.run()
        assert times == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_interleaved_sends_respect_transmitter_free_time(self):
        sim, net = make_net(intra_netem=Netem(delay=0.0), intra_bandwidth_bps=100e6)
        inbox = receive(net.nodes["b"])
        times = []

        def tx():
            net.send("a", "b", 1, size_bytes=12500)
            yield sim.timeout(0.0005)  # second send mid-transmission
            net.send("a", "b", 2, size_bytes=12500)

        def rx():
            for _ in range(2):
                yield inbox.get()
                times.append(sim.now)

        sim.spawn(tx())
        sim.spawn(rx())
        sim.run()
        assert times == [pytest.approx(0.001), pytest.approx(0.002)]

    def test_reconfigure_spares_packets_in_flight(self):
        """A qdisc change applies to packets sent after it; one already
        on the wire keeps the delay it was transmitted with."""
        sim, net = make_net(intra_netem=Netem(delay=0.1),
                            intra_bandwidth_bps=math.inf)
        inbox = receive(net.nodes["b"])
        net.send("a", "b", "before", size_bytes=100)
        net.link("a", "b").reconfigure(netem=Netem(delay=0.5))
        net.send("a", "b", "after", size_bytes=100)
        received = []

        def rx():
            for _ in range(2):
                pkt = yield inbox.get()
                received.append((sim.now, pkt.payload))

        sim.spawn(rx())
        sim.run()
        assert received == [(pytest.approx(0.1), "before"),
                            (pytest.approx(0.5), "after")]


class TestLoss:
    def test_total_loss_drops_everything(self):
        sim, net = make_net()
        inbox = receive(net.nodes["b"])
        link = net.add_link("a", "b", netem=Netem(loss=1.0))
        for i in range(10):
            link.transmit(Packet("a", "b", i, size_bytes=100))
        sim.run()
        assert link.stats_dropped == 10
        assert link.stats_delivered == 0
        assert len(inbox) == 0

    def test_loss_rate_statistics(self):
        sim, net = make_net()
        link = net.add_link("a", "b", netem=Netem(loss=0.3))
        n = 2000
        for i in range(n):
            link.transmit(Packet("a", "b", i, size_bytes=10))
        sim.run()
        rate = link.stats_dropped / n
        assert 0.25 < rate < 0.35

    def test_duplication_delivers_twice(self):
        sim, net = make_net()
        inbox = receive(net.nodes["b"])
        link = net.add_link("a", "b", netem=Netem(duplicate=1.0))
        link.transmit(Packet("a", "b", "dup", size_bytes=10))
        sim.run()
        assert len(inbox) == 2

    def test_dead_node_drops_deliveries(self):
        sim, net = make_net()
        inbox = receive(net.nodes["b"])
        net.nodes["b"].fail()
        net.send("a", "b", "lost", size_bytes=10)
        sim.run()
        assert len(inbox) == 0
        net.nodes["b"].recover()
        net.send("a", "b", "found", size_bytes=10)
        sim.run()
        assert len(inbox) == 1


class TestPortsWithoutReceiver:
    def test_packet_is_dropped_and_counted_on_the_node(self):
        sim, net = make_net()
        net.send("a", "b", "nobody", size_bytes=10, port=5)
        sim.run()
        link = net.link("a", "b")
        assert net.nodes["b"].stats_unclaimed == 1
        # The link delivered it: the packet reached the node.
        assert (link.stats_delivered, link.stats_dropped) == (1, 0)

    def test_a_detached_port_keeps_nothing(self):
        sim, net = make_net()
        b = net.nodes["b"]
        inbox = receive(b, port=3)
        net.send("a", "b", "before", size_bytes=10, port=3)
        sim.run()
        b.detach(3, inbox.put)
        net.send("a", "b", "after", size_bytes=10, port=3)
        sim.run()
        assert inbox.get_nowait()[1].payload == "before" and len(inbox) == 0
        assert b.stats_unclaimed == 1


class TestClusters:
    def test_same_cluster_detection(self):
        _, net = make_net()
        assert net.same_cluster("a", "b")
        assert not net.same_cluster("a", "c")

    def test_cluster_grouping(self):
        _, net = make_net()
        groups = net.clusters()
        assert sorted(groups) == ["c0", "c1"]
        assert [n.name for n in groups["c0"]] == ["a", "b"]

    def test_inter_cluster_links_get_wan_netem(self):
        sim, net = make_net(
            intra_netem=Netem(delay=0.0001), inter_netem=Netem(delay=0.1)
        )
        assert net.link("a", "b").netem.delay == pytest.approx(0.0001)
        assert net.link("a", "c").netem.delay == pytest.approx(0.1)

    def test_explicit_link_overrides_defaults(self):
        _, net = make_net()
        link = net.add_link("a", "c", bandwidth_bps=1e9, netem=Netem(delay=0.001))
        assert net.link("a", "c") is link
        assert link.bandwidth_bps == 1e9


class TestValidation:
    def test_duplicate_node_name(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.add_node("a")

    def test_unknown_node_route(self):
        _, net = make_net()
        with pytest.raises(NoRouteError):
            net.link("a", "zz")

    def test_unknown_source_node_route(self):
        _, net = make_net()
        with pytest.raises(NoRouteError, match="'zz'"):
            net.add_link("zz", "a")

    def test_non_positive_cpu_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError, match="cpu_hz"):
            net.add_node("d", cpu_hz=0.0)

    def test_negative_busy_time_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError, match="non-negative"):
            net.nodes["a"].busy(-1.0)

    def test_negative_bandwidth_rejected(self):
        _, net = make_net()
        with pytest.raises(ValueError, match="bandwidth"):
            net.add_link("a", "b", bandwidth_bps=-1.0)
        link = net.add_link("a", "b")
        with pytest.raises(ValueError, match="bandwidth"):
            link.reconfigure(bandwidth_bps=-1.0)

    def test_reconfigure_requires_a_netem(self):
        _, net = make_net()
        link = net.add_link("a", "b")
        with pytest.raises(TypeError, match="Netem"):
            link.reconfigure(netem={"delay": 0.1})

    def test_iter_links_lists_every_created_link(self):
        _, net = make_net()
        ab = net.add_link("a", "b")
        ca = net.link("c", "a")
        assert list(net.iter_links()) == [ab, ca]

    def test_loopback_rejected(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.add_link("a", "a")

    def test_negative_packet_size(self):
        with pytest.raises(ValueError):
            Packet("a", "b", None, size_bytes=-1)

    def test_ports_isolate_traffic(self):
        sim, net = make_net()
        inbox1 = receive(net.nodes["b"], port=1)
        inbox2 = receive(net.nodes["b"], port=2)
        net.send("a", "b", "data", size_bytes=10, port=1)
        net.send("a", "b", "ctrl", size_bytes=10, port=2)
        sim.run()
        assert inbox1.get_nowait()[1].payload == "data"
        assert inbox2.get_nowait()[1].payload == "ctrl"

    def test_determinism_across_runs(self):
        def run_once():
            sim, net = make_net()
            inbox = receive(net.nodes["b"])
            link = net.add_link("a", "b", netem=Netem(loss=0.5, jitter=0.01, delay=0.02))
            for i in range(100):
                link.transmit(Packet("a", "b", i, size_bytes=10))
            sim.run()
            got = []
            while True:
                ok, pkt = inbox.get_nowait()
                if not ok:
                    break
                got.append(pkt.payload)
            return got, link.stats_dropped

        assert run_once() == run_once()
