"""Topology manager: join, ping, eviction, collection."""

import pytest

from repro.core.env_bus import EnvBus
from repro.core.topology_manager import (
    MISSED_PINGS_LIMIT,
    PING_PERIOD,
    PeerRecord,
    TopologyClient,
    TopologyServer,
)
from repro.simnet import Simulator, nicta_testbed


def make_deployment(n=4, clusters=2):
    sim = Simulator()
    net = nicta_testbed(sim, n, n_clusters=clusters)
    buses = {name: EnvBus(sim, net, name) for name in net.nodes}
    server = TopologyServer(sim, buses["peer00"])
    clients = {
        name: TopologyClient(sim, buses[name], "peer00")
        for name in net.nodes
    }
    return sim, net, server, clients


class TestJoin:
    def test_all_peers_join_and_ack(self):
        sim, net, server, clients = make_deployment()
        for c in clients.values():
            c.join()
        sim.run(until=2.0)
        assert len(server.peers) == 4
        assert all(c.joined for c in clients.values())

    def test_join_records_characteristics(self):
        sim, net, server, clients = make_deployment()
        net.nodes["peer01"].background_load = 0.5
        clients["peer01"].join()
        sim.run(until=2.0)
        rec = server.peers["peer01"]
        assert rec.cpu_hz == 1e9
        assert rec.background_load == 0.5
        assert rec.effective_speed() == pytest.approx(1e9 / 1.5)

    def test_leave_removes_peer(self):
        sim, net, server, clients = make_deployment()
        clients["peer01"].join()
        sim.run(until=2.0)
        clients["peer01"].leave()
        sim.run(until=4.0)
        assert "peer01" not in server.peers


class TestEviction:
    def test_dead_peer_evicted_after_three_missed_pings(self):
        sim, net, server, clients = make_deployment()
        for c in clients.values():
            c.join()
        sim.run(until=2.0)
        assert server.alive("peer03")
        net.nodes["peer03"].fail()  # stops pinging and receiving
        sim.run(until=2.0 + (MISSED_PINGS_LIMIT + 2) * PING_PERIOD)
        assert not server.alive("peer03")
        assert server.stats_evictions == 1

    def test_live_peers_not_evicted(self):
        sim, net, server, clients = make_deployment()
        for c in clients.values():
            c.join()
        sim.run(until=20 * PING_PERIOD)
        assert len(server.peers) == 4
        assert server.stats_evictions == 0

    def test_eviction_hook_fires(self):
        sim, net, server, clients = make_deployment()
        evicted = []
        server.on_eviction(evicted.append)
        for c in clients.values():
            c.join()
        sim.run(until=2.0)
        net.nodes["peer02"].fail()
        sim.run(until=10.0)
        assert evicted == ["peer02"]


class TestCollection:
    def joined(self):
        sim, net, server, clients = make_deployment()
        for c in clients.values():
            c.join()
        sim.run(until=2.0)
        return sim, server

    def test_collect_prefers_submitting_node_first(self):
        sim, server = self.joined()
        chosen = server.collect(3)
        assert chosen[0] == "peer00"
        assert len(chosen) == 3

    def test_collect_marks_busy_and_release_frees(self):
        sim, server = self.joined()
        chosen = server.collect(4)
        with pytest.raises(RuntimeError):
            server.collect(1)  # all busy
        server.release(chosen)
        assert len(server.collect(4)) == 4

    def test_collect_groups_clusters_contiguously(self):
        sim, server = self.joined()
        chosen = server.collect(4)
        clusters = [server.peers[n].cluster for n in chosen]
        # Once a cluster changes it must not change back: contiguous.
        changes = sum(1 for a, b in zip(clusters, clusters[1:]) if a != b)
        assert changes == 1

    def test_collect_too_many(self):
        sim, server = self.joined()
        with pytest.raises(RuntimeError):
            server.collect(5)

    def test_records_lookup(self):
        sim, server = self.joined()
        recs = server.records(["peer01", "peer02"])
        assert [r.name for r in recs] == ["peer01", "peer02"]


class TestPeerRecord:
    """``effective_speed`` is the per-peer work-share estimate
    (``volatile_peers.py`` sizes its planes from it)."""

    def rec(self, hz, load=0.0):
        return PeerRecord(name="p", cluster="c0", cpu_hz=hz,
                          background_load=load, joined_at=0, last_ping=0)

    def test_proportional_to_clock_rate(self):
        assert self.rec(2e9).effective_speed() == pytest.approx(
            2 * self.rec(1e9).effective_speed())

    def test_background_load_discounts_speed(self):
        assert self.rec(1e9, load=1.0).effective_speed() == pytest.approx(
            0.5 * self.rec(1e9).effective_speed())

    def test_records_follow_the_requested_order(self):
        sim, net, server, clients = make_deployment()
        for c in clients.values():
            c.join()
        sim.run(until=2.0)
        names = ["peer03", "peer00", "peer02"]
        assert [r.name for r in server.records(names)] == names


class TestEnvBus:
    def test_kind_routing(self):
        sim = Simulator()
        net = nicta_testbed(sim, 2)
        bus_a = EnvBus(sim, net, "peer00")
        bus_b = EnvBus(sim, net, "peer01")
        got = []
        bus_b.register("HELLO", lambda src, body: got.append((src, body["x"])))
        bus_a.send("peer01", {"kind": "HELLO", "x": 42})
        sim.run(until=5.0)
        assert got == [("peer00", 42)]

    def test_local_send_short_circuits(self):
        sim = Simulator()
        net = nicta_testbed(sim, 1)
        bus = EnvBus(sim, net, "peer00")
        got = []
        bus.register("LOOP", lambda src, body: got.append(body))
        bus.send("peer00", {"kind": "LOOP"})
        assert got  # delivered synchronously, no network events needed

    def test_unhandled_counted(self):
        sim = Simulator()
        net = nicta_testbed(sim, 1)
        bus = EnvBus(sim, net, "peer00")
        bus.send("peer00", {"kind": "NOBODY"})
        assert bus.stats_unhandled == 1

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net = nicta_testbed(sim, 1)
        bus = EnvBus(sim, net, "peer00")
        bus.register("K", lambda s, b: None)
        with pytest.raises(ValueError):
            bus.register("K", lambda s, b: None)
        bus.unregister("K")
        bus.register("K", lambda s, b: None)  # fine after unregister
