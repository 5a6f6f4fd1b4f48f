"""Tests for the testbed builders."""

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.topology import (
    NICTA_SPEC,
    TestbedSpec,
    heterogeneous_testbed,
    nicta_testbed,
    split_clusters,
)


class TestSplitClusters:
    def test_single_cluster(self):
        assert split_clusters(4, 1) == [0, 0, 0, 0]

    def test_even_split(self):
        assert split_clusters(4, 2) == [0, 0, 1, 1]

    def test_uneven_split_front_loads(self):
        assert split_clusters(5, 2) == [0, 0, 0, 1, 1]

    def test_contiguity(self):
        for n in range(1, 30):
            for c in range(1, n + 1):
                a = split_clusters(n, c)
                # contiguous: non-decreasing
                assert a == sorted(a)
                assert len(set(a)) == c

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_clusters(2, 3)
        with pytest.raises(ValueError):
            split_clusters(2, 0)


class TestNictaTestbed:
    def test_paper_spec_defaults(self):
        assert NICTA_SPEC.n_machines == 38
        assert NICTA_SPEC.cpu_hz == 1e9
        assert NICTA_SPEC.ethernet_bps == 100e6
        assert NICTA_SPEC.wan_delay == pytest.approx(0.1)

    def test_builds_requested_peers(self):
        sim = Simulator()
        net = nicta_testbed(sim, 24, n_clusters=2)
        assert len(net.nodes) == 24
        groups = net.clusters()
        assert len(groups) == 2
        assert [len(v) for v in groups.values()] == [12, 12]

    def test_cannot_exceed_38_machines(self):
        with pytest.raises(ValueError):
            nicta_testbed(Simulator(), 39)

    def test_wan_latency_on_inter_cluster_path(self):
        sim = Simulator()
        net = nicta_testbed(sim, 4, n_clusters=2)
        names = list(net.nodes)
        assert net.link(names[0], names[1]).netem.delay == pytest.approx(0.0001)
        assert net.link(names[1], names[2]).netem.delay == pytest.approx(0.1)

    def test_cluster_count_validation(self):
        with pytest.raises(ValueError):
            nicta_testbed(Simulator(), 4, n_clusters=0)
        with pytest.raises(ValueError):
            nicta_testbed(Simulator(), 4, n_clusters=5)

    def test_zero_peers_rejected(self):
        with pytest.raises(ValueError):
            nicta_testbed(Simulator(), 0)

    def test_custom_spec_flows_through(self):
        spec = TestbedSpec(wan_delay=0.25)
        net = nicta_testbed(Simulator(), 4, n_clusters=2, spec=spec)
        names = list(net.nodes)
        assert names[0] == "peer00"
        assert net.link(names[0], names[-1]).netem.delay == pytest.approx(0.25)


class TestHeterogeneousTestbed:
    def test_speeds_applied(self):
        sim = Simulator()
        net = heterogeneous_testbed(sim, [1e9, 2e9, 0.5e9])
        speeds = [n.cpu_hz for n in net.nodes.values()]
        assert speeds == [1e9, 2e9, 0.5e9]

    def test_background_loads(self):
        sim = Simulator()
        net = heterogeneous_testbed(sim, [1e9, 1e9], background_loads=[0.0, 1.5])
        loads = [n.background_load for n in net.nodes.values()]
        assert loads == [0.0, 1.5]

    def test_load_length_mismatch(self):
        with pytest.raises(ValueError):
            heterogeneous_testbed(Simulator(), [1e9], background_loads=[0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_testbed(Simulator(), [])
