"""Fragmentation micro-protocol: MTU splitting and reassembly."""

import numpy as np
import pytest

from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.microprotocols.fragmentation import Fragmentation, _split_payload
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network


def make_pair(mtu=256, loss=0.0):
    sim = Simulator()
    net = Network(sim, intra_netem=Netem(delay=0.001, loss=loss))
    a, b = net.add_node("a"), net.add_node("b")
    cfg = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=True,
                        ordered=True, congestion="newreno")
    cha = DataChannel(sim, net, a, "b", 4, cfg)
    chb = DataChannel(sim, net, b, "a", 4, cfg)
    for ch in (cha, chb):
        ch.transport.add_micro(Fragmentation(mtu=mtu))
    return sim, cha, chb


class TestSplitting:
    def test_bytes_split_sizes(self):
        chunks = _split_payload(bytes(1000), 256)
        assert [len(c) for c in chunks] == [256, 256, 256, 232]

    def test_numpy_split_is_view(self):
        arr = np.arange(100.0)
        chunks = _split_payload(arr, 80)  # 10 doubles per chunk
        assert all(np.shares_memory(c, arr) for c in chunks)
        assert sum(c.size for c in chunks) == 100

    def test_unsupported_payload(self):
        with pytest.raises(TypeError):
            _split_payload({"a": 1}, 64)

    def test_mtu_validation(self):
        with pytest.raises(ValueError):
            Fragmentation(mtu=8)


class TestEndToEnd:
    def test_large_array_reassembled(self):
        sim, cha, chb = make_pair(mtu=256)
        plane = np.arange(32.0 * 32).reshape(32, 32)  # 8 KiB >> MTU

        def sender():
            yield cha.user_send(plane)

        sim.spawn(sender())
        sim.run(until=30)
        ok, payload = chb.user_receive_nowait()
        assert ok
        np.testing.assert_array_equal(payload, plane)
        frag_a = cha.transport.micro("fragmentation")
        frag_b = chb.transport.micro("fragmentation")
        assert frag_a.stats_fragmented == 1
        assert frag_b.stats_reassembled == 1

    def test_small_messages_pass_untouched(self):
        sim, cha, chb = make_pair(mtu=4096)

        def sender():
            yield cha.user_send(b"tiny")

        sim.spawn(sender())
        sim.run(until=30)
        ok, payload = chb.user_receive_nowait()
        assert ok and payload == b"tiny"
        assert cha.transport.micro("fragmentation").stats_fragmented == 0

    def test_reassembly_under_loss_with_reliability(self):
        sim, cha, chb = make_pair(mtu=128, loss=0.2)
        blob = bytes(range(256)) * 8  # 2 KiB -> 16 fragments

        def sender():
            yield cha.user_send(blob)

        sim.spawn(sender())
        sim.run(until=120)
        ok, payload = chb.user_receive_nowait()
        assert ok and payload == blob

    def test_interleaved_large_messages(self):
        sim, cha, chb = make_pair(mtu=200)
        blobs = [bytes([i]) * 1000 for i in range(3)]

        def sender():
            for b in blobs:
                yield cha.user_send(b)

        sim.spawn(sender())
        sim.run(until=60)
        got = []
        while True:
            ok, payload = chb.user_receive_nowait()
            if not ok:
                break
            got.append(payload)
        assert sorted(got) == sorted(blobs)

    def test_removal_restores_plain_channel(self):
        sim, cha, chb = make_pair(mtu=128)
        cha.transport.remove_micro("fragmentation")
        chb.transport.remove_micro("fragmentation")
        big = bytes(1000)

        def sender():
            yield cha.user_send(big)

        sim.spawn(sender())
        sim.run(until=30)
        ok, payload = chb.user_receive_nowait()
        assert ok and payload == big  # sent whole, no MTU enforcement


def test_fragment_group_ids_do_not_depend_on_earlier_streams():
    """Group ids are numbered per fragmentation instance: a stream's
    ``frag`` headers are the same whatever ran before it in the process."""

    def frag_headers():
        sim, cha, chb = make_pair(mtu=256)
        headers = []
        cha.transport.bus.bind(
            "TxSegment",
            lambda msg: headers.append(msg.meta.get("frag", {}).get("group")),
            order=99)

        def sender():
            for k in range(3):
                yield cha.user_send(np.full(100, float(k)))

        sim.spawn(sender())
        sim.run(until=30)
        assert chb.pending_rx() == 3
        return headers

    first = frag_headers()
    assert len(first) == 12 and set(first) == {0, 1, 2}
    assert frag_headers() == first
