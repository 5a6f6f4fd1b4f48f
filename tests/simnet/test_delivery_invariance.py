"""Packet delivery is pinned, at the edges of the one-event-per-packet path.

A data-channel packet on a FIFO link is served by one DES event at the
time its receive service completes, and the link computes that time when
the packet is sent.  Whatever can change a packet's fate between its
send and its arrival -- the destination node failing, the endpoint
closing or losing its port to a new endpoint, a packet on the ordinary
path landing first -- has to put the packet back on that path.  These
cases drive exactly those edges, seeded, and compare a per-packet log
against digests recorded before the fold existed:

- raw frames between two :class:`PhysicalProtocol` endpoints: served
  time, port, payload id and outcome -- ``delivered:<endpoint>``,
  ``inbox`` (no receiver on the port: the node drops and counts it, and
  the test keeps it in a channel of its own), ``dropped-dead`` (never reached a
  live node: dead at arrival, or lost on the wire) or ``dropped-closed``
  (reached the node, but its endpoint closed before serving it) -- then
  the link and endpoint counters;
- two :class:`DataChannel` endpoints: every frame each transport layer
  received, with its time, the application's receive times, the
  retransmission count and the link counters -- also across a mid-stream
  mode swap and a receiving endpoint that closes mid-stream.

The six scenario smoke seeds (crashes, restarts, churn and degraded
links under a live solve) are pinned the same way: final iterate,
relaxations and simulated elapsed per epoch.

Re-recording
------------
Only a modelling change may move these logs.  Run::

    PYTHONPATH=src python tests/simnet/test_delivery_invariance.py

and paste the printed table over ``PINS``.  A perf change that needs to
re-record is wrong by construction.
"""

import hashlib

import numpy as np
import pytest

from repro.cactus.composite import CompositeProtocol, ProtocolStack
from repro.cactus.messages import Message
from repro.p2psap.context import ChannelConfig, CommMode
from repro.p2psap.data_channel import DataChannel
from repro.p2psap.physical import ETHERNET, PhysicalProtocol, PhysicalSpec
from repro.scenarios import generate_script, run_scenario
from repro.simnet.kernel import Simulator
from repro.simnet.network import Netem, Network

PORT = 7
N_FRAMES = 120
#: Inter-send gaps: below, near and far above the host cost, so backlogs
#: form and drain.
GAPS = (1e-6, 4e-6, 3e-5, 3e-4)
LAN = Netem(delay=1e-4)
#: Fabrics faster than the testbed's Ethernet: smaller host costs, other
#: framing, and (through ``RawPair``'s bandwidth) faster links.
INFINIBAND = PhysicalSpec("infiniband", header_bytes=30, per_message_cost=1e-6)
MYRINET = PhysicalSpec("myrinet", header_bytes=8, per_message_cost=2e-6)


# -- raw frames between two physical endpoints ---------------------------------


class RawPair:
    """Endpoint ``a`` streams numbered frames to endpoint(s) on ``b``."""

    def __init__(self, seed, spec=ETHERNET, netem=LAN, bandwidth=100e6):
        self.sim = sim = Simulator()
        self.net = Network(sim, intra_bandwidth_bps=bandwidth, intra_netem=netem)
        self.a, self.b = self.net.add_node("a"), self.net.add_node("b")
        self.spec = spec
        self.top_a = self._stack(PhysicalProtocol(sim, self.net, self.a, "b",
                                                  PORT, spec), "top-a")
        self.link = self.net.link("a", "b")
        self.log, self.hooked, self.ends = [], set(), []
        self.link.add_delivery_hook(lambda pkt: self.hooked.add(pkt.payload[1]))
        self.unclaimed = sim.channel()
        node_deliver = self.b.deliver

        def deliver(packet):
            # b drops a packet that finds no receiver on its port; keep
            # it for the log instead.
            dropped = self.b.stats_unclaimed
            node_deliver(packet)
            if self.b.stats_unclaimed != dropped:
                self.unclaimed.put(packet)

        self.b.deliver = deliver
        self.endpoint("first")
        gaps = np.random.default_rng(seed).choice(GAPS, size=N_FRAMES)
        self.gaps = [float(g) for g in gaps]
        self.send_at = [float(t) for t in np.cumsum(gaps)]

    def _stack(self, phys, name):
        top = CompositeProtocol(self.sim, name)
        ProtocolStack([top, phys])
        return top

    def endpoint(self, tag):
        """A (new) receiving endpoint on b's port -- a later one takes over."""
        phys = PhysicalProtocol(self.sim, self.net, self.b, "a", PORT, self.spec)
        top = self._stack(phys, "top-b-" + tag)
        top.bus.bind("FromBelow", lambda msg: self.log.append(
            (self.sim.now, PORT, msg.payload, "delivered:" + tag)))
        self.ends.append(phys)
        return phys

    def run(self, actions):
        sim = self.sim

        inline = {}  # offset None: right after sending frame k, same event

        def sender():
            for i, gap in enumerate(self.gaps):
                yield sim.timeout(gap)
                self.top_a.send_down(Message(i))
                for fn in inline.get(i, ()):
                    fn(self)

        def inbox():
            while True:
                pkt = yield self.unclaimed.get()
                self.log.append((sim.now, pkt.port, pkt.payload[1], "inbox"))

        def act(when, fn):
            yield sim.timeout(when)
            fn(self)

        for k, offset, fn in actions:
            if offset is None:
                inline.setdefault(k, []).append(fn)
            else:
                sim.spawn(act(self.send_at[k] + offset, fn))
        sim.spawn(inbox())
        sim.spawn(sender())
        sim.run(until=self.send_at[-1] + 0.05)
        seen = {entry[2] for entry in self.log}
        for i in range(N_FRAMES):
            if i not in seen:
                outcome = "dropped-closed" if i in self.hooked else "dropped-dead"
                self.log.append((None, PORT, i, outcome))
        self.log.append(("counters", self.link.stats_sent,
                         self.link.stats_delivered, self.link.stats_dropped,
                         tuple(p.stats_rx_frames for p in self.ends)))
        return self.log


def fail(pair):
    pair.b.fail()


def recover(pair):
    pair.b.recover()


def close_first(pair):
    pair.ends[0].close()


def take_over(pair):
    pair.endpoint("second")


def link_netem(**fields):
    return lambda pair: pair.link.reconfigure(netem=Netem(**fields))


RAW_CASES = {
    "fail-recover-s0": (dict(seed=0), [(30, 3e-5, fail), (60, 7e-5, recover)]),
    "fail-recover-s1": (dict(seed=1), [(25, 1.2e-4, fail), (26, 2e-6, recover),
                                       (70, 0.0, fail), (90, 5e-5, recover)]),
    "close-s0": (dict(seed=0), [(50, 5e-5, close_first)]),
    "close-s1": (dict(seed=1), [(50, 1.05e-4, close_first)]),
    "takeover-s0": (dict(seed=0), [(40, 5e-5, take_over), (40, 7e-5, close_first)]),
    "takeover-s1": (dict(seed=1), [(60, 1e-6, take_over), (75, 0.0, close_first)]),
    "link-s0": (dict(seed=0), [(20, 1e-5, link_netem(delay=3e-4)),
                               (50, 1e-5, link_netem(delay=5e-5)),
                               (70, 1e-5, link_netem(delay=1e-4, jitter=3e-5)),
                               (90, 1e-5, link_netem(delay=1e-4))]),
    "link-s1": (dict(seed=1), [(15, 0.0, link_netem(delay=1e-4, jitter=6e-5)),
                               (40, 0.0, link_netem(delay=1e-4)),
                               (60, 2e-5, link_netem(delay=2e-5)),
                               (80, 2e-5, link_netem(delay=2e-4))]),
    "reorder-dup-s0": (dict(seed=0), [(30, 0.0, link_netem(delay=1e-4, reorder=0.3)),
                                      (60, 0.0, link_netem(delay=1e-4, duplicate=0.3)),
                                      (80, 0.0, link_netem(delay=1e-4))]),
    "infiniband-s0": (dict(seed=0, spec=INFINIBAND, bandwidth=8e9),
                      [(40, 2e-5, fail), (70, 0.0, recover)]),
    "myrinet-s1": (dict(seed=1, spec=MYRINET, bandwidth=2e9),
                   [(40, 1e-5, take_over), (40, 1.5e-5, close_first)]),
    "instant-link-s0": (dict(seed=0, netem=Netem(), bandwidth=0.0),
                        [(30, 0.0, fail), (31, 0.0, recover), (60, 0.0, close_first)]),
    # Edges in the very instant a frame lands: its arrival is still ahead.
    "instant-inline-s0": (dict(seed=0, netem=Netem(), bandwidth=0.0),
                          [(30, None, fail), (31, None, recover),
                           (60, None, close_first)]),
    "instant-inline-s1": (dict(seed=1, netem=Netem(), bandwidth=0.0),
                          [(40, None, take_over), (41, None, close_first)]),
}


def raw_case(name):
    kwargs, actions = RAW_CASES[name]
    return RawPair(**kwargs).run(actions)


# -- two data-channel endpoints ------------------------------------------------

SYNC = ChannelConfig(mode=CommMode.SYNCHRONOUS, reliable=True)
ASYNC_RELIABLE = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=True)
ASYNC_UNRELIABLE = ChannelConfig(mode=CommMode.ASYNCHRONOUS, reliable=False,
                                 congestion="none")
N_MESSAGES = 150


def channel_case(config, netem=LAN, swaps=(), close_rx_after=None, horizon=5.0):
    """A one-way stream of ``N_MESSAGES`` ints; ``swaps`` maps a message
    index to the config both ends switch to just before sending it, and
    the receiving endpoint closes once it has taken ``close_rx_after``
    messages (frames still on the wire then land on a port nobody holds)."""
    sim = Simulator()
    net = Network(sim, intra_netem=netem)
    a, b = net.add_node("a"), net.add_node("b")
    cha = DataChannel(sim, net, a, "b", 9, config)
    chb = DataChannel(sim, net, b, "a", 9, config)
    frames, received = [], []
    appacks = {}

    def tap(ch):
        name = ch.local.name

        def on_frame(msg):
            fields = msg.headers[-1][1]
            kind = fields["kind"]
            if kind == "APPACK":  # message ids are process-global: count instead
                appacks[name] = ident = appacks.get(name, 0) + 1
            else:
                ident = fields["seq"]
            frames.append((sim.now, name, kind, fields["epoch"], ident))
        ch.transport.bus.bind("FromBelow", on_frame, order=-1)

    tap(cha)
    tap(chb)

    def receiver():
        while len(received) < N_MESSAGES:
            if len(received) == close_rx_after:
                chb.close()
                return
            msg = yield chb.user_receive()
            if msg is None:  # empty asynchronous receive
                yield sim.timeout(1e-4)
                continue
            received.append((sim.now, msg.payload))

    def sender():
        for i in range(N_MESSAGES):
            if i in swaps:
                cha.reconfigure(swaps[i])
                chb.reconfigure(swaps[i])
            yield cha.user_send(i)

    sim.spawn(receiver())
    sim.spawn(sender())
    sim.run(until=horizon)
    if not swaps and close_rx_after is None:  # else frames may be lost
        assert [p for _, p in received] == list(range(N_MESSAGES))
    rel = cha.transport.micro("reliability") \
        if cha.transport.has_micro("reliability") else None
    links = [net.link(*pair) for pair in (("a", "b"), ("b", "a"))]
    return [frames, received, rel.stats_retransmits if rel else None,
            [(lk.stats_sent, lk.stats_delivered, lk.stats_dropped) for lk in links]]


CHANNEL_CASES = {
    "channel-sync-ethernet": dict(config=SYNC),
    "channel-sync-loss2": dict(config=SYNC, netem=Netem(delay=1e-4, loss=0.02),
                               horizon=100.0),
    "channel-async-reliable": dict(config=ASYNC_RELIABLE),
    "channel-mode-swap": dict(config=SYNC, swaps={60: ASYNC_UNRELIABLE, 110: SYNC}),
    "channel-close-midstream": dict(config=ASYNC_RELIABLE, close_rx_after=75),
}

CASES = {**{name: (lambda name=name: raw_case(name)) for name in RAW_CASES},
         **{name: (lambda kw=kw: channel_case(**kw))
            for name, kw in CHANNEL_CASES.items()}}


def digest(log):
    entries = len(log[0]) if isinstance(log[0], list) else len(log)
    return entries, hashlib.sha256(repr(log).encode()).hexdigest()


#: case -> (entries, sha256(repr(log))), recorded before the fold existed;
#: ``channel-mode-swap`` and ``channel-close-midstream`` were recorded while
#: a channel could still swap its physical layer, and hold without it.
PINS = {
    'channel-async-reliable': (300, 'fb507d120d213eeddcacb1daa3a29c86396bb48f3492bcf805cb48844b4e4f96'),
    'channel-close-midstream': (156, '55b1eabbe0d56ffd2adbdde0a299fa32bf5d115dfcf0e79b62ccc27dde6e6d71'),
    'channel-mode-swap': (250, '576b851db36fe9327a35fd6683c4d96b3e0d64b9468e66c9a77c190b8244739b'),
    'channel-sync-ethernet': (300, '248e7c2fb992e5eeb5e0c34d29a9a952edab10f00f90beafb05f20d6ebb84a51'),
    'channel-sync-loss2': (302, '43dd8c5886b9ee032754b332a38d3274112f4835d89c550cfb9a5c8c4ec1ac90'),
    'close-s0': (121, '9959510301816cc91dfb58c6e503fbbeb855e70c8c9513ee065cab8593d438f6'),
    'close-s1': (121, '60144735d97525f5e997842d3abaaef7fb18b818ae6214ff309792dc91cac905'),
    'fail-recover-s0': (121, 'ebe09a4acfdb56a06cfffe51d1b513087241993b77b492d1586672a7fa32e719'),
    'fail-recover-s1': (121, '1f09e9115ff4ff527c6221b97bd675bf35445d79276934a4fd259665d5f08a63'),
    'infiniband-s0': (121, '65923b72e5aab61fa330cb1c20bda4833fc52d5933b6fbff5f76109cb897cac6'),
    'instant-inline-s0': (121, '0f490acc6e056f500f62f842075263eb443a60b77fc58a665d8da07b46b53ea1'),
    'instant-inline-s1': (121, '0e9b7c34c00253b3963e78e11e5521eeeb265d469082edd823252858e24d0cdc'),
    'instant-link-s0': (121, '0f490acc6e056f500f62f842075263eb443a60b77fc58a665d8da07b46b53ea1'),
    'link-s0': (121, '0507efe044805988d0df2bdf15d1e659fb2cacaea3184a1e58e69b2a0c431cd1'),
    'link-s1': (121, '56e6f123ab6d7ba9ac1e4b9ac2214a4d058e330f657775313972a3fdbb691265'),
    'myrinet-s1': (121, 'e3db7d4f88b3d2aef6f2092a5477cb2786804d4d9c554903bedef8e7c5a4067e'),
    'reorder-dup-s0': (124, '36e8c9d26b961c68c8915a0f0c00e9f32e75df2b1f91d6d9ad8c83b6cb026261'),
    'takeover-s0': (121, '771f4b523c9623a4a50a12031927b1a399fe825be194791208cb6f6e082af6da'),
    'takeover-s1': (121, '37e2e66561228979584720c599fa051fb4abefc084f1735245882c4481888191'),
}


#: Scenario smoke seed -> (sha256(final iterate), relaxations per epoch,
#: simulated elapsed per epoch): crashes, restarts and churn under load.
SCENARIOS = {
    0: ('32e0d00a0fda914e0174fc9656fbf18a5cffeed803be4e9bb2ec532e0742adc5', (6.0, 9.0), (2.9577465056297734, 1.1002322971428518)),
    1: ('c19bfcbbfdc8ee27607244c46f487951ab1c195d8a2c7e250e3eed56e48ca0cb', (12.333333333333334, 20.0), (1.0065866399999996, 2.1972364800000017)),
    2: ('65f8e727e68b8376b7a77062a79334b94d5cdaded330593fb0e7d14811ad40be', (38.333333333333336,), (6.1905736800000115,)),
    3: ('b2de83de5692820d66b26734ba44d67ee90c03e5649e8023e0feb91093c301e4', (14.0,), (5.273978277089748,)),
    4: ('fcafe1ffb981e3db101ee7f68a01c7ee41d368e43d56e9ced6579ba9b78a6852', (33.0,), (2.5809755999999995,)),
    5: ('7dd249c904b658e4aac3b344a202bfa27cba2d99e63902f6e73c89ea1dcb3187', (14.0, 19.5), (1.3521736799999995, 1.12844264000001)),
}


def scenario_facts(seed):
    result = run_scenario(generate_script(seed))
    u = np.ascontiguousarray(result.u)
    return (hashlib.sha256(u.tobytes()).hexdigest(),
            tuple(ep.relaxations for ep in result.epochs),
            tuple(ep.elapsed for ep in result.epochs))


@pytest.mark.parametrize("name", sorted(CASES))
def test_delivery_log_is_pinned(name):
    assert digest(CASES[name]()) == PINS[name]


@pytest.mark.parametrize("seed", sorted(SCENARIOS))
def test_scenario_outputs_are_pinned(seed):
    assert scenario_facts(seed) == SCENARIOS[seed]


@pytest.mark.parametrize("seed", sorted(SCENARIOS))
def test_scenario_pins_hold_on_numpy_kernels(seed, numpy_kernels):
    """The scenario pins run on the compiled sweeps wherever they load;
    the numpy kernels reproduce them too."""
    assert scenario_facts(seed) == SCENARIOS[seed]


@pytest.mark.parametrize("seed", sorted(SCENARIOS))
def test_scenario_pins_hold_on_each_isa_body(seed, isa_body):
    """Both instruction-set bodies of the compiled sweeps reproduce the
    scenario pins (the AVX2 one skips on a CPU without AVX2)."""
    assert scenario_facts(seed) == SCENARIOS[seed]


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(CASES):
        print(f"    {name!r}: {digest(CASES[name]())!r},")
    print("}\n\nSCENARIOS = {")
    for seed in sorted(SCENARIOS):
        print(f"    {seed}: {scenario_facts(seed)!r},")
    print("}")
