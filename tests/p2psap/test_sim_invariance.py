"""Simulated results are pinned: host-side work must never move them.

The protocol stack, the cactus dispatcher and the DES kernel are pure
plumbing as far as the *simulation* is concerned.  A change that makes
them cheaper (fewer events, fewer handler calls, cached sizes) has to
leave every simulated output bit-identical: relaxation counts, the
simulated ``elapsed``, the iterate itself, delivery times and
retransmission counts.  The tables below were recorded on the commit
*before* the per-message path was reworked (PR 11's head) and are compared
with ``==``, floats included.

Re-recording
------------
Only a *modelling* change (link model, per-message cost, Table I rules,
solver, termination protocol ...) may move these numbers, and then on
purpose.  Run::

    PYTHONPATH=src python tests/p2psap/test_sim_invariance.py

paste the two printed tables over ``SOLVES`` and ``STREAMS``, and say in
the PR why they moved.  A perf or refactoring PR that needs to re-record
is wrong by construction.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.campaign import CampaignJob
from repro.experiments.harness import run_job
from repro.p2psap import P2PSAP
from repro.simnet import Simulator, nicta_testbed
from repro.simnet.topology import NICTA_SPEC

N = 12
N_PAPER = 96
STREAM_MESSAGES = 150
STREAM_SIDE = 24

#: (alpha, scheme, clusters) -> (relaxations, elapsed, sha256(iterate))
SOLVES = {
    (2, 'synchronous', 1): (45.0, 0.9388615199999998, 'effc97a598b9ce1fb9384a672eb818efe7247ff5d0924bd898f06e1398b310d5'),
    (2, 'synchronous', 2): (45.0, 10.118056079999983, 'effc97a598b9ce1fb9384a672eb818efe7247ff5d0924bd898f06e1398b310d5'),
    (2, 'asynchronous', 1): (53.5, 0.7267331200000005, '3c8430e4dfc4a909c8d3b080a553ccf7c05eb7b12b391d1ecbeca3e9d45a44d4'),
    (2, 'asynchronous', 2): (103.0, 1.682982400000001, 'c5c5ccd8e84fe62da5aa792e8e21e17e8ff90b5db7b4bd69782b7bc003559270'),
    (2, 'hybrid', 1): (48.0, 0.9683183199999987, 'ec3e6db22cdcf02886b613a564c0081257f9def9a8926f9a63bc4c447bf36348'),
    (2, 'hybrid', 2): (103.0, 1.6828902400000012, 'c5c5ccd8e84fe62da5aa792e8e21e17e8ff90b5db7b4bd69782b7bc003559270'),
    (4, 'synchronous', 1): (46.0, 0.6494741600000001, 'f1029158e1ab4d049dfae72d2153bc25dfb40ad159bf9ca8c0ca5eef8bd5c406'),
    (4, 'synchronous', 2): (46.0, 10.022275999999977, 'b6e52e066c6366a02021ea673154cc02147629781a7d0c160fb1232349318b78'),
    (4, 'asynchronous', 1): (61.5, 0.4316832, 'b3613f416c74622df3b160510dd233f710c6587d87b1056b609fb7ac4aee0d63'),
    (4, 'asynchronous', 2): (151.75, 1.2621111999999957, '31d89a3380f1b1a494ac2df72f44f3e1a6d1cf7ebef6623e1626765ec510989d'),
    (4, 'hybrid', 1): (49.75, 0.6777224799999992, '28e062b72cd0d00cec2142fd968f101c36b0bb311bceb4932c2e8399793af43a'),
    (4, 'hybrid', 2): (97.5, 1.6095529600000016, 'bd3bacd9b98cab2ca1bb4e66fde16e4d613db9d83990e47ec1ad1dc539e4b4a7'),
}

#: (scheme, link, loss) -> (sim time of last delivery, retransmits,
#: config.describe())
STREAMS = {
    ('synchronous', 'intra', 0.0): (0.08990656000000011, 0, 'sync/reliable/newreno'),
    ('synchronous', 'inter', 0.0): (30.159806559999737, 0, 'sync/reliable/htcp'),
    ('asynchronous', 'intra', 0.0): (0.05688760000000023, 0, 'async/reliable/newreno'),
    ('asynchronous', 'inter', 0.0): (0.3565904799999943, 0, 'async/unreliable/none'),
    ('synchronous', 'inter', 0.02): (90.93010660716186, 7, 'sync/reliable/htcp'),
}


def solve_cell(alpha, scheme, clusters):
    result = run_job(CampaignJob(n=N, n_peers=alpha, n_clusters=clusters,
                                 scheme=scheme, n_paper=N_PAPER))
    u = np.ascontiguousarray(result.report.u)
    return (result.relaxations, result.elapsed,
            hashlib.sha256(u.tobytes()).hexdigest())


def stream_cell(scheme, link, loss):
    """One-way stream of ``(i, plane)`` messages between two endpoints."""
    sim = Simulator()
    spec = dataclasses.replace(NICTA_SPEC, wan_loss=loss)
    net = nicta_testbed(sim, 4, n_clusters=2, spec=spec, seed=0)
    src, dst = "peer00", ("peer01" if link == "intra" else "peer02")
    protos = {node: P2PSAP(sim, net, node) for node in (src, dst)}
    planes = [np.random.default_rng(k).random((STREAM_SIDE, STREAM_SIDE))
              for k in range(4)]
    poll = STREAM_SIDE * STREAM_SIDE * 8 * 8.0 / spec.ethernet_bps
    received, finished = [], []

    def receiver():
        server = yield protos[dst].socket().accept()
        while len(received) < STREAM_MESSAGES:
            payload = yield server.recv()
            if payload is None:  # empty asynchronous receive
                yield sim.timeout(poll)
                continue
            received.append(payload[0])
        finished.append(sim.now)

    def sender():
        sock = protos[src].socket(scheme=scheme)
        yield sock.connect(dst)
        for i in range(STREAM_MESSAGES):
            yield sock.send((i, planes[i % 4]))

    sim.spawn(receiver())
    sim.spawn(sender())
    while not finished:
        assert sim.peek_time() < 1e6, "stream never completed"
        sim.step()
    assert sorted(received) == list(range(STREAM_MESSAGES))
    session = next(iter(protos[src].sessions.values()))
    transport = session.channel.transport
    retransmits = (transport.micro("reliability").stats_retransmits
                   if transport.has_micro("reliability") else 0)
    for proto in protos.values():
        proto.close()
    return finished[0], retransmits, session.config.describe()


SOLVE_CELLS = [(alpha, scheme, clusters)
               for alpha in (2, 4)
               for scheme in ("synchronous", "asynchronous", "hybrid")
               for clusters in (1, 2)]
STREAM_CELLS = [(scheme, link, 0.0)
                for scheme in ("synchronous", "asynchronous")
                for link in ("intra", "inter")] + [("synchronous", "inter", 0.02)]


@pytest.mark.parametrize("cell", SOLVE_CELLS, ids=lambda c: "a%d-%s-c%d" % c)
def test_solve_outputs_are_pinned(cell):
    assert solve_cell(*cell) == SOLVES[cell]


@pytest.mark.parametrize("cell", SOLVE_CELLS, ids=lambda c: "a%d-%s-c%d" % c)
def test_solve_pins_hold_on_numpy_kernels(cell, numpy_kernels):
    """The pins above run on the compiled sweeps wherever they load;
    the numpy kernels reproduce every one of them."""
    assert solve_cell(*cell) == SOLVES[cell]


@pytest.mark.parametrize("cell", SOLVE_CELLS, ids=lambda c: "a%d-%s-c%d" % c)
def test_solve_pins_hold_on_each_isa_body(cell, isa_body):
    """Both instruction-set bodies of the compiled sweeps reproduce every
    pin (the AVX2 one skips on a CPU without AVX2)."""
    assert solve_cell(*cell) == SOLVES[cell]


@pytest.mark.parametrize("cell", STREAM_CELLS, ids=lambda c: "%s-%s-%g" % c)
def test_stream_outputs_are_pinned(cell):
    assert stream_cell(*cell) == STREAMS[cell]


if __name__ == "__main__":
    print("SOLVES = {")
    for cell in SOLVE_CELLS:
        print(f"    {cell!r}: {solve_cell(*cell)!r},")
    print("}\n\nSTREAMS = {")
    for cell in STREAM_CELLS:
        print(f"    {cell!r}: {stream_cell(*cell)!r},")
    print("}")
