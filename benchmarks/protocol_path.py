#!/usr/bin/env python
"""Exact per-message work counts of the protocol stack's hot path.

    PYTHONPATH=src python benchmarks/protocol_path.py [--calls]

prints one JSON object: for a fixed 200-message synchronous intra-cluster
stream and one n=12, alpha=4 asynchronous solve, how many DES events,
event-handler calls, ``payload_nbytes`` calls (recursive ones
included), process-generator resumes and timer arms (per-session timer
(re-)arms through ``EventBus.call_at``, the one way a micro-protocol arms
its timer) one application message costs.  For one n=12, alpha=4 hybrid
solve over two clusters (both edge modes), it also prints what one
relaxation costs in lookups whose answer a solve fixes: session-mode
lookups (``TaskExecutor.session_mode``), array validations of the
compiled sweep dispatch (``_ckernels._fits``) and calls of the span
factory with spans off; and the ``payload_nbytes`` calls that sizing one
environment-bus message takes (``ReliableControlLink.send`` on the
environment port).

Handler calls are counted where the handlers enter the bus: every
handler bound through ``EventBus.bind`` inside the counted block is
wrapped, as the end-to-end tracer does, so a raise counts once per
handler it runs whether it was raised by name (``raise_event``) or
through the event's compiled callable (``bus.compiled[name]``).

These are counts, not timings: the simulation is deterministic, so they
are the same integers on every machine and every run.  That makes them
the one perf gate CI can hold with **zero** tolerance —
``run_bench.py --check`` fails when any ``*_per_msg`` value is above the
committed ``protocol_path`` record in ``BENCH_micro.json``, e.g. because
a change re-added an event per packet.  They say nothing about seconds;
``benchmarks/e2e`` measures those.

``--calls`` prints instead the host cost of one message on each cell of
the ``p2psap_stream`` workload (one-way streams of 400 ``(i, plane)``
messages, seed 0): interpreter calls per message, Python and C calls as
``sys.setprofile`` reports them, from the first DES step to the last
delivery; and the host cost of one relaxation over the Fig. 5 grid of
the ``fig5_n24`` workload (its 19 solves at seed 0, counted on a second
pass): interpreter calls per relaxation.  Both are reported, not gated:
the counts depend on the CPython and numpy versions.

The counters are installed from here, around public names, for the
duration of one workload; ``src/`` knows nothing about them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import sys

import numpy as np

import repro.cactus.messages as messages
import repro.p2psap.control_channel as control_channel
from repro.cactus.events import EventBus
from repro.campaign import CampaignJob
from repro.core.env_bus import ENV_PORT
from repro.core.task_execution import TaskExecutor
from repro.experiments.harness import run_job
from repro.numerics import _ckernels
from repro.p2psap import P2PSAP
from repro.p2psap.control_channel import ReliableControlLink
from repro.p2psap.socket_api import P2PSAPSocket
from repro.simnet import Simulator, nicta_testbed
from repro.simnet.topology import NICTA_SPEC
from repro.telemetry import Telemetry

STREAM_MESSAGES = 200


class _CountedGenerator:
    """Stands in for a process generator and counts its resumes."""

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts
        self.__name__ = getattr(gen, "__name__", "process")

    def send(self, value):
        self._counts["generator_resumes"] += 1
        return self._gen.send(value)

    def throw(self, *exc):
        self._counts["generator_resumes"] += 1
        return self._gen.throw(*exc)

    def close(self):
        return self._gen.close()


@contextlib.contextmanager
def counting():
    """Count the hot-path calls made inside the block."""
    counts = {"events": 0, "handler_calls": 0, "payload_nbytes_calls": 0,
              "generator_resumes": 0, "timer_arms": 0, "messages": 0}
    originals = [
        (Simulator, "step", Simulator.step),
        (Simulator, "spawn", Simulator.spawn),
        (EventBus, "bind", EventBus.bind),
        (EventBus, "unbind", EventBus.unbind),
        (EventBus, "call_at", EventBus.call_at),
        (P2PSAPSocket, "send", P2PSAPSocket.send),
        (messages, "payload_nbytes", messages.payload_nbytes),
    ]
    bind, unbind = EventBus.bind, EventBus.unbind

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spawn(sim, gen, *args, **kwargs):
        return originals[1][2](sim, _CountedGenerator(gen, counts),
                               *args, **kwargs)

    def counted_bind(bus, event_name, handler, *args, **kwargs):
        wrapper = counted("handler_calls", handler)
        wrapper.counted_handler = handler
        return bind(bus, event_name, wrapper, *args, **kwargs)

    def counted_unbind(bus, event_name, handler):
        for bound in bus.handlers_for(event_name):
            if getattr(bound, "counted_handler", None) == handler:
                handler = bound
                break
        return unbind(bus, event_name, handler)

    Simulator.step = counted("events", Simulator.step)
    Simulator.spawn = spawn
    EventBus.bind = counted_bind
    EventBus.unbind = counted_unbind
    EventBus.call_at = counted("timer_arms", EventBus.call_at)
    P2PSAPSocket.send = counted("messages", P2PSAPSocket.send)
    # Recursive calls resolve the module global, so they count too.
    messages.payload_nbytes = counted("payload_nbytes_calls",
                                      messages.payload_nbytes)
    try:
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def per_message(counts):
    out = dict(counts)
    for key in ("events", "handler_calls", "payload_nbytes_calls",
                "generator_resumes", "timer_arms"):
        out[f"{key}_per_msg"] = round(counts[key] / counts["messages"], 4)
    return out


def stream_sync_intra():
    """200 ``(i, 24x24 plane)`` messages, synchronous, inside a cluster;
    counted from the first event to the last delivery."""
    sim = Simulator()
    net = nicta_testbed(sim, 2, n_clusters=1, seed=0)
    protos = {node: P2PSAP(sim, net, node) for node in ("peer00", "peer01")}
    plane = np.zeros((24, 24))
    received = []

    def receiver():
        server = yield protos["peer01"].socket().accept()
        while len(received) < STREAM_MESSAGES:
            received.append((yield server.recv()))

    def sender():
        sock = protos["peer00"].socket(scheme="synchronous")
        yield sock.connect("peer01")
        for i in range(STREAM_MESSAGES):
            yield sock.send((i, plane))

    with counting() as counts:
        done = sim.spawn(receiver())
        sim.spawn(sender())
        while done.is_alive:
            sim.step()
        result = per_message(counts)
        # Inside the block: closing unbinds the handlers it wrapped.
        for proto in protos.values():
            proto.close()
    assert [i for i, _ in received] == list(range(STREAM_MESSAGES))
    return result


def solve_n12_a4_async():
    with counting() as counts:
        run_job(CampaignJob(n=12, n_peers=4, scheme="asynchronous",
                            n_paper=96))
    return per_message(counts)


@contextlib.contextmanager
def counting_per_relaxation():
    """Count, inside the block, the lookups a solve's relaxations make
    and the ``payload_nbytes`` calls made while an environment-bus
    message is sized (spans must be off)."""
    counts = {"session_mode_lookups": 0, "sweep_validations": 0,
              "span_calls": 0, "env_messages": 0,
              "env_payload_nbytes_calls": 0}
    originals = [
        (TaskExecutor, "session_mode", TaskExecutor.session_mode),
        (_ckernels, "_fits", _ckernels._fits),
        (Telemetry, "span_factory", Telemetry.span_factory),
        (ReliableControlLink, "send", ReliableControlLink.send),
        (messages, "payload_nbytes", messages.payload_nbytes),
        (control_channel, "payload_nbytes", control_channel.payload_nbytes),
    ]
    sizing = []

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def span_factory(telemetry):
        factory = originals[2][2](telemetry)
        return None if factory is None else counted("span_calls", factory)

    def send(link, dst, body):
        if link.port != ENV_PORT:
            return originals[3][2](link, dst, body)
        counts["env_messages"] += 1
        sizing.append(True)
        try:
            return originals[3][2](link, dst, body)
        finally:
            sizing.pop()

    def payload_nbytes(payload):
        if sizing:
            counts["env_payload_nbytes_calls"] += 1
        return originals[4][2](payload)

    TaskExecutor.session_mode = counted("session_mode_lookups",
                                        TaskExecutor.session_mode)
    _ckernels._fits = counted("sweep_validations", _ckernels._fits)
    Telemetry.span_factory = span_factory
    ReliableControlLink.send = send
    # Recursive calls resolve the module global, so they count too.
    messages.payload_nbytes = payload_nbytes
    control_channel.payload_nbytes = payload_nbytes
    try:
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def solve_n12_a4_hybrid_relax():
    """Per-relaxation counts of one hybrid solve over two clusters."""
    with counting_per_relaxation() as counts:
        result = run_job(CampaignJob(n=12, n_peers=4, n_clusters=2,
                                     scheme="hybrid", n_paper=96))
    relaxations = sum(p.relaxations for p in result.report.per_peer)
    out = dict(counts, relaxations=relaxations)
    for key in ("session_mode_lookups", "sweep_validations", "span_calls"):
        out[f"{key}_per_relax"] = round(counts[key] / relaxations, 4)
    out["payload_nbytes_calls_per_env_msg"] = round(
        counts["env_payload_nbytes_calls"] / counts["env_messages"], 4)
    return out


def measure():
    return {"stream_sync_intra_200": stream_sync_intra(),
            "solve_n12_a4_async": solve_n12_a4_async(),
            "solve_n12_a4_hybrid_relax": solve_n12_a4_hybrid_relax()}


#: The ``p2psap_stream`` cells: (scheme, link, plane side, WAN loss).
STREAM_CELLS = [(scheme, link, side, 0.0)
                for scheme in ("synchronous", "asynchronous")
                for link in ("intra", "inter")
                for side in (24, 96)] + [("synchronous", "inter", 24, 0.02)]


def stream_calls(scheme, link, side, loss, count=400, seed=0):
    """Interpreter calls per message of one ``p2psap_stream`` cell."""
    spec = dataclasses.replace(NICTA_SPEC, wan_loss=loss)
    sim = Simulator()
    net = nicta_testbed(sim, 4, n_clusters=2, spec=spec, seed=seed)
    src, dst = "peer00", "peer01" if link == "intra" else "peer02"
    protos = {node: P2PSAP(sim, net, node) for node in (src, dst)}
    rng = np.random.default_rng(seed)
    planes = [rng.random((side, side)) for _ in range(4)]
    poll = side * side * 8 * 8.0 / spec.ethernet_bps
    received = []

    def receiver():
        server = yield protos[dst].socket().accept()
        while len(received) < count:
            payload = yield server.recv()
            if payload is None:
                yield sim.timeout(poll)
            else:
                received.append(payload)

    def sender():
        sock = protos[src].socket(scheme=scheme)
        yield sock.connect(dst)
        for i in range(count):
            yield sock.send((i, planes[i % 4]))

    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    done = sim.spawn(receiver())
    sim.spawn(sender())
    sys.setprofile(profile)
    try:
        while done.is_alive:
            sim.step()
    finally:
        sys.setprofile(None)
    for proto in protos.values():
        proto.close()
    assert sorted(i for i, _ in received) == list(range(count))
    return round(calls / count, 1)


def fig5_grid(seed=0):
    """The 19 solves of the ``fig5_n24`` workload."""
    def job(alpha, clusters, scheme):
        return CampaignJob(n=24, n_peers=alpha, n_clusters=clusters,
                           scheme=scheme, n_paper=96, tol=1e-4, seed=seed)
    return [job(1, 1, "synchronous")] + [
        job(alpha, clusters, scheme)
        for alpha, scheme, clusters in itertools.product(
            (2, 4, 8), ("synchronous", "asynchronous", "hybrid"), (1, 2))]


def relaxation_calls():
    """Interpreter calls per relaxation over the Fig. 5 grid: a first,
    uncounted pass loads the sweep library and builds the problems."""
    jobs = fig5_grid()
    for job in jobs:
        run_job(job)
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    relaxations = 0
    for job in jobs:
        sys.setprofile(profile)
        try:
            result = run_job(job)
        finally:
            sys.setprofile(None)
        relaxations += sum(p.relaxations for p in result.report.per_peer)
    return round(calls / relaxations, 1)


def measure_calls():
    cells = {f"{scheme[:5]}-{link}-{side}" + ("-lossy" if loss else ""):
             stream_calls(scheme, link, side, loss)
             for scheme, link, side, loss in STREAM_CELLS}
    return {"calls_per_msg": cells,
            "mean": round(sum(cells.values()) / len(cells), 1),
            "calls_per_relax": {"fig5_n24": relaxation_calls()}}


if __name__ == "__main__":
    print(json.dumps(measure_calls() if "--calls" in sys.argv[1:]
                     else measure(), sort_keys=True))
