#!/usr/bin/env python
"""P2PSAP self-adaptation in action: Table I, decided at session open.

Opens sessions for every scheme × connection combination on a
two-cluster testbed and prints the configuration the controller chose
(Table I of the paper).  Then peer01 moves to the other cluster and a
*new* hybrid session to it gets the hybrid/inter-cluster cell, while the
session opened before the move keeps its config.  Finally, changing the
scheme on a live socket is refused: a session's configuration is decided
once, when it opens.

Run:  python examples/protocol_adaptation_demo.py
"""

from repro.experiments.reporting import format_table
from repro.p2psap import P2PSAP, Scheme, SocketError
from repro.simnet import Simulator, nicta_testbed


def main():
    sim = Simulator()
    net = nicta_testbed(sim, 4, n_clusters=2)  # 00,01 | 02,03
    protos = {name: P2PSAP(sim, net, name) for name in net.nodes}
    rows = []
    live = {}

    def opener():
        for scheme in Scheme:
            for kind, remote in (("intra", "peer01"), ("inter", "peer02")):
                sock = protos["peer00"].socket(scheme=scheme)
                yield sock.connect(remote)
                config = sock.getsockopt("config")
                rows.append([
                    scheme.value, kind, config.mode.value,
                    "reliable" if config.reliable else "unreliable",
                    config.congestion,
                ])
                live[(scheme, kind)] = sock

    sim.spawn(opener())
    sim.run(until=10)
    print(format_table(
        ["scheme", "connection", "mode", "reliability", "congestion"],
        rows,
        title="Table I, observed on live sessions",
    ))

    # -- the context changes: a new session sees it -----------------------------
    old = live[(Scheme.HYBRID, "intra")]
    net.nodes["peer01"].cluster = "cluster1"  # peer01 migrates
    new = protos["peer00"].socket(scheme=Scheme.HYBRID)

    def reopen():
        yield new.connect("peer01")

    sim.spawn(reopen())
    sim.run(until=sim.now + 5)
    print("\npeer01 migrated across clusters (hybrid scheme):")
    print(f"  session opened before the move: {old.getsockopt('config').describe()}")
    print(f"  session opened after the move:  {new.getsockopt('config').describe()}")

    # -- a live session keeps its config -------------------------------------------
    sock = live[(Scheme.SYNCHRONOUS, "inter")]
    try:
        sock.setsockopt("scheme", "asynchronous")
    except SocketError as exc:
        print(f"\nscheme change on a live WAN session refused: {exc}")
    print(f"  the session is still {sock.getsockopt('config').describe()}")


if __name__ == "__main__":
    main()
