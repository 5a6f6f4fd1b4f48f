"""Table I verification: the protocol picks the paper's configurations.

Unlike the figure harness (which measures), this experiment *audits*:
it opens live P2PSAP sessions for every scheme × connection cell on a
two-cluster testbed and records the data-channel configuration each
session actually received, then diffs against Table I.  Each session's
config is decided once, when it opens, so the audit covers every path
a config can take.
"""

from __future__ import annotations

import dataclasses

from ..p2psap.context import ChannelConfig, ConnectionKind, Scheme
from ..p2psap.rules import TABLE_I
from ..p2psap.socket_api import P2PSAP
from ..simnet.kernel import Simulator
from ..simnet.topology import nicta_testbed

__all__ = ["Table1Audit", "audit_table1"]


@dataclasses.dataclass
class Table1Audit:
    """Observed configuration per (scheme, connection) cell."""

    observed: dict[tuple[Scheme, ConnectionKind], ChannelConfig]
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def audit_table1(settle: float = 5.0) -> Table1Audit:
    """Open one session per Table I cell and compare configurations."""
    sim = Simulator()
    net = nicta_testbed(sim, 4, n_clusters=2)
    protos = {name: P2PSAP(sim, net, name) for name in net.nodes}
    # peer00/peer01 share cluster0; peer02/peer03 are cluster1.
    intra_pair = ("peer00", "peer01")
    inter_pair = ("peer00", "peer02")

    sockets = {}

    def opener():
        for scheme in Scheme:
            for kind, (a, b) in (
                (ConnectionKind.INTRA_CLUSTER, intra_pair),
                (ConnectionKind.INTER_CLUSTER, inter_pair),
            ):
                sock = protos[a].socket(scheme=scheme)
                yield sock.connect(b)
                sockets[(scheme, kind)] = sock

    sim.spawn(opener())
    sim.run(until=settle)

    observed = {}
    mismatches = []
    for cell, expected in TABLE_I.items():
        sock = sockets.get(cell)
        if sock is None or sock.session is None or sock.session.config is None:
            mismatches.append(f"{cell}: session never established")
            continue
        got = sock.session.config
        observed[cell] = got
        if got != expected:
            mismatches.append(
                f"{cell}: expected {expected.describe()}, got {got.describe()}"
            )
    return Table1Audit(observed=observed, mismatches=mismatches)
