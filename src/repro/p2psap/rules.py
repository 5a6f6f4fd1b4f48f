"""The controller's decision rule: Table I of the paper.

"The choice of the most appropriate configuration is determined by a set
of rules that are described by a specification language such as OWL,
ECA, etc.  These rules specify new configuration and actions needed to
realize it."

Table I reads two elements of context, the scheme of computation and
whether a session crosses a cluster boundary, and neither changes during
a session's life.  So the rule set is a table: :data:`TABLE_I` maps each
(scheme, connection kind) cell to its
:class:`~repro.p2psap.context.ChannelConfig`, and
:meth:`~repro.p2psap.socket_api.P2PSAP.open_session` looks the session's
cell up once, when it opens.
"""

from __future__ import annotations

from .context import ChannelConfig, CommMode, ConnectionKind, Scheme

__all__ = ["TABLE_I"]


#: Table I of the paper, cell by cell.  Congestion control follows
#: Section II.D: New-Reno "works well only in low latency network" →
#: intra-cluster; H-TCP "for high speed-latency network" → inter-cluster.
#: Unreliable channels carry no congestion controller (nothing acks).
TABLE_I: dict[tuple[Scheme, ConnectionKind], ChannelConfig] = {
    (Scheme.SYNCHRONOUS, ConnectionKind.INTRA_CLUSTER): ChannelConfig(
        mode=CommMode.SYNCHRONOUS, reliable=True, congestion="newreno",
    ),
    (Scheme.SYNCHRONOUS, ConnectionKind.INTER_CLUSTER): ChannelConfig(
        mode=CommMode.SYNCHRONOUS, reliable=True, congestion="htcp",
    ),
    (Scheme.ASYNCHRONOUS, ConnectionKind.INTRA_CLUSTER): ChannelConfig(
        mode=CommMode.ASYNCHRONOUS, reliable=True, congestion="newreno",
    ),
    (Scheme.ASYNCHRONOUS, ConnectionKind.INTER_CLUSTER): ChannelConfig(
        mode=CommMode.ASYNCHRONOUS, reliable=False, congestion="none",
    ),
    (Scheme.HYBRID, ConnectionKind.INTRA_CLUSTER): ChannelConfig(
        mode=CommMode.SYNCHRONOUS, reliable=True, congestion="newreno",
    ),
    (Scheme.HYBRID, ConnectionKind.INTER_CLUSTER): ChannelConfig(
        mode=CommMode.ASYNCHRONOUS, reliable=False, congestion="none",
    ),
}
