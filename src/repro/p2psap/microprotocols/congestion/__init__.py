"""Congestion-control micro-protocols for the P2PSAP data channel.

Table I uses two: New-Reno on the low-latency intra-cluster paths and
H-TCP on the high speed-latency inter-cluster path.  Unreliable
channels carry none.
"""

from .base import CWND_KEY, SSTHRESH_KEY, CongestionControl
from .htcp import HTCPCongestion
from .newreno import NewRenoCongestion

__all__ = [
    "CongestionControl",
    "CWND_KEY",
    "SSTHRESH_KEY",
    "HTCPCongestion",
    "NewRenoCongestion",
]


def make_congestion(name: str) -> CongestionControl:
    """The congestion controller named ``name`` (the data channel stacks it).

    ``name`` follows :class:`~repro.p2psap.context.ChannelConfig`:
    ``newreno`` or ``htcp``.
    """
    table = {
        "newreno": NewRenoCongestion,
        "htcp": HTCPCongestion,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown congestion control {name!r}") from None
