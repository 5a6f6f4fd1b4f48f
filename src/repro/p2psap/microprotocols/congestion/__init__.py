"""Congestion-control micro-protocols for the P2PSAP data channel."""

from .base import CWND_KEY, SSTHRESH_KEY, CongestionControl
from .htcp import HTCPCongestion
from .newreno import NewRenoCongestion
from .scp import SCPCongestion
from .tahoe import TahoeCongestion

__all__ = [
    "CongestionControl",
    "CWND_KEY",
    "SSTHRESH_KEY",
    "HTCPCongestion",
    "NewRenoCongestion",
    "SCPCongestion",
    "TahoeCongestion",
]


def make_congestion(name: str) -> CongestionControl:
    """The congestion controller named ``name`` (the data channel stacks it).

    ``name`` follows :class:`~repro.p2psap.context.ChannelConfig`:
    one of ``newreno``, ``htcp``, ``tahoe``, ``scp``.
    """
    table = {
        "newreno": NewRenoCongestion,
        "htcp": HTCPCongestion,
        "tahoe": TahoeCongestion,
        "scp": SCPCongestion,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown congestion control {name!r}") from None
