"""Transport-layer micro-protocols of the P2PSAP data channel.

A reliable channel stacks :class:`Reliability`, which acknowledges,
retransmits and delivers in sequence; there is no separate ordering
micro-protocol.
"""

from .buffers import BufferManagement
from .congestion import (
    CongestionControl,
    HTCPCongestion,
    NewRenoCongestion,
    make_congestion,
)
from .modes import AsynchronousMode, SynchronousMode, make_mode
from .reliability import Reliability

__all__ = [
    "BufferManagement",
    "CongestionControl",
    "HTCPCongestion",
    "NewRenoCongestion",
    "make_congestion",
    "AsynchronousMode",
    "SynchronousMode",
    "make_mode",
    "Reliability",
]
