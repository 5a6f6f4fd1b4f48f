"""Transport-layer micro-protocols of the P2PSAP data channel."""

from .buffers import BufferManagement
from .congestion import (
    CongestionControl,
    HTCPCongestion,
    NewRenoCongestion,
    make_congestion,
)
from .modes import AsynchronousMode, SynchronousMode, make_mode
from .ordering import Ordering
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
    "Ordering",
    "Reliability",
]
