"""Session state shared between the socket API and the control channel."""

from __future__ import annotations

import dataclasses
import enum
from typing import Optional

from ..simnet.kernel import Event
from ..simnet.network import Network
from .context import ChannelConfig, Scheme
from .data_channel import DataChannel

__all__ = ["SessionState", "Session", "allocate_port", "CONTROL_PORT"]

#: Reserved node port for control-channel traffic ("we use the
#: TCP/IP protocol to exchange control messages").
CONTROL_PORT = 0

_PORT_ATTR = "_p2psap_next_port"


def allocate_port(network: Network) -> int:
    """A network-unique data port (ports are per-node namespaces)."""
    nxt = getattr(network, _PORT_ATTR, 1000)
    setattr(network, _PORT_ATTR, nxt + 1)
    return nxt


class SessionState(enum.Enum):
    OPENING = "opening"
    ESTABLISHED = "established"
    CLOSED = "closed"


@dataclasses.dataclass
class Session:
    """One endpoint's view of a P2PSAP session.

    ``initiator`` is True on the side that sent OPEN; the initiator's
    controller owns configuration decisions, the responder mirrors them
    (the paper's inter-peer coordination component keeps both ends
    consistent).
    """

    session_id: str
    remote: str
    port: int
    scheme: Scheme
    initiator: bool
    channel: Optional[DataChannel] = None
    state: SessionState = SessionState.OPENING
    config: Optional[ChannelConfig] = None
    established: Optional[Event] = None  # fires when OPEN_ACK arrives
