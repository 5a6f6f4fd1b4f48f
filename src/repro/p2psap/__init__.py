"""P2PSAP — the Peer-To-Peer Self-Adaptive communication Protocol.

The protocol configures each session automatically as a function of
application requirements (scheme of computation) and elements of
context (topology), choosing the most appropriate communication mode
between peers (Table I of the paper).  The choice is a lookup of the
session's (scheme, connection kind) cell in :data:`TABLE_I`, made when
the session opens; it holds for the session's life.

Public surface:

- :class:`P2PSAP` / :class:`P2PSAPSocket` — per-node protocol instance
  and the socket-like API;
- :class:`ChannelConfig`, :class:`Scheme`, :class:`CommMode`,
  :class:`ConnectionKind` — the context and configuration vocabulary;
- :data:`TABLE_I` — the decision rule a session's config comes from;
- :class:`DataChannel` and the micro-protocols — for tests, ablations
  and protocol extensions.
"""

from .context import ChannelConfig, CommMode, ConnectionKind, Scheme
from .control_channel import ReliableControlLink
from .data_channel import DataChannel
from .rules import TABLE_I
from .session import CONTROL_PORT, Session, SessionState, allocate_port
from .socket_api import P2PSAP, P2PSAPSocket, SocketError

__all__ = [
    "ChannelConfig", "CommMode", "ConnectionKind", "Scheme",
    "ReliableControlLink",
    "DataChannel",
    "TABLE_I",
    "CONTROL_PORT", "Session", "SessionState", "allocate_port",
    "P2PSAP", "P2PSAPSocket", "SocketError",
]
