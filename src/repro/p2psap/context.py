"""Context data model for P2PSAP's self-adaptation.

"Context data can be requirements imposed by the user at the application
level, i.e. synchronous or asynchronous schemes of computation.  Context
data can also be related to peers location and machine loads."

Table I reads two of them: the scheme and the peers' location.  This
module defines the vocabulary shared by Table I and the data channel:

- :class:`Scheme` — the application-level computation scheme requirement
  (synchronous / asynchronous / hybrid);
- :class:`ConnectionKind` — intra- vs inter-cluster topology;
- :class:`CommMode` — the communication mode a data channel implements;
- :class:`ChannelConfig` — a complete data-channel configuration (a
  Table I cell, looked up at session open; the data channel's input).
"""

from __future__ import annotations

import dataclasses
import enum

__all__ = [
    "Scheme",
    "ConnectionKind",
    "CommMode",
    "ChannelConfig",
]


class Scheme(enum.Enum):
    """Scheme of computation requested by the application (Section II.D)."""

    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    HYBRID = "hybrid"

    @classmethod
    def parse(cls, value: "str | Scheme") -> "Scheme":
        """Accept enum values or the strings used on the command line."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except (ValueError, AttributeError):
            raise ValueError(
                f"unknown scheme {value!r}; expected one of "
                f"{[s.value for s in cls]}"
            ) from None


class ConnectionKind(enum.Enum):
    """Whether a session crosses a cluster boundary."""

    INTRA_CLUSTER = "intra-cluster"
    INTER_CLUSTER = "inter-cluster"


class CommMode(enum.Enum):
    """Communication mode implemented by the mode micro-protocol."""

    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """A complete data-channel configuration.

    A session gets one when it opens (its Table I cell); the data
    channel realizes it by stacking the matching micro-protocols, and
    it holds for the session's life.

    Attributes
    ----------
    mode:
        Synchronous or asynchronous communication micro-protocol.
    reliable:
        Whether the reliability micro-protocol (ack/retransmit and
        in-sequence delivery: "some reliability and order
        micro-protocols") is stacked.  Table I: all cells except
        async/inter-cluster and hybrid/inter-cluster are reliable.
    congestion:
        Congestion-control micro-protocol name: ``"newreno"`` for
        low-latency paths, ``"htcp"`` for the high speed-latency
        inter-cluster path, ``"none"`` to disable windowing (unreliable
        channels).
    """

    mode: CommMode
    reliable: bool
    congestion: str = "newreno"

    _KNOWN_CC = ("newreno", "htcp", "none")

    def __post_init__(self) -> None:
        if self.congestion not in self._KNOWN_CC:
            raise ValueError(
                f"unknown congestion control {self.congestion!r}; "
                f"expected one of {self._KNOWN_CC}"
            )

    def describe(self) -> str:
        """Short human-readable form, e.g. 'async/unreliable/htcp'."""
        rel = "reliable" if self.reliable else "unreliable"
        mode = "sync" if self.mode is CommMode.SYNCHRONOUS else "async"
        return f"{mode}/{rel}/{self.congestion}"
