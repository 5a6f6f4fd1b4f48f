"""Context data model for P2PSAP's self-adaptation.

"Context data can be requirements imposed by the user at the application
level, i.e. synchronous or asynchronous schemes of computation.  Context
data can also be related to peers location and machine loads."

This module defines the vocabulary shared by the context monitor, the
rule engine and the data channel:

- :class:`Scheme` — the application-level computation scheme requirement
  (synchronous / asynchronous / hybrid);
- :class:`ConnectionKind` — intra- vs inter-cluster topology;
- :class:`CommMode` — the communication mode a data channel implements;
- :class:`ChannelConfig` — a complete data-channel configuration (the
  rule engine's output at session open, the data channel's input);
- :class:`ContextSnapshot` — one observation of all context data.
"""

from __future__ import annotations

import dataclasses
import enum

__all__ = [
    "Scheme",
    "ConnectionKind",
    "CommMode",
    "ChannelConfig",
    "ContextSnapshot",
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

    The rule engine emits one of these when a session opens; the data
    channel realizes it by stacking the matching micro-protocols, and
    it holds for the session's life.

    Attributes
    ----------
    mode:
        Synchronous or asynchronous communication micro-protocol.
    reliable:
        Whether the reliability (ack/retransmit) micro-protocol is
        stacked.  Table I: all cells except async/inter-cluster and
        hybrid/inter-cluster are reliable.
    ordered:
        Whether the ordering micro-protocol is stacked; implied by
        ``reliable`` in the paper ("some reliability and order
        micro-protocols"), independent here for ablations.
    congestion:
        Congestion-control micro-protocol name: ``"newreno"`` for
        low-latency paths, ``"htcp"`` for the high speed-latency
        inter-cluster path, ``"tahoe"`` / ``"scp"`` available for
        ablations, ``"none"`` to disable windowing (unreliable channels).
    physical:
        Physical-layer composite protocol: ``"ethernet"``,
        ``"infiniband"`` or ``"myrinet"``.
    """

    mode: CommMode
    reliable: bool
    ordered: bool
    congestion: str = "newreno"
    physical: str = "ethernet"

    _KNOWN_CC = ("newreno", "htcp", "tahoe", "scp", "none")
    _KNOWN_PHY = ("ethernet", "infiniband", "myrinet")

    def __post_init__(self) -> None:
        if self.congestion not in self._KNOWN_CC:
            raise ValueError(
                f"unknown congestion control {self.congestion!r}; "
                f"expected one of {self._KNOWN_CC}"
            )
        if self.physical not in self._KNOWN_PHY:
            raise ValueError(
                f"unknown physical protocol {self.physical!r}; "
                f"expected one of {self._KNOWN_PHY}"
            )

    def describe(self) -> str:
        """Short human-readable form, e.g. 'async/unreliable/htcp'."""
        rel = "reliable" if self.reliable else "unreliable"
        mode = "sync" if self.mode is CommMode.SYNCHRONOUS else "async"
        return f"{mode}/{rel}/{self.congestion}"


@dataclasses.dataclass(frozen=True)
class ContextSnapshot:
    """One observation of the context data feeding the controller.

    ``latency_estimate`` and ``peer_load`` are collected by the context
    monitor "at specific times, periodically or by means of triggers";
    ``scheme`` comes from the application (a socket option); the
    connection kind from the topology manager.
    """

    scheme: Scheme
    connection: ConnectionKind
    latency_estimate: float = 0.0
    loss_estimate: float = 0.0
    local_load: float = 0.0
    peer_load: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_estimate < 0:
            raise ValueError("latency_estimate must be non-negative")
        if not 0.0 <= self.loss_estimate <= 1.0:
            raise ValueError("loss_estimate must be a probability")
