"""Socket-like API on top of P2PSAP.

"In order to facilitate programming, we have placed a socket-like API on
the top of our protocol.  Application can open and close connection,
send and receive data.  Furthermore, application will be able to get
session state and change session behavior or architecture through socket
options ...  Session management commands like listen, open, close,
setsockoption and getsockoption are directed to Control channel; while
data exchange commands, i.e. send and receive commands are directed to
Data channel."

:class:`P2PSAP` is one node's protocol instance (control agent + session
table); :class:`P2PSAPSocket` is the application handle.  The one
option, ``scheme``, is read when a session opens and is fixed from then
on, like the configuration it selects.  All blocking operations return
kernel events to ``yield`` on, mirroring the generator-process style of
the substrate.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..simnet.kernel import NORMAL, Channel, Event, Simulator
from ..simnet.network import Network
from .context import ChannelConfig, ConnectionKind, Scheme
from .control_channel import ReliableControlLink
from .data_channel import DataChannel
from .rules import TABLE_I
from .session import Session, SessionState, allocate_port

__all__ = ["P2PSAP", "P2PSAPSocket", "SocketError"]


class SocketError(RuntimeError):
    """Socket API misuse or session failure."""


class P2PSAP:
    """One node's P2PSAP protocol instance."""

    def __init__(self, sim: Simulator, network: Network, node_name: str):
        self.sim = sim
        self.network = network
        self.node = network.nodes[node_name]
        self.control = ReliableControlLink(sim, network, self.node, self._on_control)
        self.sessions: dict[str, Session] = {}
        self._session_counter = itertools.count()
        self._accept_queue: Channel = sim.channel(name=f"accept-{node_name}")
        self._closed = False

    # -- public API ---------------------------------------------------------------

    def socket(self, scheme: Optional[Scheme | str] = None) -> "P2PSAPSocket":
        """A fresh socket; ``scheme`` presets the computation-scheme option."""
        sock = P2PSAPSocket(self)
        if scheme is not None:
            sock.setsockopt("scheme", scheme)
        return sock

    def close(self) -> None:
        """Close every session and stop the control agent."""
        if self._closed:
            return
        self._closed = True
        for session in list(self.sessions.values()):
            if session.state is not SessionState.CLOSED:
                self._close_session(session, notify_peer=True)
        self.control.close()

    # -- session opening -------------------------------------------------------------

    def open_session(self, remote: str, scheme: Scheme) -> Session:
        """Initiator side: look up the Table I cell, build channel, send OPEN.

        The config looked up here is the session's for its whole life;
        the responder adopts it from the OPEN message.
        """
        if remote == self.node.name:
            raise SocketError("P2PSAP sessions are between distinct peers")
        if remote not in self.network.nodes:
            raise SocketError(f"unknown peer {remote!r}")
        kind = (ConnectionKind.INTRA_CLUSTER
                if self.network.same_cluster(self.node.name, remote)
                else ConnectionKind.INTER_CLUSTER)
        config = TABLE_I[(scheme, kind)]
        port = allocate_port(self.network)
        session_id = f"{self.node.name}/{remote}#{next(self._session_counter)}"
        session = Session(
            session_id=session_id, remote=remote, port=port, scheme=scheme,
            initiator=True, config=config, established=self.sim.event(),
        )
        session.channel = DataChannel(
            self.sim, self.network, self.node, remote, port, config,
        )
        self.sessions[session_id] = session
        self.control.send(remote, {
            "kind": "OPEN",
            "session_id": session_id,
            "port": port,
            "scheme": scheme.value,
            "config": config,
        })
        return session

    # -- control dispatch ------------------------------------------------------------

    def _on_control(self, src: str, body: dict) -> None:
        kind = body["kind"]
        if kind == "OPEN":
            self._handle_open(src, body)
        elif kind == "OPEN_ACK":
            self._handle_open_ack(body)
        elif kind == "CLOSE":
            self._handle_close(body)
        else:
            raise SocketError(f"unknown control message kind {kind!r}")

    def _handle_open(self, src: str, body: dict) -> None:
        # The control link dispatches each message once, so an OPEN is new.
        session_id = body["session_id"]
        config: ChannelConfig = body["config"]
        session = Session(
            session_id=session_id, remote=src, port=body["port"],
            scheme=Scheme.parse(body["scheme"]), initiator=False,
            config=config, state=SessionState.ESTABLISHED,
        )
        session.channel = DataChannel(
            self.sim, self.network, self.node, src, body["port"], config,
        )
        self.sessions[session_id] = session
        self._accept_queue.put(session)
        self.control.send(src, {"kind": "OPEN_ACK", "session_id": session_id})

    def _handle_open_ack(self, body: dict) -> None:
        session = self.sessions.get(body["session_id"])
        if session is None or session.state is not SessionState.OPENING:
            return
        session.state = SessionState.ESTABLISHED
        if session.established is not None and not session.established.triggered:
            session.established.succeed(session)

    def _handle_close(self, body: dict) -> None:
        session = self.sessions.get(body["session_id"])
        if session is not None and session.state is not SessionState.CLOSED:
            self._close_session(session, notify_peer=False)

    def _close_session(self, session: Session, notify_peer: bool) -> None:
        session.state = SessionState.CLOSED
        del self.sessions[session.session_id]
        if session.channel is not None:
            session.channel.close()
        if notify_peer:
            self.control.send(session.remote, {
                "kind": "CLOSE", "session_id": session.session_id,
            })


class _PayloadRequest(Event):
    """A receive request completed with a message whose value is the
    message's *payload*: ``recv`` needs no second event to unwrap it."""

    __slots__ = ()

    def succeed(self, msg=None, priority=NORMAL):
        return super().succeed(None if msg is None else msg.payload, priority)


class P2PSAPSocket:
    """Application handle: socket options + connect/accept/send/receive."""

    def __init__(self, protocol: P2PSAP):
        self.protocol = protocol
        self.sim = protocol.sim
        self._options: dict[str, Any] = {"scheme": Scheme.HYBRID}
        self.session: Optional[Session] = None

    # -- socket options (control channel) ------------------------------------------

    def setsockopt(self, name: str, value: Any) -> None:
        """Set an option before ``connect``.  ``scheme`` feeds the
        session's configuration decision at open, so a socket with a
        session refuses to change it."""
        if name != "scheme":
            raise SocketError(f"unknown socket option {name!r}")
        if self.session is not None:
            raise SocketError(
                "the scheme is fixed when the session opens; "
                "open a new session for another scheme"
            )
        self._options["scheme"] = Scheme.parse(value)

    def getsockopt(self, name: str) -> Any:
        if name == "state":
            return self.session.state if self.session else SessionState.CLOSED
        if name == "config":
            return self.session.config if self.session else None
        try:
            return self._options[name]
        except KeyError:
            raise SocketError(f"unknown socket option {name!r}") from None

    # -- session management (control channel) ---------------------------------------

    def connect(self, remote: str) -> Event:
        """Open a session to ``remote``; yield the returned event."""
        if self.session is not None:
            raise SocketError("socket already connected")
        self.session = self.protocol.open_session(
            remote, self._options["scheme"]
        )
        return self.session.established

    def accept(self) -> Event:
        """Wait for an inbound session; fires with a connected socket."""
        ev = self.protocol._accept_queue.get()
        result = self.sim.event()

        def on_session(got: Event) -> None:
            sock = P2PSAPSocket(self.protocol)
            sock.session = got.value
            sock._options["scheme"] = got.value.scheme
            result.succeed(sock)

        ev.callbacks.append(on_session)
        return result

    def close(self) -> None:
        if self.session is not None and self.session.state is not SessionState.CLOSED:
            self.protocol._close_session(self.session, notify_peer=True)

    # -- data exchange (data channel) ----------------------------------------------------

    # A session has its channel from the start and closes it when it
    # closes, so the channel's own closed check is the session check; the
    # not-connected check is inline on the per-message paths.

    def send(self, payload: Any, completion: Optional[Event] = None) -> Event:
        """P2P-style send; completion semantics follow the configured
        communication mode (the application does not choose).
        ``completion``: the event to complete, when the caller brings
        its own."""
        session = self.session
        if session is None:
            raise SocketError("socket not connected")
        return session.channel.user_send(payload, completion)

    def recv(self, request: Optional[_PayloadRequest] = None) -> Event:
        """Mode-dependent receive; fires with the payload (or None for an
        empty asynchronous receive).  ``request``: the event to complete,
        when the caller brings its own."""
        session = self.session
        if session is None:
            raise SocketError("socket not connected")
        if request is None:
            request = _PayloadRequest(self.sim)
        return session.channel.user_receive(request)

    def recv_nowait(self) -> tuple[bool, Any]:
        session = self.session
        if session is None:
            raise SocketError("socket not connected")
        return session.channel.user_receive_nowait()

    def recv_latest_nowait(self) -> tuple[bool, Any]:
        session = self.session
        if session is None:
            raise SocketError("socket not connected")
        return session.channel.user_receive_latest_nowait()

    @property
    def remote(self) -> Optional[str]:
        return self.session.remote if self.session else None
