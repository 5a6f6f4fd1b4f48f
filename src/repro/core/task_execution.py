"""Task execution: running sub-tasks on a peer.

"When a peer receives a sub-task, it finds the corresponding application
via application name and calls the Calculate() function."

:class:`TaskExecutor` is the peer-side component.  It owns the peer's
P2PSAP protocol instance and hides all session management from the
application: ``P2P_Send``/``P2P_Receive`` address *ranks*, and the
executor lazily opens one P2PSAP session per neighbouring rank (the
lower rank initiates, the higher rank accepts, so exactly one session
exists per pair).  Socket scheme options are set from the task's scheme
of computation, which is how the adaptation rules see the application's
requirement.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..p2psap.context import CommMode, Scheme
from ..p2psap.session import SessionState
from ..p2psap.socket_api import P2PSAP, P2PSAPSocket, _PayloadRequest
from ..simnet.kernel import _PENDING, Event, Interrupt, Simulator
from .env_bus import EnvBus
from .programming_model import Application, TaskContext

__all__ = ["TaskExecutor"]


class _Op:
    """A rank-addressed send (``payload``) or receive (``outer`` is a
    ``_PayloadRequest``), issued by task incarnation ``epoch`` and last
    started on ``sock``."""

    __slots__ = ("rank", "outer", "payload", "epoch", "sock")

    def __init__(self, rank: int, outer: Event, payload: Any, epoch: int):
        self.rank = rank
        self.outer = outer
        self.payload = payload
        self.epoch = epoch
        self.sock: Optional[P2PSAPSocket] = None


class TaskExecutor:
    """Peer-side runtime: application registry + rank-addressed sessions."""

    def __init__(
        self,
        sim: Simulator,
        bus: EnvBus,
        resources=None,
    ):
        self.sim = sim
        self.bus = bus
        #: The explicit :class:`~repro.resources.ResourceContext` every
        #: task this executor runs resolves its pooled resources
        #: (workspaces, shared runners, problems) against.  ``None`` =
        #: the process default.  Out-of-band on purpose: task params are
        #: simulated wire payload.
        self.resources = resources
        self.network = bus.network
        self.node = bus.node
        node_name = self.node.name
        self.protocol = P2PSAP(sim, self.network, node_name)
        self.applications: dict[str, Application] = {}
        bus.register("SUBTASK", self._handle_subtask)
        bus.register("APPMSG", self._handle_appmsg)
        #: Application-level environment messages (termination protocol,
        #: etc.), delivered as (src_rank, body) tuples.
        self.app_inbox = sim.channel(name=f"appmsg-{node_name}")
        # Current task state.
        self._rank: Optional[int] = None
        self._peer_names: list[str] = []
        self._scheme: Scheme = Scheme.HYBRID
        self._sockets: dict[int, P2PSAPSocket] = {}
        self._pending_accept: dict[str, Event] = {}
        #: Inbound sessions from peers outside the current task's name
        #: list, parked by remote name.  A faster neighbour's OPEN for
        #: the *next* task can arrive before this peer's own SUBTASK
        #: does (the session layer ACKs the OPEN immediately, so the
        #: initiator proceeds and never reconnects); refusing or
        #: dropping it would deadlock the pair.  The next task adopts
        #: matching parked sessions and closes the rest.
        self._early_sessions: dict[str, P2PSAPSocket] = {}
        # Crash/restart state (fault injection).  The running Calculate()
        # process, the sub-task a crash interrupted (so a recovered peer
        # can resume it), per-rank sends/receives awaiting completion
        # (re-issued when a session is replaced by a restarted peer), and
        # a generation counter that keeps the operations of a dead task
        # incarnation from being started or re-issued again.
        self._calc_proc = None
        self._current_task: Optional[tuple[str, dict]] = None
        self._crashed: Optional[tuple[str, dict]] = None
        self._force_initiate = False
        self._pending_ops: dict[int, list[_Op]] = {}
        self._ops_epoch = 0
        self._accept_pump = sim.spawn(self._accept_loop(), name=f"accept-{node_name}")
        self._checkpoint_sink: Optional[Callable[[int, Any], None]] = None

    # -- registry ---------------------------------------------------------------

    def register(self, app: Application) -> None:
        """Install an application (must happen on every peer)."""
        self.applications[app.name] = app

    # -- environment messages -------------------------------------------------------

    def _handle_subtask(self, src: str, body: dict) -> None:
        self.sim.spawn(
            self._run_subtask(src, body), name=f"subtask-{self.node.name}"
        )

    def _handle_appmsg(self, src: str, body: dict) -> None:
        self.app_inbox.put((body.get("src_rank"), body.get("body")))

    def env_send_to_rank(self, rank: int, body: Any) -> None:
        """Small reliable environment message to another rank (used by
        coordination protocols such as distributed termination)."""
        self.bus.send(self._name_of(rank), {
            "kind": "APPMSG", "src_rank": self._rank, "body": body,
        })

    def _run_subtask(self, manager: str, body: dict, restart: bool = False):
        app = self.applications.get(body["app_name"])
        if app is None:
            self.bus.send(manager, {
                "kind": "RESULT", "rank": body["rank"],
                "error": f"unknown application {body['app_name']!r}",
            })
            return
        self._rank = body["rank"]
        self._peer_names = list(body["peer_names"])
        self._scheme = Scheme.parse(body["scheme"])
        self._adopt_early_sessions()
        self._pending_ops = {}
        self._pending_accept = {}
        self._ops_epoch += 1
        # A recovered peer must initiate every neighbour session itself:
        # the surviving neighbours still hold (and use) the sessions from
        # before the crash, so nobody on that side will reconnect — the
        # inbound session replaces theirs via the accept pump.
        self._force_initiate = restart
        if not restart:
            self.app_inbox.clear()  # no stale coordination from a prior task
        ctx = TaskContext(
            executor=self,
            rank=self._rank,
            n_workers=len(self._peer_names),
            peer_names=self._peer_names,
            subtask=body["subtask"],
            scheme=self._scheme,
            params=body.get("params", {}),
        )
        calc = self.sim.spawn(app.calculate(ctx), name=f"calc-{self.node.name}")
        self._calc_proc = calc
        self._current_task = (manager, body)
        try:
            result = yield calc
        except Interrupt as intr:
            if intr.cause != "crash":
                raise
            # Abrupt peer death: a dead machine reports nothing — no
            # RESULT, no graceful session close.  crash_current_task()
            # already dropped the sockets and stashed what a restart
            # needs.
            return
        except Exception as err:  # report, don't kill the peer
            self.bus.send(manager, {
                "kind": "RESULT", "rank": self._rank, "error": repr(err),
            })
            self._teardown_sessions()
            return
        finally:
            self._calc_proc = None
        self.bus.send(manager, {
            "kind": "RESULT", "rank": self._rank, "result": result,
        })
        self._teardown_sessions()

    def _adopt_early_sessions(self) -> None:
        """Re-key pre-arrived inbound sessions under the new task's rank
        mapping.

        Anything still in ``_sockets`` at task start was accepted after
        the previous task tore down (its sockets were swapped out), i.e.
        it is an early OPEN for *this* task matched under the stale name
        list — carry it over by name.  Parked sessions from then-unknown
        peers are adopted the same way; whatever matches no rank of the
        new task really is stale and is closed now.
        """
        carried: dict[str, P2PSAPSocket] = {}
        for sock in self._sockets.values():
            carried[sock.remote] = sock
        for remote, sock in self._early_sessions.items():
            prev = carried.get(remote)
            if prev is not None and prev is not sock:
                prev.close()
            carried[remote] = sock
        self._early_sessions = {}
        self._sockets = {}
        for remote, sock in carried.items():
            if (remote in self._peer_names
                    and sock.session is not None
                    and sock.session.state is not SessionState.CLOSED):
                self._sockets[self._peer_names.index(remote)] = sock
            else:
                sock.close()

    #: Grace period before closing sessions after a task: peers finish at
    #: slightly different instants (the STOP broadcast takes a network
    #: hop), and an eager CLOSE would cut a neighbour off mid-exchange.
    LINGER = 5.0

    def _teardown_sessions(self) -> None:
        self._pending_ops = {}
        self._ops_epoch += 1
        sockets, self._sockets = self._sockets, {}
        if not sockets:
            return

        def linger(sockets=sockets):
            yield self.sim.timeout(self.LINGER)
            for sock in sockets.values():
                sock.close()

        self.sim.spawn(linger(), name=f"linger-{self.node.name}")

    # -- fault injection: crash & restart ----------------------------------------------

    def crash_current_task(self) -> bool:
        """Model an abrupt peer death for the running sub-task.

        The Calculate() process is interrupted (its ``finally`` still
        runs, so sweep workspaces and shared runners are drained and
        released — the simulation host survives even though the modeled
        machine dies), the sessions are dropped *without* a close
        handshake (a dead machine sends no FIN), and any pending get on
        the environment inbox is withdrawn so queued/retransmitted
        coordination messages are preserved for the restarted task
        instead of being eaten by a dead waiter.  Returns False when no
        task is running here.
        """
        calc = self._calc_proc
        if calc is None or not calc.is_alive:
            return False
        self._crashed = self._current_task
        # Sockets vanish with the process image (no FIN from a dead
        # machine); surviving neighbours keep their ends and the
        # restarted peer re-initiates.  Parked sessions die the same way.
        self._sockets = {}
        self._early_sessions = {}
        self._pending_ops = {}
        self._pending_accept = {}
        self._ops_epoch += 1
        self.app_inbox.drop_getters()
        calc.interrupt("crash")
        return True

    def restart_crashed_task(self, recovery: Optional[dict] = None) -> None:
        """Re-run the sub-task a crash interrupted on this peer.

        ``recovery`` is the payload of the freshest checkpoint (as
        captured by :meth:`store_checkpoint`): the restarted solve warm
        starts from its block and ghost planes and resumes the sweep
        counter, preserving relaxation-count provenance.  Without a
        checkpoint the task restarts cold (still flagged ``restarted``
        so the solver re-announces its convergence state).
        """
        if self._crashed is None:
            raise RuntimeError(f"no crashed task to restart on {self.node.name}")
        manager, body = self._crashed
        self._crashed = None
        body = dict(body)
        sub = dict(body["subtask"])
        sub["restarted"] = True
        if recovery is not None:
            sub["warm_start"] = recovery["block"]
            if recovery.get("ghost_below") is not None:
                sub["warm_ghost_below"] = recovery["ghost_below"]
            if recovery.get("ghost_above") is not None:
                sub["warm_ghost_above"] = recovery["ghost_above"]
            sub["start_sweep"] = int(recovery.get("sweep", 0))
        body["subtask"] = sub
        self.sim.spawn(
            self._run_subtask(manager, body, restart=True),
            name=f"subtask-{self.node.name}-restart",
        )

    # -- rank-addressed sessions ------------------------------------------------------

    def _name_of(self, rank: int) -> str:
        if not 0 <= rank < len(self._peer_names):
            raise IndexError(
                f"rank {rank} out of range (task has {len(self._peer_names)} peers)"
            )
        return self._peer_names[rank]

    def ensure_session(self, rank: int) -> Event:
        """Event firing once the session to ``rank`` is usable."""
        if rank in self._sockets:
            done = self.sim.event()
            done.succeed(self._sockets[rank])
            return done
        remote = self._name_of(rank)
        if remote == self.node.name:
            raise ValueError("a rank does not open a session to itself")
        if self._force_initiate or self._rank < rank:
            # Initiator side (always taken by a restarted peer — see
            # _run_subtask — since its neighbours hold live sessions and
            # will never reconnect towards it).
            sock = self.protocol.socket(scheme=self._scheme)
            established = sock.connect(remote)
            self._sockets[rank] = sock
            result = self.sim.event()
            established.callbacks.append(lambda _ev: result.succeed(sock))
            return result
        # Responder side: wait for the accept pump to match the remote.
        if remote not in self._pending_accept:
            self._pending_accept[remote] = self.sim.event()
        waiter = self._pending_accept[remote]
        result = self.sim.event()

        def ready(_ev: Event, rank=rank) -> None:
            sock = self._sockets.get(rank)
            if sock is not None:
                result.succeed(sock)

        if waiter.triggered:
            ready(waiter)
        else:
            waiter.callbacks.append(ready)
        return result

    def _accept_loop(self):
        """Match inbound sessions to ranks as they arrive."""
        listener = self.protocol.socket()
        try:
            while True:
                sock = yield listener.accept()
                remote = sock.remote
                if remote in self._peer_names:
                    rank = self._peer_names.index(remote)
                    self._sockets[rank] = sock
                    # A crashed-and-recovered peer re-initiates; its new
                    # session replaces the dead one, and whatever this
                    # side had in flight on the old session is re-issued
                    # so neither side blocks forever across the crash.
                    self._reissue_pending(rank, sock)
                waiter = self._pending_accept.pop(remote, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(sock)
                elif remote not in self._peer_names:
                    # A peer outside the current task: park the session
                    # — it may be an early OPEN for the next task (the
                    # initiator's SUBTASK beat ours here).  Task start
                    # adopts or discards it.
                    prev = self._early_sessions.pop(remote, None)
                    if prev is not None:
                        prev.close()
                    self._early_sessions[remote] = sock
        except Interrupt:
            return

    # -- communication API used by TaskContext -----------------------------------------
    #
    # Every send and receive completes on one *outer* event, made here
    # and handed down to the session as the data channel's completion
    # (a send's ``msg.meta["completion"]``, a receive's request): the
    # caller holds the very event the session fires, with no relay
    # event in between.  An op still pending is tracked in
    # ``_pending_ops`` until its outer event fires.  When a session is
    # replaced (a crashed peer came back and reconnected), ops issued
    # against the dead session are re-issued, with the same outer
    # event, on the new one; without this, a surviving neighbour whose
    # synchronous exchange straddled the crash would wait forever on a
    # session the restarted peer no longer reads.  The first completion,
    # old session or new, wins: the micro-protocols skip a completion
    # or receive request that has already fired
    # (``SynchronousMode._on_rx_appack``/``_on_appack_timeout``/
    # ``on_remove``, ``AsynchronousMode._on_user_send``,
    # ``BufferManagement._on_rx_deliver``), and ``_start_op`` re-issues
    # nothing that has.  An op of a dead task incarnation (teardown or
    # crash bumps ``_ops_epoch``) is never re-issued; a late completion
    # on its session fires an event nobody waits on any more.

    def send_to_rank(self, rank: int, payload: Any) -> Event:
        return self._issue(_Op(rank, self.sim.event(), payload, self._ops_epoch))

    def receive_from_rank(self, rank: int) -> Event:
        return self._issue(_Op(rank, _PayloadRequest(self.sim), None, self._ops_epoch))

    def _issue(self, op: _Op) -> Event:
        self._start_op(op)
        outer = op.outer
        if outer._value is _PENDING:  # else it completed during send: done
            self._pending_ops.setdefault(op.rank, []).append(op)
            outer.callbacks.append(partial(self._retire_op, op))
        return outer

    def _start_op(self, op: _Op) -> None:
        if op.epoch != self._ops_epoch or op.outer._value is not _PENDING:
            return  # the issuing task incarnation is gone, or op is done
        sock = self._sockets.get(op.rank)
        if sock is None:
            # Lazy connect, then (re-)enter with a session in place.
            est = self.ensure_session(op.rank)
            if est.triggered:
                self._start_op(op)
            else:
                est.callbacks.append(lambda _ev: self._start_op(op))
            return
        op.sock = sock
        if type(op.outer) is _PayloadRequest:
            sock.recv(op.outer)
        else:
            sock.send(op.payload, op.outer)

    def _retire_op(self, op: _Op, _event: Event) -> None:
        ops = self._pending_ops.get(op.rank)
        if ops is not None and op in ops:
            ops.remove(op)
            if not ops:
                del self._pending_ops[op.rank]

    def _reissue_pending(self, rank: int, sock: P2PSAPSocket) -> None:
        for op in list(self._pending_ops.get(rank, ())):
            if op.sock is not sock:
                self._start_op(op)

    def receive_nowait_from_rank(self, rank: int) -> tuple[bool, Any]:
        sock = self._sockets.get(rank)
        return (False, None) if sock is None else sock.recv_nowait()

    def receive_latest_nowait_from_rank(self, rank: int) -> tuple[bool, Any]:
        sock = self._sockets.get(rank)
        return (False, None) if sock is None else sock.recv_latest_nowait()

    def link_bandwidth(self, rank: int) -> float:
        link = self.network.link(self.node.name, self._name_of(rank))
        return link.bandwidth_bps

    def session_mode(self, rank: int) -> CommMode:
        sock = self._sockets.get(rank)
        if sock is None or sock.session is None or sock.session.config is None:
            raise LookupError(f"no session to rank {rank} yet")
        return sock.session.config.mode

    # -- extension hooks --------------------------------------------------------------

    def store_checkpoint(self, rank: int, state: Any) -> None:
        if self._checkpoint_sink is not None:
            self._checkpoint_sink(rank, state)

    def set_checkpoint_sink(self, sink: Callable[[int, Any], None]) -> None:
        self._checkpoint_sink = sink

    def close(self) -> None:
        self._teardown_sessions()
        self.protocol.close()
        if self._accept_pump.is_alive:
            self._accept_pump.interrupt("close")
