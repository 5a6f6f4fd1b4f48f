"""Driver worker processes executing whole campaign branches.

A :class:`DriverPool` is the worker-process half of the branch
scheduler (:mod:`repro.campaign.scheduler`): N long-lived worker
processes, each owning a private :class:`~repro.resources.ResourceContext`
(its own problem cache and telemetry — see the ownership rules in
:mod:`repro.campaign.engine`), each executing whole warm-start
branches through the same :func:`~repro.campaign.engine._execute_chunk`
body in-process branches use.  Workers are farm-scheduled: branches
are handed out in admission order as drivers go idle, so the assignment
of branch→driver depends on timing but the *records* never do — every
branch is a self-contained deterministic job sequence.

The only cross-driver state is the result cache's disk layer: each
worker rebuilds its own :class:`~repro.campaign.cache.ResultCache` from
a picklable spec (:func:`cache_spec`), so a *rooted* cache is shared
through the flock-serialized directory while a memory-only cache is
private per worker (the parent re-members returned results, so repeat
runs of one campaign object still hit).
"""

from __future__ import annotations

import multiprocessing
import socket
import sys
import traceback
from multiprocessing.connection import wait as _connection_wait
from typing import Optional

__all__ = ["DriverBranchError", "DriverPool", "cache_spec"]


class DriverBranchError(RuntimeError):
    """One submission failed: its branch raised inside the worker (the
    worker survives; the message carries its traceback), or the worker
    died under it (the slot is respawned).

    ``ticket`` identifies the failed submission, so the caller fails one
    branch instead of the whole pool.
    """

    def __init__(self, message: str, ticket: int):
        super().__init__(message)
        self.ticket = ticket


def _start_method() -> Optional[str]:
    """``fork`` on Linux (workers inherit the loaded modules), None —
    the platform default — elsewhere: on macOS forking past loaded
    system frameworks can deadlock the child."""
    return "fork" if sys.platform.startswith("linux") else None


def cache_spec(cache) -> Optional[dict]:
    """Picklable constructor kwargs rebuilding ``cache`` in a worker.

    Only the configuration crosses the pipe — never entries or
    counters; a rooted cache's workers share its *directory*, nothing
    in-process.
    """
    if cache is None:
        return None
    return {
        "root": str(cache.root) if cache.root is not None else None,
        "max_memory_entries": cache.max_memory_entries,
        "max_disk_bytes": cache.max_disk_bytes,
    }


def _worker_main(conn, index: int, spec: Optional[dict]) -> None:
    """Driver body: build a private context, serve branches until close."""
    # Imported here, not at module top: under spawn/forkserver the
    # worker imports this module fresh, and the engine import would drag
    # the whole solver stack into *every* interpreter that merely
    # imports repro.campaign.driver.
    from ..resources import ResourceContext
    from ..telemetry import merge_snapshots
    from .cache import ResultCache
    from .engine import _execute_chunk

    resources = ResourceContext(name=f"driver-{index}")
    cache = ResultCache(**spec) if spec is not None else None
    branches_done = 0

    def _telemetry_snapshot():
        """This worker's mergeable view: context telemetry (kernels,
        DES) plus the private cache registry."""
        snap = resources.telemetry.snapshot()
        if cache is not None:
            snap = merge_snapshots(snap, cache.telemetry_snapshot())
        return snap

    try:
        conn.send(("ready", index))
        while True:
            msg = conn.recv()
            if msg[0] == "close":
                break
            _tag, branch_index, tasks = msg
            try:
                records = _execute_chunk(
                    tasks, cache=cache, resources=resources,
                )
                branches_done += 1
                # Every completion carries this worker's lifetime
                # counters: the parent aggregates cache stats across
                # drivers without an extra protocol round-trip, and a
                # long-lived service can report utilization while other
                # branches are still in flight.
                snapshot = {
                    "branches": branches_done,
                    "cache": cache.stats() if cache is not None else None,
                    "telemetry": _telemetry_snapshot(),
                }
                conn.send(("done", branch_index, records, snapshot))
            except Exception:  # surface the traceback, don't die silently
                conn.send(("error", branch_index, traceback.format_exc()))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        # Final telemetry rides the close handshake.
        try:
            conn.send(("closed", _telemetry_snapshot()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        conn.close()


class DriverPool:
    """N worker processes executing campaign branches concurrently.

    :meth:`submit` / :meth:`wait` are the non-blocking ticket API the
    branch scheduler interleaves branches from several plans with:
    ``submit`` hands one branch to an idle worker and returns
    immediately (check :attr:`idle` first), and ``wait`` collects
    whichever submissions have completed.  :meth:`run_branches` is the
    blocking form over the two for a fixed list of branches.
    """

    def __init__(self, drivers: int, *, cache_spec: Optional[dict] = None):
        # First thing, so close() — and the __del__ safety net — work on
        # a pool that fails anywhere in construction.
        self._closed = False
        self._conns = []
        self._procs = []
        self._idle: list[int] = []
        self._active: dict[int, int] = {}  # worker -> ticket
        # The wake handle: wake() writes, wait() selects on the read
        # end.  Writes never block — a full buffer already wakes.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        drivers = int(drivers)
        if drivers < 1:
            raise ValueError(f"drivers must be >= 1, got {drivers}")
        self.drivers = drivers
        self._next_ticket = 0
        # Completions/errors drained alongside a raising wait() are
        # delivered by the *next* wait() instead of being dropped.
        self._pending: list[tuple[int, list]] = []
        self._pending_errors: list["DriverBranchError"] = []
        self._snapshots: list[Optional[dict]] = [None] * drivers
        # Latest telemetry snapshot per worker.  Updated from every
        # "done" message and finalized by the close handshake; a crashed
        # worker keeps its last piggybacked snapshot instead of losing
        # everything it reported while alive.
        self._telemetry: list[Optional[dict]] = [None] * drivers
        self._cache_spec = cache_spec
        self._ctx = multiprocessing.get_context(_start_method())
        try:
            for w in range(drivers):
                conn, proc = self._spawn(w)
                self._conns.append(conn)
                self._procs.append(proc)
            for w in range(drivers):
                self._await_ready(w)
            self._idle = list(range(drivers))
        except BaseException:
            self.close()
            raise

    def _spawn(self, w: int):
        """Start a worker process for slot ``w``: ``(pipe end, process)``."""
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child, w, self._cache_spec),
            name=f"repro-campaign-driver-{w}",
        )
        proc.start()
        child.close()
        return parent, proc

    def _await_ready(self, w: int) -> None:
        try:
            msg = self._conns[w].recv()
        except EOFError:
            raise RuntimeError(
                f"campaign driver {w} died before reporting ready"
            ) from None
        if msg[0] != "ready":
            raise RuntimeError(
                f"campaign driver {w} failed to start: {msg!r}")

    def _respawn(self, w: int) -> Optional[int]:
        """Replace the dead worker of slot ``w``; returns its exit code.
        Its last piggybacked cache/telemetry snapshots stay until the
        new worker's first completion supersedes them."""
        self._conns[w].close()
        self._procs[w].join()
        exitcode = self._procs[w].exitcode
        self._conns[w], self._procs[w] = self._spawn(w)
        self._await_ready(w)
        return exitcode

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "DriverPool is closed — its workers are gone; build a "
                "fresh Campaign instead of reusing a closed one"
            )

    # -- non-blocking ticket API -------------------------------------------------

    @property
    def idle(self) -> int:
        """Workers currently without a branch in flight."""
        return len(self._idle)

    @property
    def busy(self) -> int:
        """Workers currently executing a branch."""
        return len(self._active)

    def submit(self, tasks) -> tuple[int, int]:
        """Hand one branch — a list of ``(job, cache_key, signature,
        warm_from)`` task tuples — to an idle worker; returns ``(ticket,
        worker)``, the ticket to match against :meth:`wait` results.

        Raises when no worker is idle: admission control is the
        caller's job (check :attr:`idle` first), not a hidden queue's.
        """
        self._check_open()
        if not self._idle:
            raise RuntimeError("no idle driver to submit to")
        w = self._idle[0]
        ticket = self._next_ticket
        try:
            self._conns[w].send(("branch", ticket, tasks))
        except OSError:
            # The worker died while idle: replace it and hand over again.
            self._respawn(w)
            self._conns[w].send(("branch", ticket, tasks))
        self._idle.pop(0)
        self._next_ticket += 1
        self._active[w] = ticket
        return ticket, w

    def wake(self) -> None:
        """Make a :meth:`wait` blocked in another thread (or the next
        one) return now, e.g. because an idle worker has work to get."""
        try:
            self._wake_w.send(b"\0")
        except OSError:  # buffer full of wakes already, or pool closed
            pass

    def wait(self, timeout: Optional[float] = None) -> list[tuple[int, list]]:
        """Collect completed submissions: ``[(ticket, records), ...]``.

        Blocks up to ``timeout`` seconds (None = until at least one
        completion or a :meth:`wake`) and drains every worker that is
        ready by then; an empty list means all submissions are still
        in flight.  A branch error or a worker dying under its branch
        raises :class:`DriverBranchError` here, naming driver and
        ticket, with the worker back in rotation (a dead one respawned);
        a raising drain never *loses* work — completions (and further
        errors) collected in the same drain are delivered by the next
        call instead.
        """
        self._check_open()
        if self._pending:
            completed, self._pending = self._pending, []
            return completed
        if self._pending_errors:
            raise self._pending_errors.pop(0)
        if not self._active:
            return []
        ready = _connection_wait(
            [self._wake_r, *(self._conns[w] for w in self._active)],
            timeout)
        completed = []
        for conn in ready:
            if conn is self._wake_r:
                conn.recv(4096)
                continue
            w = self._conns.index(conn)
            ticket = self._active.pop(w)
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                msg = ("error", ticket, "the worker process died "
                       f"(exit code {self._respawn(w)})")
            if msg[0] == "error":
                # The worker's execute loop survived (or the slot has a
                # fresh worker); put it back in rotation before
                # surfacing the branch failure.
                self._idle.append(w)
                self._pending_errors.append(DriverBranchError(
                    f"campaign driver {w} failed on branch ticket "
                    f"{ticket}:\n{msg[2]}", ticket=ticket,
                ))
                continue
            self._snapshots[w] = msg[3]
            tele = msg[3].get("telemetry")
            if tele is not None:
                self._telemetry[w] = tele
            self._idle.append(w)
            completed.append((ticket, msg[2]))
        if self._pending_errors:
            self._pending.extend(completed)
            raise self._pending_errors.pop(0)
        return completed

    def cache_stats(self) -> list[Optional[dict]]:
        """Latest per-worker cache-counter snapshots (None until a
        worker has completed its first branch, or when the pool runs
        cacheless)."""
        return [
            None if snap is None else snap.get("cache")
            for snap in self._snapshots
        ]

    def telemetry_snapshots(self) -> list[Optional[dict]]:
        """Latest per-worker telemetry snapshots (None until a worker
        has completed a branch).  After :meth:`close` these are the
        final close-handshake snapshots; a crashed worker retains its
        last in-flight one."""
        return list(self._telemetry)

    def utilization(self) -> dict:
        """Pool occupancy + per-worker branch counts, for /stats."""
        return {
            "drivers": self.drivers,
            "busy": self.busy,
            "idle": self.idle,
            "branches_per_driver": [
                0 if snap is None else snap.get("branches", 0)
                for snap in self._snapshots
            ],
        }

    # -- batch API ---------------------------------------------------------------

    def run_branches(self, branches, progress=None) -> list[list]:
        """Execute every branch; returns per-branch record lists in
        *submission* order (whatever order drivers finished in).

        ``branches`` is a list of task lists as built by the engine —
        each task ``(job, cache_key, signature, warm_from)``.
        ``progress`` is called per record in completion order.
        """
        self._check_open()
        if self._active:
            raise RuntimeError(
                "run_branches on a pool with ticket submissions in "
                "flight — drain wait() first"
            )
        results: list = [None] * len(branches)
        tickets: dict[int, int] = {}
        pending = list(range(len(branches)))
        outstanding = 0
        while pending or outstanding:
            while pending and self._idle:
                b = pending.pop(0)
                tickets[self.submit(branches[b])[0]] = b
                outstanding += 1
            for ticket, records in self.wait():
                results[tickets.pop(ticket)] = records
                outstanding -= 1
                if progress is not None:
                    for record in records:
                        progress(record)
        return results

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self._idle, self._active = [], {}
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        # Harvest the final telemetry handshake.  The worker sends
        # ("closed", snapshot) as it exits; stale "done"/"error"
        # replies from an unclean drain are skipped (their telemetry
        # was already captured in wait() or is superseded by the final
        # snapshot).  A dead or hung worker simply keeps its last
        # piggybacked snapshot.
        for w, conn in enumerate(self._conns):
            try:
                while conn.poll(timeout):
                    msg = conn.recv()
                    if msg[0] == "closed":
                        if msg[1] is not None:
                            self._telemetry[w] = msg[1]
                        break
            except (EOFError, BrokenPipeError, OSError):
                continue
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=timeout)
        for conn in (*self._conns, self._wake_r, self._wake_w):
            conn.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close(timeout=0.5)
        except Exception:
            pass
