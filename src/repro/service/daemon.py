"""The campaign service daemon: an HTTP front door over the branch
scheduler.

The paper's P2PDC environment is a *service*: users submit obstacle
tasks to a long-lived peer network, they do not run one-shot scripts.
This module is that front door for the reproduction — a stdlib-only
threaded HTTP daemon that owns one
:class:`~repro.campaign.scheduler.BranchScheduler` (one result cache,
one driver pool, one private :class:`~repro.resources.ResourceContext`)
for its whole lifetime and feeds it from many requests.  Planning,
readiness, in-flight coalescing of shared cache keys, in-process serving
of memory-resident branches and failure isolation are the scheduler's —
the ones ``Campaign.run`` uses, which is why daemon records are
bit-identical to CLI campaign records and a second submission of a
solved matrix never solves again.  What is left here:

- **Bounded admission and drain.**  A submission's branches join the
  scheduler's FIFO queue unless that would exceed ``max_queue`` (503)
  or the service is draining (409); a drain finishes everything
  accepted, then stops.
- **The lock and the thread.**  The scheduler has neither: one thread
  pumps ``dispatch``/``collect``, one lock serializes ``admit``,
  ``dispatch`` and the views (``collect`` blocks on the worker pipes
  outside it).  Nothing ticks: a submission wakes the thread — out of
  ``collect`` too, so an idle driver starts at once — and the thread
  wakes the parked long-polls when a branch changed status.
- **Views and HTTP/1.1 keep-alive**, one handler thread per connection
  (closed after 30 idle seconds; clients reconnect).  Each response is
  one ``send`` with ``TCP_NODELAY`` on: a header segment ahead of its
  body on a kept connection waits out Nagle against the peer's delayed
  ACK — 44 ms per call, measured.
- **Framing by hand.**  ``http.server`` keeps the connection loop and
  ``send_error``; the request line and headers are read here, because a
  MIME parser per request cost more than the view it fronts.  HTTP/1.0
  and 1.1, at most 100 header lines of 64 KiB (else 431), bodies by one
  decimal ``Content-Length`` only (no chunked, no obs-fold: 400).

Endpoints (see :mod:`repro.service.schema` for the wire format)::

    POST /campaigns                      submit a job matrix -> id
    GET  /campaigns/<id>[?wait=<s>]      queued/running/done per branch;
                                         with wait, answered when done or
                                         failed, or after min(s, MAX_WAIT)
    GET  /campaigns/<id>/results         records + provenance
    GET  /campaigns/<id>/iterates/<cache_key>.npy
                                         the solution iterate, bit-exact
    GET  /stats                          cache/pool/queue counters
    GET  /metrics                        Prometheus text exposition
    POST /shutdown                       drain accepted work, then exit

Reading ``/metrics`` (the service's, the cache's and every driver's
registry, merged on demand) or parking a long-poll never touches modeled
state: an observed daemon's records are bit-identical to a quiet one's.
"""

from __future__ import annotations

import io
import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

import numpy as np

from ..campaign.cache import ResultCache
from ..campaign.engine import CampaignResult
from ..campaign.jobs import plan_jobs
from ..campaign.scheduler import Branch, BranchScheduler
from ..resources import ResourceContext
from ..telemetry import CONTENT_TYPE, render_prometheus
from .client import FramingError, read_headers
from .schema import (SCHEMA_VERSION, SchemaError, Submission,
                     submission_from_wire)

__all__ = ["AdmissionError", "CampaignService", "ServiceDaemon"]

#: Request bodies past this size are refused before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest one ``?wait=`` request stays parked; clients re-issue.
MAX_WAIT = 30.0


class AdmissionError(Exception):
    """A submission the service cannot accept right now."""

    def __init__(self, message: str, *, code: str, status: int):
        super().__init__(message)
        self.code = code
        self.status = status

    def payload(self) -> dict[str, Any]:
        return {"error": {"code": self.code, "message": str(self)}}


class _CampaignState:
    """Everything the daemon tracks about one submission."""

    def __init__(self, submission: Submission, plan,
                 branches: list[Branch]):
        self.tag = submission.tag
        self.plan = plan
        self.branches = branches

    @property
    def status(self) -> str:
        states = {branch.status for branch in self.branches}
        if states == {"queued"}:
            return "queued"
        if "failed" in states:
            return "failed"
        if states == {"done"}:
            return "done"
        return "running"


class CampaignService:
    """The daemon's state machine, independent of HTTP.

    ``drivers`` is the size of the persistent worker pool; ``cache``
    defaults to a private in-memory :class:`ResultCache` (pass a rooted
    one to share results with CLI campaigns and across restarts).
    ``autostart=False`` leaves the scheduler thread unstarted — tests
    use it to fill the admission queue deterministically, then
    :meth:`start`.
    """

    def __init__(self, *, cache: Optional[ResultCache] = None,
                 drivers: int = 1, max_queue: int = 64,
                 autostart: bool = True):
        if drivers < 1:
            raise ValueError(f"drivers must be >= 1, got {drivers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.cache = cache if cache is not None else ResultCache()
        self.drivers = int(drivers)
        self.max_queue = int(max_queue)
        self.started = time.time()
        # The daemon's own execution context, for branches served
        # in-process.  Never the process default: a service must be
        # embeddable next to unrelated solves without sharing caches.
        self._resources = ResourceContext(name="service")
        self._m_submissions = self._resources.telemetry.counter(
            "repro_service_submissions_total")
        self._scheduler = BranchScheduler(
            cache=self.cache, workers=self.drivers,
            resources=self._resources)
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._campaigns: dict[str, _CampaignState] = {}
        self._seq = 0
        self._draining = False
        self._drained = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._run_scheduler, name="campaign-scheduler",
                daemon=True,
            )
            self._thread.start()

    def drain(self) -> dict[str, Any]:
        """Stop admitting; finish everything accepted (a paused service
        starts for it); then stop.

        Returns a snapshot of the work being drained.  Idempotent.
        """
        with self._wake:
            self._draining = True
            queued = len(self._scheduler.queue)
            running = self._scheduler.running
            self._wake.notify_all()
        self.start()
        return {"draining": True, "queued_branches": queued,
                "running_branches": running}

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until a drain completed (the scheduler thread exited)."""
        return self._drained.wait(timeout)

    def close(self, timeout: float = 60.0) -> None:
        """Drain and wait; the hard stop for embedders and tests."""
        self.drain()
        if not self.join(timeout):
            raise RuntimeError("campaign service failed to drain in time")

    # -- admission ---------------------------------------------------------------

    def submit(self, submission: Submission) -> str:
        """Plan a submission and admit its branches; returns the id.

        Raises :class:`AdmissionError` when draining (409) or when the
        admission queue is full (503).
        """
        plan = plan_jobs(list(submission.jobs),
                         warm_start=submission.warm_start,
                         ladder=submission.ladder)
        n_branches = len(plan.branches())
        with self._wake:
            if self._draining:
                raise AdmissionError(
                    "service is draining and no longer admits work",
                    code="draining", status=409)
            queued = len(self._scheduler.queue)
            if queued + n_branches > self.max_queue:
                raise AdmissionError(
                    f"admission queue full ({queued} of "
                    f"{self.max_queue} branches queued); retry later",
                    code="queue-full", status=503)
            self._seq += 1
            cid = f"c{self._seq:06d}"
            self._campaigns[cid] = _CampaignState(
                submission, plan, self._scheduler.admit(plan))
            self._m_submissions.inc()
            self._wake.notify_all()
            self._scheduler.wake()
        return cid

    # -- scheduler thread --------------------------------------------------------

    def _run_scheduler(self) -> None:
        sched = self._scheduler
        error = None
        try:
            while True:
                with self._wake:
                    sched.dispatch()
                    self._wake.notify_all()  # the parked long-polls
                    if not sched.running:
                        if self._draining and not sched.queue:
                            break
                        self._wake.wait()  # for submit() or drain()
                        continue
                # Outside the lock: submissions and status reads must
                # not block on a branch in flight (submit cuts it short).
                sched.collect()
        except Exception as exc:  # pool loss and other non-branch faults
            error = exc
        finally:
            with self._lock:
                self._draining = True
            sched.close(error)  # ... failing whatever is unfinished
            self._drained.set()
            with self._wake:
                self._wake.notify_all()

    # -- views -------------------------------------------------------------------

    def _get(self, cid: str) -> _CampaignState:
        state = self._campaigns.get(cid)
        if state is None:
            raise KeyError(cid)
        return state

    def wait_finished(self, cid: str, seconds: float) -> None:
        """Park the caller until campaign ``cid`` is done or failed, or
        ``seconds`` (at most :data:`MAX_WAIT`) passed.  The lock is
        given up while parked: nothing waits behind a long-poll."""
        with self._wake:
            state = self._get(cid)
            self._wake.wait_for(
                lambda: state.status in ("done", "failed"),
                min(seconds, MAX_WAIT))

    def status(self, cid: str) -> dict[str, Any]:
        with self._lock:
            state = self._get(cid)
            positions = {id(branch): pos for pos, branch
                         in enumerate(self._scheduler.queue)}
            branches = []
            done_jobs = 0
            for index, branch in enumerate(state.branches):
                if branch.status == "done":
                    done_jobs += len(branch.tasks)
                entry: dict[str, Any] = {
                    "index": index,
                    "status": branch.status,
                    "jobs": len(branch.tasks),
                    "cache_keys": branch.cache_keys,
                }
                position = positions.get(id(branch))
                if position is not None:
                    entry["queue_position"] = position
                if branch.driver is not None:
                    entry["driver"] = branch.driver
                if branch.error is not None:
                    entry["error"] = _describe(branch.error)
                branches.append(entry)
            return {
                "version": SCHEMA_VERSION,
                "id": cid,
                "tag": state.tag,
                "status": state.status,
                "unique_jobs": len(state.plan.order),
                "submitted_jobs": len(state.plan.jobs),
                "done_jobs": done_jobs,
                "branches": branches,
            }

    def results(self, cid: str) -> dict[str, Any]:
        with self._lock:
            state = self._get(cid)
            status = state.status
            if status == "failed":
                errors = [_describe(b.error) for b in state.branches
                          if b.error is not None]
                raise SchemaError(
                    "campaign failed: " + "; ".join(errors),
                    code="campaign-failed")
            if status != "done":
                raise SchemaError(
                    f"campaign {cid} is {status}; results exist once "
                    f"it is done", code="not-done")
            outcome = CampaignResult.from_branches(state.plan,
                                                   state.branches)
        jobs = []
        for record, row in zip(outcome.records, outcome.rows()):
            jobs.append({
                "key": record.key,
                "cache_key": record.cache_key,
                "label": record.job.label(),
                "job": record.job.to_wire(),
                "source": record.source,
                "warm_from": record.warm_from,
                "wall_time": record.wall_time,
                "row": row,
                "provenance": record.result.report.provenance,
                "iterate": f"/campaigns/{cid}/iterates/"
                           f"{record.cache_key}.npy",
            })
        return {
            "version": SCHEMA_VERSION,
            "id": cid,
            "tag": state.tag,
            "status": "done",
            "jobs": jobs,
            "summary": {
                "jobs": outcome.n_jobs,
                "solved": outcome.runs,
                "cache_hits": outcome.cache_hits,
                "duplicates": outcome.duplicates,
            },
        }

    def iterate_bytes(self, cid: str, ckey: str) -> bytes:
        """The solution iterate for one cache key, as ``.npy`` bytes:
        ``np.save`` of the cached iterate (bit-exact, dtype kept)."""
        with self._lock:
            state = self._get(cid)
            record = None
            for branch in state.branches:
                for candidate in branch.records or []:
                    if candidate.cache_key == ckey:
                        record = candidate
                        break
            if record is None:
                raise KeyError(ckey)
        buffer = io.BytesIO()
        np.save(buffer, record.result.report.u)
        return buffer.getvalue()

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` payload.  Schema (all keys always
        present)::

            version       wire schema version
            uptime_s      seconds since service construction
            draining      bool
            cache         registry-backed counters, aggregated over the
                          service's own cache instance plus the latest
                          snapshot of every driver worker: hits, misses,
                          stores, evictions, hit_rate,
                          lock_wait_seconds (flock contention)
            pool          drivers / busy / idle / branches_per_driver
            queue         depth / running / max, plus "wait" — the
                          branch queue-wait histogram summary
                          {count, sum, mean, buckets: {le: n}}
                          (admission -> dispatch latency)
            service       scheduler counters: submissions,
                          branches_inline (served from the daemon's
                          memory cache without a driver),
                          branches_driver, branches_failed
            campaigns     total + count per status
        """
        with self._lock:
            sched = self._scheduler
            if sched.pool is not None:
                utilization = sched.pool.utilization()
            else:
                utilization = {
                    "drivers": self.drivers, "busy": 0,
                    "idle": 0, "branches_per_driver": [],
                }
            by_status: dict[str, int] = {}
            for state in self._campaigns.values():
                by_status[state.status] = by_status.get(state.status, 0) + 1
            return {
                "version": SCHEMA_VERSION,
                "uptime_s": time.time() - self.started,
                "draining": self._draining,
                "cache": sched.cache_stats(),
                "pool": utilization,
                "queue": {
                    "depth": len(sched.queue),
                    "running": sched.running,
                    "max": self.max_queue,
                    "wait": sched.queue_wait.summary(),
                },
                "service": {
                    "submissions": int(self._m_submissions.value),
                    "branches_inline": int(sched.inline.value),
                    "branches_driver": int(sched.dispatched.value),
                    "branches_failed": int(sched.failed.value),
                },
                "campaigns": {"total": len(self._campaigns), **by_status},
            }

    def telemetry_snapshot(self) -> dict:
        """One mergeable snapshot across every registry the service can
        see; see :meth:`BranchScheduler.telemetry_snapshot`."""
        with self._lock:
            return self._scheduler.telemetry_snapshot()


def _describe(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


# -- HTTP layer ---------------------------------------------------------------------


class _ServiceHTTPServer(ThreadingHTTPServer):
    # server_close() hangs up on whatever is still connected and joins
    # the handler threads: none outlives the daemon.
    daemon_threads = False
    allow_reuse_address = True
    timeout = 0.1  # how often the serve loop looks for a finished drain

    def __init__(self, address, handler, service: CampaignService,
                 quiet: bool):
        self.service = service
        self.quiet = quiet
        self.telemetry = service._resources.telemetry
        self._open: set[socket.socket] = set()  # accepted, not yet closed
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        self._open.add(request)
        self.telemetry.counter("repro_service_connections_total").inc()
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        for request in list(self._open):
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # its handler thread closed it meanwhile
                pass
        super().server_close()


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-campaign-service/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on the accepted socket
    timeout = 30.0  # a kept connection this long without a request closes

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if not self.server.quiet:  # pragma: no cover - log plumbing
            super().log_message(format, *args)

    # A client that hangs up mid-response must not take its handler
    # thread down with a stack trace.
    def handle_one_request(self):
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def parse_request(self) -> bool:
        """The request line and headers, read by hand: the daemon needs
        four headers, not a MIME parser.  On ``False`` it has answered."""
        self.command, self.request_version = None, self.protocol_version
        self.close_connection = True
        self.requestline = self.raw_requestline.decode(
            "latin-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        version = words[-1]
        if len(words) != 3 or version not in ("HTTP/1.0", "HTTP/1.1"):
            other_version = len(words) == 3 and version.startswith("HTTP/")
            self.send_error(505 if other_version else 400,
                            f"Bad request line {self.requestline!r}")
            return False
        self.command, path, self.request_version = words
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = headers = read_headers(self.rfile)
        except FramingError as exc:
            self.send_error(exc.status, str(exc))
            return False
        connection = headers.get(b"connection", b"").lower()
        self.close_connection = connection == b"close" or (
            version == "HTTP/1.0" and connection != b"keep-alive")
        # One decimal Content-Length or none (repeats were joined with
        # ", "): anything else leaves no way to find the next request.
        # Until _read_body takes it, the body is still in the stream.
        length = headers.get(b"content-length", b"0")
        framed = length.isdigit() and b"transfer-encoding" not in headers
        self._body_unread = not framed or int(length) > 0
        if not framed:
            self._send_error_json(
                400, "bad-length", "a body needs exactly one decimal "
                "Content-Length and no Transfer-Encoding")
            return False
        if headers.get(b"expect", b"").lower() == b"100-continue" \
                and version == "HTTP/1.1":
            return self.handle_expect_100()
        return True

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        """The whole response in one ``send`` (see the module note)."""
        if self._body_unread:
            self.close_connection = True
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                + "Connection: close\r\n" * self.close_connection + "\r\n")
        self.log_request(status, len(body))
        self.wfile.write(head.encode("latin-1") + body)

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, "application/json",
                   json.dumps(payload, separators=(",", ":")).encode())

    def _send_error_json(self, status: int, code: str,
                         message: str) -> None:
        self._send_json(status,
                        {"error": {"code": code, "message": message}})

    def _read_body(self) -> Any:
        if b"content-length" not in self.headers:
            raise SchemaError("missing Content-Length", code="bad-length")
        length = int(self.headers[b"content-length"])
        if length > MAX_BODY_BYTES:
            raise SchemaError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit", code="body-too-large")
        raw = self.rfile.read(length)
        self._body_unread = False
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"request body is not valid JSON: {exc}",
                              code="bad-json") from None

    def _count(self, endpoint: str) -> None:
        self.server.telemetry.counter("repro_service_requests_total",
                                      endpoint=endpoint).inc()

    def _route(self) -> None:
        path, _, query = self.path.partition("?")
        parts = [p for p in path.split("/") if p]
        service = self.server.service
        try:
            match self.command, parts:
                case "POST", ["campaigns"]:
                    self._count("submit")
                    cid = service.submit(
                        submission_from_wire(self._read_body()))
                    self._send_json(202, {
                        "version": SCHEMA_VERSION,
                        "id": cid,
                        "status_url": f"/campaigns/{cid}",
                        "results_url": f"/campaigns/{cid}/results",
                    })
                case "POST", ["shutdown"]:
                    self._count("shutdown")
                    self._send_json(200, service.drain())
                case "GET", ["campaigns", cid]:
                    self._count("status")
                    if query:  # the one query there is: wait=<seconds>
                        wait = re.fullmatch(r"wait=(\d+\.?\d*)", query)
                        if wait is None:
                            raise SchemaError(
                                "wait must be a number of seconds >= 0",
                                code="bad-wait", field="wait")
                        service.wait_finished(cid, float(wait[1]))
                    self._send_json(200, service.status(cid))
                case "GET", ["campaigns", cid, "results"]:
                    self._count("results")
                    self._send_json(200, service.results(cid))
                case "GET", ["campaigns", cid, "iterates", name] \
                        if name.endswith(".npy"):
                    self._count("iterate")
                    self._send(200, "application/octet-stream",
                               service.iterate_bytes(cid, name[:-4]))
                case "GET", ["stats"]:
                    self._count("stats")
                    self._send_json(200, service.stats())
                case "GET", ["metrics"]:
                    self._count("metrics")
                    text = render_prometheus(service.telemetry_snapshot())
                    self._send(200, CONTENT_TYPE, text.encode("utf-8"))
                case "GET", ["healthz"]:
                    self._count("healthz")
                    self._send_json(200, {"ok": True})
                case ("GET" | "POST"), _:
                    self._count("other")
                    raise KeyError(self.path)
                case _:
                    self._count("other")
                    self._send_error_json(
                        405, "method-not-allowed",
                        "only GET and POST are supported")
        except KeyError as exc:
            self._send_error_json(404, "not-found",
                                  f"unknown resource {exc.args[0]!r}")
        except SchemaError as exc:
            status = 409 if exc.code in ("not-done",
                                         "campaign-failed") else 400
            self._send_json(status, exc.payload())
        except AdmissionError as exc:
            self._send_json(exc.status, exc.payload())
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_error_json(500, "internal", repr(exc))

    do_GET = do_POST = do_PUT = do_DELETE = _route


class ServiceDaemon:
    """The HTTP server around a :class:`CampaignService`.

    ``port=0`` binds an ephemeral port; read the real one from
    :attr:`address` (or pass ``port_file`` to have it written out for
    shell scripts).  ``serve_forever`` blocks until a drain completes;
    tests use :meth:`start` / :meth:`stop` threads.
    """

    def __init__(self, service: CampaignService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 quiet: bool = True):
        self.service = service
        self.httpd = _ServiceHTTPServer((host, port), _Handler, service,
                                        quiet)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve until a drain (``POST /shutdown``, :meth:`stop`, an
        interrupt) completes; returns fully cleaned up.  Connections go
        last, so parked and kept-alive clients still get their answers."""
        with self.httpd:  # server_close() last, whatever happens
            try:
                while not self.service.join(0):
                    self.httpd.handle_request()
            finally:
                self.service.close()

    def start(self) -> "ServiceDaemon":
        """Serve on a background thread (tests / embedding)."""
        self._thread = threading.Thread(target=self.serve_forever,
                                        name="campaign-service-http",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Drain and stop from the embedding side (idempotent)."""
        self.service.drain()
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():  # pragma: no cover - hung drain
                raise RuntimeError("service daemon failed to stop in time")
            self._thread = None
