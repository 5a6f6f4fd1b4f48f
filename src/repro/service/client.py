"""A stdlib HTTP client for the campaign service daemon.

Thin by design: :class:`ServiceClient` speaks exactly the wire schema
of :mod:`repro.service.schema` over one persistent
``http.client.HTTPConnection`` — one TCP connect (and one daemon handler
thread) per client, not per call — decodes structured error bodies into
:class:`ServiceError`, and waits with a long-poll
(``GET /campaigns/<id>?wait=<seconds>``): the daemon parks the request
until the campaign finishes, so :meth:`~ServiceClient.wait` costs one
request however long the solve takes.

Everything a submission needs for bit-identical results travels inside
the :class:`~repro.campaign.jobs.CampaignJob` wire dicts; the client
adds no parameters of its own.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import threading
import time
from typing import Any, Iterable, Optional

from ..campaign.jobs import CampaignJob
from .schema import submission_to_wire

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx answer from the daemon, with its structured body.

    ``status`` is the HTTP status (0 for a connection-level failure);
    ``code`` and ``payload`` carry the service's JSON error envelope
    when one was returned (plain-text bodies from middle boxes decode
    to ``code="http-error"``).
    """

    def __init__(self, message: str, *, status: int,
                 payload: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}

    @property
    def code(self) -> str:
        return self.payload.get("error", {}).get("code", "http-error")


class ServiceClient:
    """Client for one daemon at ``base_url`` (e.g. a
    :attr:`~repro.service.daemon.ServiceDaemon.url`).  Threads may share
    it (requests take turns on the connection); :meth:`close`, or
    leaving the ``with`` block, hangs up; a later call reconnects."""

    def __init__(self, base_url: str, *, timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        scheme, _, netloc = self.base_url.partition("://")
        if scheme != "http":
            raise ValueError(f"not an http://host:port URL: {base_url!r}")
        self._conn = http.client.HTTPConnection(netloc, timeout=timeout)
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            if self._conn.sock is not None:
                try:  # hang up even if a forked child holds a copy
                    self._conn.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            self._conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Any:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        with self._lock:
            conn = self._conn
            # A kept connection the daemon has closed meanwhile (idle
            # timeout, restart) fails on its next use: reconnect and
            # resend, once.  If the first copy did arrive, the resent
            # submission is content-addressed — at worst cache-served.
            for may_retry in (conn.sock is not None, False):
                try:
                    conn.request(method, path, body=data, headers=headers)
                    response = conn.getresponse()
                    status = response.status
                    content_type = response.headers.get_content_type()
                    raw = response.read()
                    break
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    if may_retry and isinstance(exc, ConnectionError):
                        continue
                    # Daemon down, refused, DNS, torn response: status
                    # 0, no payload; the next call reconnects.
                    raise ServiceError(f"{method} {path} -> {exc!r}",
                                       status=0) from None
        if status >= 400:
            try:
                payload = json.loads(raw)
            except (ValueError, UnicodeDecodeError):
                payload = {}
            message = payload.get("error", {}).get(
                "message", raw.decode(errors="replace") or str(status))
            raise ServiceError(f"{method} {path} -> {status}: {message}",
                               status=status, payload=payload)
        if content_type == "application/octet-stream":
            return raw
        if content_type == "text/plain":  # /metrics exposition
            return raw.decode("utf-8")
        return json.loads(raw)

    # -- endpoints ---------------------------------------------------------------

    def submit(self, jobs: Iterable[CampaignJob], *,
               warm_start: bool = False,
               ladder: bool = False,
               tag: Optional[str] = None) -> str:
        """``POST /campaigns``; returns the campaign id."""
        wire = submission_to_wire(jobs, warm_start=warm_start, tag=tag,
                                  ladder=ladder)
        return self._request("POST", "/campaigns", wire)["id"]

    def status(self, cid: str) -> dict:
        """``GET /campaigns/<id>``."""
        return self._request("GET", f"/campaigns/{cid}")

    def results(self, cid: str) -> dict:
        """``GET /campaigns/<id>/results`` (409 until done)."""
        return self._request("GET", f"/campaigns/{cid}/results")

    def iterate(self, cid: str, cache_key: str):
        """Fetch one solution iterate as an ndarray, bit-exact."""
        import numpy as np

        raw = self._request(
            "GET", f"/campaigns/{cid}/iterates/{cache_key}.npy")
        return np.load(io.BytesIO(raw), allow_pickle=False)

    def stats(self) -> dict:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """``GET /metrics``: the Prometheus text exposition."""
        return self._request("GET", "/metrics")

    def shutdown(self) -> dict:
        """``POST /shutdown``: ask the daemon to drain and exit."""
        return self._request("POST", "/shutdown")

    def wait(self, cid: str, *, timeout: float = 600.0) -> dict:
        """Long-poll until the campaign leaves queued/running; returns
        the final status document (``status`` is ``done`` or
        ``failed``).  One request, unless the solve outlasts what one
        may park for (half the socket timeout; the daemon caps it)."""
        deadline = time.monotonic() + timeout
        while True:
            window = min(max(deadline - time.monotonic(), 0.0),
                         self.timeout / 2)
            status = self._request("GET",
                                   f"/campaigns/{cid}?wait={window:.3f}")
            if status["status"] in ("done", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {cid} still {status['status']} after "
                    f"{timeout:.0f}s")
