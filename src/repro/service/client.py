"""A hand-framed HTTP/1.1 client for the campaign service daemon.

Thin by design: :class:`ServiceClient` speaks exactly the wire schema
of :mod:`repro.service.schema` over one persistent TCP socket — one
connect (and one daemon handler thread) per client, not per call.  It
writes each request in one ``sendall`` and reads the answer by its
``Content-Length``: a MIME parser for three headers would cost more than
the call's work.  Error bodies decode into :class:`ServiceError`, and
waiting is a long-poll (``GET /campaigns/<id>?wait=<seconds>``): the
daemon parks the request until the campaign finishes, so
:meth:`~ServiceClient.wait` costs one request however long the solve
takes.

Everything a submission needs for bit-identical results travels inside
the :class:`~repro.campaign.jobs.CampaignJob` wire dicts; the client
adds no parameters of its own.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
import urllib.parse
from typing import Any, Iterable, Optional

from ..campaign.jobs import CampaignJob
from .schema import submission_to_wire

__all__ = ["ServiceClient", "ServiceError"]

#: Longest header line, and most header lines, either end reads.
MAX_LINE = 65536
MAX_HEADERS = 100


class FramingError(ValueError):
    """A header block that cannot be read; ``status`` is the answer a
    server gives it (431 past the limits, else 400)."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def read_headers(reader) -> dict[bytes, bytes]:
    """Header lines up to the blank one (CRLF or bare LF), as lower-cased
    name -> stripped value, repeats joined by ``b", "``.  Whitespace
    around a name — which includes an obs-fold continuation line — is a
    :class:`FramingError`, as are a torn block and the limits."""
    headers: dict[bytes, bytes] = {}
    for _ in range(MAX_HEADERS + 1):
        line = reader.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return headers
        if len(line) > MAX_LINE:
            raise FramingError("header line too long", 431)
        name, colon, value = line.partition(b":")
        if not colon or not name or name != name.strip():
            raise FramingError(f"bad header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        headers[name] = headers[name] + b", " + value \
            if name in headers else value
    raise FramingError(f"more than {MAX_HEADERS} header lines", 431)


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
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname:
            raise ValueError(f"not an http://host:port URL: {base_url!r}")
        self._address = (url.hostname, url.port or 80)
        self._host = f"Host: {url.netloc}\r\nAccept: application/json\r\n"
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._hang_up()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------------

    def _hang_up(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:  # hang up even if a forked child holds a copy
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._reader.close()
            sock.close()

    def _read_response(self) -> tuple[int, str, bytes]:
        """Status, media type and body of one answer, read by its
        ``Content-Length``; a ``ValueError`` for anything unframable."""
        reader = self._reader
        line = reader.readline(MAX_LINE + 1)
        if not line:  # a kept connection the daemon closed meanwhile
            raise ConnectionResetError("connection closed by the daemon")
        version, _, rest = line.partition(b" ")
        code = rest[:3]
        if not (version.startswith(b"HTTP/1.") and code.isdigit()):
            raise ValueError(f"bad status line {line[:80]!r}")
        headers = read_headers(reader)
        length = headers.get(b"content-length", b"")
        if not length.isdigit():
            raise ValueError(f"no usable Content-Length: {length!r}")
        raw = reader.read(int(length))
        if len(raw) != int(length):
            raise ValueError(f"body torn at {len(raw)} of {int(length)} B")
        if headers.get(b"connection", b"").lower() == b"close":
            self._hang_up()
        media = headers.get(b"content-type", b"text/plain").decode("latin-1")
        return int(code), media.partition(";")[0].strip().lower(), raw

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Any:
        head = f"{method} {path} HTTP/1.1\r\n{self._host}"
        data = b""
        if body is not None:
            data = json.dumps(body).encode()
            head += (f"Content-Type: application/json\r\n"
                     f"Content-Length: {len(data)}\r\n")
        elif method == "POST":
            head += "Content-Length: 0\r\n"
        message = (head + "\r\n").encode("latin-1") + data
        with self._lock:
            # A kept connection the daemon has closed meanwhile (idle
            # timeout, restart) fails on its next use: reconnect and
            # resend, once.  If the first copy did arrive, the resent
            # submission is content-addressed — at worst cache-served.
            for may_retry in (self._sock is not None, False):
                try:
                    if self._sock is None:
                        sock = socket.create_connection(
                            self._address, timeout=self.timeout)
                        sock.setsockopt(socket.IPPROTO_TCP,
                                        socket.TCP_NODELAY, 1)
                        self._sock, self._reader = sock, sock.makefile("rb")
                    self._sock.sendall(message)
                    status, content_type, raw = self._read_response()
                    break
                except (OSError, ValueError) as exc:
                    self._hang_up()
                    if may_retry and isinstance(exc, ConnectionError):
                        continue
                    # Daemon down, refused, DNS, timeout, torn or
                    # unframable answer: status 0, no payload; the next
                    # call reconnects.
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
