"""HTTP/1.x interoperability of the hand-framed service connection.

The daemon reads request framing by hand and ``ServiceClient`` reads its
answers by hand, so each is held here against stock peers: ``http.client``,
``urllib`` and raw sockets (for what those two never send) against the
daemon, and ``ServiceClient`` against a stub stdlib ``http.server``.
"""

import http.client
import http.server
import json
import socket
import threading
import time
import urllib.request

import pytest

from repro.campaign import CampaignJob
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    submission_to_wire,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def submission(seeds=range(4)) -> bytes:
    jobs = [CampaignJob(n=8, n_peers=1, n_clusters=1, scheme="synchronous",
                        tol=1e-3, seed=seed) for seed in seeds]
    return json.dumps(submission_to_wire(jobs, tag="framing")).encode()


@pytest.fixture(scope="module")
def daemon():
    daemon = ServiceDaemon(CampaignService(drivers=1, max_queue=16)).start()
    yield daemon
    daemon.stop()


def read_answer(rfile):
    """One response off a socket's reader: (status, headers, body)."""
    status = int(rfile.readline().split()[1])
    headers = {}
    while (line := rfile.readline()) not in (b"\r\n", b"\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, rfile.read(int(headers.get("content-length", 0)))


def hung_up(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # closed with our bytes still unread
        return True


def raw_exchange(daemon, request: bytes):
    """Send raw bytes on a new connection; (status, headers, body,
    whether the daemon hung up afterwards)."""
    with socket.create_connection(daemon.address, timeout=10) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as rfile:
            answer = read_answer(rfile)
        return (*answer, hung_up(sock))


class TestStockClientsAgainstTheDaemon:
    def test_mixed_case_header_names(self, daemon):
        body = submission()
        conn = http.client.HTTPConnection(*daemon.address, timeout=10)
        try:
            conn.putrequest("POST", "/campaigns")
            conn.putheader("cOnTeNt-TyPe", "application/json")
            conn.putheader("CONTENT-LENGTH", str(len(body)))
            conn.endheaders(body)
            response = conn.getresponse()
            assert response.status == 202
            cid = json.loads(response.read())["id"]
            conn.request("GET", f"/campaigns/{cid}?wait=60",
                         headers={"CoNnEcTiOn": "KEEP-ALIVE"})
            response = conn.getresponse()  # same connection, kept
            assert json.loads(response.read())["status"] == "done"
            assert response.getheader("Connection") is None
        finally:
            conn.close()

    def test_urllib_round_trip(self, daemon):
        request = urllib.request.Request(
            daemon.url + "/campaigns", data=submission(seeds=[9]),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 202
            cid = json.loads(response.read())["id"]
        with urllib.request.urlopen(
                f"{daemon.url}/campaigns/{cid}?wait=60", timeout=70) as response:
            assert json.loads(response.read())["status"] == "done"
        with urllib.request.urlopen(daemon.url + "/metrics",
                                    timeout=10) as response:
            assert response.headers.get_content_type() == "text/plain"
            assert b"repro_service_requests_total" in response.read()

    @pytest.mark.parametrize("extra, kept", [
        ("", False),
        ("Connection: keep-alive\r\n", True),
        ("Connection: Keep-Alive\r\n", True),
    ])
    def test_http_1_0(self, daemon, extra, kept):
        request = f"GET /healthz HTTP/1.0\r\n{extra}\r\n".encode()
        with socket.create_connection(daemon.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            for _ in range(2 if kept else 1):
                sock.sendall(request)
                status, headers, body = read_answer(rfile)
                assert (status, json.loads(body)) == (200, {"ok": True})
                assert ("connection" in headers) is not kept
            if not kept:
                assert hung_up(sock)

    def test_expect_100_continue_on_a_large_submission(self, daemon):
        body = submission(seeds=range(10, 16))
        assert len(body) > 1024
        with socket.create_connection(daemon.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(f"POST /campaigns HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Type: application/json\r\n"
                         f"Expect: 100-continue\r\n"
                         f"Content-Length: {len(body)}\r\n\r\n".encode())
            assert rfile.readline().startswith(b"HTTP/1.1 100 ")
            while rfile.readline() not in (b"\r\n", b""):
                pass
            sock.sendall(body)  # only now, as a waiting client would
            status, headers, answer = read_answer(rfile)
            assert status == 202 and "connection" not in headers
            cid = json.loads(answer)["id"]
            sock.sendall(f"GET /campaigns/{cid} HTTP/1.1\r\n"
                         f"Host: x\r\n\r\n".encode())
            status, _, answer = read_answer(rfile)
            assert status == 200 and json.loads(answer)["id"] == cid

    @pytest.mark.parametrize("headers, status", [
        ([(f"X-Pad-{i}", "x") for i in range(100)], 200),
        ([(f"X-Pad-{i}", "x") for i in range(101)], 431),
        ([("X-Long", "x" * (64 * 1024))], 431),
    ])
    def test_header_limits(self, daemon, headers, status):
        conn = http.client.HTTPConnection(*daemon.address, timeout=10)
        try:
            conn.putrequest("GET", "/healthz", skip_host=True,
                            skip_accept_encoding=True)
            for name, value in headers:
                conn.putheader(name, value)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == status
            response.read()
            if status == 431:
                assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    @pytest.mark.parametrize("line", [
        b"X-Folded: a\r\n b",       # obs-fold
        b"X-Folded: a\r\n\tb",
        b"X-Spaced : a",            # whitespace before the colon
        b"no colon at all",
    ])
    def test_malformed_header_lines_are_a_400_and_a_close(self, daemon,
                                                          line):
        status, _, _, closed = raw_exchange(
            daemon, b"GET /healthz HTTP/1.1\r\nHost: x\r\n" + line
            + b"\r\n\r\n")
        assert (status, closed) == (400, True)

    @pytest.mark.parametrize("line, status", [
        (b"GET /healthz HTTP/2.0", 505),
        (b"GET /healthz HTTP/0.9", 505),
        (b"GET /healthz", 400),
        (b"GET /healthz HTTP/1.1 extra", 400),
        (b"GET /healthz FTP/1.1", 400),
    ])
    def test_only_http_1_0_and_1_1(self, daemon, line, status):
        answer = raw_exchange(daemon, line + b"\r\nHost: x\r\n\r\n")
        assert (answer[0], answer[3]) == (status, True)

    def test_bare_lf_line_endings(self, daemon):
        body = submission(seeds=[20])
        with socket.create_connection(daemon.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b"GET /healthz HTTP/1.1\nHost: x\n\n")
            assert read_answer(rfile)[0] == 200
            sock.sendall(f"POST /campaigns HTTP/1.1\nHost: x\n"
                         f"Content-Type: application/json\n"
                         f"Content-Length: {len(body)}\n\n".encode() + body)
            status, headers, answer = read_answer(rfile)
            assert status == 202 and "connection" not in headers
            assert json.loads(answer)["id"]


# -- ServiceClient against a stub stdlib server ----------------------------------


@pytest.fixture()
def stub():
    """A stdlib ``http.server`` with one canned answer per path; yields
    its URL and a list with one entry per accepted connection."""
    accepted = []
    release = threading.Event()
    payload = b'{"ok": true}'

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass

        def setup(self):
            super().setup()
            accepted.append(self.client_address)

        def do_GET(self):
            if self.path == "/not-http":
                self.wfile.write(b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n")
                return
            self.send_response(200)
            if self.path == "/close":
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.send_header("Connection", "close")
            elif self.path == "/charset":
                self.send_header("Content-Type",
                                 "application/json; charset=utf-8")
                self.send_header("X-Request-Id", "7")
                self.send_header("Cache-Control", "no-store")
                self.send_header("Content-Length", str(len(payload)))
            elif self.path == "/no-length":
                self.send_header("Content-Type", "application/json")
            elif self.path in ("/torn", "/stall"):
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", "100")
                self.close_connection = self.path == "/torn"
            self.end_headers()
            self.wfile.write(payload)
            if self.path == "/stall":
                release.wait(30)

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", accepted
    release.set()
    server.shutdown()
    server.server_close()


class TestServiceClientAgainstAStockServer:
    def test_connection_close_makes_the_next_call_reconnect(self, stub):
        url, accepted = stub
        with ServiceClient(url, timeout=5) as client:
            assert client._request("GET", "/close") == {"ok": True}
            assert client._request("GET", "/close") == {"ok": True}
            assert len(accepted) == 2
            assert client._request("GET", "/charset") == {"ok": True}
            assert client._request("GET", "/charset") == {"ok": True}
            assert len(accepted) == 3  # a kept connection is reused

    def test_media_type_parameters_and_extra_headers(self, stub):
        url, _ = stub
        with ServiceClient(url, timeout=5) as client:
            assert client._request("GET", "/charset") == {"ok": True}

    @pytest.mark.parametrize("path", ["/no-length", "/torn", "/not-http"])
    def test_unframable_answer_is_status_0_without_a_hang(self, stub, path):
        url, accepted = stub
        with ServiceClient(url, timeout=5) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client._request("GET", path)
            assert err.value.status == 0
            assert time.monotonic() - start < 2.0
            # The broken connection is gone; the next call starts afresh.
            assert client._request("GET", "/charset") == {"ok": True}
            assert len(accepted) == 2

    def test_stalled_body_times_out_as_status_0(self, stub):
        url, _ = stub
        with ServiceClient(url, timeout=0.3) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/stall")
            assert err.value.status == 0
            assert 0.2 < time.monotonic() - start < 5.0
