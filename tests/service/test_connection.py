"""The HTTP path of the service, at the connection level: one kept
connection per client, one segment per response, long-poll ``wait``,
and the process-boundary contracts (vanished client, restarted daemon,
no thread left behind)."""

import json
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest

from repro.campaign import CampaignJob, ResultCache
from repro.service import (
    CampaignService,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    Submission,
)
from repro.service import daemon as daemon_module

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def job(seed=0, **overrides):
    params = dict(n=8, n_peers=1, n_clusters=1, scheme="synchronous",
                  tol=1e-3, seed=seed)
    return CampaignJob(**dict(params, **overrides))


def counters(service):
    return service.telemetry_snapshot()["counters"]


def requests_to(service, endpoint):
    key = f'repro_service_requests_total{{endpoint="{endpoint}"}}'
    return counters(service).get(key, 0)


def eventually(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


@pytest.fixture()
def paused():
    """A daemon whose scheduler thread is not started: what is
    submitted stays queued until the test says otherwise."""
    service = CampaignService(drivers=1, max_queue=8, autostart=False)
    daemon = ServiceDaemon(service).start()
    yield daemon
    daemon.stop()


@pytest.fixture()
def running():
    service = CampaignService(drivers=1, max_queue=8)
    daemon = ServiceDaemon(service).start()
    yield daemon
    daemon.stop()


def read_response(sock):
    """One HTTP response off a raw socket: (status line, headers, body)."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(65536)
        if not chunk:
            return None
        raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {k.lower(): v.strip() for k, _, v in
               (line.partition(":") for line in lines[1:])}
    while len(body) < int(headers["content-length"]):
        body += sock.recv(65536)
    return lines[0], headers, body


def hung_up(sock):
    """Whether the peer closed: EOF, or a reset when it closed with our
    request body still unread."""
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


class TestKeepAlive:
    def test_one_connection_carries_a_whole_round_trip(self, running):
        service = running.service
        with ServiceClient(running.url) as client:
            client.stats()  # connects
            before = counters(service)["repro_service_connections_total"]
            cid = client.submit([job(1)])
            assert client.wait(cid, timeout=120)["status"] == "done"
            [entry] = client.results(cid)["jobs"]
            client.iterate(cid, entry["cache_key"])
            assert counters(service)["repro_service_connections_total"] \
                == before

    def test_409_leaves_the_connection_usable(self, paused):
        service = paused.service
        with ServiceClient(paused.url) as client:
            cid = client.submit([job(2)])
            with pytest.raises(ServiceError) as err:
                client.results(cid)
            assert err.value.status == 409
            assert err.value.code == "not-done"
            assert client.status(cid)["status"] == "queued"
        assert counters(service)["repro_service_connections_total"] == 1

    @pytest.mark.parametrize("path, declared", [
        ("/frobnicate", None),                       # unknown POST path
        ("/campaigns", daemon_module.MAX_BODY_BYTES + 1),  # too large
        ("/campaigns", "nonsense"),                  # bad length
    ])
    def test_unread_body_is_never_parsed_as_a_request(self, paused, path,
                                                      declared):
        """A reply sent without reading the POST body must not leave the
        body in the stream: the follow-up request on the same socket
        gets a clean answer or a clean close, never a parse error."""
        body = b'{"jobs": [], "padding": "GET / HTTP/1.1"}'
        length = len(body) if declared is None else declared
        with socket.create_connection(paused.address, timeout=10) as sock:
            sock.sendall(f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Type: application/json\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode()
                         + body)
            status_line, headers, _ = read_response(sock)
            assert status_line.split()[1] in ("400", "404")
            assert headers.get("connection") == "close"
            try:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                followup = read_response(sock)
            except (ConnectionResetError, BrokenPipeError):
                followup = None
        assert followup is None or followup[0].split()[1] == "200"
        # ... and the daemon is none the worse for it.
        with ServiceClient(paused.url) as client:
            assert client.stats()["draining"] is False

    def test_shared_client_under_thread_pressure(self, running):
        """More threads than cores on one client, short switch interval:
        every call gets its own answer over the one connection."""
        service = running.service
        client = ServiceClient(running.url)
        cid = client.submit([job(3)])
        client.wait(cid, timeout=120)
        before = counters(service)["repro_service_connections_total"]
        failures = []

        def hammer(index):
            try:
                for _ in range(25):
                    if index % 2:
                        assert client.status(cid)["id"] == cid
                    else:
                        assert "queue" in client.stats()
            except Exception as exc:  # surfaced below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert counters(service)["repro_service_connections_total"] \
            == before

    def test_idle_connection_times_out_and_client_reconnects(
            self, monkeypatch):
        monkeypatch.setattr(daemon_module._Handler, "timeout", 0.2)
        service = CampaignService(drivers=1, max_queue=8)
        daemon = ServiceDaemon(service).start()
        try:
            with ServiceClient(daemon.url) as client:
                client.stats()
                assert eventually(lambda: not daemon.httpd._open)
                assert client.stats()["draining"] is False  # reconnected
            assert counters(service)["repro_service_connections_total"] \
                == 2
        finally:
            daemon.stop()


class TestContentLength:
    """A body is framed by one decimal Content-Length or not at all:
    anything else is a 400 ``bad-length`` and a close, answered before
    a single body byte is read."""

    @pytest.mark.parametrize("framing", [
        "Content-Length: -5",
        "Content-Length: +5",
        "Content-Length: 5x",
        "Content-Length: 0x10",
        "Content-Length: 5\r\nContent-Length: 5",     # duplicated
        "Content-Length: 5\r\ncontent-length: 9",     # conflicting
        "Transfer-Encoding: chunked",
        "Content-Length: 5\r\nTransfer-Encoding: identity",
    ])
    def test_bad_framing_is_a_400_before_any_body_read(self, paused,
                                                        monkeypatch,
                                                        framing):
        reads = []
        setup = daemon_module._Handler.setup

        def watched_setup(handler):
            setup(handler)
            rfile = handler.rfile

            class Watched:
                def read(self, *args):
                    reads.append(args)
                    return rfile.read(*args)

                def __getattr__(self, name):
                    return getattr(rfile, name)

            handler.rfile = Watched()

        monkeypatch.setattr(daemon_module._Handler, "setup", watched_setup)
        with socket.create_connection(paused.address, timeout=10) as sock:
            sock.sendall(f"POST /campaigns HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Type: application/json\r\n"
                         f"{framing}\r\n\r\n{{}}".encode())
            status_line, headers, body = read_response(sock)
            assert hung_up(sock)
        assert status_line.split()[1] == "400"
        assert headers.get("connection") == "close"
        assert json.loads(body)["error"]["code"] == "bad-length"
        assert reads == []
        with ServiceClient(paused.url) as client:
            assert client.stats()["draining"] is False

    def test_missing_length_on_a_submission_is_a_400(self, paused):
        with socket.create_connection(paused.address, timeout=10) as sock:
            sock.sendall(b"POST /campaigns HTTP/1.1\r\nHost: x\r\n\r\n")
            status_line, _, body = read_response(sock)
        assert status_line.split()[1] == "400"
        assert json.loads(body)["error"]["code"] == "bad-length"


class TestSingleSegmentResponses:
    def test_nodelay_on_accepted_sockets(self, running):
        with ServiceClient(running.url) as client:
            client.stats()
            [accepted] = running.httpd._open
            assert accepted.getsockopt(socket.IPPROTO_TCP,
                                       socket.TCP_NODELAY) != 0

    def test_each_response_is_one_write(self, monkeypatch):
        writes = []

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(len(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = daemon_module._Handler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(daemon_module._Handler, "setup",
                            counting_setup)
        service = CampaignService(drivers=1, max_queue=8)
        daemon = ServiceDaemon(service).start()
        try:
            with ServiceClient(daemon.url) as client:
                cid = client.submit([job(4)])
                client.wait(cid, timeout=120)
                [entry] = client.results(cid)["jobs"]
                client.iterate(cid, entry["cache_key"])
                client.stats()
                client.metrics()
                client._request("GET", "/healthz")
                with pytest.raises(ServiceError):
                    client.status("c999999")
        finally:
            daemon.stop()
        assert len(writes) == 8, writes

    def test_no_nagle_stall_on_a_kept_connection(self, running):
        """Belt and braces: header and body as two segments on a kept
        connection cost >= 40 ms a call; the healthy path ~0.3 ms."""
        with ServiceClient(running.url) as client:
            laps = []
            for _ in range(20):
                start = time.perf_counter()
                client._request("GET", "/healthz")
                laps.append(time.perf_counter() - start)
        assert statistics.median(laps) < 0.020, laps


class TestLongPoll:
    def test_wait_is_one_request_for_a_cold_campaign(self, running):
        service = running.service
        with ServiceClient(running.url) as client:
            cid = client.submit([job(5)])
            assert client.wait(cid, timeout=120)["status"] == "done"
        assert requests_to(service, "status") == 1

    def test_wait_runs_out_with_the_current_status(self, paused):
        with ServiceClient(paused.url) as client:
            cid = client.submit([job(6)])
            start = time.monotonic()
            document = client._request("GET",
                                       f"/campaigns/{cid}?wait=0.2")
            assert 0.15 <= time.monotonic() - start < 5.0
            assert document["status"] == "queued"
            with pytest.raises(TimeoutError, match="still queued"):
                client.wait(cid, timeout=0.2)

    @pytest.mark.parametrize("value", ["soon", "-1", "nan", ""])
    def test_bad_wait_is_a_400(self, paused, value):
        with ServiceClient(paused.url) as client:
            cid = client.submit([job(7)])
            with pytest.raises(ServiceError) as err:
                client._request("GET", f"/campaigns/{cid}?wait={value}")
            assert err.value.status == 400
            assert err.value.code == "bad-wait"

    def test_wait_is_capped_by_the_server(self, paused, monkeypatch):
        monkeypatch.setattr(daemon_module, "MAX_WAIT", 0.1)
        with ServiceClient(paused.url) as client:
            cid = client.submit([job(8)])
            start = time.monotonic()
            client._request("GET", f"/campaigns/{cid}?wait=3600")
            assert time.monotonic() - start < 5.0

    def test_parked_poll_is_released_when_the_service_drains(self):
        service = CampaignService(drivers=1, max_queue=8, autostart=False)
        daemon = ServiceDaemon(service).start()
        answers = []
        with ServiceClient(daemon.url) as client:
            cid = client.submit([job(9)])
            waiter = threading.Thread(
                target=lambda: answers.append(client.wait(cid, timeout=60)))
            waiter.start()
            assert eventually(lambda: requests_to(service, "status") == 1)
            daemon.stop()  # drains: the accepted campaign still runs
            waiter.join(30)
            assert not waiter.is_alive()
        assert answers[0]["status"] == "done"

    def test_submission_cuts_a_blocked_collect_short(self):
        """With one driver busy and one idle, a new submission starts
        on the idle driver at once — not when the busy one reports."""
        service = CampaignService(drivers=2, max_queue=8)
        try:
            # long enough (~0.3 s on a 2-vCPU VM) to keep its driver
            # busy through the sleep and the second dispatch below
            slow = service.submit(Submission(
                jobs=(job(10, n=48, tol=1e-9),)))
            assert eventually(
                lambda: service.status(slow)["status"] == "running")
            time.sleep(0.05)  # the scheduler thread is in collect() now
            quick = service.submit(Submission(jobs=(job(11),)))
            assert eventually(
                lambda: service.status(quick)["status"] != "queued")
            assert service.status(slow)["status"] == "running"
        finally:
            service.close()


class TestProcessBoundaries:
    def test_client_vanishing_mid_long_poll(self, paused):
        service = paused.service
        cid = service.submit(Submission(jobs=(job(12),)))
        sock = socket.create_connection(paused.address, timeout=10)
        sock.sendall(f"GET /campaigns/{cid}?wait=30 HTTP/1.1\r\n"
                     f"Host: x\r\n\r\n".encode())
        assert eventually(lambda: requests_to(service, "status") == 1)
        # While it is parked nothing else waits behind it.
        with ServiceClient(paused.url, timeout=5.0) as other:
            start = time.monotonic()
            other.submit([job(13)])
            assert other.stats()["queue"]["depth"] == 2
            assert time.monotonic() - start < 2.0
        sock.close()  # vanish while parked
        service.start()  # the campaign finishes; the poll has no reader
        assert eventually(
            lambda: service.stats()["campaigns"].get("done") == 2)
        assert eventually(lambda: not paused.httpd._open)
        with ServiceClient(paused.url) as other:
            assert other.stats()["draining"] is False

    def test_client_vanishing_mid_iterate_download(self, running,
                                                   monkeypatch):
        service = running.service
        with ServiceClient(running.url) as client:
            cid = client.submit([job(14)])
            client.wait(cid, timeout=120)
            [entry] = client.results(cid)["jobs"]
        assert eventually(lambda: not running.httpd._open)
        # Larger than any socket buffer, so the send is still in
        # progress when the reader goes away.
        monkeypatch.setattr(service, "iterate_bytes",
                            lambda cid, key: bytes(32 << 20))
        sock = socket.create_connection(running.address, timeout=10)
        sock.sendall(f"GET /campaigns/{cid}/iterates/"
                     f"{entry['cache_key']}.npy HTTP/1.1\r\n"
                     f"Host: x\r\n\r\n".encode())
        assert sock.recv(1024).startswith(b"HTTP/1.1 200")
        sock.close()
        assert eventually(lambda: not running.httpd._open)
        with ServiceClient(running.url) as client:
            assert client.stats()["campaigns"]["done"] == 1

    def test_daemon_restart_between_two_calls_of_one_client(self,
                                                            tmp_path):
        cache_dir = str(tmp_path / "cache")
        jobs = [job(15), job(16, n_peers=2)]
        first = ServiceDaemon(CampaignService(
            cache=ResultCache(cache_dir), drivers=1, max_queue=8)).start()
        host, port = first.address
        client = ServiceClient(first.url)
        try:
            cid = client.submit(jobs)
            assert client.wait(cid, timeout=120)["status"] == "done"
            cold = {entry["cache_key"]: client.iterate(
                        cid, entry["cache_key"])
                    for entry in client.results(cid)["jobs"]}
        finally:
            first.stop()
        second = ServiceDaemon(CampaignService(
            cache=ResultCache(cache_dir), drivers=1, max_queue=8),
            host=host, port=port).start()
        try:
            # Same client object, no reconnect call: the stale
            # connection is noticed and replaced under the request.
            cid = client.submit(jobs)
            assert client.wait(cid, timeout=120)["status"] == "done"
            results = client.results(cid)
            assert results["summary"]["solved"] == 0
            assert results["summary"]["cache_hits"] == len(jobs)
            for entry in results["jobs"]:
                served = client.iterate(cid, entry["cache_key"])
                assert np.array_equal(served, cold[entry["cache_key"]])
                assert served.tobytes() \
                    == cold[entry["cache_key"]].tobytes()
        finally:
            client.close()
            second.stop()

    def test_stop_leaves_no_thread_behind(self):
        before = threading.active_count()
        service = CampaignService(drivers=1, max_queue=8)
        daemon = ServiceDaemon(service).start()
        client = ServiceClient(daemon.url)
        cid = client.submit([job(17)])
        assert client.wait(cid, timeout=120)["status"] == "done"
        idle = ServiceClient(daemon.url)
        idle.stats()  # connected, then silent: its handler sits in read
        assert threading.active_count() > before
        daemon.stop()
        assert threading.active_count() == before
        with pytest.raises(ServiceError) as err:
            idle.stats()
        assert err.value.status == 0
        client.close()
        idle.close()
