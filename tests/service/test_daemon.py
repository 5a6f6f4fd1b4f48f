"""The campaign service daemon, over real HTTP.

One module-scoped daemon (memory cache, 1 driver) carries the cheap
protocol tests; the bit-identity and lifecycle tests build their own
short-lived services.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignJob, ResultCache
from repro.service import (
    AdmissionError,
    CampaignService,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    Submission,
    submission_to_wire,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def jobs_matrix(peers=(1, 2), schemes=("synchronous",), tol=1e-3):
    return [CampaignJob(n=8, n_peers=p, n_clusters=1, scheme=s,
                        tol=tol)
            for p in peers for s in schemes]


@pytest.fixture(scope="module")
def daemon():
    service = CampaignService(drivers=1, max_queue=16)
    daemon = ServiceDaemon(service).start()
    yield daemon
    daemon.stop()


@pytest.fixture(scope="module")
def client(daemon):
    with ServiceClient(daemon.url, timeout=30.0) as client:
        yield client


def post_raw(daemon, path, body: bytes, content_type="application/json"):
    """POST arbitrary bytes, returning (status, decoded JSON body)."""
    request = urllib.request.Request(
        daemon.url + path, data=body,
        headers={"Content-Type": content_type}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndToEnd:
    def test_submit_poll_results(self, client):
        jobs = jobs_matrix(schemes=("synchronous", "asynchronous"))
        cid = client.submit(jobs, tag="e2e")
        status = client.wait(cid, timeout=120)
        assert status["status"] == "done"
        assert status["done_jobs"] == len(jobs)
        results = client.results(cid)
        assert results["tag"] == "e2e"
        assert results["summary"]["jobs"] == len(jobs)
        assert [j["job"]["n_peers"] for j in results["jobs"]] \
            == [j.n_peers for j in jobs]
        for entry in results["jobs"]:
            assert entry["source"] in ("run", "cache", "duplicate")
            assert entry["row"]["relaxations"] > 0
            assert entry["provenance"]

    def test_daemon_records_bit_identical_to_campaign_engine(self):
        """The acceptance criterion: same matrix, separate caches,
        daemon vs in-process engine — iterates equal to the last bit."""
        jobs = jobs_matrix(peers=(1, 2),
                           schemes=("synchronous", "asynchronous"))
        service = CampaignService(drivers=2, max_queue=8)
        daemon = ServiceDaemon(service).start()
        try:
            client = ServiceClient(daemon.url)
            cid = client.submit(jobs)
            assert client.wait(cid, timeout=240)["status"] == "done"
            via_http = client.results(cid)["jobs"]
            iterates = {
                entry["key"]: client.iterate(cid, entry["cache_key"])
                for entry in via_http
            }
        finally:
            daemon.stop()
        with Campaign(jobs) as campaign:
            direct = campaign.run()
        for record, entry in zip(direct.records, via_http):
            assert record.key == entry["key"]
            assert record.cache_key == entry["cache_key"]
            report = record.result.report
            assert entry["row"]["time_s"] == record.result.row()["time_s"]
            assert entry["row"]["relaxations"] \
                == record.result.row()["relaxations"]
            u = iterates[record.key]
            assert u.dtype == report.u.dtype
            assert np.array_equal(u, report.u)

    def test_duplicate_submission_fully_cache_served(self, client):
        jobs = jobs_matrix(peers=(1, 3))
        cid1 = client.submit(jobs)
        assert client.wait(cid1, timeout=120)["status"] == "done"
        first = client.results(cid1)["summary"]
        cid2 = client.submit(jobs)
        assert client.wait(cid2, timeout=60)["status"] == "done"
        second = client.results(cid2)["summary"]
        assert second["solved"] == 0
        assert second["cache_hits"] == first["jobs"]
        # and the duplicate cost the pool nothing new
        assert client.stats()["cache"]["hits"] >= first["jobs"]

    def test_duplicates_within_one_submission_collapse(self, client):
        job = jobs_matrix(peers=(2,))[0]
        cid = client.submit([job, job, job])
        assert client.wait(cid, timeout=120)["status"] == "done"
        summary = client.results(cid)["summary"]
        assert summary["jobs"] == 3
        assert summary["duplicates"] == 2

    def test_stats_shape(self, client):
        stats = client.stats()
        assert {"cache", "pool", "queue", "campaigns"} <= set(stats)
        assert stats["pool"]["drivers"] == 1
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["queue"]["max"] == 16


class TestCoalescing:
    def test_concurrent_identical_submissions_solve_once(self):
        """N clients race the same matrix: exactly one solve per unique
        job; every later campaign is served from cache/in-flight work."""
        jobs = jobs_matrix(peers=(1, 2))
        service = CampaignService(drivers=1, max_queue=32)
        daemon = ServiceDaemon(service).start()
        try:
            client = ServiceClient(daemon.url)
            cids = []

            def submit():
                cids.append(client.submit(jobs))

            threads = [threading.Thread(target=submit)
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(cids) == 4
            summaries = []
            for cid in cids:
                assert client.wait(cid, timeout=240)["status"] == "done"
                summaries.append(client.results(cid)["summary"])
        finally:
            daemon.stop()
        total_solved = sum(s["solved"] for s in summaries)
        assert total_solved == len(jobs)  # each unique job solved once
        assert sum(s["cache_hits"] for s in summaries) \
            == 3 * len(jobs)

    def test_queue_positions_reported_in_admission_order(self):
        service = CampaignService(drivers=1, max_queue=32,
                                  autostart=False)
        try:
            first = service.submit(Submission(
                jobs=tuple(jobs_matrix(peers=(1,)))))
            second = service.submit(Submission(
                jobs=tuple(jobs_matrix(peers=(2,)))))
            assert service.status(first)["branches"][0]["queue_position"] \
                == 0
            assert service.status(second)["branches"][0]["queue_position"] \
                == 1
            assert service.status(first)["status"] == "queued"
        finally:
            service.close()
        # draining a paused service still runs its accepted queue
        assert service.status(first)["status"] == "done"
        assert service.status(second)["status"] == "done"


class TestAdmissionControl:
    def test_queue_full_gives_503(self):
        service = CampaignService(drivers=1, max_queue=2,
                                  autostart=False)
        daemon = ServiceDaemon(service).start()
        try:
            client = ServiceClient(daemon.url)
            client.submit(jobs_matrix(peers=(1,)))
            client.submit(jobs_matrix(peers=(2,)))
            with pytest.raises(ServiceError) as err:
                client.submit(jobs_matrix(peers=(3,)))
            assert err.value.status == 503
            assert err.value.code == "queue-full"
        finally:
            service.start()
            daemon.stop()

    def test_draining_daemon_refuses_new_work(self):
        service = CampaignService(drivers=1, max_queue=8)
        daemon = ServiceDaemon(service).start()
        client = ServiceClient(daemon.url)
        cid = client.submit(jobs_matrix(peers=(1,)))
        assert client.shutdown()["draining"] is True
        with pytest.raises(ServiceError) as err:
            client.submit(jobs_matrix(peers=(2,)))
        assert err.value.status == 409
        assert err.value.code == "draining"
        # ... but the accepted campaign still completes before exit.
        daemon.stop()
        assert service.status(cid)["status"] == "done"

    def test_graceful_drain_finishes_inflight_work(self):
        jobs = jobs_matrix(peers=(1, 2, 3))
        service = CampaignService(drivers=1, max_queue=16)
        daemon = ServiceDaemon(service).start()
        client = ServiceClient(daemon.url)
        cid = client.submit(jobs)
        client.shutdown()  # immediately, while branches are queued
        daemon.stop(timeout=240)
        assert service.status(cid)["status"] == "done"
        assert len(service.results(cid)["jobs"]) == len(jobs)


class TestProtocolErrors:
    def test_malformed_json_rejected_structured(self, daemon):
        status, body = post_raw(daemon, "/campaigns", b"{nope")
        assert status == 400
        assert body["error"]["code"] == "bad-json"

    def test_wrong_envelope_version(self, daemon):
        status, body = post_raw(
            daemon, "/campaigns",
            json.dumps({"version": 99, "jobs": []}).encode())
        assert status == 400
        assert body["error"]["code"] == "bad-version"
        assert body["error"]["field"] == "version"

    def test_bad_job_names_field(self, daemon):
        # A malformed value; a version-1 job (it carried the sweep
        # executor); a current-version job that still carries it.
        for edit, field in (
                (dict(tol="bogus"), "jobs[0].tol"),
                (dict(version=1, executor="inline"), "jobs[0].version"),
                (dict(executor="inline"), "jobs[0].executor")):
            wire = submission_to_wire(jobs_matrix(peers=(1,)))
            wire["jobs"][0].update(edit)
            status, body = post_raw(daemon, "/campaigns",
                                    json.dumps(wire).encode())
            assert status == 400
            assert body["error"]["code"] == "bad-job"
            assert body["error"]["field"] == field

    def test_sub_floor_tolerance_is_400_not_500(self, daemon):
        """Satellite: a float32 job below its termination floor is
        refused at the schema boundary with ``field="tolerance"`` —
        previously it reached the solver and surfaced as a 500."""
        wire = submission_to_wire(jobs_matrix(peers=(1,)))
        wire["jobs"][0]["dtype"] = "float32"
        wire["jobs"][0]["tol"] = (1e-7).hex()
        status, body = post_raw(daemon, "/campaigns",
                                json.dumps(wire).encode())
        assert status == 400
        assert body["error"]["code"] == "bad-job"
        assert body["error"]["field"] == "tolerance"
        assert "termination floor" in body["error"]["message"]

    def test_ladder_submission_end_to_end(self, client):
        """A laddered submission solves through the daemon: the
        submitted float64 job comes back warm-started from the ladder
        chain, bit-identical to a local laddered Campaign."""
        job = CampaignJob(n=12, n_peers=1, n_clusters=1,
                          scheme="synchronous", tol=1e-3)
        cid = client.submit([job], ladder=True, tag="ladder-e2e")
        assert client.wait(cid, timeout=120)["status"] == "done"
        [entry] = client.results(cid)["jobs"]
        assert entry["provenance"]["warm_start"].endswith(
            ":cast@float32")
        with Campaign([job], ladder=True) as campaign:
            [local] = campaign.run().records
        assert entry["cache_key"] == local.cache_key
        assert entry["row"]["relaxations"] \
            == local.result.relaxations

    def test_unknown_campaign_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("c999999")
        assert err.value.status == 404

    def test_results_before_done_409(self, daemon):
        service = CampaignService(drivers=1, max_queue=8,
                                  autostart=False)
        try:
            cid = service.submit(Submission(
                jobs=tuple(jobs_matrix(peers=(1,)))))
            with pytest.raises(Exception, match="queued"):
                service.results(cid)
        finally:
            service.close()

    def test_unknown_endpoint_404(self, daemon):
        status, body = post_raw(daemon, "/frobnicate", b"{}")
        assert status == 404
        with pytest.raises(ServiceError) as err:
            ServiceClient(daemon.url)._request("GET", "/frobnicate")
        assert err.value.status == 404

    def test_unsupported_method_405(self, daemon):
        request = urllib.request.Request(
            daemon.url + "/campaigns", method="DELETE")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 405

    def test_client_disconnect_mid_poll_harmless(self, daemon, client):
        """A socket that opens a request and hangs up must not wedge
        the daemon: the next real request still answers."""
        host, port = daemon.address
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n")
        sock.close()  # vanish before reading the response
        sock = socket.create_connection((host, port), timeout=5)
        sock.sendall(b"GET /campaigns/c1 HTTP/1.1\r\nHo")
        sock.close()  # vanish mid-request-line
        assert client.stats()["queue"]["max"] == 16


class TestSharedCacheDir:
    def test_daemon_and_cli_campaign_share_one_cache(self, tmp_path):
        """The CI smoke contract, in-process: a daemon solve populates
        a rooted cache; a Campaign over the same dir is fully served —
        which is only possible if wire-side cache keys match local
        ones."""
        jobs = jobs_matrix(peers=(1, 2))
        cache_dir = tmp_path / "cache"
        service = CampaignService(
            cache=ResultCache(str(cache_dir)), drivers=1, max_queue=8)
        daemon = ServiceDaemon(service).start()
        try:
            client = ServiceClient(daemon.url)
            cid = client.submit(jobs)
            assert client.wait(cid, timeout=120)["status"] == "done"
        finally:
            daemon.stop()
        with Campaign(jobs, cache=ResultCache(str(cache_dir))) as c:
            outcome = c.run()
        assert outcome.cache_hits == len(jobs)
        assert outcome.runs == 0


class TestServiceInternals:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError, match="drivers"):
            CampaignService(drivers=0)
        with pytest.raises(ValueError, match="max_queue"):
            CampaignService(max_queue=0, autostart=False)

    @pytest.mark.parametrize("url", ["https://127.0.0.1:8000",
                                     "127.0.0.1:8000", "http://"],
                             ids=["https", "no-scheme", "no-host"])
    def test_client_needs_an_http_host_url(self, url):
        with pytest.raises(ValueError, match="not an http://host:port URL"):
            ServiceClient(url)

    def test_admission_error_payload(self):
        err = AdmissionError("full", code="queue-full", status=503)
        assert err.payload()["error"]["code"] == "queue-full"
