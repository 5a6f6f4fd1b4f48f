"""/metrics exposition + the registry-backed /stats schema."""

import pytest

from repro.campaign import CampaignJob, ResultCache
from repro.service import CampaignService, ServiceClient, ServiceDaemon
from repro.service.schema import Submission
from repro.telemetry import validate_exposition

MATRIX = dict(n=8, n_peers=1, n_clusters=1, tol=1e-3)


def _submission(**overrides):
    params = dict(MATRIX, **overrides)
    return Submission(jobs=(CampaignJob(**params),), warm_start=False,
                      tag=None)


@pytest.fixture()
def service(tmp_path):
    service = CampaignService(
        cache=ResultCache(str(tmp_path / "cache")), drivers=1,
        max_queue=8)
    yield service
    service.close()


class TestStatsSchema:
    def test_all_documented_keys_present(self, service):
        import time

        cid = service.submit(_submission())
        for _ in range(1200):  # wait out completion, 60 s cap
            if service.status(cid)["status"] == "done":
                break
            time.sleep(0.05)
        stats = service.stats()
        assert set(stats) == {"version", "uptime_s", "draining", "cache",
                              "pool", "queue", "service", "campaigns"}
        assert set(stats["cache"]) == {"hits", "misses", "stores",
                                       "evictions", "hit_rate",
                                       "lock_wait_seconds"}
        assert set(stats["queue"]) == {"depth", "running", "max", "wait"}
        wait = stats["queue"]["wait"]
        assert set(wait) == {"count", "sum", "mean", "buckets"}
        assert wait["count"] == 1  # one branch dispatched
        assert "+Inf" in wait["buckets"]
        assert stats["service"]["submissions"] == 1
        assert stats["service"]["branches_inline"] + \
            stats["service"]["branches_driver"] == 1
        assert stats["service"]["branches_failed"] == 0

    def test_queue_wait_counts_every_dispatch(self, service):
        for seed in (1, 2, 3):
            service.submit(_submission(seed=seed))
        service.close()
        stats = service.stats()
        assert stats["queue"]["wait"]["count"] == 3
        assert stats["queue"]["wait"]["sum"] >= 0.0


class TestTelemetrySnapshot:
    def test_covers_driver_work_after_drain(self, service):
        service.submit(_submission())
        service.close()
        snap = service.telemetry_snapshot()
        sweeps = sum(v for k, v in snap["counters"].items()
                     if k.startswith("repro_kernel_sweeps_total"))
        assert sweeps > 0
        assert snap["counters"]["repro_service_submissions_total"] == 1

    def test_merges_cache_registry(self, service):
        service.submit(_submission())
        service.close()
        snap = service.telemetry_snapshot()
        stores = sum(v for k, v in snap["counters"].items()
                     if k.startswith("repro_cache_stores_total"))
        assert stores >= 1


class TestMetricsEndpoint:
    def test_live_scrape_is_valid_exposition(self, tmp_path):
        service = CampaignService(
            cache=ResultCache(str(tmp_path / "cache")), drivers=1,
            max_queue=8)
        daemon = ServiceDaemon(service).start()
        try:
            client = ServiceClient(daemon.url)
            cid = client.submit([CampaignJob(**MATRIX)])
            client.wait(cid)
            text = client.metrics()
            seen = validate_exposition(text)
            assert "repro_service_submissions_total" in seen
            assert seen["repro_branch_queue_wait_seconds"]["type"] == \
                "histogram"
            # Driver-side solver counters reached the scrape via the
            # per-branch piggyback.
            assert any(name.startswith("repro_kernel_sweep")
                       for name in seen)
            # The HTTP layer's own counters: this client has used one
            # connection for submit + one long-poll + this scrape.
            samples = dict(line.rsplit(" ", 1) for line in text.splitlines()
                           if line.startswith("repro_service_"))
            assert samples["repro_service_connections_total"] == "1"
            assert samples[
                'repro_service_requests_total{endpoint="status"}'] == "1"
            assert samples[
                'repro_service_requests_total{endpoint="metrics"}'] == "1"
            stats = client.stats()
            assert stats["queue"]["wait"]["count"] >= 1
        finally:
            daemon.stop()

    def test_scrape_and_long_poll_do_not_perturb_results(self, tmp_path):
        # A daemon scraped and long-polled during the solve serves
        # bit-identical iterates to one nobody talks to until it is done.
        import time

        import numpy as np

        iterates = []
        for observed in (False, True):
            service = CampaignService(
                cache=ResultCache(str(tmp_path / f"c{observed}")),
                drivers=1, max_queue=8)
            daemon = ServiceDaemon(service).start()
            try:
                if observed:
                    client = ServiceClient(daemon.url)
                    cid = client.submit([CampaignJob(**MATRIX)])
                    for _ in range(3):
                        validate_exposition(client.metrics())
                    client.wait(cid)
                else:
                    cid = service.submit(_submission())
                    for _ in range(1200):  # 60 s cap, no HTTP meanwhile
                        if service.status(cid)["status"] == "done":
                            break
                        time.sleep(0.05)
                    client = ServiceClient(daemon.url)
                results = client.results(cid)
                key = results["jobs"][0]["cache_key"]
                iterates.append(client.iterate(cid, key))
                client.close()
            finally:
                daemon.stop()
        assert np.array_equal(iterates[0], iterates[1])
        assert iterates[0].tobytes() == iterates[1].tobytes()
