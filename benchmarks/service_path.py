#!/usr/bin/env python
"""Exact connection and request counts of the service's HTTP path.

    PYTHONPATH=src python benchmarks/service_path.py

prints one JSON object: what one warmed :class:`ServiceClient` costs the
daemon per cache-served round trip (submit, wait, results, one iterate
download) in TCP connects and HTTP requests, and how many status
requests one ``wait()`` on a cold single-job campaign takes.

It also counts, per cached round trip, how often the stdlib's MIME
header machinery runs on either end of the connection (client and daemon
share this process): calls of ``http.client.parse_headers`` plus
``email.feedparser.FeedParser.feed``.  Both ends frame HTTP by hand, so
the count is 0; the counters are installed from here, around the stdlib
names, and ``src/`` knows nothing about them.

Like ``protocol_path.py`` these are counts, not timings — read from the
daemon's own ``repro_service_connections_total`` /
``repro_service_requests_total`` counters and from the wrappers above,
the same integers on every machine — so ``run_bench.py --check`` holds
them with **zero** tolerance against the committed ``service_path``
record in ``BENCH_micro.json``: a client that reconnects per call, a
``wait()`` that polls, or a request that goes through a MIME parser
fails the gate.  ``benchmarks/e2e`` (``service_roundtrip``) measures the
seconds.
"""

from __future__ import annotations

import contextlib
import email.feedparser
import http.client
import json

from repro.campaign import CampaignJob
from repro.service import CampaignService, ServiceClient, ServiceDaemon

ROUNDTRIPS = 20
COLD_WAITS = 3


def job(seed: int) -> CampaignJob:
    return CampaignJob(n=8, n_peers=1, n_clusters=1, scheme="synchronous",
                       tol=1e-3, seed=seed)


def roundtrip(client: ServiceClient, jobs) -> None:
    cid = client.submit(jobs)
    assert client.wait(cid, timeout=120)["status"] == "done"
    for entry in client.results(cid)["jobs"]:
        client.iterate(cid, entry["cache_key"])


def http_counts(service: CampaignService) -> dict:
    counters = service.telemetry_snapshot()["counters"]
    requests = {key: value for key, value in counters.items()
                if key.startswith("repro_service_requests_total")}
    return {
        "tcp_connects": counters["repro_service_connections_total"],
        "http_requests": sum(requests.values()),
        "status_requests": requests.get(
            'repro_service_requests_total{endpoint="status"}', 0),
    }


def delta(service: CampaignService, before: dict) -> dict:
    return {key: int(value - before[key])
            for key, value in http_counts(service).items()}


@contextlib.contextmanager
def counting_header_parses():
    """Count stdlib header parses, from any thread, while active."""
    counts = {"stdlib_header_parses": 0}
    originals = [(http.client, "parse_headers", http.client.parse_headers),
                 (email.feedparser.FeedParser, "feed",
                  email.feedparser.FeedParser.feed)]

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["stdlib_header_parses"] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name, fn in originals:
        setattr(owner, name, counted(fn))
    try:
        yield counts
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)


def measure() -> dict:
    service = CampaignService(drivers=1, max_queue=8)
    daemon = ServiceDaemon(service).start()
    try:
        with ServiceClient(daemon.url) as client:
            roundtrip(client, [job(0)])  # connects; solves job 0
            before = http_counts(service)
            with counting_header_parses() as parses:
                for _ in range(ROUNDTRIPS):
                    roundtrip(client, [job(0)])
            cached = delta(service, before)
            before = http_counts(service)
            for k in range(COLD_WAITS):
                cid = client.submit([job(1 + k)])
                assert client.wait(cid, timeout=120)["status"] == "done"
            cold = delta(service, before)
    finally:
        daemon.stop()
    return {
        "cached_roundtrip": {
            "roundtrips": ROUNDTRIPS,
            "tcp_connects": cached["tcp_connects"],
            "http_requests": cached["http_requests"],
            "tcp_connects_per_rt": cached["tcp_connects"] / ROUNDTRIPS,
            "http_requests_per_rt": cached["http_requests"] / ROUNDTRIPS,
            "stdlib_header_parses": parses["stdlib_header_parses"],
            "stdlib_header_parses_per_rt":
                parses["stdlib_header_parses"] / ROUNDTRIPS,
        },
        "cold_wait": {
            "waits": COLD_WAITS,
            "status_requests": cold["status_requests"],
            "status_requests_per_wait":
                cold["status_requests"] / COLD_WAITS,
        },
    }


if __name__ == "__main__":
    print(json.dumps(measure(), sort_keys=True))
