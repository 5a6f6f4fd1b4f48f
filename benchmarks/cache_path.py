#!/usr/bin/env python
"""Exact work counts of a campaign served from the on-disk result cache.

    PYTHONPATH=src python benchmarks/cache_path.py

prints one JSON object: for the ``campaign_sweep``-shaped plan — eight
matrix jobs plus a four-delta warm chain, twelve unique jobs — solved
once into a cache directory and then re-run with *fresh* job objects
through a *fresh* :class:`ResultCache` (every hit a disk read, as for a
re-invoked CLI), how many times a job signature is built, a job key
hashed, an entry file opened, the directory ``flock`` taken, and how
many payload bytes are read, per job.

Like ``protocol_path.py`` and ``service_path.py`` these are counts, not
timings — the same integers on every machine — so ``run_bench.py
--check`` holds every ``*_per_job`` value with **zero** tolerance upward
against the committed ``cache_path`` record in ``BENCH_micro.json``:
identity rebuilt per hop, a second file per entry, a lock on the read
path or a re-read payload fails the gate.  ``benchmarks/e2e``
(``campaign_sweep``) measures the seconds.

The counters are installed from here, around module names, for the
duration of the cached run; ``src/`` knows nothing about them.
"""

from __future__ import annotations

import builtins
import contextlib
import fcntl
import json
import tempfile

import repro.campaign.cache as cache_mod
import repro.campaign.jobs as jobs_mod
from repro.campaign import Campaign, CampaignJob, ResultCache, expand_matrix
from repro.numerics import membrane_problem

N = 8


def sweep_jobs() -> list[CampaignJob]:
    """New job objects for the ``campaign_sweep`` plan shape."""
    jobs = expand_matrix([N], n_peers=(2, 4), n_clusters=(1, 2),
                         schemes=("synchronous", "asynchronous"),
                         tol=1e-4, n_paper=96)
    step = membrane_problem(N).jacobi_delta()
    chain = [CampaignJob(n=N, n_peers=2, scheme="synchronous", tol=1e-4,
                         n_paper=96, delta=f * step)
             for f in (0.7, 0.8, 0.9, 1.0)]
    return jobs + chain


class _CountedReader:
    """Stands in for an opened entry file and counts payload bytes."""

    def __init__(self, fh, counts):
        self._fh = fh
        self._counts = counts

    def readinto(self, buffer):
        got = self._fh.readinto(buffer)
        self._counts["payload_bytes_read"] += got
        return got

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@contextlib.contextmanager
def counting():
    counts = {"signature_builds": 0, "key_hashes": 0, "entry_opens": 0,
              "flock_acquisitions": 0, "payload_bytes_read": 0}
    real_flock = fcntl.flock
    originals = [
        (jobs_mod, "_build_signature", jobs_mod._build_signature),
        (jobs_mod, "_hash_signature", jobs_mod._hash_signature),
        (fcntl, "flock", real_flock),
    ]

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def flock(fd, operation):
        if operation & fcntl.LOCK_EX:
            counts["flock_acquisitions"] += 1
        return real_flock(fd, operation)

    def entry_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        if str(path).endswith(cache_mod._SUFFIX) and "r" in mode:
            counts["entry_opens"] += 1
            return _CountedReader(fh, counts)
        return fh

    jobs_mod._build_signature = counted("signature_builds",
                                        jobs_mod._build_signature)
    jobs_mod._hash_signature = counted("key_hashes",
                                       jobs_mod._hash_signature)
    fcntl.flock = flock
    cache_mod.open = entry_open  # shadows the builtin in that module only
    try:
        yield counts
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
        del cache_mod.open


def measure() -> dict:
    with tempfile.TemporaryDirectory() as root:
        with Campaign(sweep_jobs(), cache=ResultCache(root),
                      warm_start=True) as campaign:
            cold = campaign.run()
        assert cold.runs == len(cold.records)
        jobs = sweep_jobs()
        with counting() as counts:
            with Campaign(jobs, cache=ResultCache(root),
                          warm_start=True) as campaign:
                cached = campaign.run()
    assert cached.cache_hits == len(jobs), cached.rows()
    nbytes = sum(record.result.report.u.nbytes for record in cached.records)
    assert counts["payload_bytes_read"] == nbytes, (counts, nbytes)
    out = dict(counts, jobs=len(jobs), payload_nbytes=nbytes)
    for key in counts:
        out[f"{key}_per_job"] = counts[key] / len(jobs)
    return {"cached_sweep_12": out}


if __name__ == "__main__":
    print(json.dumps(measure(), sort_keys=True))
