"""Campaign jobs: normalization, content keys, matrix and DAG planning."""

import pytest

from repro.campaign import CampaignJob, expand_matrix, plan_jobs


class TestCampaignJob:
    def test_normalization(self):
        import numpy as np

        job = CampaignJob(n=8, scheme="SYNCHRONOUS", dtype=np.float32,
                          extra={"b": 2, "a": 1})
        assert job.scheme == "synchronous"
        assert job.dtype == "float32"
        assert job.extra == (("a", 1), ("b", 2))
        assert job.extra_params == {"a": 1, "b": 2}

    def test_key_is_content_address(self):
        import numpy as np

        a = CampaignJob(n=8, n_peers=2, scheme="synchronous")
        b = CampaignJob(n=8, n_peers=2, scheme="Synchronous",
                        dtype=np.float64)  # same after normalization
        c = CampaignJob(n=8, n_peers=2, scheme="asynchronous")
        assert a.key() == b.key()
        assert a.key() != c.key()
        # Spelling of equivalent values must not change the key.
        assert CampaignJob(n=8, delta=0.5).key() == \
            CampaignJob(n=8, delta=1 / 2).key()

    def test_signature_json_roundtrip(self):
        import json

        job = CampaignJob(n=8, delta=0.125, extra={"weights": (1, 2)})
        blob = json.dumps(job.signature(), sort_keys=True)
        assert json.loads(blob) == job.signature()

    def test_label_mentions_axes(self):
        label = CampaignJob(n=8, n_peers=4, dtype="float32").label()
        assert "n=8" in label and "α=4" in label and "float32" in label


class TestJobIdentity:
    """Signature and key are computed once per (frozen) instance; the
    values themselves are pinned — every cache key and wire round trip
    stands on them."""

    #: Recorded before identity was memoised; must never change.
    PINNED = [
        (dict(n=8), "96bbba931758ec43"),
        (dict(n=12, n_peers=4, n_clusters=2, scheme="asynchronous",
              tol=1e-3), "f981b6be481dc7f4"),
        (dict(n=32, n_peers=2, scheme="synchronous", tol=1e-4, n_paper=96,
              seed=7, delta=0.1), "314e9c7da23dfd77"),
        (dict(n=16, dtype="float32", extra={"tag": "y"}),
         "cbd4d69f4fef14af"),
        (dict(n=24, n_peers=8, scheme="hybrid", problem="membrane",
              tol=1e-6, extra={"weights": (1.0, 2.0), "tag": "x"}),
         "3b9b0ec4535f6caa"),
    ]

    @pytest.mark.parametrize("fields,key", PINNED)
    def test_pinned_keys(self, fields, key):
        job = CampaignJob(**fields)
        assert job.key() == key
        assert job.key() == key  # the memoised value too
        assert CampaignJob.from_wire(job.to_wire()).key() == key

    def test_built_and_hashed_once(self, monkeypatch):
        import repro.campaign.jobs as jobs_mod

        calls = {"build": 0, "hash": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(jobs_mod, "_build_signature",
                            counted("build", jobs_mod._build_signature))
        monkeypatch.setattr(jobs_mod, "_hash_signature",
                            counted("hash", jobs_mod._hash_signature))
        job = CampaignJob(n=8, n_peers=2)
        for _ in range(5):
            job.key()
            job.signature()
        assert calls == {"build": 1, "hash": 1}

    def test_signature_is_a_copy(self):
        job = CampaignJob(n=8, delta=0.5)
        sig = job.signature()
        sig.pop("delta")
        sig["warm_from"] = "abc"
        assert job.signature()["delta"] == 0.5
        assert "warm_from" not in job.signature()

    def test_memo_outside_eq_hash_repr(self):
        import dataclasses
        import pickle

        warm = CampaignJob(n=8, n_peers=2)
        warm.key()
        cold = CampaignJob(n=8, n_peers=2)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert pickle.loads(pickle.dumps(warm)).key() == cold.key()
        # A replaced job gets its own identity, not the original's.
        other = dataclasses.replace(warm, n=10)
        assert other.key() == CampaignJob(n=10, n_peers=2).key()


class TestExpandMatrix:
    def test_cartesian_product(self):
        jobs = expand_matrix(ns=[8], n_peers=[1, 2],
                             schemes=["synchronous", "asynchronous"])
        assert len(jobs) == 4
        assert len({j.key() for j in jobs}) == 4

    def test_cluster_exceeding_peers_skipped(self):
        jobs = expand_matrix(ns=[8], n_peers=[1, 2], n_clusters=[1, 2])
        # (1 peer, 2 clusters) is meaningless and skipped.
        assert len(jobs) == 3
        assert all(j.n_clusters <= j.n_peers for j in jobs)

    def test_delta_axis(self):
        jobs = expand_matrix(ns=[8], deltas=[None, 0.1, 0.2])
        assert [j.delta for j in jobs] == [None, 0.1, 0.2]


class TestPlanJobs:
    def test_deduplication(self):
        a = CampaignJob(n=8)
        plan = plan_jobs([a, CampaignJob(n=8), CampaignJob(n=10)])
        assert len(plan.jobs) == 3
        assert len(plan.order) == 2
        assert plan.n_duplicates == 1

    def test_no_warm_edges_by_default(self):
        plan = plan_jobs(expand_matrix(ns=[8], deltas=[0.1, 0.2]))
        assert plan.warm_sources == {}

    def test_warm_start_chains_delta_groups(self):
        jobs = expand_matrix(ns=[8], deltas=[0.3, 0.1, 0.2])
        plan = plan_jobs(jobs, warm_start=True)
        ordered = [j.delta for j in plan.order]
        assert ordered == [0.1, 0.2, 0.3]  # sorted ascending
        key = {j.delta: j.key() for j in plan.order}
        assert plan.warm_sources == {
            key[0.2]: key[0.1],
            key[0.3]: key[0.2],
        }

    def test_warm_start_does_not_cross_groups(self):
        jobs = expand_matrix(ns=[8], deltas=[0.1, 0.2],
                             schemes=["synchronous", "asynchronous"])
        plan = plan_jobs(jobs, warm_start=True)
        # Two independent chains of two — one edge each.
        assert len(plan.warm_sources) == 2
        by_key = {j.key(): j for j in plan.order}
        for dst, src in plan.warm_sources.items():
            assert by_key[dst].scheme == by_key[src].scheme

    def test_sources_precede_dependents(self):
        jobs = expand_matrix(ns=[8], deltas=[0.3, 0.1, 0.2],
                             schemes=["synchronous", "asynchronous"])
        plan = plan_jobs(jobs, warm_start=True)
        position = {j.key(): i for i, j in enumerate(plan.order)}
        for dst, src in plan.warm_sources.items():
            assert position[src] < position[dst]
