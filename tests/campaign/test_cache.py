"""Result cache: content addressing, disk round trips, invalidation."""

import json

import numpy as np
import pytest

from repro.campaign import CampaignJob, ResultCache, cache_key
from repro.campaign.cache import CACHE_SCHEMA
from repro.experiments.harness import run_configuration


@pytest.fixture(scope="module")
def solved():
    return run_configuration(n=8, n_peers=2, n_clusters=1,
                             scheme="synchronous", tol=1e-3)


def _key():
    return cache_key(CampaignJob(n=8, n_peers=2, tol=1e-3).signature())


class TestCacheKey:
    def test_stable_and_canonical(self):
        sig = CampaignJob(n=8, n_peers=2).signature()
        assert cache_key(sig) == cache_key(dict(reversed(list(sig.items()))))

    def test_distinct_for_distinct_jobs(self):
        a = cache_key(CampaignJob(n=8).signature())
        b = cache_key(CampaignJob(n=10).signature())
        assert a != b

    def test_warm_edge_changes_key(self):
        sig = CampaignJob(n=8).signature()
        assert cache_key(dict(sig, warm_from=None)) != \
            cache_key(dict(sig, warm_from="abc123"))


class TestMemoryCache:
    def test_miss_then_hit(self, solved):
        cache = ResultCache()
        key = _key()
        assert cache.load(key) is None
        cache.store(key, solved)
        assert cache.load(key) is solved
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_bounded_memory(self, solved):
        cache = ResultCache(max_memory_entries=2)
        for i in range(4):
            cache.store(f"k{i}", solved)
        assert cache.load("k0") is None  # evicted
        assert cache.load("k3") is solved

    def test_remember_is_memory_only_and_uncounted(self, tmp_path, solved):
        """How a result another process computed becomes resident: no
        disk write, no store counted, same bound as store()."""
        cache = ResultCache(tmp_path, max_memory_entries=2)
        cache.remember("k0", solved)
        assert cache.has_memory("k0")
        assert cache.stores == 0 and len(cache) == 0
        assert cache.load("k0") is solved
        for key in ("k1", "k2"):
            cache.remember(key, solved)
        assert not cache.has_memory("k0")  # oldest entry evicted


class TestDiskCache:
    def test_roundtrip_bit_identical(self, tmp_path, solved):
        cache = ResultCache(tmp_path)
        key = _key()
        cache.store(key, solved, signature={"n": 8})
        # A fresh cache object (new process analogue) must reload it.
        fresh = ResultCache(tmp_path)
        loaded = fresh.load(key)
        assert loaded is not None
        assert np.array_equal(loaded.report.u, solved.report.u)
        assert loaded.report.u.dtype == solved.report.u.dtype
        assert loaded.elapsed == solved.elapsed
        assert loaded.relaxations == solved.relaxations
        assert loaded.residual == solved.residual
        assert loaded.scheme == solved.scheme
        assert loaded.max_wait_time == solved.max_wait_time
        per = list(zip(loaded.report.per_peer, solved.report.per_peer))
        assert per
        for got, want in per:
            assert np.array_equal(got.block, want.block)
            assert got.relaxations == want.relaxations
            assert got.converged_at == want.converged_at
            assert got.final_diff == want.final_diff
            assert got.extra == want.extra

    def test_schema_mismatch_misses(self, tmp_path, solved):
        cache = ResultCache(tmp_path)
        key = _key()
        cache.store(key, solved)
        meta_path = tmp_path / f"{key}.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = CACHE_SCHEMA + 1
        meta_path.write_text(json.dumps(meta))
        assert ResultCache(tmp_path).load(key) is None

    def test_clear_removes_files(self, tmp_path, solved):
        cache = ResultCache(tmp_path)
        cache.store(_key(), solved)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        # Only the advisory lock file may remain: unlinking it while
        # another driver holds it would break mutual exclusion.
        leftovers = {p.name for p in tmp_path.iterdir()}
        assert leftovers <= {".cache.lock"}

    def test_missing_entry_is_miss(self, tmp_path):
        assert ResultCache(tmp_path).load("deadbeef") is None

    def test_torn_pair_is_miss(self, tmp_path, solved):
        """An entry with either file of its pair missing is a miss."""
        cache = ResultCache(tmp_path)
        key = _key()
        cache.store(key, solved, signature={"dtype": "float64"})
        (tmp_path / f"{key}.npy").unlink()
        assert ResultCache(tmp_path).load(key) is None
        cache.store(key, solved, signature={"dtype": "float64"})
        (tmp_path / f"{key}.json").unlink()
        assert ResultCache(tmp_path).load(key) is None

    def test_dtype_mismatch_is_corruption_miss(self, tmp_path, solved):
        """A stored .npy whose dtype disagrees with the signature in
        its metadata pair — a torn/mismatched pair, e.g. after a
        partial directory copy — is a warning and a miss, never a
        wrongly-typed hit."""
        cache = ResultCache(tmp_path)
        key = _key()
        sig = dict(CampaignJob(n=8, n_peers=2, tol=1e-3).signature())
        cache.store(key, solved, signature=sig)
        # Overwrite the array with a float32 copy, leaving the
        # metadata claiming float64.
        np.save(tmp_path / f"{key}.npy",
                solved.report.u.astype(np.float32))
        fresh = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="dtype"):
            assert fresh.load(key) is None
        assert fresh.misses == 1

    def test_dtype_match_loads_clean(self, tmp_path, solved):
        """The guard never fires on a healthy entry (no warning)."""
        import warnings

        cache = ResultCache(tmp_path)
        key = _key()
        sig = dict(CampaignJob(n=8, n_peers=2, tol=1e-3).signature())
        cache.store(key, solved, signature=sig)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ResultCache(tmp_path).load(key) is not None


class TestDiskLRUEviction:
    """The disk layer is bounded: stores evict least-recently-used
    entry pairs until the directory fits the byte budget."""

    def _entry_bytes(self, tmp_path, solved):
        probe = ResultCache(tmp_path / "probe")
        probe.store("probe", solved, signature={"n": 8})
        return probe.disk_bytes()

    def _backdate(self, cache, key, age_s):
        """Push an entry's LRU clock into the past (deterministic order
        regardless of filesystem timestamp resolution)."""
        import os
        import time

        _npy, meta = cache._paths(key)
        stamp = time.time() - age_s
        os.utime(meta, (stamp, stamp))

    def test_budget_enforced(self, tmp_path, solved):
        size = self._entry_bytes(tmp_path, solved)
        cache = ResultCache(tmp_path / "c", max_disk_bytes=2 * size + size // 2)
        for i in range(5):
            cache.store(f"k{i}", solved, signature={"i": i})
            self._backdate(cache, f"k{i}", age_s=100 - i)
            assert cache.disk_bytes() <= cache.max_disk_bytes
        assert cache.evictions == 3
        assert len(cache) == 2

    def test_eviction_is_lru_not_fifo(self, tmp_path, solved):
        size = self._entry_bytes(tmp_path, solved)
        cache = ResultCache(tmp_path / "c", max_disk_bytes=2 * size + size // 2)
        cache.store("a", solved, signature=None)
        self._backdate(cache, "a", age_s=100)
        cache.store("b", solved, signature=None)
        self._backdate(cache, "b", age_s=50)
        assert cache.load("a") is not None  # refreshes a's clock
        cache.store("c", solved, signature=None)
        # b (least recently used) was evicted; a survived its earlier
        # insertion because the hit touched it.
        assert cache.load("b") is None
        assert cache.load("a") is not None
        assert cache.load("c") is not None
        assert cache.evictions == 1

    def test_disk_eviction_drops_memory_copy(self, tmp_path, solved):
        size = self._entry_bytes(tmp_path, solved)
        cache = ResultCache(tmp_path / "c", max_disk_bytes=size + size // 2)
        cache.store("a", solved, signature=None)
        self._backdate(cache, "a", age_s=100)
        cache.store("b", solved, signature=None)
        assert cache.load("a") is None  # not resurrected from memory
        assert cache.load("b") is not None

    def test_single_oversized_entry_survives_its_own_store(
            self, tmp_path, solved):
        size = self._entry_bytes(tmp_path, solved)
        cache = ResultCache(tmp_path / "c", max_disk_bytes=size // 2)
        cache.store("big", solved, signature=None)
        assert cache.load("big") is not None
        # ...but it is the first victim of the next store.
        self._backdate(cache, "big", age_s=100)
        cache.store("next", solved, signature=None)
        assert cache.load("big") is None

    def test_unbounded_by_default(self, tmp_path, solved):
        cache = ResultCache(tmp_path / "c")
        for i in range(6):
            cache.store(f"k{i}", solved, signature=None)
        assert cache.evictions == 0
        assert len(cache) == 6

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ResultCache(tmp_path, max_disk_bytes=0)


class TestStats:
    def test_counters_and_hit_rate(self, solved):
        cache = ResultCache()
        assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0,
                                 "evictions": 0, "hit_rate": 0.0,
                                 "lock_wait_seconds": 0.0}
        key = _key()
        cache.load(key)          # miss
        cache.store(key, solved)
        cache.load(key)          # hit
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["hit_rate"] == 0.5

    def test_disk_eviction_counted(self, tmp_path, solved):
        probe = ResultCache(tmp_path / "probe")
        probe.store("probe", solved)
        size = probe.disk_bytes()
        cache = ResultCache(tmp_path / "c",
                            max_disk_bytes=size + size // 2)
        cache.store("a", solved)
        cache.store("b", solved)
        assert cache.stats()["evictions"] == 1


def _process_hammer(root, budget, pid, errq):
    """One OS process storing + loading its own keys against a shared
    cache directory under budget pressure (module-level: spawn-safe)."""
    try:
        result = run_configuration(n=8, n_peers=2, n_clusters=1,
                                   scheme="synchronous", tol=1e-3)
        cache = ResultCache(root, max_disk_bytes=budget)
        for i in range(5):
            key = cache_key(CampaignJob(
                n=8, n_peers=2, tol=1e-3,
                seed=1 + pid * 100 + i,
            ).signature())
            cache.store(key, result)
            cache.load(key)
    except Exception:  # pragma: no cover - failure path
        import traceback

        errq.put(traceback.format_exc())


class TestConcurrentWriters:
    def test_shared_directory_under_budget_pressure(self, solved, tmp_path):
        """Several drivers hammering one rooted cache: the flock'd
        store + LRU-eviction compound must keep the directory within
        budget, tear no entry pairs, and serve every surviving key."""
        import threading

        probe = ResultCache(tmp_path)
        probe.store(_key(), solved)
        entry_bytes = probe.disk_bytes()
        assert entry_bytes > 0
        probe.clear()
        budget = 3 * entry_bytes + entry_bytes // 2

        def keys_for(tid):
            return [
                cache_key(CampaignJob(n=8, n_peers=2, tol=1e-3,
                                      seed=1 + tid * 100 + i).signature())
                for i in range(5)
            ]

        errors = []

        def writer(tid):
            cache = ResultCache(tmp_path, max_disk_bytes=budget)
            try:
                for key in keys_for(tid):
                    cache.store(key, solved)
                    cache.load(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(tid,))
                   for tid in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        reader = ResultCache(tmp_path, max_disk_bytes=budget)
        assert reader.disk_bytes() <= budget
        survivors = [p.stem for p in tmp_path.glob("*.json")]
        assert survivors  # the budget never thrashes to empty
        for key in survivors:
            assert (tmp_path / f"{key}.npy").exists()  # no torn pairs
            loaded = reader.load(key)
            assert loaded is not None
            assert loaded.residual == solved.residual

    def test_true_multiprocess_sharing(self, solved, tmp_path):
        """Two *OS processes* (not threads — each with its own GIL,
        flock holder, and directory view) storing and evicting against
        one cache directory: the budget holds, no entry pair is torn,
        every survivor loads.  This is exactly the sharing mode of
        ``Campaign(drivers=N)`` workers over a rooted cache."""
        import multiprocessing

        from repro.parallel.pool import _start_method

        probe = ResultCache(tmp_path)
        probe.store(_key(), solved)
        entry_bytes = probe.disk_bytes()
        probe.clear()
        budget = 3 * entry_bytes + entry_bytes // 2

        ctx = multiprocessing.get_context(_start_method(None))
        errq = ctx.Queue()
        procs = [
            ctx.Process(target=_process_hammer,
                        args=(str(tmp_path), budget, pid, errq))
            for pid in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
        errors = []
        while not errq.empty():
            errors.append(errq.get())
        assert errors == []
        assert [p.exitcode for p in procs] == [0, 0]

        reader = ResultCache(tmp_path, max_disk_bytes=budget)
        assert reader.disk_bytes() <= budget
        survivors = [p.stem for p in tmp_path.glob("*.json")]
        assert survivors
        for key in survivors:
            assert (tmp_path / f"{key}.npy").exists()  # no torn pairs
            loaded = reader.load(key)
            assert loaded is not None
            assert loaded.residual == solved.residual
