"""Result cache: content addressing, disk round trips, invalidation,
self-verifying entries and the shared-directory concurrency contract."""

import hashlib
import json
import os
import time
import warnings
import zlib

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignJob, ResultCache, cache_key
from repro.campaign.cache import _MAGIC, _PREFIX, CACHE_SCHEMA
from repro.experiments.harness import run_job


@pytest.fixture(scope="module")
def solved():
    return run_job(CampaignJob(n=8, n_peers=2, scheme="synchronous",
                               tol=1e-3))


def _key():
    return cache_key(CampaignJob(n=8, n_peers=2, tol=1e-3).signature())


def _entry(root, key):
    return root / f"{key}.entry"


def _split(path):
    """``(header, payload bytes)`` of one entry file."""
    raw = path.read_bytes()
    magic, header_len = _PREFIX.unpack_from(raw)
    assert magic == _MAGIC
    start = _PREFIX.size + header_len
    return json.loads(raw[_PREFIX.size:start]), raw[start:]


def _write(path, meta, payload):
    header = json.dumps(meta).encode()
    path.write_bytes(_PREFIX.pack(_MAGIC, len(header)) + header + payload)


def _corrupt_total(cache, reason):
    counters = cache.telemetry_snapshot()["counters"]
    return counters.get(f'repro_cache_corrupt_total{{reason="{reason}"}}', 0)


def _digest(result):
    return hashlib.sha256(result.report.u.tobytes()).hexdigest()


def _load_clean(root, key):
    """Load through a fresh instance with any warning an error: the
    entry must be served whole, or be absent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ResultCache(root).load(key)


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
        assert loaded.report.u.flags.writeable
        assert loaded.elapsed == solved.elapsed
        assert loaded.relaxations == solved.relaxations
        assert loaded.residual == solved.residual
        assert loaded.scheme == solved.scheme
        assert loaded.max_wait_time == solved.max_wait_time
        per = list(zip(loaded.report.per_peer, solved.report.per_peer))
        assert per
        for got, want in per:
            assert np.array_equal(got.block, want.block)
            # Blocks are views of the one loaded iterate, as after a solve.
            assert np.shares_memory(got.block, loaded.report.u)
            assert got.relaxations == want.relaxations
            assert got.converged_at == want.converged_at
            assert got.final_diff == want.final_diff
            assert got.extra == want.extra

    def test_one_file_per_entry(self, tmp_path, solved):
        cache = ResultCache(tmp_path)
        key = _key()
        cache.store(key, solved, signature={"n": 8})
        assert {p.name for p in tmp_path.iterdir()} == \
            {f"{key}.entry", ".cache.lock"}
        meta, payload = _split(_entry(tmp_path, key))
        u = solved.report.u
        assert meta["schema"] == CACHE_SCHEMA
        assert meta["signature"] == {"n": 8}
        assert (meta["dtype"], meta["shape"], meta["nbytes"]) == \
            (u.dtype.str, list(u.shape), u.nbytes)
        assert payload == u.tobytes()
        assert cache.disk_bytes() == _entry(tmp_path, key).stat().st_size

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
        assert _load_clean(tmp_path, "deadbeef") is None

    def test_dtype_match_loads_clean(self, tmp_path, solved):
        """The guard never fires on a healthy entry (no warning)."""
        cache = ResultCache(tmp_path)
        key = _key()
        sig = dict(CampaignJob(n=8, n_peers=2, tol=1e-3).signature())
        cache.store(key, solved, signature=sig)
        assert _load_clean(tmp_path, key) is not None

    def test_reads_take_no_lock(self, tmp_path, solved, monkeypatch):
        """Disk and memory hits on a rooted cache never flock; only
        mutations do."""
        import fcntl

        calls = []
        real = fcntl.flock
        monkeypatch.setattr(fcntl, "flock",
                            lambda fd, op: (calls.append(op), real(fd, op)))
        key = _key()
        ResultCache(tmp_path).store(key, solved)
        assert calls.count(fcntl.LOCK_EX) == 1
        calls.clear()
        cache = ResultCache(tmp_path)
        assert cache.load(key) is not None   # disk hit
        assert cache.load(key) is not None   # memory hit
        assert cache.load("deadbeef") is None  # miss
        assert calls == []
        assert cache.lock_wait_seconds == 0.0


def _flip_payload_bit(path):
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))


def _retype_float32(path):
    """A well-formed float32 entry whose signature promises float64."""
    meta, payload = _split(path)
    u32 = np.frombuffer(payload, np.dtype(meta["dtype"])).astype(np.float32)
    meta.update(dtype=u32.dtype.str, nbytes=u32.nbytes,
                crc32=zlib.crc32(u32))
    _write(path, meta, u32.tobytes())


def _rewrite_header(**changes):
    def mutate(path):
        meta, payload = _split(path)
        meta.update(changes)
        _write(path, meta, payload)
    return mutate


def _drop_crc(path):
    meta, payload = _split(path)
    del meta["crc32"]
    _write(path, meta, payload)


def _truncate_to(size_of):
    def mutate(path):
        raw = path.read_bytes()
        path.write_bytes(raw[:size_of(raw)])
    return mutate


def _garble_header(path):
    raw = bytearray(path.read_bytes())
    raw[_PREFIX.size:_PREFIX.size + 4] = b"{{{{"
    path.write_bytes(bytes(raw))


def _header_end(raw):
    return _PREFIX.size + _PREFIX.unpack_from(raw)[1]


#: Every way an entry can be bad, each with the reason it is filed under.
CORRUPTIONS = {
    "wrong magic": ("magic", lambda p: p.write_bytes(
        b"NOTCACHE" + p.read_bytes()[8:])),
    "short prefix": ("prefix", _truncate_to(lambda raw: 5)),
    "unparsable header": ("header", _garble_header),
    "short header": ("header", _truncate_to(
        lambda raw: _PREFIX.size + 10)),
    "header missing a field": ("header", _drop_crc),
    "shape disagrees with size": ("header", _rewrite_header(shape=[2, 3])),
    "negative dimension": ("header", _rewrite_header(shape=[-8, 8, 8])),
    "object dtype": ("header", _rewrite_header(dtype="|O")),
    "schema mismatch": ("schema", _rewrite_header(schema=CACHE_SCHEMA + 1)),
    "short payload": ("length", _truncate_to(lambda raw: len(raw) - 8)),
    "long payload": ("length", lambda p: p.write_bytes(
        p.read_bytes() + b"\0" * 8)),
    "flipped payload bit": ("crc", _flip_payload_bit),
    "dtype mismatch": ("dtype", _retype_float32),
}


class TestCorruptEntries:
    """One path for every bad entry: a RuntimeWarning naming key and
    reason, ``repro_cache_corrupt_total{reason}``, the file removed, a
    miss — never an exception, never a served result."""

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_is_one_path(self, tmp_path, solved, case):
        reason, mutate = CORRUPTIONS[case]
        key = _key()
        sig = dict(CampaignJob(n=8, n_peers=2, tol=1e-3).signature())
        ResultCache(tmp_path).store(key, solved, signature=sig)
        mutate(_entry(tmp_path, key))
        fresh = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning,
                          match=rf"{key} is corrupt \({reason}:"):
            assert fresh.load(key) is None
        assert (fresh.hits, fresh.misses) == (0, 1)
        assert _corrupt_total(fresh, reason) == 1
        assert not _entry(tmp_path, key).exists()
        # Gone for good: the next load is a plain miss.
        assert _load_clean(tmp_path, key) is None

    def test_counter_reaches_metrics_not_stats(self, tmp_path, solved):
        from repro.telemetry.exposition import render_prometheus

        key = _key()
        ResultCache(tmp_path).store(key, solved)
        _flip_payload_bit(_entry(tmp_path, key))
        fresh = ResultCache(tmp_path)
        with pytest.warns(RuntimeWarning, match="crc"):
            fresh.load(key)
        assert set(fresh.stats()) == {"hits", "misses", "stores",
                                      "evictions", "hit_rate",
                                      "lock_wait_seconds"}
        text = render_prometheus(fresh.telemetry_snapshot())
        assert 'repro_cache_corrupt_total{reason="crc"} 1' in text

    def test_fresh_replacement_is_not_removed(self, tmp_path, solved):
        """A corrupt read racing a fresh store of the same key removes
        only the file it read, never the new entry."""
        cache = ResultCache(tmp_path)
        key = _key()
        cache.store(key, solved)
        stale = os.stat(_entry(tmp_path, key))
        cache.store(key, solved)  # os.replace: a new file
        with pytest.warns(RuntimeWarning, match="corrupt"):
            cache._discard_corrupt(key, stale, "crc", "raced")
        assert _load_clean(tmp_path, key) is not None

    def test_flipped_bit_drill(self, tmp_path):
        """Flip one payload bit of a stored campaign result: the next
        campaign misses, re-solves and re-stores it, and the entry after
        that is a clean hit with the cold digest."""
        job = CampaignJob(n=8, n_peers=2, scheme="synchronous", tol=1e-3)
        with Campaign([job], cache=ResultCache(tmp_path)) as c:
            [cold] = c.run().records
        assert cold.source == "run"
        _flip_payload_bit(_entry(tmp_path, cold.cache_key))
        with pytest.warns(RuntimeWarning, match="crc"):
            with Campaign([job], cache=ResultCache(tmp_path)) as c:
                [again] = c.run().records
        assert again.source == "run"
        assert _digest(again.result) == _digest(cold.result)
        served = _load_clean(tmp_path, cold.cache_key)
        assert served is not None
        assert _digest(served) == _digest(cold.result)


class TestSchemaUpgrade:
    """A directory written before schema 2 holds ``.npy`` + ``.json``
    pairs: never read, never counted, removed by ``clear()``."""

    def _legacy_pair(self, root, solved):
        sig = CampaignJob(n=8, n_peers=2, tol=1e-3).signature()
        blob = json.dumps({"schema": 1, **sig}, sort_keys=True,
                          separators=(",", ":"))
        old = hashlib.sha256(blob.encode()).hexdigest()
        np.save(root / f"{old}.npy", solved.report.u)
        (root / f"{old}.json").write_text(
            json.dumps({"schema": 1, "signature": sig}))
        return old

    def test_mixed_directory(self, tmp_path, solved):
        probe = ResultCache(tmp_path / "probe")
        probe.store("probe", solved)
        size = probe.disk_bytes()
        root = tmp_path / "c"
        cache = ResultCache(root, max_disk_bytes=size + size // 2)
        old = self._legacy_pair(root, solved)
        key = _key()
        assert key != old  # the schema is part of every key
        assert len(cache) == 0 and cache.disk_bytes() == 0
        assert _load_clean(root, old) is None
        assert _load_clean(root, key) is None
        cache.store(key, solved)
        # The legacy pair does not count against the budget...
        assert cache.evictions == 0
        assert len(cache) == 1
        assert cache.disk_bytes() == _entry(root, key).stat().st_size
        # ...and is never an eviction victim.
        cache.store("other", solved)
        assert cache.evictions == 1
        assert (root / f"{old}.npy").exists()
        assert (root / f"{old}.json").exists()
        cache.clear()
        assert {p.name for p in root.iterdir()} <= {".cache.lock"}


class TestDiskLRUEviction:
    """The disk layer is bounded: stores evict least-recently-used
    entries until the directory fits the byte budget."""

    def _entry_bytes(self, tmp_path, solved):
        probe = ResultCache(tmp_path / "probe")
        probe.store("probe", solved, signature={"n": 8})
        return probe.disk_bytes()

    def _backdate(self, cache, key, age_s):
        """Push an entry's LRU clock into the past (deterministic order
        regardless of filesystem timestamp resolution)."""
        stamp = time.time() - age_s
        os.utime(cache._path(key), (stamp, stamp))

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

    def test_disk_hit_refreshes_clock_across_instances(self, tmp_path,
                                                       solved):
        """The LRU clock lives on disk: a hit through a *fresh* instance
        (another process, a re-invoked CLI) refreshes it too."""
        size = self._entry_bytes(tmp_path, solved)
        root = tmp_path / "c"
        cache = ResultCache(root, max_disk_bytes=2 * size + size // 2)
        cache.store("a", solved, signature=None)
        self._backdate(cache, "a", age_s=100)
        cache.store("b", solved, signature=None)
        self._backdate(cache, "b", age_s=50)
        assert ResultCache(root).load("a") is not None
        cache.store("c", solved, signature=None)
        assert sorted(p.stem for p in root.glob("*.entry")) == ["a", "c"]

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


def _assert_whole_survivors(root, budget, solved):
    """Every entry left in ``root`` is whole and loads clean; the
    directory fits ``budget``; no temporary file is left behind."""
    assert ResultCache(root, max_disk_bytes=budget).disk_bytes() <= budget
    survivors = [p.stem for p in root.glob("*.entry")]
    assert survivors  # the budget never thrashes to empty
    for key in survivors:
        loaded = _load_clean(root, key)
        assert loaded is not None
        assert loaded.residual == solved.residual
    assert list(root.glob("*.tmp")) == []


def _process_hammer(root, budget, pid, errq):
    """One OS process storing + loading its own keys against a shared
    cache directory under budget pressure (module-level: spawn-safe)."""
    try:
        result = run_job(CampaignJob(n=8, n_peers=2, scheme="synchronous",
                                     tol=1e-3))
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


def _budget_for(tmp_path, solved, entries):
    probe = ResultCache(tmp_path)
    probe.store(_key(), solved)
    entry_bytes = probe.disk_bytes()
    assert entry_bytes > 0
    probe.clear()
    return entries * entry_bytes + entry_bytes // 2


class TestConcurrentWriters:
    def test_shared_directory_under_budget_pressure(self, solved, tmp_path):
        """Several drivers hammering one rooted cache: the flock'd
        store + LRU-eviction compound must keep the directory within
        budget, leave only whole entries, and serve every survivor."""
        import threading

        budget = _budget_for(tmp_path, solved, 3)

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
        _assert_whole_survivors(tmp_path, budget, solved)

    def test_true_multiprocess_sharing(self, solved, tmp_path):
        """Two *OS processes* (not threads — each with its own GIL,
        flock holder, and directory view) storing and evicting against
        one cache directory: the budget holds, only whole entries
        remain, every survivor loads.  This is exactly the sharing mode
        of ``Campaign(drivers=N)`` workers over a rooted cache."""
        import multiprocessing

        from repro.campaign.driver import _start_method

        budget = _budget_for(tmp_path, solved, 3)
        ctx = multiprocessing.get_context(_start_method())
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
        _assert_whole_survivors(tmp_path, budget, solved)


# -- the concurrency contract: lock-free readers vs. mutating writers ---------

CONTRACT_KEYS = [f"contract-{i}" for i in range(4)]


def _contract_writer(root, budget, solved, seed, start, done, errq):
    """Store and evict in a loop: the budget fits two of the four keys,
    so nearly every store evicts another key's entry."""
    import random

    try:
        rng = random.Random(seed)
        cache = ResultCache(root, max_disk_bytes=budget)
        start.wait(30)
        for _ in range(200):
            cache.store(rng.choice(CONTRACT_KEYS), solved)
    except Exception:  # pragma: no cover - failure path
        import traceback

        errq.put(traceback.format_exc())
    finally:
        done.set()


def _contract_reader(root, digest, seed, start, done, errq, outq):
    """Load the same keys in a loop through fresh instances (every hit a
    disk read) until the writer is done; any warning is an error."""
    import random

    hits = misses = 0
    try:
        rng = random.Random(seed)
        start.set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            while True:
                finished = done.is_set()
                for key in rng.sample(CONTRACT_KEYS, len(CONTRACT_KEYS)):
                    loaded = ResultCache(root).load(key)
                    if loaded is None:
                        misses += 1
                    elif _digest(loaded) != digest:
                        raise AssertionError(f"{key}: wrong payload")
                    else:
                        hits += 1
                if finished:
                    break
    except BaseException:
        import traceback

        errq.put(traceback.format_exc())
    outq.put((hits, misses))


def _contract_same_key(root, solved, offset, start, errq):
    try:
        solved.report.u = solved.report.u + offset
        cache = ResultCache(root)
        start.wait(30)
        for _ in range(30):
            cache.store("contested", solved)
    except Exception:  # pragma: no cover - failure path
        import traceback

        errq.put(traceback.format_exc())


class TestConcurrencyContract:
    """Two OS processes on one cache directory, seeded: readers never
    take the lock and still only ever see a whole, crc-valid entry or a
    miss."""

    def _ctx(self):
        import multiprocessing

        from repro.campaign.driver import _start_method

        return multiprocessing.get_context(_start_method())

    def _join(self, procs, errq):
        for p in procs:
            p.join(timeout=60)
        errors = []
        while not errq.empty():
            errors.append(errq.get())
        assert errors == []
        assert [p.exitcode for p in procs] == [0] * len(procs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reader_vs_evicting_writer(self, tmp_path, solved, seed):
        ctx = self._ctx()
        budget = _budget_for(tmp_path, solved, 2)
        start, done = ctx.Event(), ctx.Event()
        errq, outq = ctx.Queue(), ctx.Queue()
        procs = [
            ctx.Process(target=_contract_writer,
                        args=(str(tmp_path), budget, solved, seed, start,
                              done, errq)),
            ctx.Process(target=_contract_reader,
                        args=(str(tmp_path), _digest(solved), seed, start,
                              done, errq, outq)),
        ]
        for p in procs:
            p.start()
        hits, misses = outq.get(timeout=60)
        self._join(procs, errq)
        # Two of four keys are on disk at the end: both outcomes occur.
        assert hits > 0 and misses > 0
        _assert_whole_survivors(tmp_path, budget, solved)

    def test_racing_stores_of_one_key(self, tmp_path, solved):
        ctx = self._ctx()
        start = ctx.Event()
        errq = ctx.Queue()
        procs = [ctx.Process(target=_contract_same_key,
                             args=(str(tmp_path), solved, offset, start,
                                   errq))
                 for offset in (1.0, 2.0)]
        for p in procs:
            p.start()
        start.set()
        self._join(procs, errq)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            [".cache.lock", "contested.entry"]
        loaded = _load_clean(tmp_path, "contested")
        assert loaded is not None
        assert any(np.array_equal(loaded.report.u, solved.report.u + offset)
                   for offset in (1.0, 2.0))
