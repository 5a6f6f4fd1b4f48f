"""Content-addressed result cache for campaign runs.

A solve is deterministic data-in/data-out: the DES replays the same
event sequence for the same configuration, so a result may be reused
whenever the full job signature — problem, size, peers, clusters,
scheme, tolerance, dtype, executor, delta, seed, extras, *and* the
warm-start edge — matches.  :func:`cache_key` hashes exactly that
(plus a schema version: bump :data:`CACHE_SCHEMA` when solver
semantics change and every stale entry misses instead of lying).

Storage is two-layer: an in-memory map for the current process and an
optional on-disk directory so a re-invoked CLI campaign is served from
cache.  On disk each entry is ``<key>.npy`` (the full solution iterate,
bit-exact, dtype preserved) plus ``<key>.json`` (counters, per-peer
metadata, provenance, and the signature for inspection).  Entries are
self-contained — invalidation is ``clear()`` or deleting the files.

With ``max_disk_bytes`` set, the disk layer is bounded: every store
evicts least-recently-used entries (``.npy`` + ``.json`` pairs) until
the directory fits the budget again, making the cache safe as a
long-lived service cache instead of growing until ``clear()``.  The
LRU clock is the metadata file's mtime, refreshed on every hit — it
survives process restarts, so a re-invoked CLI campaign evicts in true
cross-invocation recency order.  The entry being stored is never its
own eviction victim: a single entry larger than the budget is kept
(and everything else evicted) rather than thrashing to an empty cache.

Concurrent writers: a rooted cache directory may be shared by several
drivers (two CLI campaigns, a campaign service worker pool).  Individual
entry files were always safe — write-then-rename never exposes a torn
file — but the *compound* operations (store + LRU eviction scan,
clear) raced: two drivers evicting concurrently could each pick victims
from a directory listing the other was mutating and overshoot the
budget's intent, or delete an entry the other had just refreshed.
Every disk mutation therefore runs under an advisory ``flock`` on
``<root>/.cache.lock`` (per cache directory, so unrelated caches never
contend).  Readers take it too — cheap, and it means a load never
observes an eviction mid-flight.  On platforms without ``fcntl`` the
cache degrades to the previous unlocked behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Optional

import numpy as np

from ..telemetry import MetricsRegistry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["ResultCache", "cache_key", "CACHE_SCHEMA"]

#: Bump when a change makes previously cached results non-reusable
#: (solver semantics, report fields, serialization layout).
CACHE_SCHEMA = 1


def cache_key(signature: dict[str, Any]) -> str:
    """Stable content address of a job signature (sha256 hex)."""
    blob = json.dumps({"schema": CACHE_SCHEMA, **signature},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """problem+params hash → solved :class:`RunResult`.

    ``root=None`` keeps the cache in memory only (one process);
    a path makes entries persistent across invocations.
    """

    def __init__(self, root: Optional[str | os.PathLike] = None,
                 max_memory_entries: int = 128,
                 max_disk_bytes: Optional[int] = None):
        self.root = Path(root).expanduser() if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        if max_disk_bytes is not None and max_disk_bytes <= 0:
            raise ValueError("max_disk_bytes must be positive (or None)")
        self.max_memory_entries = max_memory_entries
        self.max_disk_bytes = max_disk_bytes
        self._memory: dict[str, Any] = {}
        # Counters are registry-backed: each cache instance owns a
        # private MetricsRegistry (per-instance stats stay exact even
        # when several caches coexist in one context) whose snapshot the
        # owner — driver worker, campaign, service — merges into its own
        # telemetry for /metrics and --telemetry-json exposure.
        self._registry = MetricsRegistry()
        self._m_hits = self._registry.counter("repro_cache_hits_total")
        self._m_misses = self._registry.counter("repro_cache_misses_total")
        self._m_stores = self._registry.counter("repro_cache_stores_total")
        self._m_evictions = self._registry.counter(
            "repro_cache_evictions_total")
        self._m_lock_wait = self._registry.counter(
            "repro_cache_lock_wait_seconds_total")
        self._m_load = {
            outcome: self._registry.histogram(
                "repro_cache_load_seconds", outcome=outcome)
            for outcome in ("hit", "miss")}
        self._m_store_s = self._registry.histogram(
            "repro_cache_store_seconds")
        self._m_evict_s = self._registry.histogram(
            "repro_cache_evict_seconds")

    # -- counters (registry-backed, kept as read properties for the
    # -- historical ``cache.hits`` introspection surface) ----------------------

    @property
    def hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def stores(self) -> int:
        return int(self._m_stores.value)

    @property
    def evictions(self) -> int:
        return int(self._m_evictions.value)

    @property
    def lock_wait_seconds(self) -> float:
        """Cumulative seconds spent *waiting* for the directory flock —
        the direct measure of disk-lock contention between drivers."""
        return self._m_lock_wait.value

    def telemetry_snapshot(self) -> dict[str, Any]:
        """This cache's metrics as a mergeable telemetry snapshot."""
        return self._registry.snapshot()

    # -- lookup -----------------------------------------------------------------

    @contextlib.contextmanager
    def _disk_lock(self):
        """Advisory exclusive lock over this cache directory's disk
        state (no-op when memory-only or ``fcntl`` is unavailable).
        Serializes the compound mutations — store + LRU eviction scan,
        clear — across processes and threads sharing the directory.
        Acquisition wait time is accumulated in ``lock_wait_seconds``."""
        if self.root is None or fcntl is None:
            yield
            return
        with open(self.root / ".cache.lock", "a+b") as fh:
            t_start = time.perf_counter()
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            self._m_lock_wait.inc(time.perf_counter() - t_start)
            try:
                yield
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)

    def load(self, key: str):
        """The cached RunResult for ``key``, or None (counted)."""
        t_start = time.perf_counter()
        result = self._memory.get(key)
        if result is None and self.root is not None:
            with self._disk_lock():
                result = self._load_disk(key)
                if result is not None:
                    self._touch(key)
            if result is not None:
                self.remember(key, result)
        elif result is not None and self.root is not None:
            with self._disk_lock():
                self._touch(key)
        if result is None:
            self._m_misses.inc()
            self._m_load["miss"].observe(time.perf_counter() - t_start)
            return None
        self._m_hits.inc()
        self._m_load["hit"].observe(time.perf_counter() - t_start)
        return result

    def store(self, key: str, result,
              signature: Optional[dict[str, Any]] = None) -> None:
        """Record ``result`` under ``key`` (memory + disk when rooted)."""
        t_start = time.perf_counter()
        self.remember(key, result)
        self._m_stores.inc()
        if self.root is not None:
            with self._disk_lock():
                self._store_disk(key, result, signature)
                self._enforce_disk_budget(just_stored=key)
        self._m_store_s.observe(time.perf_counter() - t_start)

    def has_memory(self, key: str) -> bool:
        """Whether ``key`` is resident in the in-memory layer (no disk
        I/O, no counter movement — a pure planning probe)."""
        return key in self._memory

    def stats(self) -> dict[str, Any]:
        """Snapshot of this instance's lifetime counters.

        ``hit_rate`` is hits / (hits + misses), 0.0 before any lookup.
        ``lock_wait_seconds`` is cumulative flock acquisition wait.
        Counters are per-instance (process-local): a shared rooted
        directory has one set of counters per driver touching it.
        """
        hits, misses = self.hits, self.misses
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": hits / lookups if lookups else 0.0,
            "lock_wait_seconds": self.lock_wait_seconds,
        }

    def clear(self) -> None:
        """Drop every entry, memory and disk."""
        self._memory.clear()
        if self.root is not None:
            with self._disk_lock():
                for path in self.root.glob("*.npy"):
                    path.unlink(missing_ok=True)
                for path in self.root.glob("*.json"):
                    path.unlink(missing_ok=True)

    def __len__(self) -> int:
        if self.root is not None:
            return len(list(self.root.glob("*.json")))
        return len(self._memory)

    def remember(self, key: str, result) -> None:
        """Put ``result`` in the memory layer only (no disk write, no
        counter): how a result computed by another process becomes
        resident here.  Bounded, insertion-ordered: the oldest entry is
        evicted."""
        self._memory.pop(key, None)
        while len(self._memory) >= self.max_memory_entries:
            self._memory.pop(next(iter(self._memory)))
        self._memory[key] = result

    # -- disk layer --------------------------------------------------------------

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.npy", self.root / f"{key}.json"

    def disk_bytes(self) -> int:
        """Total size of every on-disk entry (0 when memory-only)."""
        if self.root is None:
            return 0
        total = 0
        for path in self.root.glob("*.npy"):
            total += path.stat().st_size
        for path in self.root.glob("*.json"):
            total += path.stat().st_size
        return total

    def _touch(self, key: str) -> None:
        """Refresh the entry's LRU clock (the meta file's mtime)."""
        _npy, meta_path = self._paths(key)
        try:
            os.utime(meta_path)
        except FileNotFoundError:
            pass

    def _enforce_disk_budget(self, just_stored: str) -> None:
        """Evict LRU entries until the directory fits ``max_disk_bytes``.

        One directory scan (a single ``stat`` per file covers size and
        the mtime LRU clock together); ties on mtime_ns — possible on
        coarse filesystems — break by key so eviction order stays
        deterministic.  The just-stored entry is exempt (a single
        oversized result stays usable instead of vanishing the moment
        it was written); both of an entry's files go together, and its
        memory copy goes too — a memory hit on a disk-evicted key would
        resurrect an entry the budget already reclaimed.
        """
        if self.max_disk_bytes is None:
            return
        entries = []  # (mtime_ns, key, entry_bytes)
        total = 0
        for meta_path in self.root.glob("*.json"):
            key = meta_path.stem
            try:
                meta_stat = meta_path.stat()
            except FileNotFoundError:
                # Another process evicted (or clear()ed) this entry
                # between our glob and the stat — a legal race for a
                # shared long-lived cache directory; it costs no budget.
                continue
            size = meta_stat.st_size
            try:
                size += (self.root / f"{key}.npy").stat().st_size
            except FileNotFoundError:
                pass
            entries.append((meta_stat.st_mtime_ns, key, size))
            total += size
        if total <= self.max_disk_bytes:
            return
        entries.sort()
        t_start = time.perf_counter()
        try:
            for _mtime, key, size in entries:
                if key == just_stored:
                    continue
                npy, meta_path = self._paths(key)
                npy.unlink(missing_ok=True)
                meta_path.unlink(missing_ok=True)
                self._memory.pop(key, None)
                self._m_evictions.inc()
                total -= size
                if total <= self.max_disk_bytes:
                    return
        finally:
            self._m_evict_s.observe(time.perf_counter() - t_start)

    def _store_disk(self, key: str, result, signature) -> None:
        from ..experiments.harness import RunResult

        assert isinstance(result, RunResult)
        npy, meta_path = self._paths(key)
        meta = {
            "schema": CACHE_SCHEMA,
            "signature": signature,
            "n": result.n,
            "n_peers": result.n_peers,
            "n_clusters": result.n_clusters,
            "scheme": result.scheme.value,
            "elapsed": result.elapsed,
            "relaxations": result.relaxations,
            "residual": result.residual,
            "max_wait_time": result.max_wait_time,
            "report": {
                "relaxations": result.report.relaxations,
                "residual": result.report.residual,
                "provenance": result.report.provenance,
                "per_peer": [
                    {
                        "rank": rep.rank, "lo": rep.lo, "hi": rep.hi,
                        "relaxations": rep.relaxations,
                        "converged_at": rep.converged_at,
                        "wait_time": rep.wait_time,
                        "sends": rep.sends, "receives": rep.receives,
                        "final_diff": rep.final_diff,
                        "extra": rep.extra,
                    }
                    for rep in result.report.per_peer
                ],
            },
        }
        # Write-then-rename: a crashed writer leaves no torn entry a
        # later load could half-read.
        self._atomic_write(npy, lambda f: np.save(f, result.report.u))
        self._atomic_write(
            meta_path,
            lambda f: f.write(json.dumps(meta, indent=1).encode()),
        )

    def _atomic_write(self, path: Path, writer) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                writer(f)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def _load_disk(self, key: str):
        from ..experiments.harness import RunResult
        from ..p2psap.context import Scheme
        from ..solvers.distributed_richardson import (
            BlockReport,
            DistributedSolveReport,
        )

        npy, meta_path = self._paths(key)
        if not (npy.exists() and meta_path.exists()):
            return None
        meta = json.loads(meta_path.read_text())
        if meta.get("schema") != CACHE_SCHEMA:
            return None
        u = np.load(npy, allow_pickle=False)
        expected_dtype = (meta.get("signature") or {}).get("dtype")
        if expected_dtype is not None and u.dtype.name != expected_dtype:
            # A torn or mismatched pair — e.g. the .npy of one entry
            # paired with the .json of another after a partial copy —
            # must read as a miss, not hand a float32 iterate to a
            # caller whose signature promised float64.
            warnings.warn(
                f"cache entry {key} is corrupt: stored array dtype "
                f"{u.dtype.name} disagrees with signature dtype "
                f"{expected_dtype}; treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        rep_meta = meta["report"]
        per_peer = [
            BlockReport(
                rank=r["rank"], lo=r["lo"], hi=r["hi"],
                block=u[r["lo"]:r["hi"]],
                relaxations=r["relaxations"],
                converged_at=r["converged_at"],
                wait_time=r["wait_time"],
                sends=r["sends"], receives=r["receives"],
                final_diff=r["final_diff"],
                extra=r["extra"],
            )
            for r in rep_meta["per_peer"]
        ]
        scheme = Scheme.parse(meta["scheme"])
        report = DistributedSolveReport(
            u=u, n=meta["n"], n_peers=meta["n_peers"], scheme=scheme,
            relaxations=rep_meta["relaxations"], per_peer=per_peer,
            residual=rep_meta["residual"],
            provenance=rep_meta.get("provenance", {}),
        )
        return RunResult(
            n=meta["n"], n_peers=meta["n_peers"],
            n_clusters=meta["n_clusters"], scheme=scheme,
            elapsed=meta["elapsed"], relaxations=meta["relaxations"],
            residual=meta["residual"], report=report,
            max_wait_time=meta["max_wait_time"],
        )
