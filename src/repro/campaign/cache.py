"""Content-addressed result cache for campaign runs.

A solve is deterministic data-in/data-out: the DES replays the same
event sequence for the same configuration, so a result may be reused
whenever the full job signature — problem, size, peers, clusters,
scheme, tolerance, dtype, delta, seed, extras, *and* the
warm-start edge — matches.  :func:`cache_key` hashes exactly that
(plus a schema version: bump :data:`CACHE_SCHEMA` when solver
semantics change and every stale entry misses instead of lying).

Storage is two-layer: an in-memory map for the current process and an
optional on-disk directory so a re-invoked CLI campaign is served from
cache.  On disk each entry is one file, ``<key>.entry``: a fixed magic
and a length-prefixed compact JSON header (counters, per-peer metadata,
provenance, the signature for inspection, and the payload's dtype,
shape, byte length and crc32), then the solution iterate's raw C-order
bytes — bit-exact, dtype preserved.  It is written to a temporary file
and moved into place with one ``os.replace``, so no reader ever sees
half an entry.  Invalidation is ``clear()`` or deleting the files.

A disk load verifies what it read — magic, header, schema, payload
length, crc32, and the stored dtype against the signature's — and every
way an entry can be bad takes one path: a ``RuntimeWarning`` naming the
key and the reason, ``repro_cache_corrupt_total{reason=...}`` in the
cache's registry, removal of the file, and a miss.  A truncated, torn or
bit-flipped entry costs a re-solve; ``load`` never raises on it and
never serves it.

With ``max_disk_bytes`` set, the disk layer is bounded: every store
evicts least-recently-used entries until the directory fits the budget
again, making the cache safe as a long-lived service cache instead of
growing until ``clear()``.  The LRU clock is the entry file's mtime,
refreshed on every hit — it survives process restarts, so a re-invoked
CLI campaign evicts in true cross-invocation recency order.  The entry
being stored is never its own eviction victim: a single entry larger
than the budget is kept (and everything else evicted) rather than
thrashing to an empty cache.

Concurrent drivers: a rooted cache directory may be shared by several
processes (two CLI campaigns, a campaign service worker pool).  The
*compound* mutations — store + LRU eviction scan, clear, corrupt-entry
removal — run under an advisory ``flock`` on ``<root>/.cache.lock`` (per
cache directory, so unrelated caches never contend): two drivers
evicting concurrently would otherwise pick victims from a listing the
other is mutating.  Reads take no lock.  An entry file is never changed
in place, and POSIX keeps an opened file readable after another process
unlinks or replaces it, so a load reads one whole entry or finds none.
The hit's LRU refresh is an unlocked ``utime``; losing it to a
concurrent eviction is harmless.  On platforms without ``fcntl`` the
mutations run unlocked.

Directories written before schema 2 hold ``<key>.npy`` + ``<key>.json``
pairs.  They are never read (the schema is part of every key, so those
jobs miss and are re-solved) and never counted by ``len()``,
``disk_bytes()`` or the eviction scan; ``clear()`` removes them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
import tempfile
import time
import warnings
import zlib
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
#: (solver semantics, report fields, serialization layout).  3: the
#: sweep executor no longer rides the modeled SUBTASK payload, so
#: process-executor entries stored under 2 carry a different ``elapsed``.
CACHE_SCHEMA = 3

#: An entry file: magic + header length, the JSON header, the payload.
_MAGIC = b"REPROC\x00\x02"
_PREFIX = struct.Struct("<8sI")
_SUFFIX = ".entry"
#: Schema-1 entry files, removed by ``clear()`` and otherwise ignored.
_LEGACY_SUFFIXES = (".npy", ".json")


def cache_key(signature: dict[str, Any]) -> str:
    """Stable content address of a job signature (sha256 hex)."""
    blob = json.dumps({"schema": CACHE_SCHEMA, **signature},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class _CorruptEntry(Exception):
    """One way a disk entry is bad; ``reason`` labels the counter."""

    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason


def _read_entry(fh, file_size: int) -> tuple[dict, np.ndarray]:
    """The verified header and payload of the open entry file ``fh``.
    Raises :class:`_CorruptEntry`; a header lacking or mistyping a field
    raises what its access raises, which the caller files as ``header``.
    """
    prefix = fh.read(_PREFIX.size)
    if len(prefix) < _PREFIX.size:
        raise _CorruptEntry("prefix", f"{len(prefix)}-byte prefix")
    magic, header_len = _PREFIX.unpack(prefix)
    if magic != _MAGIC:
        raise _CorruptEntry("magic", f"magic {magic!r}")
    payload_len = file_size - _PREFIX.size - header_len
    if payload_len < 0:
        raise _CorruptEntry("header", f"{header_len}-byte header in a "
                                      f"{file_size}-byte file")
    # Decoding first is cheaper than letting json sniff the encoding.
    meta = json.loads(fh.read(header_len).decode())
    if meta.get("schema") != CACHE_SCHEMA:
        raise _CorruptEntry("schema", f"schema {meta.get('schema')!r}")
    dtype = np.dtype(meta["dtype"])
    shape = tuple(int(dim) for dim in meta["shape"])
    nbytes = meta["nbytes"]
    if dtype.hasobject or min(shape, default=0) < 0 \
            or math.prod(shape) * dtype.itemsize != nbytes:
        raise _CorruptEntry("header", f"{dtype} {shape} is not "
                                      f"{nbytes!r} bytes")
    if payload_len != nbytes:
        raise _CorruptEntry("length", f"{payload_len}-byte payload, "
                                      f"header says {nbytes}")
    u = np.empty(shape, dtype)
    if fh.readinto(u) != nbytes:
        raise _CorruptEntry("length", "payload shrank while read")
    if zlib.crc32(u) != meta["crc32"]:
        raise _CorruptEntry("crc", "payload crc32 mismatch")
    expected = (meta.get("signature") or {}).get("dtype")
    if expected is not None and dtype != np.dtype(expected):
        # E.g. one entry copied over another key's file: a float32
        # iterate must not reach a caller whose signature promised
        # float64.
        raise _CorruptEntry("dtype", f"stored array dtype {dtype.name} "
                                     f"disagrees with signature dtype "
                                     f"{expected}")
    return meta, u


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
        clear, corrupt-entry removal — across processes and threads
        sharing the directory.  Acquisition wait time is accumulated in
        ``lock_wait_seconds``."""
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
        if self.root is not None:
            if result is None:
                result = self._load_disk(key)
                if result is not None:
                    self.remember(key, result)
            if result is not None:
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
        """Drop every entry, memory and disk (schema-1 files too)."""
        self._memory.clear()
        if self.root is not None:
            with self._disk_lock():
                for suffix in (_SUFFIX, *_LEGACY_SUFFIXES):
                    for path in self.root.glob(f"*{suffix}"):
                        path.unlink(missing_ok=True)

    def __len__(self) -> int:
        if self.root is not None:
            return len(list(self.root.glob(f"*{_SUFFIX}")))
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

    def _path(self, key: str) -> str:
        # A plain string: joining a Path costs more than the read path's
        # own system calls.
        return os.path.join(self.root, key + _SUFFIX)

    def disk_bytes(self) -> int:
        """Total size of every on-disk entry (0 when memory-only)."""
        if self.root is None:
            return 0
        return sum(size for _mtime, _key, size in self._scan())

    def _scan(self) -> list[tuple[int, str, int]]:
        """``(mtime_ns, key, bytes)`` per entry file, one ``stat`` each.
        An entry another process removed between the listing and its
        ``stat`` is skipped — a legal race on a shared directory."""
        entries = []
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                st = path.stat()
            except FileNotFoundError:
                continue
            entries.append((st.st_mtime_ns, path.stem, st.st_size))
        return entries

    def _touch(self, key: str) -> None:
        """Refresh the entry's LRU clock (its file's mtime)."""
        with contextlib.suppress(FileNotFoundError):
            os.utime(self._path(key))

    def _enforce_disk_budget(self, just_stored: str) -> None:
        """Evict LRU entries until the directory fits ``max_disk_bytes``.

        Ties on mtime_ns — possible on coarse filesystems — break by key
        so eviction order stays deterministic.  The just-stored entry is
        exempt (a single oversized result stays usable instead of
        vanishing the moment it was written), and an evicted entry's
        memory copy goes too — a memory hit on a disk-evicted key would
        resurrect an entry the budget already reclaimed.
        """
        if self.max_disk_bytes is None:
            return
        entries = self._scan()
        total = sum(size for _mtime, _key, size in entries)
        if total <= self.max_disk_bytes:
            return
        entries.sort()
        t_start = time.perf_counter()
        try:
            for _mtime, key, size in entries:
                if key == just_stored:
                    continue
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(self._path(key))
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
        u = np.ascontiguousarray(result.report.u)
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
            "dtype": u.dtype.str,
            "shape": list(u.shape),
            "nbytes": u.nbytes,
            "crc32": zlib.crc32(u),
        }
        header = json.dumps(meta, separators=(",", ":")).encode()
        # Write-then-rename: a crashed writer leaves no entry at all,
        # never a partial one.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_PREFIX.pack(_MAGIC, len(header)))
                f.write(header)
                f.write(u)
            os.replace(tmp, self._path(key))
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    def _load_disk(self, key: str):
        try:
            fh = open(self._path(key), "rb")
        except FileNotFoundError:
            return None
        with fh:
            opened = os.fstat(fh.fileno())
            try:
                return _result_from(*_read_entry(fh, opened.st_size))
            except _CorruptEntry as exc:
                reason, detail = exc.reason, str(exc)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                reason, detail = "header", f"{type(exc).__name__}: {exc}"
        self._discard_corrupt(key, opened, reason, detail)
        return None

    def _discard_corrupt(self, key: str, opened: os.stat_result,
                         reason: str, detail: str) -> None:
        """The one corruption path: warn, count, remove the file (the
        caller then misses).  The file is removed only while it is still
        the one that was read: a fresh entry another driver stored
        meanwhile is kept."""
        warnings.warn(f"cache entry {key} is corrupt ({reason}: {detail}); "
                      "treating as a miss", RuntimeWarning, stacklevel=4)
        self._registry.counter("repro_cache_corrupt_total",
                               reason=reason).inc()
        path = self._path(key)
        with self._disk_lock(), contextlib.suppress(FileNotFoundError):
            if os.path.samestat(opened, os.stat(path)):
                os.unlink(path)


def _result_from(meta: dict, u: np.ndarray):
    """The :class:`RunResult` an entry's header and payload describe;
    per-peer blocks are views of ``u``, as in a fresh solve."""
    from ..experiments.harness import RunResult
    from ..p2psap.context import Scheme
    from ..solvers.distributed_richardson import (
        BlockReport,
        DistributedSolveReport,
    )

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
