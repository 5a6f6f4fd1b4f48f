"""Metric primitives: counters, gauges, histograms, and snapshot merge.

A :class:`MetricsRegistry` owns every metric created through it and hands
out long-lived *handles* (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`).  Handles are cheap to update — one shared lock per
registry, one dict lookup only at creation time — so hot paths resolve
their handles once and call ``inc()``/``observe()`` per event.

Metrics are identified by a name plus an optional, sorted label set
(``counter("repro_sweeps_total", order="jacobi")``).  The serialized key
``repro_sweeps_total{order="jacobi"}`` is the snapshot/exposition key.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain dicts of floats,
lists, and strings: picklable and JSON-safe, so worker processes can ship
them over the existing pipe protocols.  :func:`merge_snapshots` folds any
number of snapshots into one; the operation is associative and
commutative (counters and histogram cells add, gauges take the max, spans
concatenate then sort on their timestamps), which is what makes
"parent + N workers, merged in any order" well defined.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "merge_snapshots",
    "metric_key",
    "split_metric_key",
]

SNAPSHOT_VERSION = 1

#: Fixed bucket upper bounds (seconds) shared by every latency histogram.
#: Fixed — not per-instance — so histogram cells from any two processes
#: are always mergeable by elementwise addition.
SECONDS_BUCKETS = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0,
)

#: Cap on the merged span list: merging many worker snapshots must stay
#: bounded even if every worker shipped a full ring buffer.
SPAN_MERGE_CAP = 200_000


def metric_key(name, labels):
    """Serialize ``(name, labels)`` to the canonical snapshot key."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def split_metric_key(key):
    """Inverse of :func:`metric_key` → ``(name, label_string_or_None)``."""
    if "{" not in key:
        return key, None
    name, _, rest = key.partition("{")
    return name, rest.rstrip("}")


class Counter:
    """Monotonically increasing float; merge = sum."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def inc(self, amount=1.0):
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value; merge = max (associative + commutative).

    The max-merge rule means gauges are best used for high-water marks
    (queue depth, in-flight sweeps); instantaneous readings should be
    re-set by the owner just before snapshotting.
    """

    __slots__ = ("_lock", "value")

    def __init__(self, lock):
        self._lock = lock
        self.value = 0.0

    def set(self, value):
        with self._lock:
            self.value = float(value)

    def set_max(self, value):
        with self._lock:
            if value > self.value:
                self.value = float(value)


class Histogram:
    """Fixed-boundary histogram; merge = elementwise cell addition.

    ``counts`` has one cell per bucket bound plus a final overflow cell;
    ``sum``/``count`` track totals for mean/rate math.
    """

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, lock, buckets=SECONDS_BUCKETS):
        self._lock = lock
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value):
        value = float(value)
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    def summary(self):
        """Compact dict (count/sum/mean + per-bucket cells) for JSON stats."""
        with self._lock:
            count = self.count
            total = self.sum
            cells = list(self.counts)
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "buckets": {
                ("+Inf" if i == len(self.buckets) else repr(self.buckets[i])): cells[i]
                for i in range(len(cells))
            },
        }


class MetricsRegistry:
    """Thread-safe home for one owner's counters/gauges/histograms.

    One registry per executing owner (see ``repro.resources``): handles
    created here never cross process boundaries — only snapshots do.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._collectors = {}

    def counter(self, name, **labels):
        key = metric_key(name, labels)
        with self._lock:
            handle = self._counters.get(key)
            if handle is None:
                handle = self._counters[key] = Counter(self._lock)
        return handle

    def gauge(self, name, **labels):
        key = metric_key(name, labels)
        with self._lock:
            handle = self._gauges.get(key)
            if handle is None:
                handle = self._gauges[key] = Gauge(self._lock)
        return handle

    def histogram(self, name, buckets=SECONDS_BUCKETS, **labels):
        key = metric_key(name, labels)
        with self._lock:
            handle = self._histograms.get(key)
            if handle is None:
                handle = self._histograms[key] = Histogram(self._lock, buckets)
        return handle

    def collector(self, key, make):
        """The collector registered under ``key``, made by ``make()`` on
        first use: an object whose ``collect()`` returns what it counted
        since its last call as a partial snapshot (``counters`` and
        ``histograms``, laid out as :meth:`snapshot` lays them out).
        Every snapshot merges each collector's in first, so a hot path
        can count outside the interpreter instead of taking the lock per
        event."""
        with self._lock:
            found = self._collectors.get(key)
            if found is None:
                found = self._collectors[key] = make()
            return found

    def snapshot(self):
        """Picklable, JSON-safe copy of every metric's current state."""
        with self._lock:
            for found in self._collectors.values():
                self.merge_snapshot(found.collect())
            return {
                "version": SNAPSHOT_VERSION,
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "sum": h.sum,
                        "count": h.count,
                    }
                    for k, h in self._histograms.items()
                },
                "spans": [],
            }

    def merge_snapshot(self, snap):
        """Fold a worker snapshot's metrics into this registry's state."""
        if not snap:
            return
        with self._lock:
            for key, value in snap.get("counters", {}).items():
                self.counter(*_key_args(key)).value += value
            for key, value in snap.get("gauges", {}).items():
                gauge = self.gauge(*_key_args(key))
                if value > gauge.value:
                    gauge.value = float(value)
            for key, cells in snap.get("histograms", {}).items():
                hist = self.histogram(
                    *_key_args(key), buckets=cells["buckets"])
                _merge_hist_into(hist, cells)


def _key_args(key):
    """Snapshot key → positional ``(name,)`` for handle constructors.

    Label strings round-trip through the serialized key: handles looked
    up by full key share the same dict slot either way, so re-creating
    from the composite key is exact.
    """
    return (key,)


def _merge_hist_into(hist, cells):
    if list(hist.buckets) != list(cells["buckets"]):
        raise ValueError(
            "histogram bucket mismatch: %r vs %r"
            % (list(hist.buckets), list(cells["buckets"])))
    for i, c in enumerate(cells["counts"]):
        hist.counts[i] += c
    hist.sum += cells["sum"]
    hist.count += cells["count"]


def _empty():
    return {
        "version": SNAPSHOT_VERSION,
        "counters": {},
        "gauges": {},
        "histograms": {},
        "spans": [],
    }


def merge_snapshots(*snapshots):
    """Merge snapshots associatively and commutatively.

    Counters and histogram cells add; gauges take the max; spans are
    concatenated, sorted on ``(t0, t1, name)`` (which restores a
    deterministic, order-independent result), and capped at
    :data:`SPAN_MERGE_CAP`.
    """
    out = _empty()
    spans = []
    for snap in snapshots:
        if not snap:
            continue
        version = snap.get("version", SNAPSHOT_VERSION)
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version: {version}")
        for key, value in snap.get("counters", {}).items():
            out["counters"][key] = out["counters"].get(key, 0.0) + value
        for key, value in snap.get("gauges", {}).items():
            prev = out["gauges"].get(key)
            out["gauges"][key] = value if prev is None else max(prev, value)
        for key, cells in snap.get("histograms", {}).items():
            prev = out["histograms"].get(key)
            if prev is None:
                out["histograms"][key] = {
                    "buckets": list(cells["buckets"]),
                    "counts": list(cells["counts"]),
                    "sum": cells["sum"],
                    "count": cells["count"],
                }
            else:
                if prev["buckets"] != list(cells["buckets"]):
                    raise ValueError(
                        "histogram bucket mismatch for %r" % (key,))
                prev["counts"] = [
                    a + b for a, b in zip(prev["counts"], cells["counts"])]
                prev["sum"] += cells["sum"]
                prev["count"] += cells["count"]
        spans.extend(tuple(s) for s in snap.get("spans", ()))
    spans.sort(key=lambda s: (s[1], s[2], s[0]))
    out["spans"] = [list(s) for s in spans[:SPAN_MERGE_CAP]]
    return out
