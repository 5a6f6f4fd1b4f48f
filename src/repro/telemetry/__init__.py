"""Unified telemetry: metrics registry, span tracing, exposition.

One :class:`Telemetry` instance per executing owner, living on its
``repro.resources.ResourceContext`` under the same ownership rules as
the problem cache: the default context serves
plain library use, each driver worker process builds its own, and the
campaign service owns one for its lifetime.  Handles and buffers never
cross process boundaries — workers ship :meth:`Telemetry.snapshot`
dicts back piggybacked on their existing pipe protocols, and parents
fold them in with :func:`merge_snapshots`.

Knobs (read per call, so they can be flipped between runs; the
distributed solver reads the span knob once per solve):

- ``REPRO_TELEMETRY=spans`` — enable span recording (off by default).
- ``REPRO_TELEMETRY=off``   — disable even the default-on counters;
  exists for the overhead benchmark pair in ``BENCH_micro.json``.

Everything here is observation only.  No telemetry value ever feeds
params, cache keys, wire bytes, or the DES clock — solves are
bit-identical with telemetry fully enabled or fully off, and
``tests/telemetry/test_identity.py`` asserts exactly that.
"""

from __future__ import annotations

import os

from .exposition import CONTENT_TYPE, render_prometheus, validate_exposition
from .registry import (
    MetricsRegistry,
    SECONDS_BUCKETS,
    merge_snapshots,
    metric_key,
)
from .spans import NOOP_SPAN, SPAN_BUFFER_CAPACITY, SpanBuffer, spans_enabled
from .timeline import render_timeline

__all__ = [
    "CONTENT_TYPE",
    "MetricsRegistry",
    "SECONDS_BUCKETS",
    "SPAN_BUFFER_CAPACITY",
    "SpanBuffer",
    "Telemetry",
    "merge_snapshots",
    "metric_key",
    "render_prometheus",
    "render_timeline",
    "spans_enabled",
    "validate_exposition",
]

_ENV = "REPRO_TELEMETRY"


class Telemetry:
    """One owner's registry + span buffer, snapshot/merge as a unit."""

    def __init__(self, name="telemetry", span_capacity=SPAN_BUFFER_CAPACITY):
        self.name = name
        self._span_capacity = span_capacity
        self.registry = MetricsRegistry()
        self.spans = SpanBuffer(capacity=span_capacity)

    # -- enablement -------------------------------------------------
    @property
    def enabled(self):
        """Counters are default-on; ``REPRO_TELEMETRY=off`` kills them
        (sampled at handle-resolution sites, e.g. workspace bake)."""
        return os.environ.get(_ENV, "") != "off"

    # -- metric handles ---------------------------------------------
    def counter(self, name, **labels):
        return self.registry.counter(name, **labels)

    def gauge(self, name, **labels):
        return self.registry.gauge(name, **labels)

    def histogram(self, name, buckets=SECONDS_BUCKETS, **labels):
        return self.registry.histogram(name, buckets=buckets, **labels)

    def collector(self, key, make):
        return self.registry.collector(key, make)

    # -- spans ------------------------------------------------------
    def span(self, name, **attrs):
        """Recording context manager, or a shared no-op when spans are
        not enabled — the disabled cost is one env lookup per call.  A
        caller that opens spans in a loop binds :meth:`span_factory`
        once instead (the distributed solver does, once per solve)."""
        if not spans_enabled():
            return NOOP_SPAN
        return self.spans.span(name, **attrs)

    def span_factory(self):
        """:meth:`span` with the enablement lookup done now, once: the
        recording factory, or None when spans are not enabled, for the
        caller's whole life, whatever ``REPRO_TELEMETRY`` says later.  A
        loop that tests it for None opens no span, and calls nothing,
        while spans are off."""
        return self.spans.span if spans_enabled() else None

    # -- snapshot / merge -------------------------------------------
    def snapshot(self):
        """Picklable, JSON-safe state: metrics + recorded spans."""
        snap = self.registry.snapshot()
        snap["spans"] = self.spans.snapshot()
        return snap

    def merge(self, snap):
        """Fold a worker snapshot (metrics *and* spans) into this owner."""
        if not snap:
            return
        self.registry.merge_snapshot(snap)
        for record in snap.get("spans", ()):
            name, t0, t1, attrs = record
            self.spans.append((name, t0, t1, dict(attrs)))

    def reset(self):
        """Drop all recorded state (used by forked workers whose parent
        had already accumulated counts — a worker must report only its
        own work, or the parent-side merge would double count)."""
        self.registry = MetricsRegistry()
        self.spans = SpanBuffer(capacity=self._span_capacity)
