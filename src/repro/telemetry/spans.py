"""Span tracing: bounded ring buffer + perf-counter clock.

Spans are wall-clock intervals (``time.perf_counter``) with a name and a
small attribute dict — ``span("sweep", peer=3, iteration=17)``.  They are
pure observation: a span never reads from or writes to modeled state
(params, cache keys, wire bytes, the DES clock), so recording them cannot
perturb a solve.  The dedicated bit-identity suite in
``tests/telemetry/test_identity.py`` holds that line.

Spans are opt-in via ``REPRO_TELEMETRY=spans``: when the variable is not
set, :meth:`Telemetry.span` (in ``repro.telemetry``) returns a shared
no-op context manager and the cost is one env lookup.  The buffer is a
``collections.deque`` with a fixed ``maxlen`` — a run that outlives the
buffer keeps the most recent spans rather than growing without bound.
"""

from __future__ import annotations

import os
from collections import deque
from time import perf_counter

__all__ = ["SpanBuffer", "spans_enabled", "SPAN_BUFFER_CAPACITY"]

#: Ring-buffer capacity (spans, not bytes).  65536 spans ≈ a few MB and
#: covers tens of thousands of solver iterations before wrapping.
SPAN_BUFFER_CAPACITY = 65536

_ENV = "REPRO_TELEMETRY"


def spans_enabled():
    """True when ``REPRO_TELEMETRY=spans`` — checked per
    ``Telemetry.span()`` call so tests and CLI runs can flip it without
    rebuilding contexts; the distributed solver checks it once per
    solve, through ``Telemetry.span_factory()``."""
    return os.environ.get(_ENV, "") == "spans"


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def annotate(self, **attrs):
        return None


NOOP_SPAN = _NoopSpan()


class _Span:
    """One live span: records ``(name, t0, t1, attrs)`` on exit."""

    __slots__ = ("_buf", "name", "attrs", "t0")

    def __init__(self, buf, name, attrs):
        self._buf = buf
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self._buf.append((self.name, self.t0, perf_counter(), self.attrs))
        return False

    def annotate(self, **attrs):
        """Attach attributes discovered mid-span (e.g. the sweep diff)."""
        self.attrs.update(attrs)


class SpanBuffer:
    """Bounded ring buffer of finished spans.

    ``deque.append`` is atomic under the GIL, so concurrent recorders
    (daemon handler threads, the scheduler) need no extra locking.
    """

    __slots__ = ("_spans",)

    def __init__(self, capacity=SPAN_BUFFER_CAPACITY):
        self._spans = deque(maxlen=capacity)

    def append(self, record):
        self._spans.append(record)

    def span(self, name, **attrs):
        """A recording context manager (caller gates on enablement)."""
        return _Span(self._spans, name, attrs)

    def clear(self):
        self._spans.clear()

    def __len__(self):
        return len(self._spans)

    def snapshot(self):
        """JSON-safe copy: ``[[name, t0, t1, attrs], ...]``."""
        return [[name, t0, t1, dict(attrs)]
                for name, t0, t1, attrs in list(self._spans)]
