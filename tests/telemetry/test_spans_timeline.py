"""Span recording (env-gated, bounded) and timeline rendering."""

import collections
import hashlib
import json

import pytest

from repro.campaign import CampaignJob
from repro.experiments.harness import run_job
from repro.resources import ResourceContext
from repro.telemetry import (
    SPAN_BUFFER_CAPACITY,
    SpanBuffer,
    Telemetry,
    merge_snapshots,
    render_timeline,
    spans_enabled,
)
from repro.telemetry.spans import NOOP_SPAN


class TestEnablement:
    def test_spans_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert not spans_enabled()
        tele = Telemetry()
        assert tele.enabled  # counters stay on
        assert tele.span("sweep") is NOOP_SPAN

    def test_spans_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        tele = Telemetry()
        with tele.span("sweep", peer=3) as span:
            span.annotate(diff=0.5)
        records = tele.snapshot()["spans"]
        assert len(records) == 1
        name, t0, t1, attrs = records[0]
        assert name == "sweep"
        assert t1 >= t0
        assert attrs == {"peer": 3, "diff": 0.5}

    def test_the_span_factory_is_none_while_spans_are_off(self,
                                                           monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert Telemetry().span_factory() is None
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        tele = Telemetry()
        with tele.span_factory()("sweep", peer=1):
            pass
        assert [r[0] for r in tele.snapshot()["spans"]] == ["sweep"]

    def test_off_kills_counters_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "off")
        assert not Telemetry().enabled
        assert not spans_enabled()

    def test_noop_span_is_reusable(self):
        with NOOP_SPAN as a:
            a.annotate(x=1)
        with NOOP_SPAN as b:
            pass
        assert a is b is NOOP_SPAN


class TestSpanBuffer:
    def test_bounded_keeps_most_recent(self):
        buf = SpanBuffer(capacity=4)
        for i in range(10):
            with buf.span("s", i=i):
                pass
        records = buf.snapshot()
        assert len(records) == 4
        assert [r[3]["i"] for r in records] == [6, 7, 8, 9]

    def test_default_capacity(self):
        assert SpanBuffer()._spans.maxlen == SPAN_BUFFER_CAPACITY

    def test_reset_drops_spans(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        tele = Telemetry()
        with tele.span("s"):
            pass
        tele.counter("c").inc()
        tele.reset()
        snap = tele.snapshot()
        assert snap["spans"] == []
        assert snap["counters"] == {}

    def test_merge_carries_spans(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        worker = Telemetry()
        with worker.span("sweep", peer=1):
            pass
        parent = Telemetry()
        parent.merge(worker.snapshot())
        assert len(parent.snapshot()["spans"]) == 1


class TestSolverSweepSpans:
    @pytest.mark.parametrize("scheme",
                             ["synchronous", "asynchronous", "hybrid"])
    def test_one_sweep_span_per_relaxation(self, scheme, monkeypatch):
        """Every scheme's sweeps go through the one split-phase path, and
        each records exactly one span, tagged by peer and iteration."""
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        ctx = ResourceContext(name="sweep-spans")
        result = run_job(CampaignJob(n=8, n_peers=2, scheme=scheme,
                                     tol=1e-3), resources=ctx)
        sweeps = [attrs for name, _t0, _t1, attrs
                  in ctx.telemetry.snapshot()["spans"] if name == "sweep"]
        assert all(set(attrs) == {"peer", "iteration"} for attrs in sweeps)
        for rank, peer in enumerate(result.report.per_peer):
            iterations = [a["iteration"] for a in sweeps
                          if a["peer"] == rank]
            assert iterations == list(range(1, peer.relaxations + 1))

    def test_a_solve_records_the_same_spans_in_the_same_order(
            self, monkeypatch):
        """A hybrid solve over two clusters (both edge modes, so all four
        span names) records the span names, attributes and order it did
        before the solver's span sites stopped costing a call with spans
        off: the digest was taken from that earlier solver."""
        monkeypatch.setenv("REPRO_TELEMETRY", "spans")
        ctx = ResourceContext(name="span-order")
        run_job(CampaignJob(n=12, n_peers=4, n_clusters=2, scheme="hybrid",
                            n_paper=96), resources=ctx)
        spans = [[name, sorted(attrs.items())] for name, _t0, _t1, attrs
                 in ctx.telemetry.snapshot()["spans"]]
        names = collections.Counter(name for name, _attrs in spans)
        assert names == {"solve": 1, "iteration": 390, "sweep": 390,
                         "ghost-exchange": 390}
        assert hashlib.sha256(json.dumps(spans).encode()).hexdigest() == (
            "43fee8b314ed8c9382cf7a02dedd6dba314674ae44d8ade9e43f930fb39d8b24")


def _fake_snapshot():
    # Hand-built spans: a solve envelope, two peers with sweeps, one
    # exchange wait.  Times are synthetic perf-counter seconds.
    spans = [
        ["solve", 0.0, 1.0, {"scheme": "asynchronous", "n": 24}],
        ["iteration", 0.0, 0.5, {"peer": 0, "iteration": 1}],
        ["sweep", 0.05, 0.40, {"peer": 0, "iteration": 1}],
        ["iteration", 0.1, 0.9, {"peer": 1, "iteration": 1}],
        ["sweep", 0.15, 0.60, {"peer": 1, "iteration": 1}],
        ["ghost-exchange", 0.65, 0.85, {"peer": 1, "iteration": 1}],
    ]
    return merge_snapshots({"version": 1, "counters": {}, "gauges": {},
                            "histograms": {}, "spans": spans})


class TestTimeline:
    def test_renders_per_peer_lanes(self):
        text = render_timeline(_fake_snapshot(), width=40)
        assert "span timeline — 6 spans" in text
        assert "solve [asynchronous]" in text
        assert "peer   0 |" in text
        assert "peer   1 |" in text
        assert "█" in text  # sweep glyph painted
        assert "▒" in text  # exchange glyph painted
        assert "ghost-exchange×1" in text
        assert "sweep×2" in text

    def test_sweep_busy_percentages(self):
        text = render_timeline(_fake_snapshot(), width=40)
        peer0 = next(line for line in text.splitlines()
                     if line.strip().startswith("peer   0"))
        assert "1 sweeps" in peer0
        assert "35.0% sweep-busy" in peer0

    def test_no_spans_fallback(self):
        text = render_timeline({"spans": []})
        assert "no spans recorded" in text
        assert "REPRO_TELEMETRY=spans" in text

    def test_handles_json_round_trip(self):
        import json

        snap = json.loads(json.dumps(_fake_snapshot()))
        assert "peer   1 |" in render_timeline(snap)
