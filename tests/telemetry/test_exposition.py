"""Prometheus text exposition: renderer + strict validator."""

import pytest

from repro.telemetry import (
    MetricsRegistry,
    render_prometheus,
    validate_exposition,
)


def _snapshot():
    reg = MetricsRegistry()
    reg.counter("repro_solves_total", scheme="asynchronous").inc(3)
    reg.counter("repro_solves_total", scheme="synchronous").inc(1)
    reg.gauge("repro_des_queue_depth_max").set(17)
    h = reg.histogram("repro_kernel_sweep_seconds", order="jacobi")
    for v in (1e-6, 2e-3, 0.7, 40.0):
        h.observe(v)
    return reg.snapshot()


class TestRenderer:
    def test_round_trips_through_validator(self):
        text = render_prometheus(_snapshot())
        seen = validate_exposition(text)
        assert seen["repro_solves_total"]["type"] == "counter"
        assert seen["repro_solves_total"]["samples"] == 2
        assert seen["repro_des_queue_depth_max"]["type"] == "gauge"
        assert seen["repro_kernel_sweep_seconds"]["type"] == "histogram"

    def test_type_declared_once_per_metric(self):
        text = render_prometheus(_snapshot())
        assert text.count("# TYPE repro_solves_total counter") == 1

    def test_histogram_triple(self):
        text = render_prometheus(_snapshot())
        assert 'le="+Inf"' in text
        assert "repro_kernel_sweep_seconds_sum" in text
        assert 'repro_kernel_sweep_seconds_count{order="jacobi"} 4' in text

    def test_buckets_cumulative(self):
        text = render_prometheus(_snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_kernel_sweep_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # +Inf == observation count

    def test_integer_values_render_as_ints(self):
        text = render_prometheus(_snapshot())
        assert 'repro_solves_total{scheme="asynchronous"} 3' in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(
            {"counters": {}, "gauges": {}, "histograms": {}}) == "\n"


class TestValidator:
    def test_rejects_missing_newline(self):
        with pytest.raises(ValueError, match="newline"):
            validate_exposition("# TYPE a counter\na 1")

    def test_rejects_untyped_sample(self):
        with pytest.raises(ValueError, match="no TYPE"):
            validate_exposition("a 1\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError, match="unparsable"):
            validate_exposition("# TYPE a counter\na xyz\n")

    def test_rejects_malformed_label(self):
        with pytest.raises(ValueError, match="label"):
            validate_exposition('# TYPE a counter\na{b=unquoted} 1\n')

    def test_rejects_noncumulative_buckets(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1\nh_count 5\n")
        with pytest.raises(ValueError, match="cumulative"):
            validate_exposition(text)

    def test_rejects_missing_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                "h_sum 1\nh_count 5\n")
        with pytest.raises(ValueError, match=r"\+Inf"):
            validate_exposition(text)

    def test_rejects_type_without_samples(self):
        with pytest.raises(ValueError, match="no samples"):
            validate_exposition("# TYPE a counter\n")

    def test_per_series_bucket_state(self):
        # Two label series of one histogram validate independently.
        text = ("# TYPE h histogram\n"
                'h_bucket{k="a",le="0.1"} 2\n'
                'h_bucket{k="a",le="+Inf"} 2\n'
                'h_bucket{k="b",le="0.1"} 9\n'
                'h_bucket{k="b",le="+Inf"} 9\n'
                'h_sum{k="a"} 1\nh_count{k="a"} 2\n'
                'h_sum{k="b"} 1\nh_count{k="b"} 9\n')
        seen = validate_exposition(text)
        assert seen["h"]["samples"] == 8

    @pytest.mark.parametrize("text, match", [
        pytest.param("# TYPE a counter total\na 1\n", "malformed TYPE",
                     id="type-arity"),
        pytest.param("# TYPE 9a counter\n", "bad metric name",
                     id="type-name"),
        pytest.param("# TYPE a meter\na 1\n", "bad metric type",
                     id="type-kind"),
        pytest.param("# TYPE a counter\n# TYPE a gauge\na 1\n",
                     "duplicate TYPE", id="type-twice"),
        pytest.param("# TYPE a counter\na  1\n", "malformed sample",
                     id="sample-shape"),
        pytest.param("# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
                     "without le", id="bucket-no-le"),
        pytest.param("# TYPE h histogram\n"
                     'h_bucket{le="1"} 1\n'
                     'h_bucket{le="0.5"} 1\n'
                     'h_bucket{le="+Inf"} 1\n'
                     "h_sum 1\nh_count 1\n",
                     "not increasing", id="bucket-order"),
    ])
    def test_rejects_structural_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            validate_exposition(text)

    def test_help_and_blank_lines_are_accepted(self):
        text = ("# HELP a the answer\n"
                "# TYPE a gauge\n"
                "\n"
                "a 42\n")
        assert validate_exposition(text) == {
            "a": {"type": "gauge", "samples": 1}}

    def test_infinite_gauge_renders_as_plus_inf(self):
        reg = MetricsRegistry()
        reg.gauge("repro_worst_gap").set(float("inf"))
        text = render_prometheus(reg.snapshot())
        assert "repro_worst_gap +Inf\n" in text
        assert validate_exposition(text)["repro_worst_gap"]["samples"] == 1
