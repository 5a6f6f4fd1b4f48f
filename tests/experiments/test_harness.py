"""Experiment harness: scaling math, Table I audit, reporting."""

import pytest

from repro.campaign import CampaignJob
from repro.experiments.harness import run_job, scaled_spec
from repro.experiments.reporting import format_table
from repro.experiments.table1 import audit_table1
from repro.p2psap.context import Scheme
from repro.simnet.topology import NICTA_SPEC


class TestScaledSpec:
    def test_identity_at_paper_size(self):
        spec = scaled_spec(96, 96)
        assert spec.cpu_hz == NICTA_SPEC.cpu_hz
        assert spec.ethernet_bps == NICTA_SPEC.ethernet_bps

    def test_ratios_preserved(self):
        """Per-sweep compute : per-plane serialization must be invariant
        under scaling — that is the harness's whole design contract."""
        for n in (16, 24, 48):
            spec = scaled_spec(n, 96)
            # Per-sweep compute per node is (n/α)·n² points: ∝ n³/α.
            compute = n**3 / spec.cpu_hz
            serialization = (n * n * 8 * 8) / spec.ethernet_bps
            full_compute = 96**3 / NICTA_SPEC.cpu_hz
            full_ser = (96 * 96 * 8 * 8) / NICTA_SPEC.ethernet_bps
            assert compute / serialization == pytest.approx(
                full_compute / full_ser
            )

    def test_latency_never_scaled(self):
        assert scaled_spec(16, 96).wan_delay == NICTA_SPEC.wan_delay

    def test_upscale_rejected(self):
        with pytest.raises(ValueError):
            scaled_spec(144, 96)


class TestTable1Audit:
    def test_all_cells_match(self):
        audit = audit_table1()
        assert audit.ok, audit.mismatches
        assert len(audit.observed) == 6


class TestRunJob:
    @pytest.fixture(scope="class")
    def result(self):
        return run_job(CampaignJob(n=10, n_peers=2, scheme="synchronous",
                                   n_paper=96, tol=1e-4))

    def test_result_fields(self, result):
        assert result.n == 10
        assert result.n_peers == 2
        assert result.scheme is Scheme.SYNCHRONOUS
        assert result.elapsed > 0
        assert result.relaxations > 0
        assert result.residual < 1e-3

    def test_speedup_efficiency(self, result):
        assert result.speedup(result.elapsed * 2) == pytest.approx(2.0)
        assert result.efficiency(result.elapsed * 2) == pytest.approx(1.0)

    def test_row_shape(self, result):
        row = result.row(sequential_time=result.elapsed * 2)
        assert row["peers"] == 2
        assert row["speedup"] == pytest.approx(2.0, abs=1e-3)
        assert set(row) >= {"n", "scheme", "time_s", "relaxations"}

    @pytest.mark.parametrize("peers,clusters", [(0, 1), (2, 3), (4, 0), (39, 1)])
    def test_a_testbed_it_cannot_build_is_rejected(self, peers, clusters):
        with pytest.raises(ValueError):
            run_job(CampaignJob(n=8, n_peers=peers, n_clusters=clusters))

    def test_run_job_is_the_exported_entry_point(self):
        import repro.experiments as experiments

        assert experiments.run_job is run_job
        assert "run_job" in experiments.__all__


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]], title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_format_table_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out
