"""Telemetry is pure observation: solves are bit-identical on or off.

The contract everything in ``repro.telemetry`` is built around: no
telemetry value ever feeds params, cache keys, wire bytes, or the DES
clock.  These tests run the same configuration with telemetry fully off
(``REPRO_TELEMETRY=off``), default (counters only), and fully on
(``REPRO_TELEMETRY=spans``) and require byte-equal iterates and exact
equality of every modeled quantity — for single solves and across
sequential vs multi-driver campaigns.
"""

import pytest

from repro.campaign import Campaign, CampaignJob, expand_matrix, plan_jobs
from repro.campaign.engine import resolve_cache_keys
from repro.experiments.harness import run_job
from repro.resources import ResourceContext

N = 8
TOL = 1e-3
MODES = ("off", "", "spans")  # env values; "" = default (counters only)


def _set_mode(monkeypatch, mode):
    if mode == "":
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    else:
        monkeypatch.setenv("REPRO_TELEMETRY", mode)


def _run(scheme):
    # A fresh context per run: telemetry state from a previous mode
    # must not leak into the comparison.
    return run_job(
        CampaignJob(n=N, n_peers=2, scheme=scheme, tol=TOL),
        resources=ResourceContext(name="identity"),
    )


def assert_same_solve(a, b):
    assert a.report.u.tobytes() == b.report.u.tobytes()
    assert a.relaxations == b.relaxations
    assert a.elapsed == b.elapsed  # simulated time, exact
    assert a.residual == b.residual
    assert [p.relaxations for p in a.report.per_peer] == \
        [p.relaxations for p in b.report.per_peer]
    assert a.report.provenance == b.report.provenance


class TestSingleSolve:
    @pytest.mark.parametrize("scheme", ["synchronous", "asynchronous"])
    def test_all_modes_bit_identical(self, scheme, monkeypatch):
        results = []
        for mode in MODES:
            _set_mode(monkeypatch, mode)
            results.append(_run(scheme))
        for other in results[1:]:
            assert_same_solve(results[0], other)


class TestCampaignDrivers:
    def _jobs(self):
        return expand_matrix(ns=[N], n_peers=[1, 2], n_clusters=[1],
                             schemes=["synchronous", "asynchronous"],
                             tol=TOL)

    def test_multi_driver_spans_vs_sequential_off(self, monkeypatch):
        _set_mode(monkeypatch, "off")
        with Campaign(self._jobs(), drivers=1) as seq:
            sequential = seq.run()
        _set_mode(monkeypatch, "spans")
        with Campaign(self._jobs(), drivers=2) as par:
            parallel = par.run()
        assert len(parallel.records) == len(sequential.records)
        for p, s in zip(parallel.records, sequential.records):
            assert p.cache_key == s.cache_key
            assert_same_solve(p.result, s.result)

    def test_cache_keys_never_carry_telemetry(self, monkeypatch):
        # The cache key is a pure function of the job signature; the
        # telemetry mode must not reach it.
        keys = []
        for mode in MODES:
            _set_mode(monkeypatch, mode)
            ckeys, _sigs = resolve_cache_keys(plan_jobs(self._jobs()))
            keys.append(sorted(ckeys.values()))
        assert keys[0] == keys[1] == keys[2]
