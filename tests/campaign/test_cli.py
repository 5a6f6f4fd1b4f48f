"""The ``python -m repro.experiments campaign`` entry point."""

import numpy as np

from repro.experiments.__main__ import main

ARGS = ["campaign", "--n", "8", "--alphas", "1,2",
        "--schemes", "synchronous,asynchronous", "--clusters", "1",
        "--tol", "1e-3"]


def test_matrix_runs_and_reports(capsys):
    assert main(ARGS) == 0
    out = capsys.readouterr().out
    assert "4 job(s)" in out
    assert "solved: 4" in out
    assert "cache hits: 0" in out


def test_second_pass_served_from_disk_cache(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(ARGS + cache) == 0
    assert main(ARGS + cache + ["--min-cache-hits", "4"]) == 0
    out = capsys.readouterr().out
    assert "cache hits: 4" in out
    assert "solved: 0" in out


def test_min_cache_hits_gate_fails_cold(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(ARGS + cache + ["--min-cache-hits", "4"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_multi_driver_matrix_and_cross_driver_cache(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    drivers = ["--drivers", "2"]
    assert main(ARGS + cache + drivers) == 0
    # Fresh invocation, fresh driver workers: served across drivers
    # from the shared disk cache.
    assert main(ARGS + cache + drivers + ["--min-cache-hits", "4"]) == 0
    out = capsys.readouterr().out
    assert "cache hits: 4" in out
    assert "solved: 0" in out


def test_rejects_nonpositive_drivers(capsys):
    import pytest

    with pytest.raises(SystemExit):
        main(ARGS + ["--drivers", "0"])
    assert "--drivers must be >= 1" in capsys.readouterr().err


def test_cache_stats_reported_sequentially(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(ARGS + cache) == 0
    out = capsys.readouterr().out
    assert "result cache: 0 hits, 4 misses, 4 stores" in out


def test_delta_sweep_axis(capsys):
    from repro.solvers.distributed_richardson import get_problem

    base = get_problem("membrane", 8).jacobi_delta()
    rc = main(["campaign", "--n", "8", "--alphas", "2",
               "--schemes", "synchronous", "--clusters", "1",
               "--tol", "1e-3", "--warm-start",
               "--deltas", f"{base * 0.9},{base}"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 job(s)" in out
    assert "warm_from" in out


def test_fig_grid_through_engine(capsys):
    rc = main(["campaign", "--fig", "5", "--alphas", "1,2",
               "--schemes", "synchronous", "--clusters", "1",
               "--tol", "1e-3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 5 grid" in out


def test_ladder_flag_runs_and_caches(tmp_path, capsys):
    """--ladder solves through the mixed-precision chain and a second
    pass over the same cache is served for the whole chain (exactly
    the CI smoke assertion)."""
    args = ["campaign", "--n", "12", "--alphas", "1",
            "--schemes", "synchronous", "--clusters", "1",
            "--tol", "1e-3", "--ladder",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(args) == 0
    assert main(args + ["--min-cache-hits", "1"]) == 0
    out = capsys.readouterr().out
    assert "solved: 0" in out


def test_sub_floor_tolerance_is_a_clean_error(capsys):
    """A tolerance below the dtype's termination floor exits with a
    one-line structured message on stderr — not a traceback from
    inside the solver."""
    rc = main(["campaign", "--n", "8", "--alphas", "1",
               "--schemes", "synchronous", "--clusters", "1",
               "--dtype", "float32", "--tol", "1e-7"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "termination floor" in captured.err
    assert "error:" in captured.err
    assert "float32" in captured.err
    assert "Traceback" not in captured.err
    # Nothing was solved; the matrix never reached the engine.
    assert "solved:" not in captured.out


def test_results_match_direct_harness(capsys):
    """The CLI is a front end, not a different solver: spot-check one
    cell against a direct run_job call."""
    from repro.campaign import Campaign, CampaignJob
    from repro.experiments.harness import run_job

    job = CampaignJob(n=8, n_peers=2, scheme="synchronous", tol=1e-3)
    with Campaign([job]) as campaign:
        outcome = campaign.run()
    cold = run_job(job)
    assert np.array_equal(outcome.records[0].result.report.u,
                          cold.report.u)
