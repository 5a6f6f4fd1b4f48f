"""The ``serve`` / ``submit`` subcommands and the subparser split."""

import pytest

from repro.experiments.__main__ import build_parser, main
from repro.service import CampaignService, ServiceDaemon

MATRIX = ["--n", "8", "--alphas", "1,2", "--schemes", "synchronous",
          "--clusters", "1", "--tol", "1e-3"]


@pytest.fixture()
def daemon(tmp_path):
    from repro.campaign import ResultCache

    service = CampaignService(
        cache=ResultCache(str(tmp_path / "cache")), drivers=1,
        max_queue=8)
    daemon = ServiceDaemon(service).start()
    yield daemon
    daemon.stop()


def test_submit_round_trip(daemon, capsys):
    rc = main(["submit", "--url", daemon.url, *MATRIX])
    assert rc == 0
    out = capsys.readouterr().out
    assert "2 job(s)" in out
    assert "accepted" in out
    assert "solved: 2" in out


def test_submit_expect_cached_gate(daemon, capsys):
    assert main(["submit", "--url", daemon.url, *MATRIX]) == 0
    rc = main(["submit", "--url", daemon.url, *MATRIX,
               "--expect-cached", "--min-cache-hits", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cache hits: 2" in out
    # and the gate actually gates: a fresh matrix solves, so
    # --expect-cached must fail it.
    rc = main(["submit", "--url", daemon.url, "--n", "8", "--alphas",
               "3", "--schemes", "synchronous", "--clusters", "1",
               "--tol", "1e-3", "--expect-cached"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_submit_shutdown_after(daemon, capsys):
    rc = main(["submit", "--url", daemon.url, *MATRIX,
               "--shutdown-after"])
    assert rc == 0
    daemon.stop()  # must already be draining/stopped; idempotent
    assert daemon.service.stats()["draining"] is True


def test_submit_against_dead_daemon_fails_cleanly(capsys):
    rc = main(["submit", "--url", "http://127.0.0.1:9", *MATRIX,
               "--timeout", "1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_subcommands_share_flag_spellings():
    """The parent-parser split: campaign, serve and submit spell the
    shared groups identically."""
    parser = build_parser()
    campaign = parser.parse_args(
        ["campaign", *MATRIX, "--cache-dir", "/tmp/x", "--drivers", "2"])
    serve = parser.parse_args(
        ["serve", "--cache-dir", "/tmp/x", "--drivers", "2",
         "--port", "0", "--max-queue", "3"])
    submit = parser.parse_args(
        ["submit", "--url", "http://x", *MATRIX, "--dtype", "float32"])
    assert campaign.cache_dir == serve.cache_dir
    assert campaign.drivers == serve.drivers == 2
    assert campaign.schemes == submit.schemes
    assert submit.dtype == "float32"


def test_legacy_invocations_still_parse():
    parser = build_parser()
    for argv in (
        ["table1"],
        ["fig5", "--alphas", "1,2", "--full"],
        ["all"],
        ["campaign", "--fig", "5", "--cache-dir", "x",
         "--cache-budget-mb", "10", "--warm-start", "--drivers", "2",
         "--min-cache-hits", "1"],
        ["scenario", "--seed", "3", "--scheme", "hybrid",
         "--dump-dir", "d"],
        ["replay", "trace.npz"],
    ):
        parser.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    # The sweep-executor flags are gone: argparse refuses them.
    ["campaign", "--n", "8", "--executor", "inline"],
    ["submit", "--url", "http://127.0.0.1:1", "--executor", "process"],
    ["scenario", "--seed", "0", "--exec", "inline"],
    ["replay", "trace.npz", "--executor", "inline"],
])
def test_unknown_targets_and_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_serve_validates_queue_bound(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--max-queue", "0"])
    assert "--max-queue" in capsys.readouterr().err
