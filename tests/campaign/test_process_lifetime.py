"""A campaign driver cannot outlive its owner.

Each test runs an owner — a script that builds a ``DriverPool`` or a
``CampaignService`` — as a subprocess in a process group of its own,
and checks how the owner and its driver end.  An owner that finishes
without ``close()``, normally or by raising, exits within the deadline
and leaves no child; after a SIGKILLed owner, its driver sees EOF on
its pipe and exits within the deadline.  Whatever the outcome, the test
kills the group it started, so a failing test leaves no process behind.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="fork-started drivers, and /proc to see them end")

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Seconds an owner has to exit, and a driver to follow a killed owner.
DEADLINE = 5.0

#: Each owner prints its driver's pid once the driver is up (and, for
#: the service, has run one job to ``done``).
OWNERS = {
    "pool": """
from repro.campaign import DriverPool

pool = DriverPool(1)
driver = pool._procs[0].pid
""",
    "service": """
from repro.campaign import CampaignJob
from repro.service import CampaignService, Submission

service = CampaignService(drivers=1)
cid = service.submit(Submission(jobs=(CampaignJob(
    n=8, n_peers=1, n_clusters=1, scheme="synchronous", tol=1e-3),)))
service.wait_finished(cid, 60.0)
assert service.status(cid)["status"] == "done", service.status(cid)
driver = service._scheduler.pool._procs[0].pid
""",
}

ENDINGS = {
    "return": "",
    "raise": "raise RuntimeError('the owner failed')",
    "killed": "import time\ntime.sleep(600)",
}


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie nobody reaps has ended too."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def _run_owner(owner: str, ending: str, check) -> None:
    """Start the owner, read its driver's pid, hand both to ``check``;
    then kill the owner's process group, whatever happened."""
    script = (OWNERS[owner] + "print(driver, flush=True)\n"
              + ENDINGS[ending] + "\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120.0)
        line = proc.stdout.readline() if ready else ""
        assert line.strip().isdigit(), (
            f"owner did not report its driver: {line!r}")
        check(proc, int(line))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate(timeout=30.0)


@pytest.mark.parametrize("ending", ["return", "raise"])
@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_an_owner_that_does_not_close_exits_and_leaves_no_child(
        owner, ending):
    def check(proc, driver):
        try:
            proc.wait(timeout=DEADLINE)
        except subprocess.TimeoutExpired:
            pytest.fail(f"the owner did not exit within {DEADLINE} s")
        # First: a live driver would hold the owner's stderr open.
        assert not _alive(driver), "the driver outlived its owner"
        stderr = proc.stderr.read()
        if ending == "raise":
            assert proc.returncode == 1 and "the owner failed" in stderr
        else:
            assert proc.returncode == 0, stderr

    _run_owner(owner, ending, check)


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_a_killed_owners_driver_exits(owner):
    def check(proc, driver):
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=DEADLINE)
        deadline = time.monotonic() + DEADLINE
        while _alive(driver) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(driver), (
            f"the driver was still running {DEADLINE} s after its owner "
            "was killed")

    _run_owner(owner, "killed", check)
