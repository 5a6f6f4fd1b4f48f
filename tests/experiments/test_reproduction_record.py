"""The reproduction record: ``python -m repro.experiments all``, verbatim.

``reproduction_record.txt`` is that command's stdout, checked in: the
Table I audit and every Figure 5 and Figure 6 point at the default
(laptop) sizes.  The simulation is deterministic, so the output must
equal the record byte for byte under any ``PYTHONHASHSEED``; a change
that moves one simulated number shows up here as a diff of the table
it moved.  This test only reads the record.  A change that means to
move a simulated number re-records it by hand, as its own reviewed
step::

    PYTHONPATH=src python -m repro.experiments all \\
        > tests/experiments/reproduction_record.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
RECORD = Path(__file__).with_name("reproduction_record.txt")

#: Two hash seeds: set and dict iteration order must not reach the output.
HASH_SEEDS = ("0", "4242")


def test_experiments_all_reproduces_the_record_byte_for_byte():
    want = RECORD.read_bytes()
    runs = [subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "all"],
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for seed in HASH_SEEDS]
    for seed, run in zip(HASH_SEEDS, runs):
        out, err = run.communicate(timeout=600)
        assert run.returncode == 0, err.decode(errors="replace")
        assert out == want, f"PYTHONHASHSEED={seed}: output differs from {RECORD.name}"
