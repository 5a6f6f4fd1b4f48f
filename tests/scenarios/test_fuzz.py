"""Seeded scenario fuzzing: every seed must survive its fault schedule.

Seeds 0-5 cover every scheme twice and run in the default suite.  The 30-seed sweep (the acceptance bar for the fault-injection
subsystem) is expensive, so it sits behind ``-m scenario_full`` plus the
``REPRO_SCENARIO_FULL`` environment flag; CI's scheduled leg sets both.
"""

import os

import pytest

from repro.scenarios import generate_script, run_scenario

SMOKE_SEEDS = range(6)
FULL_SEEDS = range(30)


def _assert_scenario_survives(seed):
    script = generate_script(seed)
    result = run_scenario(script)
    label = f"seed {seed} ({script.scheme})"
    assert result.ok, label + ":\n" + "\n".join(result.violations)
    applied = {r.event.kind for r in result.injections if r.applied}
    assert "crash" in applied and "restart" in applied, label


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_smoke_seed(seed):
    _assert_scenario_survives(seed)


@pytest.mark.scenario_full
@pytest.mark.skipif(not os.environ.get("REPRO_SCENARIO_FULL"),
                    reason="set REPRO_SCENARIO_FULL=1 for the 30-seed sweep")
@pytest.mark.parametrize("seed", [s for s in FULL_SEEDS
                                  if s not in SMOKE_SEEDS])
def test_full_sweep_seed(seed):
    _assert_scenario_survives(seed)
