"""Seeded fault-injection scenarios for live distributed solves.

``repro.scenarios`` turns the environment's fault-tolerance claims into
a fuzzable property: a :class:`ScenarioScript` — a pure function of a
seed — schedules peer crashes and checkpoint-recovered restarts, churn
(leave/join with re-partitioning), netem-style link degradation, and
heterogeneous compute rates against a real solve on the simulated
testbed; :func:`run_scenario` executes it and asserts the standing
invariants (no deadlock, verified and non-false STOP, envelope
monotonicity between fault epochs, baseline-matching tolerance).  The
envelope check walks each epoch's recorded schedule through
:class:`~repro.parallel.Replay`, the executor the schedule fuzz drives
too, and reads its error envelope from :meth:`~repro.parallel.Replay.error`.

CLI: ``python -m repro.experiments scenario --seed N``.
"""

from .engine import EpochOutcome, ScenarioResult, run_scenario
from .injector import AppliedEvent, Injector
from .invariants import (
    ENVELOPE_EPS,
    RESIDUAL_MARGIN,
    STOP_MARGIN,
    check_error_envelope,
    check_no_false_stop,
    check_tolerance_match,
    reference_solution,
)
from .script import (
    EVENT_KINDS,
    SCHEMES,
    ScenarioEvent,
    ScenarioScript,
    generate_script,
    node_name,
)

__all__ = [
    "ScenarioScript",
    "ScenarioEvent",
    "generate_script",
    "Injector",
    "AppliedEvent",
    "run_scenario",
    "ScenarioResult",
    "EpochOutcome",
    "reference_solution",
    "check_error_envelope",
    "check_no_false_stop",
    "check_tolerance_match",
    "ENVELOPE_EPS",
    "STOP_MARGIN",
    "RESIDUAL_MARGIN",
    "SCHEMES",
    "EVENT_KINDS",
    "node_name",
]
