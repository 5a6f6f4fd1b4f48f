"""Scenario scripts: seeded generation determinism + validation."""

import dataclasses

import pytest

from repro.scenarios import (
    SCHEMES,
    ScenarioEvent,
    ScenarioScript,
    generate_script,
)
from repro.scenarios.script import node_name
from repro.simnet import Simulator, nicta_testbed


def base_script(**overrides):
    """A minimal valid hand-written script to mutate in rejection tests."""
    fields = dict(
        seed=0, scheme="synchronous",
        compute_rates=(1.0, 1.0, 1.0),
        events=(
            ScenarioEvent("crash", 0.2, rank=1),
            ScenarioEvent("restart", 0.4, rank=1),
        ),
    )
    fields.update(overrides)
    return ScenarioScript(**fields)


class TestGeneration:
    def test_pure_function_of_seed(self):
        for seed in (0, 7, 23):
            assert generate_script(seed) == generate_script(seed)

    def test_seeds_cycle_through_schemes(self):
        schemes = [generate_script(s).scheme for s in range(6)]
        assert schemes == list(SCHEMES) * 2

    def test_every_seed_validates_and_has_crash_restart(self):
        for seed in range(30):
            script = generate_script(seed)
            script.validate()  # must not raise
            kinds = [ev.kind for ev in script.events]
            assert kinds.count("crash") == 1
            assert kinds.count("restart") == 1
            assert kinds.index("crash") < kinds.index("restart")
            # Rank 0 hosts the convergence coordinator; the generator
            # never kills it.
            crash = next(ev for ev in script.events if ev.kind == "crash")
            assert 1 <= crash.rank < script.n_peers

    def test_schedule_independent_of_overrides(self):
        plain = generate_script(4)
        forced = generate_script(4, scheme="hybrid")
        assert forced.scheme == "hybrid"
        assert forced.events == plain.events
        assert forced.compute_rates == plain.compute_rates

    def test_events_sorted_by_time(self):
        for seed in range(30):
            ats = [ev.at for ev in generate_script(seed).events]
            assert ats == sorted(ats)

    def test_describe_mentions_every_event(self):
        script = generate_script(5)
        text = script.describe()
        for ev in script.events:
            assert ev.kind in text


class TestValidation:
    def test_base_is_valid(self):
        base_script().validate()

    @pytest.mark.parametrize("overrides", [
        dict(scheme="simplex"),
        dict(n_peers=1, compute_rates=(1.0,)),
        dict(compute_rates=(1.0, 1.0)),            # wrong length
        dict(compute_rates=(1.0, 0.0, 1.0)),       # non-positive rate
        dict(checkpoint_every=0),
        dict(n=3),                                  # too small to split
    ])
    def test_rejects_bad_solve_config(self, overrides):
        with pytest.raises(ValueError):
            base_script(**overrides).validate()

    @pytest.mark.parametrize("events", [
        (ScenarioEvent("quake", 0.2),),                       # unknown kind
        (ScenarioEvent("crash", 0.0, rank=1),),               # at must be > 0
        (ScenarioEvent("crash", 0.5, rank=1),
         ScenarioEvent("restart", 0.2, rank=1)),              # unsorted
        (ScenarioEvent("crash", 0.2, rank=0),
         ScenarioEvent("restart", 0.4, rank=0)),              # coordinator
        (ScenarioEvent("crash", 0.2, rank=5),
         ScenarioEvent("restart", 0.4, rank=5)),              # out of range
        (ScenarioEvent("restart", 0.4, rank=1),),             # no crash
        (ScenarioEvent("crash", 0.2, rank=1),),               # never restarts
        (ScenarioEvent("crash", 0.2, rank=1),
         ScenarioEvent("crash", 0.3, rank=2),
         ScenarioEvent("restart", 0.4, rank=1),
         ScenarioEvent("restart", 0.5, rank=2)),              # overlapping
        (ScenarioEvent("crash", 0.2, rank=1),
         ScenarioEvent("leave", 0.3, rank=2),
         ScenarioEvent("restart", 0.4, rank=1)),              # churn while down
        (ScenarioEvent("leave", 0.2, rank=1),
         ScenarioEvent("leave", 0.4, rank=2)),                # two churns
        (ScenarioEvent("leave", 0.2, rank=0),),               # coordinator
        (ScenarioEvent("join", 0.2),),                        # no spares
        (ScenarioEvent("link", 0.2, link=("peer00", "peer00")),),
        (ScenarioEvent("link", 0.2, link=("peer00", "peer09")),),
        (ScenarioEvent("link", 0.2, link=("peer00", "peer01"),
                       args=(("mtu", 9000.0),)),),            # unknown arg
        (ScenarioEvent("link", 0.2, link=("peer00", "peer01"),
                       args=(("loss", 1.0),)),),              # loss >= 1
        (ScenarioEvent("link", 0.2, link=("peer00", "peer01"),
                       args=(("bandwidth_scale", 0.0),)),),
        (ScenarioEvent("load", 0.2, rank=7,
                       args=(("factor", 0.5),)),),            # node oob
        (ScenarioEvent("load", 0.2, rank=1,
                       args=(("factor", -0.5),)),),
    ])
    def test_rejects_bad_events(self, events):
        with pytest.raises(ValueError):
            base_script(events=events).validate()

    def test_join_valid_with_spare(self):
        base_script(
            n_spares=1, compute_rates=(1.0, 1.0, 1.0, 1.0),
            events=(ScenarioEvent("join", 0.3),),
        ).validate()

    def test_events_are_frozen_and_hashable(self):
        script = generate_script(0)
        assert len({ev for ev in script.events}) == len(script.events)
        with pytest.raises(dataclasses.FrozenInstanceError):
            script.events[0].at = 0.9


class TestNaming:
    def test_node_names_list_peers_then_spares(self):
        script = base_script(n_spares=1, compute_rates=(1.0,) * 4)
        assert script.n_nodes == 4
        assert script.node_names() == ["peer00", "peer01", "peer02",
                                       "peer03"]

    def test_node_name_is_the_testbed_name(self):
        sim = Simulator()
        net = nicta_testbed(sim, 3, n_clusters=2)
        assert list(net.nodes) == [node_name(i) for i in range(3)]

    def test_link_event_args_and_description(self):
        ev = ScenarioEvent("link", 0.5, link=("peer00", "peer01"),
                           args=(("delay", 0.01), ("loss", 0.1)))
        assert ev.arg_dict() == {"delay": 0.01, "loss": 0.1}
        assert ev.describe() == (
            "link@0.500 link=peer00<->peer01 delay=0.01,loss=0.1")
