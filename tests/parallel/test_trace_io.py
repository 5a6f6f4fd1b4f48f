"""Trace persistence: npz round-trip, replay of loaded traces, and the
replay CLI — the artefacts a failing scenario run leaves behind."""

import json

import numpy as np
import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.parallel import (
    ScheduleTrace,
    assert_traces_equal,
    load_trace,
    replay_trace,
    save_trace,
)
from repro.scenarios import generate_script, run_scenario


@pytest.fixture(scope="module")
def faulted_traces():
    """Traces of a real faulted solve: ghost planes, a crash restore —
    every payload kind the format has to carry."""
    result = run_scenario(generate_script(0))
    assert result.ok, "\n".join(result.violations)
    return result.traces


def test_round_trip_is_bit_exact(faulted_traces, tmp_path):
    for i, trace in enumerate(faulted_traces):
        path = save_trace(trace, tmp_path / f"epoch{i}.npz")
        assert_traces_equal(trace, load_trace(path))


def test_round_trip_preserves_restore_payload(faulted_traces, tmp_path):
    trace = next(t for t in faulted_traces
                 if any(ev.kind == "restore" for ev in t.events))
    loaded = load_trace(save_trace(trace, tmp_path / "t.npz"))
    restored = [ev for ev in loaded.events if ev.kind == "restore"]
    assert restored and all(ev.state["block"].size for ev in restored)


def test_loaded_trace_replays_identically(faulted_traces, tmp_path):
    trace = faulted_traces[0]
    loaded = load_trace(save_trace(trace, tmp_path / "t.npz"))
    a = replay_trace(trace)
    b = replay_trace(loaded)
    assert a.diffs == b.diffs
    assert np.array_equal(a.gather(), b.gather())


def test_replay_tolerates_dangling_in_flight_sweep(faulted_traces):
    """A live abort can cut a trace between a sweep's "begin" and its
    "end"; replay must drain the orphan instead of refusing to export."""
    trace = faulted_traces[0]
    cut = next(i for i, ev in enumerate(trace.events) if ev.kind == "begin")
    truncated = ScheduleTrace(solve=dict(trace.solve), peers=trace.peers,
                              events=trace.events[:cut + 1])
    result = replay_trace(truncated)
    assert result.diffs == []  # the orphaned sweep never landed
    assert sorted(result.states) == sorted(trace.peers)
    assert not any(st.sweep_in_flight for st in result.states.values())


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, meta=np.asarray(json.dumps({"format": "something"})))
    with pytest.raises(ValueError, match="not a repro trace"):
        load_trace(path)


def test_load_rejects_future_version(faulted_traces, tmp_path):
    path = save_trace(faulted_traces[0], tmp_path / "t.npz")
    with np.load(path, allow_pickle=False) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"][()]))
    meta["version"] = 99
    arrays["meta"] = np.asarray(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="unsupported trace format"):
        load_trace(path)


def test_replay_cli_verifies_a_dumped_trace(faulted_traces, tmp_path,
                                            capsys):
    path = save_trace(faulted_traces[0], tmp_path / "t.npz")
    rc = experiments_main(["replay", str(path)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "bit-exactly" in out
