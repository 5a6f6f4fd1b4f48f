"""Smoke test of the end-to-end benchmark (``--scale tiny``, seconds).

Everything runs in subprocesses: the benchmark's tracer patches ``repro``
classes in place, which must never happen inside the pytest process.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def load_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_benchmark(out, *args):
    return subprocess.run(
        [sys.executable, RUN, "--scale", "tiny", "--seconds", "0",
         "--setup-repeats", "1", "--out", str(out), *args],
        capture_output=True, text=True, timeout=600)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def processes_mentioning(text):
    """Command lines of live processes that contain ``text``."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if text in cmdline:
            found.append(cmdline)
    return found


def test_every_workload_validates_and_leaves_nothing_behind(tmp_path):
    schema = load_schema()
    out = tmp_path / "out"
    proc = run_benchmark(out, "--trace", "1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    line = result_line(proc)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    workloads = [w["name"] for w in schema["workloads"]]
    per_layer = {m["name"]: m["unit"] for m in schema["per_layer"]}
    assert set(line["metrics"]) == {
        f"{w}/{name}" for w in workloads for name in per_layer}
    for key, entry in line["metrics"].items():
        assert entry["unit"] == per_layer[key.split("/", 1)[1]]
        assert isinstance(entry["value"], (int, float))
    end_to_end = {m["name"]: m["unit"] for m in schema["end_to_end"]}
    for workload in workloads:
        with open(out / f"result-{workload}.json") as fh:
            document = json.load(fh)
        assert document["failed"] == 0, document["failures"]
        assert set(document["end_to_end"]) == set(end_to_end)
        for name, entry in document["end_to_end"].items():
            assert entry["unit"] == end_to_end[name]
            assert entry["value"] > 0, (workload, name)
        assert document["missing"] == []
        with open(out / f"trace-{workload}.json") as fh:
            trace = json.load(fh)
        assert trace["spans_kept"] == len(trace["spans"]) > 0
    # The contrast the workloads were built for, visible even at tiny size.
    assert line["metrics"]["p2psap_stream/numerics.sweeps"]["value"] == 0
    assert line["metrics"]["fig5_n24/numerics.sweeps"]["value"] > 0
    assert line["metrics"]["service_roundtrip/service.duplicate_solves"][
        "value"] == 0
    # Nothing left behind: temp cache dirs, shared memory, processes.
    assert sorted(p.name for p in out.iterdir() if p.name.startswith("tmp-")) \
        == []
    if os.path.isdir("/dev/shm"):
        assert [name for name in os.listdir("/dev/shm")
                if name.startswith("repro-arena-")] == []
    if os.path.isdir("/proc"):
        assert processes_mentioning(str(out)) == []


def test_corrupted_iterate_is_a_failed_operation(tmp_path):
    proc = run_benchmark(tmp_path / "out", "--workload", "fig5_n24",
                         "--inject", "corrupt-iterate")
    assert proc.returncode == 1, proc.stderr[-4000:]
    line = result_line(proc)
    assert line["correct"] is False
    assert 1 <= line["failed"] < line["attempted"]
    assert "from the reference" in proc.stdout


def test_output_that_disagrees_with_the_schema_is_refused():
    spec = importlib.util.spec_from_file_location("e2e_run_under_test", RUN)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    schema = load_schema()
    document = {"workload": "fig5_n24", "end_to_end": {
        m["name"]: {"value": 1.0, "unit": m["unit"]}
        for m in schema["end_to_end"]}}
    run.check_printed(schema, document, trace=0)
    extra = dict(document, end_to_end=dict(
        document["end_to_end"], bogus_s={"value": 1.0, "unit": "s"}))
    with pytest.raises(run.SchemaMismatch):
        run.check_printed(schema, extra, trace=0)
    fewer = dict(document, end_to_end={"wall_s": {"value": 1, "unit": "s"}})
    with pytest.raises(run.SchemaMismatch):
        run.check_printed(schema, fewer, trace=0)
    with pytest.raises(run.SchemaMismatch):
        run.check_printed(schema, dict(document, workload="nope"), trace=0)
    shrunk = dict(schema, per_layer=schema["per_layer"][1:])
    with pytest.raises(run.SchemaMismatch):
        run.check_static(shrunk)


def test_missing_traced_name_gives_null_not_a_crash():
    script = f"""
import sys, warnings
sys.path.insert(0, {HERE!r})
import trace as e2e_trace, layers
e2e_trace.TARGETS += (("repro.simnet.kernel", "Simulator.gone", "simnet"),)
tracer = e2e_trace.Tracer()
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    missing = tracer.install()
assert missing == ["Simulator.gone"], missing
assert len(caught) == 1 and "Simulator.gone" in str(caught[0].message)
tracer.missing.append("Simulator.step")
untraced = {{"walls": {{}}, "ops": {{}}, "stats": {{}}, "raw_wall_s": 0.0,
            "speed": 1.0}}
context = layers.Context(tracer, {{}}, untraced, {{}}, None, 0.0, 0.0)
metrics = layers.compute(context)
assert metrics["simnet.events"] is None
assert metrics["numerics.kernel_s"] == 0.0
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and the benchmark's own directory present
    the command must fail without printing a result."""
    target = tmp_path / "benchmarks" / "e2e"
    target.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json", ".md")):
            shutil.copy(os.path.join(HERE, name), target / name)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload", "fig5_n24",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
