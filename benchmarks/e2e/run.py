#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with per-layer attribution.

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed 0] [--trace]

runs every workload named in ``BENCHMARK.json`` (or the given ones), each in
its own fresh interpreter with tracing off, checks the outputs, and prints
every end-to-end metric by name with its unit and sample count.  ``--trace``
adds one traced pass per workload and prints the per-layer metrics, the
tracing overhead and the layer attribution; trace files go to
``benchmarks/e2e/out/``.  Sets its own ``PYTHONPATH``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (a per-layer
metric that could not be measured because a traced name is gone prints as
``null`` in the table and as -1 there).  With several workloads the metric
names are prefixed ``<workload>/``.

Exit status: 0 when everything ran and was correct, 1 when an operation
failed or the output disagrees with ``BENCHMARK.json``, 2 when the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SCHEMA_PATH = os.path.join(ROOT, "BENCHMARK.json")
#: Seconds one child may take before it is killed (the driver allows 180).
CHILD_TIMEOUT = 170
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
NOT_MEASURED = -1.0


class SchemaMismatch(Exception):
    """What was printed and what ``BENCHMARK.json`` names differ."""


def load_schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def check_static(schema):
    """``BENCHMARK.json`` against the metric table in ``layers.py``."""
    sys.path.insert(0, HERE)
    import layers

    declared = [(m["name"], m["unit"], m["better"])
                for m in schema["per_layer"]]
    known = [(name, unit, better)
             for name, unit, better, _needs, _fn in layers.METRICS]
    if declared != known:
        odd = sorted(set(declared) ^ set(known))
        raise SchemaMismatch(
            f"per_layer in BENCHMARK.json and layers.METRICS differ: {odd}")


def check_printed(schema, document, trace):
    """One child's output against ``BENCHMARK.json``, both directions."""
    names = {w["name"] for w in schema["workloads"]}
    if document["workload"] not in names:
        raise SchemaMismatch(
            f"workload {document['workload']!r} is not in BENCHMARK.json")
    pairs = [("end_to_end", document["end_to_end"])]
    if trace:
        pairs.append(("per_layer", document["per_layer"]))
    for section, printed in pairs:
        declared = {m["name"]: m["unit"] for m in schema[section]}
        if set(printed) != set(declared):
            raise SchemaMismatch(
                f"{document['workload']}: {section} names differ from "
                f"BENCHMARK.json: {sorted(set(printed) ^ set(declared))}")
        for name, entry in printed.items():
            unit = entry["unit"] if isinstance(entry, dict) else None
            if unit is not None and unit != declared[name]:
                raise SchemaMismatch(
                    f"{name}: unit {unit!r} printed, {declared[name]!r} "
                    "declared")


def child_env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, workload, setup_only=False):
    """One fresh interpreter; returns its JSON document."""
    command = [sys.executable, os.path.join(HERE, "harness.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--out", args.out]
    if setup_only:
        command.append("--setup-only")
    if args.inject:
        command += ["--inject", args.inject]
    # Its own session, so a timeout can take driver workers down with it.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env=child_env(), cwd=ROOT,
                             start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload}: no result within {CHILD_TIMEOUT} s")
    if child.returncode != 0:
        raise RuntimeError(f"{workload}: child exited {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def run_workload(args, workload):
    """All children of one workload; returns the measuring one's document
    with ``setup_s`` replaced by the median over the cold set-ups."""
    setups = []
    if not args.trace:
        for _ in range(args.setup_repeats - 1):
            setups.append(run_child(args, workload, True)["setup_s"])
    document = run_child(args, workload)
    setups.append(document["setup_s"])
    document["end_to_end"]["setup_s"].update(
        value=statistics.median(setups), samples=len(setups))
    return document


def print_report(schema, document, trace):
    name = document["workload"]
    attempted, failed = document["attempted"], document["failed"]
    print(f"\n== {name}  (seed {document['seed']}, {document['passes']} "
          f"untraced passes, work unit: {document['work_unit']})")
    for metric in schema["end_to_end"]:
        entry = document["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<28}{entry['value']:>16.6g} "
              f"{entry['unit']:<6} n={entry['samples']}")
    print(f"  {'fail_ratio':<28}{failed / attempted:>16.6g} {'ratio':<6} "
          f"{failed} of {attempted} operations")
    for message in document["failures"]:
        print(f"  FAILED: {message}")
    if not trace:
        return
    print("  -- per layer (one traced pass; seconds are self time)")
    for metric in schema["per_layer"]:
        value = document["per_layer"][metric["name"]]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<34}{shown:>16} {metric['unit']}")
    print("  -- share of the traced pass's wall time, by layer "
          "(thread-seconds; > 1 in total where threads overlap)")
    for layer, share in document["attribution"].items():
        print(f"  {layer:<34}{share:>16.3f}")
    for missing in document.get("missing", ()):
        print(f"  warning: traced name {missing} no longer exists")


def result_line(schema, documents, trace):
    """The contract's last line."""
    units = {m["name"]: m["unit"] for m in schema["per_layer"]}
    metrics = {}
    for document in documents:
        prefix = f"{document['workload']}/" if len(documents) > 1 else ""
        if trace:
            for name, value in document["per_layer"].items():
                metrics[prefix + name] = {
                    "value": NOT_MEASURED if value is None else value,
                    "unit": units[name]}
        else:
            for name, entry in document["end_to_end"].items():
                metrics[prefix + name] = {"value": entry["value"],
                                          "unit": entry["unit"]}
    failed = sum(d["failed"] for d in documents)
    return {"correct": failed == 0,
            "attempted": sum(d["attempted"] for d in documents),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", nargs="+",
                        metavar="NAME",
                        help="workload(s) to run; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure; default: run_seconds "
                             "from BENCHMARK.json")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, not for measuring")
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    parser.add_argument("--inject", choices=("corrupt-iterate",),
                        default=None,
                        help="test hook: corrupt one output before checking")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: {ROOT}/src/repro not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    try:
        schema = load_schema()
        check_static(schema)
    except (OSError, ValueError, KeyError, SchemaMismatch) as exc:
        print(f"error: BENCHMARK.json: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SchemaMismatch) else 2
    if args.seconds is None:
        args.seconds = float(schema["run_seconds"])
    selected = [name for group in args.workload or [] for name in group] \
        or [w["name"] for w in schema["workloads"]]

    documents = []
    try:
        for workload in selected:
            document = run_workload(args, workload)
            check_printed(schema, document, args.trace)
            documents.append(document)
            print_report(schema, document, args.trace)
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"result-{workload}.json"),
                      "w") as fh:
                json.dump(document, fh, indent=1)
    except SchemaMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = result_line(schema, documents, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
