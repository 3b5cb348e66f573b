#!/usr/bin/env python3
"""Smoke test for bench_graphbench: every workload at toy scale, plain and
traced, answer checks included. Fails unless each run exits 0, its last
line is the JSON result, and the metric names it emits equal the ones
BENCHMARK.json declares (end_to_end for a plain run, per_layer for a traced
one), in both directions. A traced run must also write its trace file, and
each SUT's read time must split into lang + tinkerpop + engines +
unprofiled shares that sum to 1 within 0.02.

    smoke_test.py <bench_graphbench binary> <BENCHMARK.json>
"""

import json
import os
import re
import subprocess
import sys

WORKLOADS = ("short_reads", "complex_reads", "interactive", "durable_writes")
TOY = ["--persons=60", "--rounds=1", "--slice_ms=50", "--seconds=1"]


def run(binary, workload, trace):
    proc = subprocess.run(
        [binary, f"--workload={workload}", "--seed=1", f"--trace={trace}",
         f"--trace_dir={os.getcwd()}"] + TOY,
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"{workload} trace={trace}: keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        sys.exit(f"{workload} trace={trace}: {result}")
    return result["metrics"]


def check_names(label, emitted, declared):
    missing = sorted(set(declared) - set(emitted))
    extra = sorted(set(emitted) - set(declared))
    if missing or extra:
        sys.exit(f"{label}: missing {missing}, undeclared {extra}")
    for name, metric in emitted.items():
        if metric["unit"] != declared[name]:
            sys.exit(f"{label}: {name} has unit {metric['unit']}, "
                     f"BENCHMARK.json says {declared[name]}")


def check_shares(label, metrics):
    totals = {}
    for name, metric in metrics.items():
        m = re.fullmatch(r"(?:lang|tinkerpop|engines|sut)\.([^.]+)\."
                         r"(?:share|server_share|traversal_share|"
                         r"unprofiled_share)", name)
        if m:
            totals[m.group(1)] = totals.get(m.group(1), 0) + metric["value"]
    for sut, total in totals.items():
        if abs(total - 1) > 0.02:
            sys.exit(f"{label}: {sut} read-time shares sum to {total}")


def main():
    binary, benchmark_json = sys.argv[1], sys.argv[2]
    with open(benchmark_json) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        sys.exit(f"workloads {spec['workloads']}")
    for workload in WORKLOADS:
        check_names(f"{workload} plain", run(binary, workload, 0), end_to_end)
        traced = run(binary, workload, 1)
        check_names(f"{workload} traced", traced, per_layer)
        check_shares(f"{workload} traced", traced)
        with open(f"TRACE_{workload}.json") as f:
            spans = json.load(f)["spans"]
        if not spans:
            sys.exit(f"{workload}: empty trace")
        print(f"{workload}: ok ({len(spans)} spans)")


if __name__ == "__main__":
    main()
