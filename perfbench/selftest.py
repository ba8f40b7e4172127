#!/usr/bin/env python3
"""Self-test of the benchmark: runs the smoke-size variant of every workload
untraced and traced, and checks that the result line names exactly the
metrics BENCHMARK.json declares, each with a valid name and its declared
unit, and that every output check passed.

    python3 perfbench/selftest.py

Takes about a minute after the first build. Exits non-zero on failure.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_result(spec, workload, trace, line):
    errors = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"output checks failed: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"metric names differ: missing {sorted(set(declared) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if not NAME.match(name):
            errors.append(f"invalid metric name {name!r}")
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
            errors.append(f"{name}: malformed {m}")
        elif not UNIT.match(m["unit"]) or m["unit"] != declared.get(name):
            errors.append(f"{name}: unit {m['unit']!r}, declared {declared.get(name)!r}")
    return [f"{workload} --trace {trace}: {e}" for e in errors]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    for workload in workloads:
        for trace in (0, 1):
            cmd = list(spec["command"]) + ["--workload", workload, "--seed", "1",
                                           "--seconds", "1", "--trace", str(trace), "--smoke"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                errors.append(f"{workload} --trace {trace}: exit {p.returncode}\n{p.stderr}")
                continue
            found = check_result(spec, workload, trace, lines[-1])
            errors += found
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
    for e in errors:
        print("FAIL", e)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
