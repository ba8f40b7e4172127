#!/usr/bin/env python3
"""Validate dpoaf.run_report JSON documents (stdlib only).

Usage: check_metrics_schema.py REPORT.json [REPORT.json ...]

Checks the stable schema emitted by obs::to_json (src/obs/report.cpp):

  {
    "schema": "dpoaf.run_report",
    "version": 1,
    "tool": "<producing binary>",
    "counters":   {name: uint, ...},
    "gauges":     {name: int, ...},
    "histograms": {name: {"count","sum","min","max": uint,
                          "buckets": [uint, ...]}, ...},
    "phases":     [{"name": str, "spans": uint, "total_ns": uint}, ...],
    "series":     {name: [number, ...], ...}
  }

Exits non-zero with one line per problem; CI's perf-smoke job fails on
any schema drift.
"""

import json
import sys

SCHEMA = "dpoaf.run_report"
VERSION = 1


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_number(v):
    # to_json writes non-finite doubles as null, which json loads as None.
    return (isinstance(v, (int, float)) and not isinstance(v, bool)) or v is None


def check_report(doc, errors):
    if not isinstance(doc, dict):
        errors.append("top level is not an object")
        return
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if doc.get("version") != VERSION:
        errors.append(f"version is {doc.get('version')!r}, want {VERSION}")
    if not isinstance(doc.get("tool"), str) or not doc["tool"]:
        errors.append("tool missing or not a non-empty string")

    for key, value_check, desc in (
        ("counters", is_uint, "a non-negative integer"),
        ("gauges", is_int, "an integer"),
    ):
        section = doc.get(key)
        if not isinstance(section, dict):
            errors.append(f"{key} missing or not an object")
            continue
        for name, value in section.items():
            if not value_check(value):
                errors.append(f"{key}[{name!r}] is not {desc}: {value!r}")

    hists = doc.get("histograms")
    if not isinstance(hists, dict):
        errors.append("histograms missing or not an object")
    else:
        for name, h in hists.items():
            if not isinstance(h, dict):
                errors.append(f"histograms[{name!r}] is not an object")
                continue
            for field in ("count", "sum", "min", "max"):
                if not is_uint(h.get(field)):
                    errors.append(
                        f"histograms[{name!r}].{field} is not a non-negative"
                        f" integer: {h.get(field)!r}")
            buckets = h.get("buckets")
            if (not isinstance(buckets, list) or len(buckets) > 64
                    or not all(is_uint(b) for b in buckets)):
                errors.append(
                    f"histograms[{name!r}].buckets is not a list of ≤64"
                    " non-negative integers")
            elif is_uint(h.get("count")) and sum(buckets) != h["count"]:
                errors.append(
                    f"histograms[{name!r}]: bucket sum {sum(buckets)}"
                    f" != count {h['count']}")

    phases = doc.get("phases")
    if not isinstance(phases, list):
        errors.append("phases missing or not a list")
    else:
        for i, p in enumerate(phases):
            if (not isinstance(p, dict) or not isinstance(p.get("name"), str)
                    or not is_uint(p.get("spans"))
                    or not is_uint(p.get("total_ns"))):
                errors.append(f"phases[{i}] malformed: {p!r}")

    series = doc.get("series")
    if not isinstance(series, dict):
        errors.append("series missing or not an object")
    else:
        for name, values in series.items():
            if not isinstance(values, list) or not all(
                    is_number(v) for v in values):
                errors.append(f"series[{name!r}] is not a list of numbers")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = []
        try:
            with open(path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            errors.append(f"cannot parse: {exc}")
            doc = None
        if doc is not None:
            check_report(doc, errors)
        if errors:
            failed = True
            for err in errors:
                print(f"{path}: {err}", file=sys.stderr)
        else:
            counters = len(doc.get("counters", {}))
            phases = len(doc.get("phases", []))
            print(f"{path}: OK ({doc.get('tool')}, {counters} counters,"
                  f" {phases} phases)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
