#!/usr/bin/env python3
"""Gate the simd backend's speedup over scalar on one bench row family
(stdlib only).

Usage: check_bench_regression.py BENCH.json --row PREFIX --counter NAME
                                 [--min-ratio 2.0] [--out BENCH_tensor.json]

Reads a google-benchmark ``--benchmark_out`` JSON file and keeps the rows
named ``<PREFIX><backend>`` or ``<PREFIX><backend>/<size>`` (e.g.
``--row BM_Matmul/`` matches ``BM_Matmul/simd/192``, ``--row BM_Gelu/``
matches ``BM_Gelu/scalar``), reading the higher-is-better rate counter
NAME (e.g. ``GFLOP/s``, ``items/s``) from each. Each row has already
asserted numerical equivalence against the scalar reference, so a
throughput number here is also a correctness certificate — see
bench/micro_tensor.cpp. Writes a summary artifact with per-size
scalar/simd rates, the speedup ratio and the simd rows' label (the
kernels' vector width, e.g. ``lanes:16``), then fails (exit 1) if the ratio
at the LARGEST common size is below --min-ratio: the largest size is the
least noise-prone and the closest to the pipeline's real working set.
Missing simd rows (CPU without AVX2+FMA, or rows that errored) fail the
gate too — CI runners are x86_64, so absence there means the dispatch
broke.
"""

import argparse
import json
import re
import sys


def load_rows(path, prefix, counter):
    """-> ({backend: {size: rate}}, simd row labels); size is None for rows
    without one."""
    row = re.compile("^" + re.escape(prefix) + r"(scalar|simd)(?:/(\d+))?$")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = {"scalar": {}, "simd": {}}
    labels = set()
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        match = row.match(bench.get("name", ""))
        if not match:
            continue
        if bench.get("error_occurred"):
            print(f"error row: {bench['name']}: "
                  f"{bench.get('error_message', 'unknown error')}")
            continue
        rate = bench.get(counter)
        if not isinstance(rate, (int, float)) or rate <= 0:
            print(f"row {bench['name']} has no positive {counter} counter")
            continue
        size = match.group(2)
        rows[match.group(1)][None if size is None else int(size)] = rate
        if match.group(1) == "simd" and bench.get("label"):
            labels.add(bench["label"])
    return rows, sorted(labels)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("--row", required=True,
                        help="row-name prefix before the backend, "
                             "e.g. BM_Matmul/")
    parser.add_argument("--counter", required=True,
                        help="rate counter to compare, e.g. GFLOP/s")
    parser.add_argument("--min-ratio", type=float, default=2.0,
                        help="minimum simd:scalar ratio at the largest "
                             "common size (default: 2.0)")
    parser.add_argument("--out", default="BENCH_tensor.json",
                        help="summary artifact path "
                             "(default: BENCH_tensor.json)")
    args = parser.parse_args()

    rows, simd_labels = load_rows(args.bench_json, args.row, args.counter)
    sizes = sorted(set(rows["scalar"]) & set(rows["simd"]),
                   key=lambda n: -1 if n is None else n)
    summary = {
        "schema": "dpoaf.bench_tensor",
        "version": 2,
        "row": args.row,
        "counter": args.counter,
        "min_ratio": args.min_ratio,
        "simd_labels": simd_labels,
        "sizes": [
            {
                "n": n,
                "scalar": round(rows["scalar"][n], 3),
                "simd": round(rows["simd"][n], 3),
                "ratio": round(rows["simd"][n] / rows["scalar"][n], 3),
            }
            for n in sizes
        ],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    if not sizes:
        print(f"no comparable {args.row} scalar/simd row pairs in "
              f"{args.bench_json} (scalar sizes: {list(rows['scalar'])}, "
              f"simd sizes: {list(rows['simd'])})")
        return 1

    def where(entry):
        return args.row if entry["n"] is None else f"{args.row} n={entry['n']}"

    for entry in summary["sizes"]:
        print(f"{where(entry)}: scalar {entry['scalar']} "
              f"{args.counter}, simd {entry['simd']} {args.counter}, "
              f"ratio {entry['ratio']}x")
    gate = summary["sizes"][-1]
    if gate["ratio"] < args.min_ratio:
        print(f"FAIL: {where(gate)} simd:scalar ratio {gate['ratio']}x "
              f"is below the {args.min_ratio}x floor")
        return 1
    print(f"OK: {where(gate)} simd:scalar ratio {gate['ratio']}x "
          f"meets the {args.min_ratio}x floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
