#!/usr/bin/env python3
"""Compare the deterministic halves of two dpoaf.run_report documents.

Usage: report_diff.py A.json B.json [--counters] [--series [NAME,NAME...]]

--counters      the whole "counters" object must be equal (same names,
                same values).
--series        every series must be equal; with a comma-separated list of
                names, only those series, and each must exist in both.

At least one of the two is required. Reports are read with Python's json
module, so u64 counters compare as exact integers. Exits 0 when every
compared key agrees, 1 naming the first differing key (in sorted order),
and 2 on a usage or read error.
"""

import argparse
import json
import sys

MISSING = object()


def first_difference(section, a, b, names):
    """The first of `names` whose values differ between a and b, as text."""
    for name in names:
        va, vb = a.get(name, MISSING), b.get(name, MISSING)
        if va is MISSING or vb is MISSING:
            side = "A" if va is MISSING else "B"
            return f"{section}[{name!r}] missing from {side}"
        if va == vb:
            continue
        if isinstance(va, list) and isinstance(vb, list):
            for i, (x, y) in enumerate(zip(va, vb)):
                if x != y:
                    return f"{section}[{name!r}][{i}]: A={x!r} B={y!r}"
            return (f"{section}[{name!r}]: A has {len(va)} values,"
                    f" B has {len(vb)}")
        return f"{section}[{name!r}]: A={va!r} B={vb!r}"
    return None


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--counters", action="store_true")
    parser.add_argument("--series", nargs="?", const="", default=None)
    args = parser.parse_args(argv[1:])
    if not args.counters and args.series is None:
        parser.error("nothing to compare: give --counters and/or --series")
    try:
        a, b = load(args.a), load(args.b)
    except (OSError, ValueError) as exc:
        print(f"report_diff: cannot read report: {exc}", file=sys.stderr)
        return 2

    checks = []
    if args.counters:
        ca, cb = a.get("counters", {}), b.get("counters", {})
        checks.append(("counters", ca, cb, sorted(set(ca) | set(cb))))
    if args.series is not None:
        sa, sb = a.get("series", {}), b.get("series", {})
        names = ([n for n in args.series.split(",") if n] if args.series
                 else sorted(set(sa) | set(sb)))
        checks.append(("series", sa, sb, sorted(names)))

    compared = []
    for section, sa, sb, names in checks:
        diff = first_difference(section, sa, sb, names)
        if diff is not None:
            print(f"report_diff: {args.a} vs {args.b}: {diff}",
                  file=sys.stderr)
            return 1
        compared.append(f"{len(names)} {section}")
    print(f"report_diff: {args.a} and {args.b} agree on"
          f" {', '.join(compared)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
