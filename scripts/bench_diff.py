#!/usr/bin/env python3
"""Diff a bench's RESULT lines against its checked-in BENCH_*.json.

Reads the bench's stdout on stdin and takes every line of the form
`RESULT {json}`, in order. Row i is compared, field by field, with row i of
the trajectory file (a JSON list of the same objects). Virtual time is
deterministic, so every difference is a change: each prints as

    row <i> [<config>] <field>: <old> -> <new>

and the exit status is 1 on any difference or a different row count, 0 when
stdin reproduces the file exactly. Numbers compare by value, so `1.0000` on
stdin equals `1.0` in the file.

With --write, after printing every moved field, the trajectory is re-recorded
from stdin's rows as `json.dumps(rows, indent=2)` plus a newline, the form
every BENCH_*.json file has, and the exit status is 0. A file whose rows did
not move stays byte-identical.

Usage: scripts/bench_diff.py [--write] BENCH_fault.json < ext_fault_tolerance.out
"""

import argparse
import json
import sys

MISSING = object()  # a field one side lacks


def same(a, b):
    """Equal values; true/false never equal the numbers 1/0."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def show(value):
    """A field value in JSON notation."""
    return "<missing>" if value is MISSING else json.dumps(value)


def label(row):
    """The row's configuration: its string fields other than the bench, or
    its first other field as key=value when it has none."""
    words = [str(v) for k, v in row.items()
             if k != "bench" and isinstance(v, str)]
    if words:
        return " ".join(words)
    key = next((k for k in row if k != "bench"), None)
    return "" if key is None else f"{key}={row[key]}"


def main():
    parser = argparse.ArgumentParser(
        usage=__doc__.strip().splitlines()[-1].removeprefix("Usage: "))
    parser.add_argument("--write", action="store_true")
    parser.add_argument("path")
    args = parser.parse_args()
    path = args.path
    with open(path, encoding="utf-8") as f:
        old_rows = json.load(f)
    new_rows = [json.loads(line[len("RESULT "):]) for line in sys.stdin
                if line.startswith("RESULT ")]

    diffs = 0
    for i, (old, new) in enumerate(zip(old_rows, new_rows)):
        for field in list(old) + [k for k in new if k not in old]:
            before = old.get(field, MISSING)
            after = new.get(field, MISSING)
            if not same(before, after):
                print(f"row {i} [{label(old)}] {field}: "
                      f"{show(before)} -> {show(after)}")
                diffs += 1
    if len(old_rows) != len(new_rows):
        print(f"rows: {len(old_rows)} in {path} -> {len(new_rows)} on stdin")
        diffs += 1
    if args.write:
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(new_rows, indent=2) + "\n")
        print(f"bench_diff: wrote {len(new_rows)} rows to {path} "
              f"({diffs} difference(s))")
        return 0
    if diffs:
        print(f"bench_diff: {diffs} difference(s) against {path}",
              file=sys.stderr)
        return 1
    print(f"bench_diff: {len(new_rows)} rows match {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
