#!/usr/bin/env python3
"""Compare two output directories of scripts/run_all_scenarios.py.

    python scripts/diff_outputs.py A B

For every file under either directory it prints one line: "identical"
(byte for byte), "missing in A" / "missing in B", or the largest
|a - b| / max(1, |b|) over the CSV cells or the numeric manifest leaves.
Files whose structure differs (other columns, rows, keys or non-numeric
values) are reported as such.  Exits 1 when a file is missing or differs
in structure, else 0.
"""

import json
import math
import os
import sys


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _rel(a, b):
    if a == b:                                   # also equal infinities
        return 0.0
    return abs(a - b) / max(1.0, abs(b))


def _csv_diff(text_a, text_b):
    rows_a = [line.split(",") for line in text_a.splitlines()]
    rows_b = [line.split(",") for line in text_b.splitlines()]
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1] \
            or any(len(ra) != len(rb) for ra, rb in zip(rows_a, rows_b)):
        return None
    return max((_rel(float(x), float(y)) for ra, rb in zip(rows_a[1:], rows_b[1:])
                for x, y in zip(ra, rb)), default=0.0)


def _json_diff(a, b):
    """Largest relative difference over numeric leaves; None if the trees differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [_json_diff(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [_json_diff(x, y) for x, y in zip(a, b)]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)):
        return _rel(a, b)
    else:
        return 0.0 if a == b else None
    return None if None in parts else max(parts, default=0.0)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    root_a, root_b = argv
    files_a, files_b = _files(root_a), _files(root_b)
    bad = 0
    for name in sorted(files_a | files_b):
        if name not in files_a or name not in files_b:
            print(f"{name}: missing in {'A' if name not in files_a else 'B'}")
            bad += 1
            continue
        with open(os.path.join(root_a, name), "rb") as fa, \
                open(os.path.join(root_b, name), "rb") as fb:
            raw_a, raw_b = fa.read(), fb.read()
        if raw_a == raw_b:
            print(f"{name}: identical")
            continue
        if name.endswith(".json"):
            diff = _json_diff(json.loads(raw_a), json.loads(raw_b))
        else:
            diff = _csv_diff(raw_a.decode(), raw_b.decode())
        if diff is None or math.isnan(diff):
            print(f"{name}: structure differs")
            bad += 1
        else:
            print(f"{name}: max |a - b| / max(1, |b|) = {diff:.3g}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
