#!/usr/bin/env python3
"""Compare the outputs of two runs table by table, to a bound of 1e-14.

A and B are directories of `twojc run` outputs (one config's output.dir,
or a directory holding several of them); every file below either is
compared with the file of the same relative path below the other:

    python3 tools/compare_runs.py A B

A file with the same bytes on both sides reads "same bytes".  For a CSV
table that differs, its `#` header lines, column line and row count must
be the same, and each column's worst absolute difference is printed; the
table passes if none is above BOUND.  A manifest that differs passes if it
differs only in the sha256 of its tables, which the tables themselves
answer for.  Exit status 1 if a file is on one side only, or if any file
fails.
"""

import json
import os
import sys

BOUND = 1e-14


def files_below(root):
    """Relative paths of every file below root, sorted."""
    found = []
    for parent, _, names in os.walk(root):
        found.extend(os.path.relpath(os.path.join(parent, name), root) for name in names)
    return sorted(found)


def split_table(data):
    """(header lines and column line, data lines) of a CSV table's text."""
    lines = data.decode().splitlines()
    head = 0
    while head < len(lines) and lines[head].startswith("#"):
        head += 1
    return lines[:head + 1], lines[head + 1:]


def compare_table(a, b):
    """(ok, message) for two CSV tables whose bytes differ."""
    (head_a, rows_a), (head_b, rows_b) = split_table(a), split_table(b)
    if head_a != head_b:
        return False, "headers differ"
    if len(rows_a) != len(rows_b):
        return False, f"row counts differ: {len(rows_a)} against {len(rows_b)}"
    columns = head_a[-1].split(",")
    worst = [0.0] * len(columns)
    for line, (row_a, row_b) in enumerate(zip(rows_a, rows_b), start=len(head_a) + 1):
        fields_a, fields_b = row_a.split(","), row_b.split(",")
        if not len(fields_a) == len(fields_b) == len(columns):
            return False, f"line {line}: field counts differ"
        for i, (x, y) in enumerate(zip(fields_a, fields_b)):
            worst[i] = max(worst[i], abs(float(x) - float(y)))
    ok = max(worst) <= BOUND
    return ok, "worst |difference| " + ", ".join(
        f"{name} {diff:.2e}" for name, diff in zip(columns, worst))


def without_digests(data):
    """A manifest's document with the sha256 of every table left out."""
    doc = json.loads(data)
    for entry in doc.get("files", []):
        entry.pop("sha256", None)
    return doc


def compare(root_a, root_b, out=sys.stdout):
    """Print one line per file below either root; True if every file passes."""
    names_a, names_b = files_below(root_a), files_below(root_b)
    passed = True
    for name in sorted(set(names_a) | set(names_b)):
        if name not in names_a or name not in names_b:
            ok, message = False, f"only in {root_a if name in names_a else root_b}"
        else:
            with open(os.path.join(root_a, name), "rb") as fa, \
                    open(os.path.join(root_b, name), "rb") as fb:
                a, b = fa.read(), fb.read()
            if a == b:
                ok, message = True, "same bytes"
            elif name.endswith(".csv"):
                ok, message = compare_table(a, b)
            elif name.endswith(".json"):
                ok = without_digests(a) == without_digests(b)
                message = "differs in table digests only" if ok else "differs"
            else:
                ok, message = False, "differs"
        passed &= ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {message}", file=out)
    return passed


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(a) for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    return 0 if compare(*args) else 1


if __name__ == "__main__":
    sys.exit(main())
