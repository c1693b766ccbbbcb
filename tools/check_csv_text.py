#!/usr/bin/env python3
"""Check that every number in the tables of finished runs reads "%.17g".

For each config given, the tables its manifest lists are read back from the
config's output directory, and each value of a data line is re-rendered as
"%.17g" % float(value); `#` header lines and the column line are kept as
they are.  "%.17g" reads back bit for bit, so a table passes only if the
writer's array formatting wrote the bytes Python's own `%` writes.  Run
from the directory the configs were run from, after `twojc run`:

    python3 tools/check_csv_text.py configs/*.json

Exit status 1 names the first line that differs in each table that fails.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from twojc.config import load_config  # noqa: E402


def differing_line(path):
    """(line number, line, re-rendered line) of the first data line of a
    table that "%.17g" renders differently, or None."""
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        return len(lines), lines[-1], lines[-1] + "\n"
    header = True  # the `#` lines, then the column line
    for number, line in enumerate(lines[:-1], start=1):
        if header:
            header = line.startswith("#")
            continue
        rendered = ",".join("%.17g" % float(field) for field in line.split(","))
        if rendered != line:
            return number, line, rendered
    return None


def main(configs):
    failed = checked = 0
    for config in configs:
        cfg = load_config(config)
        with open(os.path.join(cfg.out_dir, f"{cfg.prefix}_manifest.json")) as fh:
            tables = [entry["path"] for entry in json.load(fh)["files"]]
        for name in tables:
            checked += 1
            found = differing_line(os.path.join(cfg.out_dir, name))
            if found:
                failed += 1
                number, line, rendered = found
                print(f"{config}: {name}:{number}: {line!r} is not {rendered!r}")
    print(f"{checked - failed} of {checked} tables read as %.17g")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
