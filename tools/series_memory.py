#!/usr/bin/env python3
"""Check that a series run's peak memory does not grow with its sample count.

`perfbench/configs/series.json` is run with mean_n 2 (n_max 39) at 10^4 and
at 10^6 time samples, each as `twojc run` in a fresh process writing into a
temporary directory.  The wall time and the peak resident memory of each
run are printed.  The series streams through its time windows, so the only
array that grows with the count is the config's tau grid (8 MB at 10^6).
Run from anywhere:

    python3 tools/series_memory.py

Exit status 1 if the 10^6 run peaks more than 20 MB above the 10^4 run, or
if a run fails.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
CONFIG = os.path.join(ROOT, "perfbench", "configs", "series.json")
COUNTS = (10 ** 4, 10 ** 6)
BOUND_MB = 20.0


def twojc_cli(args, cwd, root=ROOT):
    """(seconds, peak RSS in MB) of `twojc ARGS` in a fresh process working
    in `cwd`, with the package of the checkout at `root` (this one by
    default); a failed run exits."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "twojc.cli", *args],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"twojc {' '.join(args)} exited {proc.returncode}")
    return seconds, usage.ru_maxrss / 1024.0  # kB on Linux


def run(count, tmp):
    """(seconds, peak RSS in MB) of one `twojc run` at `count` samples."""
    with open(CONFIG) as fh:
        doc = json.load(fh)
    doc["field"]["mean_n"] = 2.0
    doc["time_grid"]["count"] = count
    doc["output"]["dir"] = os.path.join(tmp, f"out_{count}")
    config = os.path.join(tmp, f"series_{count}.json")
    with open(config, "w") as fh:
        json.dump(doc, fh)
    return twojc_cli(["run", config], tmp)


def main():
    peaks = []
    with tempfile.TemporaryDirectory() as tmp:
        for count in COUNTS:
            seconds, peak = run(count, tmp)
            peaks.append(peak)
            print(f"count {count:>8}: {seconds:7.2f} s, peak RSS {peak:7.1f} MB")
    growth = peaks[1] - peaks[0]
    print(f"peak growth {growth:.1f} MB (bound {BOUND_MB:.0f} MB)")
    return 1 if growth > BOUND_MB else 0


if __name__ == "__main__":
    sys.exit(main())
