#!/usr/bin/env python3
"""Time `twojc run` on every shipped and benchmark config; write BENCH_<tag>.json.

Each of `configs/*.json` and `perfbench/configs/*.json` is run RUNS times,
each run a fresh process (tools/series_memory.py's runner) working in a
temporary directory, so its tables go there.  The rounds go over every config
in turn, so that a drift of the machine's speed spreads over all of them.
Wall seconds include starting the interpreter, importing numpy and twojc,
and compiling twojc unless its bytecode is cached.  Run from anywhere:

    python3 tools/bench_configs.py --tag mytag
    python3 tools/bench_configs.py --tag mytag --against ../parent

BENCH_<tag>.json, at the root of the checkout, holds the machine (core
count, CPU model), the Python and numpy versions, whether twojc's bytecode
was cached, and per config its curves, each curve's n_max, the time sample
count, the Husimi grid size, and the median and quartiles of the wall
seconds and of the peak resident memory.

With --against DIR, each round also runs every config with the package of
the checkout at DIR (its `src/`), on the same config files, right before or
after this checkout's run: the side that goes first alternates from round
to round, so the RUNS rounds are alternating pairs.  The file then holds
DIR's wall seconds and peak memory per config as well, under "against",
and per config the number of pairs in which this checkout ran faster and the
median and quartiles of the pairs' wall ratio (this / against), whose spread
is the noise floor a gain or loss must clear.
"""

import argparse
import glob
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile

import numpy as np

from series_memory import ROOT, twojc_run

sys.path.insert(0, os.path.join(ROOT, "src"))

from twojc import dynamics  # noqa: E402
from twojc.config import load_config  # noqa: E402

RUNS = 5


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:  # no /proc on this platform
        pass
    return platform.processor() or platform.machine()


def spread(values):
    """Median and quartiles of a list of measurements."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def pair_ratios(this, against):
    """Median and quartiles of this[i] / against[i] over the pairs i."""
    return spread([a / b for a, b in zip(this, against)])


def workload(config):
    """What a config asks `twojc run` to compute."""
    cfg = load_config(config)
    series = [o for o in cfg.observables if o in dynamics.SERIES_OBSERVABLES]
    grid = cfg.q_grid if "qfunction" in cfg.observables else None
    return {
        "curves": [curve.label for curve in cfg.curves],
        "n_max": [curve.n_max for curve in cfg.curves],
        "observables": list(cfg.observables),
        "samples": len(cfg.times_tau) if series else 0,
        "q_grid": None if grid is None else {
            "re_count": grid.re_count, "im_count": grid.im_count,
            "snapshots": len(grid.times_tau)},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tag", required=True, help="BENCH_<tag>.json is written")
    ap.add_argument("--against", metavar="DIR",
                    help="a second checkout, run in alternating pairs with this one")
    args = ap.parse_args(argv)
    configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))) + sorted(
        glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.json")))
    names = [os.path.relpath(c, ROOT) for c in configs]
    sides = {"this": ROOT}
    if args.against is not None:
        if not os.path.isdir(os.path.join(args.against, "src", "twojc")):
            ap.error(f"--against {args.against}: no src/twojc there")
        sides["against"] = args.against
    seconds = {side: {name: [] for name in names} for side in sides}
    peaks = {side: {name: [] for name in names} for side in sides}
    for round_ in range(RUNS):
        order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
        for config, name in zip(configs, names):
            for side in order:
                with tempfile.TemporaryDirectory() as tmp:
                    wall, peak = twojc_run(config, tmp, sides[side])
                seconds[side][name].append(wall)
                peaks[side][name].append(peak)
                print(f"round {round_ + 1}/{RUNS} {side} {name}: {wall:.3f} s, {peak:.1f} MB")
    cli = os.path.join(ROOT, "src", "twojc", "cli.py")
    bench = {
        "tag": args.tag,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bytecode": {
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "cached": os.path.exists(importlib.util.cache_from_source(cli)),
        },
        "runs_per_config": RUNS,
        "configs": {name: dict(workload(config), wall_s=spread(seconds["this"][name]),
                               peak_rss_mb=spread(peaks["this"][name]))
                    for config, name in zip(configs, names)},
    }
    if "against" in sides:
        bench["against"] = {
            "checkout": os.path.basename(os.path.normpath(args.against)),
            "configs": {name: {
                "wall_s": spread(seconds["against"][name]),
                "peak_rss_mb": spread(peaks["against"][name]),
                "this_faster_in": sum(a < b for a, b in zip(seconds["this"][name],
                                                            seconds["against"][name])),
                "wall_ratio": pair_ratios(seconds["this"][name], seconds["against"][name]),
            } for name in names},
        }
    path = os.path.normpath(os.path.join(ROOT, f"BENCH_{args.tag}.json"))
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
