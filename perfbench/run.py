#!/usr/bin/env python3
"""twojc benchmark: four workloads through the public API, checked every pass.

    python3 perfbench/run.py --workload series --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seconds 15        # every workload, --trace 0 and 1

Run it from anywhere inside a source checkout: twojc is imported from the
checkout's ``src/`` directory, and every output file goes to a temporary
directory inside the checkout that is removed at the end.

Workloads (``WORKLOADS`` says why each was chosen): ``series``,
``phase_space``, ``large_n`` and ``crosscheck``.  One invocation is one
fresh process running a single thread of numpy/LAPACK:

* ``--trace 0`` first starts ``probe.py`` in fresh interpreters to time
  set-up (``setup_s``, the median of several).  It then runs one pass,
  whose peak resident memory is ``peak_rss_mb``, and repeats the pass for
  ``--seconds``; ``run_s`` is the median pass time.
* ``--trace 1`` alternates untraced passes with passes traced by
  ``spans.Tracer`` for ``--seconds`` and reports per-layer medians, the
  spectrum-table scaling times and the tracing overhead.

Every pass's outputs are checked (``check`` in ``workloads.py``), and must hash the
same as the first pass's.  Human-readable lines come first; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
SCALING_N = (100, 1000, 5000)
SCALING_REPEATS = 3
CHILD_TIMEOUT = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
WORKLOADS = {
    "series": "4000-sample scalar series at n_max 94: the per-sample entropy "
              "eigensolve and concurrence loop dominate; no Husimi, large N or big CSV",
    "phase_space": "four 241x241 Husimi grids at n_max 144 and 232k CSV rows: "
                   "husimi_grid and CSV writing dominate; the series layer is idle",
    "large_n": "four Kerr curves at mean_n 1000 (n_max 1400), 1000 samples: vectorized "
               "(T, N, 3) temporaries and the 4x1401-block spectrum build dominate",
    "crosscheck": "spectral identity sweep over seeded draws, then the beat reference "
                  "(joint dim 388) against the sector and RK4 oracles over tau in [0, 2pi]",
}
LAYERS = ("config", "spectral", "dynamics", "oracle", "validation", "cli")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.load_s": "s",
    "spectral.table_s": "s",
    "spectral.block_s": "s",
    "spectral.blocks": "count",
    "spectral.fallback_blocks": "count",
    "spectral.table_s.n100": "s",
    "spectral.table_s.n1000": "s",
    "spectral.table_s.n5000": "s",
    "dynamics.series_s": "s",
    "dynamics.series_self_s": "s",
    "dynamics.inversion_s": "s",
    "dynamics.coeff_bytes": "bytes_computed",
    "dynamics.entropy_eig_s": "s",
    "dynamics.entropy_eig_calls": "count",
    "dynamics.concurrence_s": "s",
    "dynamics.concurrence_calls": "count",
    "dynamics.rho_field_s": "s",
    "dynamics.husimi_s": "s",
    "dynamics.husimi_points": "count",
    "oracle.build_s": "s",
    "oracle.sector_init_s": "s",
    "oracle.sector_evolve_s": "s",
    "oracle.rk4_s": "s",
    "oracle.dim": "count",
    "validation.identities_s": "s",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    return env


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def setup_samples(name):
    """Set-up seconds of fresh interpreters; the first (cold) one is dropped."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), SRC]
    if name != "crosscheck":
        cmd.append(os.path.join(HERE, "configs", f"{name}.json"))
    out = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, cwd=ROOT)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
    return out[1:]


class TwojcModules:
    """The twojc layer modules, imported from the checkout's src/."""

    def __init__(self):
        sys.path.insert(0, SRC)
        self.package = importlib.import_module("twojc")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"twojc.{layer}"))
        self.by_name = {layer: getattr(self, layer) for layer in LAYERS}


class Ledger:
    """Pass outcomes: attempts, failures and the output digest of pass one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, wl, tracer=None):
        """One pass: (seconds, output or None); a failure is counted, not raised."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run_pass()
            else:
                with tracer:
                    out = wl.run_pass()
        except Exception:
            elapsed = time.perf_counter() - t0
            self._failed([f"pass {self.attempted} raised:\n{traceback.format_exc()}"])
            return elapsed, None
        elapsed = time.perf_counter() - t0
        return elapsed, out

    def check(self, wl, out):
        if out is None:
            return {"rows": 0, "bytes": 0}
        problems, digest, stats = wl.check(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("outputs differ from the first pass of this run")
        if problems:
            self._failed([f"pass {self.attempted}: {p}" for p in problems])
        return stats

    def _failed(self, problems):
        self.failed += 1
        for p in problems:
            print(f"perfbench: FAILED {p}", file=sys.stderr)


def scaling_table(tw, params):
    """Median seconds of spectrum_table at each n_max in SCALING_N (untraced)."""
    out = {}
    for n in SCALING_N:
        times = []
        for _ in range(SCALING_REPEATS):
            t0 = time.perf_counter()
            tw.spectral.spectrum_table(params, n)
            times.append(time.perf_counter() - t0)
        out[f"spectral.table_s.n{n}"] = statistics.median(times)
    return out


def measure(name, seed, seconds, trace):
    """Run one workload in this process and return (result, report lines)."""
    import spans
    import workloads

    setup = [] if trace else setup_samples(name)
    tw = TwojcModules()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.make(name, tw, seed, tmp)
        ledger = Ledger()
        warm_s, out = ledger.run(wl)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ledger.check(wl, out)

        plain, traced, layer_runs = [], [], []
        deadline = time.monotonic() + seconds
        # stop when the next pass would more likely end past the deadline than before it
        while (not plain or (trace and not traced)
               or deadline - time.monotonic() > 0.5 * statistics.median(plain + traced)):
            if trace and len(traced) < len(plain):
                tracer = spans.Tracer(tw.by_name)
                elapsed, out = ledger.run(wl, tracer)
                stats = ledger.check(wl, out)
                layers = tracer.layer_metrics()
                layers["cli.rows_written"] = stats["rows"]
                layers["cli.bytes_written"] = stats["bytes"]
                traced.append(elapsed)
                layer_runs.append(layers)
            else:
                elapsed, out = ledger.run(wl)
                ledger.check(wl, out)
                plain.append(elapsed)
        facts = wl.facts()

    lo, hi = quartiles(plain)
    lines = [
        f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}",
        f"why      {WORKLOADS[name]}",
        f"env      {json.dumps(environment(tw), sort_keys=True)}",
        f"facts    {json.dumps(facts, sort_keys=True)}",
        f"passes   untraced {[round(t, 4) for t in plain]}"
        + (f" traced {[round(t, 4) for t in traced]}" if trace else ""),
        f"{'run_s':<28} {statistics.median(plain):>14.6g} s  (median of {len(plain)} "
        f"untraced passes, quartiles {lo:.4f}-{hi:.4f} s, first pass {warm_s:.4f} s)",
    ]
    if trace:
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in layer_runs[0]}
        metrics.update(scaling_table(tw, wl.model_params()))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics = {key: metrics[key] for key in PER_LAYER}
        lines.append(f"{'traced run_s':<28} {statistics.median(traced):>14.6g} s  "
                     f"(median of {len(traced)} traced passes)")
        for key, unit in PER_LAYER.items():
            note = "  (computed, not measured)" if unit == "bytes_computed" else ""
            lines.append(f"{key:<28} {metrics[key]:>14.6g} {unit}{note}")
        units = PER_LAYER
    else:
        slo, shi = quartiles(setup)
        metrics = {"run_s": statistics.median(plain),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        lines.append(f"{'setup_s':<28} {metrics['setup_s']:>14.6g} s  (median of "
                     f"{len(setup)} fresh interpreters, quartiles {slo:.4f}-{shi:.4f} s)")
        lines.append(f"{'peak_rss_mb':<28} {peak_rss_mb:>14.6g} MB (fresh process, "
                     f"one pass)")
        units = END_TO_END
    lines.append(f"{'fail_frac':<28} {ledger.failed / ledger.attempted:>14.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} passes failed their check)")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return result, lines


def environment(tw):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "twojc_import": "checkout src/ first on sys.path",
        "twojc_file": os.path.relpath(tw.package.__file__, ROOT),
        "blas_threads": SINGLE_THREAD["OPENBLAS_NUM_THREADS"],
    }


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT + args.seconds)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                fail(f"{name} --trace {trace} exited with {proc.returncode}")
            out = proc.stdout.strip().splitlines()
            print("\n".join(out[:-1]) + "\n", flush=True)
            res = json.loads(out[-1])
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "twojc", "__init__.py")):
        fail(f"no twojc sources under {SRC}; run from a twojc source checkout")
    if args.workload == "all":
        result = run_all(args)
    else:
        os.environ.update(SINGLE_THREAD)  # before numpy is imported
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
