"""Command-line front end.

Subcommands:
  run <config.json>             write figure-ready CSV tables + a manifest
  validate --level fast|full    run the identity / cross-check suites
  dump-spectrum --n K <config>  print one block's eigensystem as JSON

Exit codes: 0 success, 1 validation failure, 2 config error,
3 numerical guard tripped.  Reruns of the same config produce
byte-identical outputs.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, dynamics, spectral, validation
from .config import CurveSpec, RunConfig, load_config, resolved_lines
from .errors import ConfigError, NumericalGuardError, TwojcError

_FMT = "%.17g"


def _fmt(x) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0 for byte-stable output
    return _FMT % v


def _write_csv(path, header_lines, columns, rows):
    """Write a table; a NaN or Inf anywhere trips the guard and nothing is written."""
    rows = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise NumericalGuardError(
            f"{os.path.basename(path)}: non-finite values computed; not written")
    with open(path, "w", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows.tolist():
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _series_units(name):
    return {
        "inversion": "mean of (sigma_z1 + sigma_z2)/2, dimensionless",
        "purity": "Tr(rho_A^2), dimensionless",
        "concurrence": "two-qubit concurrence, dimensionless",
        "entropy": "von Neumann entropy, nats",
    }[name]


def _curve_outputs(cfg: RunConfig, curve: CurveSpec, out_dir: str):
    """Compute and write every requested file for one curve."""
    params = curve.params
    field = dynamics.coherent_field(curve.mean_n, phase=curve.phase,
                                    n_max=curve.n_max,
                                    atom_init=curve.atom_init)
    spectra = spectral.spectrum_table(params, curve.n_max)
    times = cfg.times_tau / params.g  # tau = g t
    header = resolved_lines(cfg, curve)
    written = []

    series_wanted = [o for o in cfg.observables if o in dynamics.SERIES_OBSERVABLES]
    if series_wanted:
        series = dynamics.observable_series(field, spectra, times, series_wanted)
        for name in series_wanted:
            path = os.path.join(out_dir, f"{cfg.prefix}_{curve.label}_{name}.csv")
            lines = header + [
                "tau column: dimensionless time g*t",
                f"{name} column: {_series_units(name)}",
            ]
            rows = np.column_stack([cfg.times_tau, series[name]])
            _write_csv(path, lines, ["tau", name], rows)
            written.append(path)

    if "qfunction" in cfg.observables:
        re_axis, im_axis = cfg.q_grid.axes()
        for idx, tau in enumerate(cfg.q_grid.times_tau):
            rho_f = dynamics.reduced_field_density(field, spectra, tau / params.g)
            grid = dynamics.husimi_grid(rho_f, re_axis, im_axis)
            path = os.path.join(out_dir,
                                f"{cfg.prefix}_{curve.label}_qfunction_{idx}.csv")
            lines = header + [
                f"tau = {tau!r} (dimensionless g*t)",
                "re, im: coherent amplitude alpha = re + i*im (dimensionless)",
                "q: Husimi density, 1/area in phase space",
            ]
            re_grid, im_grid = np.meshgrid(re_axis, im_axis)
            rows = np.column_stack([re_grid.ravel(), im_grid.ravel(),
                                    grid.values.ravel()])
            _write_csv(path, lines, ["re", "im", "q"], rows)
            written.append(path)

    if "spectrum-dump" in cfg.observables:
        path = os.path.join(out_dir, f"{cfg.prefix}_{curve.label}_spectrum.csv")
        lines = header + [
            "E*: block eigenvalues, rad/time; *_over_g: same in units of g",
            "omega*: eigenvalue differences (21, 31, 23), rad/time",
            "lam*: inversion weighting amplitudes, dimensionless",
        ]
        cols = (["n", "E1", "E2", "E3", "E1_over_g", "E2_over_g", "E3_over_g",
                 "omega21", "omega31", "omega23",
                 "lam11", "lam22", "lam33", "lam21", "lam31", "lam23"])
        rows = []
        for s in spectra:
            e = s.energies
            rows.append([s.n, *e, *(e / params.g), *s.rabi, *s.lam_diag, *s.lam_off])
        _write_csv(path, lines, cols, rows)
        written.append(path)
    return written


def run_config(cfg: RunConfig) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    files = []
    for curve in cfg.curves:
        files.extend(_curve_outputs(cfg, curve, cfg.out_dir))
    manifest = {
        "tool": {"name": "twojc", "version": __version__},
        "config": cfg.raw,
        "files": [{"path": os.path.basename(p), "sha256": _sha256(p)}
                  for p in files],
    }
    manifest_path = os.path.join(cfg.out_dir, f"{cfg.prefix}_manifest.json")
    with open(manifest_path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _cmd_run(args):
    cfg = load_config(args.config)
    manifest = run_config(cfg)
    print(f"wrote {len(manifest['files'])} files + manifest to {cfg.out_dir}/")
    return 0


def _cmd_validate(args):
    report = validation.run_level(args.level)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def _cmd_dump_spectrum(args):
    cfg = load_config(args.config)
    curve = cfg.curves[0]
    if args.n < 0 or args.n > curve.n_max:
        raise ConfigError(f"--n must be in [0, {curve.n_max}]")
    s = spectral.block_spectrum(curve.params, args.n)
    doc = {
        "n": s.n,
        "energies_rad_per_time": list(s.energies),
        "energies_over_g": list(s.energies / curve.params.g),
        "coeff_rows": [list(row) for row in s.coeffs],
        "rabi_21_31_23": list(s.rabi),
        "lam_diag_11_22_33": list(s.lam_diag),
        "lam_off_21_31_23": list(s.lam_off),
        "used_numeric_fallback": s.used_fallback,
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="twojc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config and emit data tables")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="run the validation suites")
    p_val.add_argument("--level", choices=("fast", "full"), default="fast")
    p_val.add_argument("--report", help="also write the JSON report here")
    p_val.set_defaults(func=_cmd_validate)

    p_dump = sub.add_parser("dump-spectrum", help="print one block eigensystem")
    p_dump.add_argument("--n", type=int, required=True)
    p_dump.add_argument("config")
    p_dump.set_defaults(func=_cmd_dump_spectrum)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3
    except TwojcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
