"""Command-line front end.

Subcommands:
  run <config.json>             write figure-ready CSV tables + a manifest
  validate --level fast|full    run the identity / cross-check suites
  dump-spectrum --n K <config>  print one block's eigensystem of the config's
                                first curve as JSON

Exit codes: 0 success, 1 validation failure, 2 config error (an
unwritable output path included), 3 numerical guard tripped.  Reruns
of the same config produce byte-identical outputs.
"""

import argparse
import contextlib
import errno
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, dynamics, spectral, validation
from .config import CurveSpec, RunConfig, load_config, resolved_lines
from .errors import ConfigError, NumericalGuardError, TwojcError

_FMT = "%.17g"
# table rows formatted per `%` call: a table never exists as Python objects
# in full, only this many rows of it at a time
_CHUNK_ROWS = 1 << 12


def _finite(path, *arrays):
    """The arrays as floats plus 0.0 (-0.0 becomes 0.0, for byte-stable output).

    A NaN or Inf in any of them trips the guard, before anything is written."""
    arrays = [np.asarray(a, dtype=float) + 0.0 for a in arrays]
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericalGuardError(
            f"{os.path.basename(path)}: non-finite values computed; not written")
    return arrays


def _write_blocks(path, header_lines, columns, blocks):
    """Write the header, then each text block of a table; return the sha256
    of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text):
            data = text.encode()
            fh.write(data)
            digest.update(data)

        put("".join(f"# {line}\n" for line in header_lines) + ",".join(columns) + "\n")
        for text in blocks:
            put(text)
    return digest.hexdigest()


def _write_csv(path, header_lines, columns, rows):
    """Write a table and return the sha256 of the bytes written.

    A NaN or Inf anywhere trips the guard and nothing is written."""
    rows, = _finite(path, rows)
    row_fmt = ",".join([_FMT] * len(columns)) + "\n"

    def blocks():
        for lo in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[lo:lo + _CHUNK_ROWS]
            yield (row_fmt * len(chunk)) % tuple(chunk.ravel().tolist())

    return _write_blocks(path, header_lines, columns, blocks())


def _write_q_csv(path, header_lines, re_axis, im_axis, q):
    """Write the rows (re, im, q) of a grid q[i, j] at (im_axis[i], re_axis[j]),
    re running fastest; return the sha256 of the bytes written.

    The same bytes as _write_csv with the three columns, but each axis value
    is formatted once and a block's "re,im," prefixes go into its `%`
    template, so only q is formatted per row.  A NaN or Inf anywhere trips
    the guard and nothing is written."""
    re_axis, im_axis, q = _finite(path, re_axis, im_axis, q)
    re_text = [_FMT % v for v in re_axis.tolist()]
    im_text = [_FMT % v for v in im_axis.tolist()]
    width, values = len(re_text), q.ravel()
    # whole grid rows per block, or pieces of one row wider than _CHUNK_ROWS
    step = _CHUNK_ROWS if width > _CHUNK_ROWS else width * (_CHUNK_ROWS // width)

    def blocks():
        for lo in range(0, values.size, step):
            hi = min(lo + step, values.size)
            parts = []
            for i in range(lo // width, (hi - 1) // width + 1):
                tail = f",{im_text[i]},{_FMT}\n"
                parts += [tail.join(re_text[max(lo - i * width, 0):hi - i * width]), tail]
            yield "".join(parts) % tuple(values[lo:hi].tolist())

    return _write_blocks(path, header_lines, ["re", "im", "q"], blocks())


def _series_units(name):
    return {
        "inversion": "mean of (sigma_z1 + sigma_z2)/2, dimensionless",
        "purity": "Tr(rho_A^2), dimensionless",
        "concurrence": "two-qubit concurrence, dimensionless",
        "entropy": "von Neumann entropy, nats",
    }[name]


def _derived_columns(spectra, g):
    """E/g, the frequencies (21, 31, 23) and the weighting amplitudes
    (11, 22, 33) and (21, 31, 23) of a spectrum table or one of its rows.

    An entry beyond double range trips the numerical guard, which names
    the first block holding one."""
    with np.errstate(over="ignore", invalid="ignore"):
        columns = (spectra.energies / g, spectral.rabi_frequencies(spectra.energies),
                   *spectral.weighting_amplitudes(spectra.coeffs))
    bad = ~np.all([np.isfinite(c).all(axis=-1) for c in columns], axis=0)
    if np.any(bad):
        raise NumericalGuardError(
            f"block n = {int(np.asarray(spectra.n)[bad].flat[0])}: energies over g, "
            "frequencies or weighting amplitudes beyond double range")
    return columns


def _curve_outputs(cfg: RunConfig, curve: CurveSpec, staged: list):
    """Compute and write every requested file for one curve; return their
    manifest entries.

    Each table goes under a temporary name in the output directory, and
    its (temporary, final) path pair is added to `staged` before it is
    written."""
    params = curve.params
    field = dynamics.coherent_field(curve.mean_n, phase=curve.phase,
                                    n_max=curve.n_max,
                                    atom_init=curve.atom_init)
    spectra = spectral.spectrum_table(params, curve.n_max)
    times = cfg.times_tau / params.g  # tau = g t
    header = resolved_lines(cfg, curve)
    files = []

    def emit(suffix, write, notes, *table):
        name = f"{cfg.prefix}_{curve.label}_{suffix}.csv"
        final = os.path.join(cfg.out_dir, name)
        temporary = final + ".partial"
        staged.append((temporary, final))
        files.append({"path": name, "sha256": write(temporary, header + notes, *table)})

    series_wanted = [o for o in cfg.observables if o in dynamics.SERIES_OBSERVABLES]
    if series_wanted:
        series = dynamics.observable_series(field, spectra, times, series_wanted)
        for name in series_wanted:
            emit(name, _write_csv,
                 ["tau column: dimensionless time g*t",
                  f"{name} column: {_series_units(name)}"],
                 ["tau", name], np.column_stack([cfg.times_tau, series[name]]))

    if "qfunction" in cfg.observables:
        re_axis, im_axis = cfg.q_grid.axes()
        for idx, tau in enumerate(cfg.q_grid.times_tau):
            rho_f = dynamics.reduced_field_density(field, spectra, tau / params.g)
            grid = dynamics.husimi_grid(rho_f, re_axis, im_axis)
            emit(f"qfunction_{idx}", _write_q_csv,
                 [f"tau = {tau!r} (dimensionless g*t)",
                  "re, im: coherent amplitude alpha = re + i*im (dimensionless)",
                  "q: Husimi density, 1/area in phase space"],
                 re_axis, im_axis, grid.values)

    if "spectrum-dump" in cfg.observables:
        emit("spectrum", _write_csv,
             ["E*: block eigenvalues, rad/time; *_over_g: same in units of g",
              "omega*: eigenvalue differences (21, 31, 23), rad/time",
              "lam*: inversion weighting amplitudes, dimensionless"],
             ["n", "E1", "E2", "E3", "E1_over_g", "E2_over_g", "E3_over_g",
              "omega21", "omega31", "omega23",
              "lam11", "lam22", "lam33", "lam21", "lam31", "lam23"],
             np.column_stack([spectra.n, spectra.energies,
                              *_derived_columns(spectra, params.g)]))
    return files


def run_config(cfg: RunConfig) -> dict:
    """Write every table of a config, then its manifest; return the manifest.

    Tables take their names only once every curve is computed, so a run
    that fails leaves no table of its own in the output directory, and
    the files of an earlier run there as they were.  A failed run also
    removes the directories it created, if they are still empty."""
    staged = []  # (temporary, final) path of each table written so far
    created = []  # the output directory and its ancestors that were missing, deepest first
    missing = cfg.out_dir
    while missing and not os.path.lexists(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        files = []
        for curve in cfg.curves:
            files.extend(_curve_outputs(cfg, curve, staged))
        # a rename onto a directory fails, so look for one before renaming any
        taken = [final for _, final in staged if os.path.isdir(final)]
        if taken:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), taken[0])
        for temporary, final in staged:
            os.replace(temporary, final)
        staged.clear()
        manifest = {
            "tool": {"name": "twojc", "version": __version__},
            "config": cfg.raw,
            "files": files,
        }
        manifest_path = os.path.join(cfg.out_dir, f"{cfg.prefix}_manifest.json")
        with open(manifest_path, "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException as exc:
        for temporary, _ in staged:
            with contextlib.suppress(OSError):  # not yet written, or already renamed
                os.remove(temporary)
        for directory in created:
            with contextlib.suppress(OSError):  # not empty, or never made
                os.rmdir(directory)
        if isinstance(exc, OSError):  # the only OS calls here are the output writes
            path = exc.filename2 or exc.filename  # a rename names its target second
            raise ConfigError(f"config.output.dir: {path!r}: {exc.strerror}") from exc
        raise
    return manifest


def _cmd_run(args):
    cfg = load_config(args.config)
    manifest = run_config(cfg)
    print(f"wrote {len(manifest['files'])} files + manifest to {cfg.out_dir}/")
    return 0


def _cmd_validate(args):
    try:  # opened before the checks run, so a bad path costs no run
        report_file = open(args.report, "w") if args.report else None
    except OSError as exc:
        raise ConfigError(f"--report {args.report!r}: {exc.strerror}") from exc
    report = validation.run_level(args.level)
    text = json.dumps(report, indent=2, sort_keys=True)
    if report_file:
        with report_file:
            report_file.write(text + "\n")
    print(text)
    return 0 if report["passed"] else 1


def _cmd_dump_spectrum(args):
    cfg = load_config(args.config)
    curve = cfg.curves[0]
    if args.n < 0 or args.n > curve.n_max:
        raise ConfigError(f"--n must be in [0, {curve.n_max}]")
    s = spectral.block_spectrum(curve.params, args.n)
    energies_over_g, rabi, lam_diag, lam_off = _derived_columns(s, curve.params.g)
    doc = {
        "n": int(s.n),
        "energies_rad_per_time": s.energies.tolist(),
        "energies_over_g": energies_over_g.tolist(),
        "coeff_rows": s.coeffs.tolist(),
        "rabi_21_31_23": rabi.tolist(),
        "lam_diag_11_22_33": lam_diag.tolist(),
        "lam_off_21_31_23": lam_off.tolist(),
        "used_numeric_fallback": bool(s.used_fallback),
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

    dump_help = "print one block eigensystem of the config's first curve"
    p_dump = sub.add_parser("dump-spectrum", help=dump_help, description=dump_help)
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
