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
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, dynamics, spectral, validation
from .config import CurveSpec, RunConfig, load_config, resolved_lines
from .errors import ConfigError, NumericalGuardError, TwojcError

# values formatted per kernel call: a table never exists as text in full, only
# one block of _CHUNK_ROWS // k of its lines of k values at a time
_CHUNK_ROWS = 1 << 12

# Husimi values of the q snapshots computed together, at most (or one grid):
# the memory a curve's snapshots hold does not grow with their number
_Q_VALUES = 1 << 20

# The "%.17g" kernel.  A value |v| = d0.d1...d16 * 10**e is scaled to the
# 17-digit integer N = round(|v| * 10**(16 - e)) in double-double arithmetic,
# N is cut into ASCII digits through a table of 4-digit words, and the digits
# are laid out as %g lays them: fixed for -4 <= e < 17, scientific otherwise,
# trailing zeros dropped.  A text is built in three uint64 words, read as its
# 24 bytes in (little-endian) memory order, with 0 bytes as padding that the
# writer drops.  The tables are filled in, not computed, so that building
# them at import runs no arithmetic loop that nothing else uses.
_FIELD = 24  # bytes of the longest text, "-1.2345678901234567e-308"
_E_MIN, _E_MAX = -291, 299  # exponents formatted here; other values but 0 go through `%`
_TIE = 1e-6  # values this close to a rounding tie also go through `%`
_U = np.uint64


def _digit_tables():
    """For each 4-digit group: its ASCII word, first digit lowest, and the
    count of its digits up to the last nonzero one (-16 for 0000)."""
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.arange(48, 58, dtype=np.uint8)
    for i in range(4):
        text[..., i] = digits.reshape([-1 if j == i else 1 for j in range(4)])
    significant = np.full((10, 10, 10, 10), 4, dtype=np.int64)
    significant[..., 0] = 3
    significant[..., 0, 0] = 2
    significant[:, 0, 0, 0] = 1
    significant[0, 0, 0, 0] = -16
    return text.view(np.uint32).reshape(10000), significant.reshape(10000)


def _layout_tables():
    """Per class of exponent (below -4, each of -4..16, above 16): the count
    of leading digits that stay before the point (none in 0.00d0...), the
    bit shift of the digits after them past the sign byte and the bytes put
    in (the point, or "0." and the zeros of 0.00d0...), those bytes, and the
    masks of the leading digits and of the rest; each byte mask as three
    words."""
    head, rest, put = np.zeros((3, 23, _FIELD), dtype=np.uint8)
    cut = np.zeros(23, dtype=np.int64)
    shift = np.zeros(23, dtype=_U)
    for c, e in enumerate(range(-5, 18)):
        fixed = -4 <= e < 17
        text = b"0." + b"0" * (-e - 1) if fixed and e < 0 else b"."
        cut[c] = max(e + 1, 0) if fixed else 1
        head[c, :cut[c]] = 0xff
        rest[c, cut[c]:] = 0xff
        put[c, cut[c] + 1:cut[c] + 1 + len(text)] = np.frombuffer(text, dtype=np.uint8)
        shift[c] = 8 * (1 + len(text))
    head, rest, put = (b.view(_U).T.copy() for b in (head, rest, put))
    return cut, shift, put, head, rest


def _suffix_table():
    """The scientific suffix "e+XX" of each exponent in [_E_MIN - 1, _E_MAX + 1],
    in the last word's five high bytes; 0 for the exponents written fixed."""
    suffix = np.zeros((_E_MAX - _E_MIN + 3, 8), dtype=np.uint8)
    negative = 1 - _E_MIN  # rows of the exponents below 0
    suffix[:, 4:] = _DIGITS.take(np.r_[negative:0:-1, :_E_MAX + 2]).view(np.uint8).reshape(-1, 4)
    suffix[:, 3] = ord("e")
    suffix[:, 4] = ord("+")
    suffix[:negative, 4] = ord("-")
    suffix[negative - 99:negative + 100, 5] = 0  # two exponent digits below 100
    suffix[negative - 4:negative + 17] = 0
    return suffix.view(_U).reshape(-1)


_DIGITS, _SIGNIFICANT = _digit_tables()
_CUT, _SHIFT, _PUT, _HEAD, _REST = _layout_tables()
_SUFFIX = _suffix_table()
_KEEP = np.array([(1 << (8 * n)) - 1 for n in range(9)], dtype=_U)  # the low n bytes


@functools.cache
def _powers():
    """10**s for s = 16 - e, e in [_E_MIN - 1, _E_MAX + 1], as (hh, hl, lo):
    hh + hl is 10**s correctly rounded, split in halves of at most 26
    significant bits, and lo is the rest, rounded.  Built on first use from
    Python ints."""
    hi, lo = [], []
    for s in range(15 - _E_MAX, 18 - _E_MIN):
        p, q = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)  # 10**s = p / q
        hi.append(p / q)
        num, den = hi[-1].as_integer_ratio()
        lo.append((p * den - num * q) / (q * den))
    hh = [math.ldexp(round(m * 2 ** 26), e - 26) for m, e in map(math.frexp, hi)]
    return np.array(hh), np.array(hi) - hh, np.array(lo)


def _scaled(a, e):
    """a * 10**(16 - e) as p + err: p the rounded product and err the rest,
    exact up to the rounding of a * lo (Dekker's product of a and hh + hl,
    each split in halves of at most 26 significant bits)."""
    i = _E_MAX + 1 - e
    hh, hl, lo = (t.take(i) for t in _powers())
    c = a * (2.0 ** 27 + 1)  # finite: a is below about 1e300
    ah = c - (c - a)
    al = a - ah
    p = a * (hh + hl)
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _significand(x):
    """(N, e, fallback): |v| rounded to N * 10**(e - 16) with 10**16 <= N < 10**17
    (1 * 10**0 for 0), and whether v must go through `%`."""
    a = np.abs(x)
    a[a == 0] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    fallback = (e < _E_MIN) | (e > _E_MAX)
    a[fallback], e[fallback] = 1.0, 0
    p, err = _scaled(a, e)
    # log10 may put e one off next to a power of ten
    low = (p < 1e16) | ((p == 1e16) & (err < 0))
    high = (p > 1e17) | ((p == 1e17) & (err >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        e[off] += high[off].astype(np.int64) - low[off]
        p[off], err[off] = _scaled(a[off], e[off])
    whole = np.floor(err)
    err -= whole
    fallback |= np.abs(err - 0.5) <= _TIE
    n = p.astype(np.int64)
    n += whole.astype(np.int64)
    n += err > 0.5
    carry = n == 10 ** 17  # rounded up to the next power of ten
    n[carry] = 10 ** 16
    e += carry
    return n, e, fallback


def _fields(x):
    """The text of "%.17g" % v for each v of the finite float64 array x, as
    the rows of an (n, _FIELD) uint8 array padded with 0 bytes; -0.0 reads 0."""
    n, e, fallback = _significand(x)
    # d0, then the digits d1..d16 in four groups of four
    d0 = n // 10 ** 16
    n -= d0 * 10 ** 16
    g12 = n // 10 ** 8
    g34 = n - g12 * 10 ** 8
    g1, g3 = g12 // 10 ** 4, g34 // 10 ** 4
    groups = g1, g12 - g1 * 10 ** 4, g3, g34 - g3 * 10 ** 4
    tail = _SIGNIFICANT.take(groups[0])  # d1..d16 up to the last nonzero one
    for i in (1, 2, 3):
        np.maximum(tail, _SIGNIFICANT.take(groups[i]) + 4 * i, out=tail)
    np.maximum(tail, 0, out=tail)
    words = [_DIGITS.take(g).astype(_U) for g in groups]
    lw = (words[0] | words[1] << _U(32)) & _KEEP.take(np.minimum(tail, 8))
    hw = (words[2] | words[3] << _U(32)) & _KEEP.take(np.maximum(tail - 8, 0))
    # d0..d16 as bytes 0..16; those before the cut move one byte right, for
    # the sign, with an integer part's trailing zeros put back, and the rest
    # move on past the bytes put in
    w = (d0.astype(_U) + _U(48) | lw << _U(8), lw >> _U(56) | hw << _U(8), hw >> _U(56))
    c = np.clip(e, -5, 17) + 5
    shift = _SHIFT.take(c)
    back = _U(64) - shift
    point = tail + 1 > _CUT.take(c)  # digits follow the cut, so the bytes go in
    out = np.empty((x.size, 3), dtype=_U)
    spill = 0
    for i in range(3):
        head = (w[i] | _U(0x3030303030303030)) & _HEAD[i].take(c)
        rest = w[i] & _REST[i].take(c)
        out[:, i] = head << _U(8) | rest << shift | _PUT[i].take(c) * point | spill
        spill = head >> _U(56) | rest >> back
    out[:, 0] |= (x < 0) * _U(ord("-"))
    out[:, 2] |= _SUFFIX.take(e - (_E_MIN - 1))
    text = out.view(np.uint8)
    zero = x == 0
    text[zero] = 0
    text[zero, 1] = ord("0")
    for i in np.flatnonzero(fallback & ~zero).tolist():
        text[i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(_FIELD, b"\0"), np.uint8)
    return text


def _text(values):
    """The "%.17g" text of each finite value as the rows of a uint8 array,
    padded with 0 bytes and without the byte columns no text uses."""
    values = np.asarray(values, dtype=float).ravel()
    text = np.empty((values.size, _FIELD), dtype=np.uint8)
    for lo in range(0, values.size, _CHUNK_ROWS):
        text[lo:lo + _CHUNK_ROWS] = _fields(values[lo:lo + _CHUNK_ROWS])
    return text[:, text.any(axis=0)]


class _Table:
    """A CSV table written to an open binary file: the header when made, then
    lines block by block (`rows`); `sha256` is the digest of every byte
    written, and `name` the file name that a guard trip reports."""

    def __init__(self, fh, name, header_lines, columns):
        self._fh = fh
        self.name = name
        self._digest = hashlib.sha256()
        self._put(("".join(f"# {line}\n" for line in header_lines)
                   + ",".join(columns) + "\n").encode())

    def _put(self, data):
        self._fh.write(data)
        self._digest.update(data)

    @property
    def sha256(self):
        return self._digest.hexdigest()

    def rows(self, values, lead=()):
        """Append the lines of `values`, (rows, k) or (rows, cols, k): a line
        per row, or per entry (i, j) with j running fastest, ends with the k
        values along the last axis.  Each array of `lead`, `_text` rows
        broadcast against (rows, cols), gives a leading field of each line.
        A NaN or Inf in `values` trips the guard before any of them is
        written."""
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise NumericalGuardError(f"{self.name}: non-finite values computed; not written")
        k = values.shape[-1]
        values = values.reshape(len(values), -1, k)
        rows, cols = values.shape[:2]
        lead = [np.broadcast_to(f, (rows, cols, f.shape[-1])) for f in lead]
        per_block = max(_CHUNK_ROWS // k, 1)
        # whole rows of `values` per block, or pieces of one row wider than a block
        step_r, step_c = max(per_block // cols, 1), min(cols, per_block)
        width = sum(f.shape[-1] + 1 for f in lead) + k * (_FIELD + 1)
        buf = bytearray(step_r * step_c * width)
        lines = np.frombuffer(buf, dtype=np.uint8).reshape(-1, width)
        ends = np.cumsum([f.shape[-1] + 1 for f in lead] + [_FIELD + 1] * k) - 1
        lines[:, ends] = ord(",")
        lines[:, -1] = ord("\n")
        for i in range(0, rows, step_r):
            for j in range(0, cols, step_c):
                block = values[i:i + step_r, j:j + step_c]
                size = block.shape[0] * block.shape[1]
                view = lines[:size].reshape(block.shape[:2] + (width,))
                at = 0
                for f in lead:
                    w = f.shape[-1]
                    view[:, :, at:at + w] = f[i:i + step_r, j:j + step_c]
                    at += w + 1
                cells = lines[:size, at:].reshape(size, k, _FIELD + 1)
                cells[:, :, :_FIELD] = _fields(block.ravel()).reshape(size, k, _FIELD)
                self._put((buf if size == len(lines) else buf[:size * width]).translate(None, b"\0"))


_SERIES_UNITS = {
    "inversion": "mean of (sigma_z1 + sigma_z2)/2, dimensionless",
    "purity": "Tr(rho_A^2), dimensionless",
    "concurrence": "two-qubit concurrence, dimensionless",
    "entropy": "von Neumann entropy, nats",
}


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


def _curve_outputs(cfg: RunConfig, curve: CurveSpec, stage):
    """Compute and write every requested file for one curve, each under the
    name `stage` gives it; return their manifest entries, in the order the
    tables were opened."""
    params = curve.params
    field = dynamics.coherent_field(curve.mean_n, phase=curve.phase,
                                    n_max=curve.n_max,
                                    atom_init=curve.atom_init)
    spectra = spectral.spectrum_table(params, curve.n_max)
    header = resolved_lines(cfg, curve)
    tables = []

    @contextlib.contextmanager
    def table(suffix, notes, columns):
        name = f"{cfg.prefix}_{curve.label}_{suffix}.csv"
        with open(stage(os.path.join(cfg.out_dir, name)), "wb") as fh:
            tables.append(_Table(fh, name, header + notes, columns))
            yield tables[-1]

    series_wanted = [o for o in cfg.observables if o in dynamics.SERIES_OBSERVABLES]
    if series_wanted:
        # the series tables are open together and take each window of the
        # series as it comes, with its tau column (tau = g t)
        with contextlib.ExitStack() as open_tables:
            series = {o: open_tables.enter_context(table(
                o, ["tau column: dimensionless time g*t", f"{o} column: {_SERIES_UNITS[o]}"],
                ["tau", o])) for o in series_wanted}
            for part, values in dynamics.series_windows(
                    field, spectra, cfg.times_tau, series_wanted, params.g):
                tau_text = _text(cfg.times_tau[part])[:, None]
                for o, written in series.items():
                    written.rows(values[o][:, None], (tau_text,))

    if "qfunction" in cfg.observables:
        re_axis, im_axis = cfg.q_grid.axes()
        taus = cfg.q_grid.times_tau
        # the snapshots of a group share one husimi_grid call
        group = max(1, _Q_VALUES // (len(re_axis) * len(im_axis)))
        axes = None  # their text, once the first grid's window guard has read them
        for first in range(0, len(taus), group):
            grids = dynamics.husimi_grid(dynamics.reduced_field_density(
                field, spectra, np.array(taus[first:first + group]) / params.g),
                re_axis, im_axis)
            axes = axes or (_text(re_axis)[None], _text(im_axis)[:, None])
            for idx, values in enumerate(grids.values, first):
                with table(f"qfunction_{idx}",
                           [f"tau = {taus[idx]!r} (dimensionless g*t)",
                            "re, im: coherent amplitude alpha = re + i*im (dimensionless)",
                            "q: Husimi density, 1/area in phase space"],
                           ["re", "im", "q"]) as written:
                    written.rows(values[:, :, None], axes)

    if "spectrum-dump" in cfg.observables:
        columns = np.column_stack([spectra.n, spectra.energies,
                                   *_derived_columns(spectra, params.g)])
        with table("spectrum",
                   ["E*: block eigenvalues, rad/time; *_over_g: same in units of g",
                    "omega*: eigenvalue differences (21, 31, 23), rad/time",
                    "lam*: inversion weighting amplitudes, dimensionless"],
                   ["n", "E1", "E2", "E3", "E1_over_g", "E2_over_g", "E3_over_g",
                    "omega21", "omega31", "omega23",
                    "lam11", "lam22", "lam33", "lam21", "lam31", "lam23"]) as written:
            written.rows(columns)
    return [{"path": t.name, "sha256": t.sha256} for t in tables]


@contextlib.contextmanager
def _staged(what, made=()):
    """Yield `stage(final)`, which names the temporary file to write in place
    of `final`.  Every staged file takes its final name, in the order staged,
    only once the block has ended normally; if it raises, no staged file is
    left, nor any directory of `made` (deepest first) that is still empty.
    A final name held by a directory is refused when staged and again before
    any rename.  An OSError leaves as a ConfigError naming `what` and the
    final name."""
    finals = {}  # temporary name -> final name, in the order staged

    def refuse_directory(final):
        if os.path.isdir(final):  # a rename onto it would fail
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), final)

    def stage(final):
        refuse_directory(final)
        finals[final + ".partial"] = final
        return final + ".partial"

    try:
        yield stage
        for final in finals.values():
            refuse_directory(final)
        for temporary, final in finals.items():
            os.replace(temporary, final)
    except BaseException as exc:
        for temporary in finals:
            with contextlib.suppress(OSError):  # not yet written, or already renamed
                os.remove(temporary)
        for directory in made:
            with contextlib.suppress(OSError):  # not empty, or never made
                os.rmdir(directory)
        if isinstance(exc, OSError):  # the only OS calls in a block are its writes
            path = exc.filename2 or exc.filename  # a rename names its target second
            raise ConfigError(f"{what}: {finals.get(path, path)!r}: {exc.strerror}") from exc
        raise


def run_config(cfg: RunConfig) -> dict:
    """Write every table of a config and its manifest; return the manifest.

    Tables and manifest are staged (`_staged`), the manifest last, so a run
    that fails leaves no file of its own in the output directory, the files
    of an earlier run there as they were, and no directory it created."""
    created = []  # the output directory and its ancestors that were missing, deepest first
    missing = cfg.out_dir
    while missing and not os.path.lexists(missing):
        created.append(missing)
        missing = os.path.dirname(missing)
    with _staged("config.output.dir", created) as stage:
        os.makedirs(cfg.out_dir, exist_ok=True)
        files = []
        for curve in cfg.curves:
            files.extend(_curve_outputs(cfg, curve, stage))
        manifest = {
            "tool": {"name": "twojc", "version": __version__},
            "config": cfg.raw,
            "files": files,
        }
        manifest_path = os.path.join(cfg.out_dir, f"{cfg.prefix}_manifest.json")
        with open(stage(manifest_path), "w", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return manifest


def _cmd_run(args):
    cfg = load_config(args.config)
    manifest = run_config(cfg)
    print(f"wrote {len(manifest['files'])} files + manifest to {cfg.out_dir}/")
    return 0


def _cmd_validate(args):
    """The report is staged (`_staged`) and opened before the checks run, so
    a bad path costs no run and a failed run leaves an earlier report at the
    path as it was."""
    with _staged("--report") as stage, \
            (open(stage(args.report), "w") if args.report else contextlib.nullcontext()) as fh:
        report = validation.run_level(args.level)
        text = json.dumps(report, indent=2, sort_keys=True)
        if fh:
            fh.write(text + "\n")
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
