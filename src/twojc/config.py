"""Run configuration: JSON schema, validation, and resolution.

Configs are plain JSON.  Every key is checked against the schema and
unknown keys are hard errors (with the offending path in the message),
so typos never silently change a run.  Times in configs are always the
dimensionless tau = g t; conversion to absolute time happens at the
edge, right before the dynamics layer is called.
"""

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .dynamics import AtomInit, auto_n_max, corner_alpha_sq, window_n_max
from .errors import ConfigError, TwojcError
from .model import (FKind, HKind, ModelParams, NonlinearitySelector)

OBSERVABLES = ("inversion", "purity", "concurrence", "entropy",
               "qfunction", "spectrum-dump")

_H_KINDS = {"standard": HKind.STANDARD, "kerr": HKind.KERR, "custom": HKind.CUSTOM}
_F_KINDS = {"linear": FKind.LINEAR, "buck_sukumar": FKind.BUCK_SUKUMAR,
            "custom": FKind.CUSTOM}
_ATOM_INITS = {"both_excited": AtomInit.BOTH_EXCITED, "symmetric": AtomInit.SYMMETRIC}

# largest time_grid.count, q_grid.re_count/im_count, their product and n_max
# (also an "auto" one): every count sizes an array, so a bigger one is a
# config error rather than an allocation failure at run time
MAX_COUNT = 10 ** 6

_MODEL_KEYS = {"omega0", "omega", "g", "kappa", "J", "chi", "delta",
               "h_kind", "f_kind", "h_table", "f_table"}
_FIELD_KEYS = {"mean_n", "phase", "n_max"}
_TIME_KEYS = {"start", "stop", "count"}
_QGRID_KEYS = {"re_min", "re_max", "re_count", "im_min", "im_max", "im_count",
               "times"}
_CURVE_KEYS = {"label", "model", "field", "atom_init"}
_OUTPUT_KEYS = {"dir", "prefix"}
_TOP_KEYS = {"model", "field", "atom_init", "time_grid", "observables",
             "q_grid", "curves", "output"}


def _check_keys(obj, allowed, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")


def _finite(val, where):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {val!r}")
    try:
        num = float(val)
    except OverflowError:  # an integer literal beyond double range
        num = math.inf
    if not math.isfinite(num):
        raise ConfigError(f"{where}: expected a finite number, got {val!r}")
    return num


def _number(obj, key, path, default=None, required=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    return _finite(obj[key], f"{path}.{key}")


def _mean_n(obj, path, default=None):
    val = _number(obj, "mean_n", path, default=default, required=default is None)
    if val < 0.0:
        raise ConfigError(f"{path}.mean_n: must be nonnegative, got {val!r}")
    return val


def _numbers(obj, key, path):
    """A list of finite numbers as a tuple, or None when the key is absent."""
    if key not in obj:
        return None
    val = obj[key]
    if not isinstance(val, list):
        raise ConfigError(f"{path}.{key}: expected a list of numbers, got {val!r}")
    return tuple(_finite(v, f"{path}.{key}[{i}]") for i, v in enumerate(val))


def _count(obj, key, path, default=None):
    val = obj.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int) or not 1 <= val <= MAX_COUNT:
        raise ConfigError(f"{path}.{key}: expected an integer in [1, {MAX_COUNT}], "
                          f"got {val!r}")
    return val


def _choice(val, choices, where):
    if not isinstance(val, str) or val not in choices:
        raise ConfigError(f"{where}: expected one of {sorted(choices)}, got {val!r}")
    return choices[val]


# output file names are "<prefix>_<label>_<observable>.csv" inside output.dir
_NAME_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


def _file_name_part(val, path):
    if isinstance(val, int) and not isinstance(val, bool):
        val = str(val)
    if not isinstance(val, str) or not _NAME_PATTERN.fullmatch(val):
        raise ConfigError(f"{path}: expected a non-empty name of letters, digits, "
                          f"'.', '_' or '-', got {val!r}")
    return val


@dataclass(frozen=True)
class QGridSpec:
    re_min: float
    re_max: float
    re_count: int
    im_min: float
    im_max: float
    im_count: int
    times_tau: tuple

    def axes(self):
        return (np.linspace(self.re_min, self.re_max, self.re_count),
                np.linspace(self.im_min, self.im_max, self.im_count))


@dataclass(frozen=True)
class CurveSpec:
    label: str
    params: ModelParams
    mean_n: float
    phase: float
    n_max: int
    atom_init: AtomInit


@dataclass(frozen=True)
class RunConfig:
    curves: tuple
    times_tau: np.ndarray
    observables: tuple
    q_grid: QGridSpec
    out_dir: str
    prefix: str
    raw: dict = field(repr=False, default=None)


def _parse_selector(spec, kind_map, table, path, default):
    if spec is None:
        return default
    kind = _choice(spec, kind_map, path)
    if kind in (HKind.CUSTOM, FKind.CUSTOM):
        if not table:
            raise ConfigError(f"{path}: custom kind needs a non-empty value table")
        return NonlinearitySelector(kind, table)
    return NonlinearitySelector(kind)


def _parse_model(obj, path):
    _check_keys(obj, _MODEL_KEYS, path)
    kwargs = dict(
        omega0=_number(obj, "omega0", path, required=True),
        g=_number(obj, "g", path, required=True),
        kappa=_number(obj, "kappa", path, default=0.0),
        J_ising=_number(obj, "J", path, default=0.0),
        chi=_number(obj, "chi", path, default=0.0),
        omega=_number(obj, "omega", path),
        delta=_number(obj, "delta", path),
        h_kind=_parse_selector(obj.get("h_kind"), _H_KINDS,
                               _numbers(obj, "h_table", path), f"{path}.h_kind",
                               NonlinearitySelector(HKind.STANDARD)),
        f_kind=_parse_selector(obj.get("f_kind"), _F_KINDS,
                               _numbers(obj, "f_table", path), f"{path}.f_kind",
                               NonlinearitySelector(FKind.LINEAR)),
    )
    return kwargs


def _merge_model(base_raw, override_raw, path):
    """Raw-dict merge: override keys replace base keys, then parse once."""
    _check_keys(override_raw, _MODEL_KEYS, path)
    merged = dict(base_raw)
    merged.update(override_raw)
    return _parse_model(merged, path)


def parse_config(doc: dict) -> RunConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    for key in ("model", "field", "time_grid", "observables"):
        if key not in doc:
            raise ConfigError(f"config.{key}: required")

    obs = doc["observables"]
    if not isinstance(obs, list) or not obs:
        raise ConfigError("config.observables: must be a non-empty list")
    for o in obs:
        if o not in OBSERVABLES:
            raise ConfigError(
                f"config.observables: {o!r} not in {sorted(OBSERVABLES)}")
    if len(set(obs)) != len(obs):
        raise ConfigError("config.observables: entries must be unique")

    tg = doc["time_grid"]
    _check_keys(tg, _TIME_KEYS, "config.time_grid")
    start = _number(tg, "start", "config.time_grid", required=True)
    stop = _number(tg, "stop", "config.time_grid", required=True)
    count = _count(tg, "count", "config.time_grid")
    if count > 1 and stop <= start:
        raise ConfigError("config.time_grid: stop must exceed start")
    if not math.isfinite(stop - start):
        raise ConfigError("config.time_grid: stop - start is not a finite number")
    times_tau = np.linspace(start, stop, count)

    qg = doc.get("q_grid", {})
    _check_keys(qg, _QGRID_KEYS, "config.q_grid")
    q_grid = QGridSpec(
        re_min=_number(qg, "re_min", "config.q_grid", default=-6.0),
        re_max=_number(qg, "re_max", "config.q_grid", default=6.0),
        re_count=_count(qg, "re_count", "config.q_grid", default=241),
        im_min=_number(qg, "im_min", "config.q_grid", default=-6.0),
        im_max=_number(qg, "im_max", "config.q_grid", default=6.0),
        im_count=_count(qg, "im_count", "config.q_grid", default=241),
        times_tau=_numbers(qg, "times", "config.q_grid") or ())
    points = q_grid.re_count * q_grid.im_count
    if points > MAX_COUNT:
        raise ConfigError(f"config.q_grid: re_count * im_count = {points} "
                          f"is above {MAX_COUNT}")
    if "qfunction" in obs and not q_grid.times_tau:
        raise ConfigError("config.q_grid.times: required when qfunction is requested")

    fld = doc["field"]
    _check_keys(fld, _FIELD_KEYS, "config.field")
    mean_n = _mean_n(fld, "config.field")
    phase = _number(fld, "phase", "config.field", default=0.0)
    n_max_raw = fld.get("n_max", "auto")

    atom_init_name = doc.get("atom_init", "both_excited")
    _choice(atom_init_name, _ATOM_INITS, "config.atom_init")

    base_model = _parse_model(doc["model"], "config.model")

    out = doc.get("output", {})
    _check_keys(out, _OUTPUT_KEYS, "config.output")
    out_dir = out.get("dir", "twojc_out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config.output.dir: expected a non-empty string, got {out_dir!r}")
    prefix = _file_name_part(out.get("prefix", "run"), "config.output.prefix")

    curve_docs = doc.get("curves") or [{"label": "base"}]
    if not isinstance(curve_docs, list):
        raise ConfigError("config.curves: expected a list")
    # every tau is divided by each curve's g before the dynamics sees it
    taus = [("time_grid.start", start), ("time_grid.stop", stop)] + [
        (f"q_grid.times[{j}]", tau) for j, tau in enumerate(q_grid.times_tau)]
    curves = []
    for i, cd in enumerate(curve_docs):
        path = f"config.curves[{i}]"
        _check_keys(cd, _CURVE_KEYS, path)
        label = _file_name_part(cd.get("label", f"curve{i}"), f"{path}.label")
        model_kwargs = base_model
        if "model" in cd:
            model_kwargs = _merge_model(doc["model"], cd["model"],
                                        f"{path}.model")
        try:
            params = ModelParams(**model_kwargs)
        except TwojcError as exc:
            raise ConfigError(f"{path}.model: {exc}") from exc
        for key, tau in taus:
            if not math.isfinite(tau / params.g):
                raise ConfigError(f"config.{key}: tau / g = {tau!r} / {params.g!r} "
                                  f"is not a finite time for {path}")
        c_mean, c_phase, c_nmax_raw = mean_n, phase, n_max_raw
        if "field" in cd:
            _check_keys(cd["field"], _FIELD_KEYS, f"{path}.field")
            c_mean = _mean_n(cd["field"], f"{path}.field", default=mean_n)
            c_phase = _number(cd["field"], "phase", f"{path}.field", default=phase)
            c_nmax_raw = cd["field"].get("n_max", n_max_raw)
        c_init = _choice(cd.get("atom_init", atom_init_name), _ATOM_INITS,
                         f"{path}.atom_init")
        n_max = _resolve_n_max(c_nmax_raw, c_mean, obs, q_grid, path)
        curves.append(CurveSpec(label=label, params=params, mean_n=c_mean,
                                phase=c_phase, n_max=n_max,
                                atom_init=c_init))
    labels = [c.label for c in curves]
    if len(set(labels)) != len(labels):
        raise ConfigError("config.curves: labels must be unique")

    return RunConfig(curves=tuple(curves), times_tau=times_tau,
                     observables=tuple(obs), q_grid=q_grid,
                     out_dir=out_dir, prefix=prefix, raw=doc)


def _resolve_n_max(raw, mean_n, observables, q_grid, path):
    if raw == "auto" or raw is None:
        n_max = auto_n_max(mean_n)
        if n_max > MAX_COUNT:
            raise ConfigError(f"{path}: \"auto\" n_max for mean_n = {mean_n!r} "
                              f"is above {MAX_COUNT}")
        if "qfunction" in observables:
            need = window_n_max(corner_alpha_sq((q_grid.re_min, q_grid.re_max),
                                                (q_grid.im_min, q_grid.im_max)))
            if need > MAX_COUNT:
                raise ConfigError(f"config.q_grid: window needs n_max >= {need:.6g}, "
                                  f"above {MAX_COUNT}")
            n_max = max(n_max, need)
        return n_max
    if isinstance(raw, bool) or not isinstance(raw, int) or not 2 <= raw <= MAX_COUNT:
        raise ConfigError(f"{path}: n_max must be an integer in [2, {MAX_COUNT}] "
                          f"or \"auto\"")
    return raw


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, col {exc.colno}): "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return parse_config(doc)


def resolved_lines(cfg: RunConfig, curve: CurveSpec) -> list:
    """Flat `key = value` lines of the fully resolved configuration,
    embedded in every output header for reproducibility."""
    p = curve.params
    lines = [
        f"curve = {curve.label}",
        f"omega0 = {p.omega0!r}",
        f"omega = {p.omega!r}",
        f"delta = {p.delta!r}",
        f"g = {p.g!r}",
        f"kappa = {p.kappa!r}",
        f"J = {p.J_ising!r}",
        f"chi = {p.chi!r}",
        f"h_kind = {p.h_kind.kind.value}",
        f"f_kind = {p.f_kind.kind.value}",
        f"mean_n = {curve.mean_n!r}",
        f"phase = {curve.phase!r}",
        f"n_max = {curve.n_max}",
        f"atom_init = {curve.atom_init.value}",
        f"tau_grid = [{float(cfg.times_tau[0])!r}, {float(cfg.times_tau[-1])!r}]"
        f" x {len(cfg.times_tau)}",
    ]
    return lines
