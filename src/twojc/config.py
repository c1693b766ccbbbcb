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

from .dynamics import (SERIES_OBSERVABLES, AtomInit, auto_n_max, corner_alpha_sq,
                       window_n_max)
from .errors import ConfigError, TwojcError
from .model import (FKind, HKind, ModelParams, NonlinearitySelector)

OBSERVABLES = SERIES_OBSERVABLES + ("qfunction", "spectrum-dump")

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


def _choice(val, kinds, where):
    names = [member.value for member in kinds]
    if not isinstance(val, str) or val not in names:
        raise ConfigError(f"{where}: expected one of {sorted(names)}, got {val!r}")
    return kinds(val)


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


def _parse_selector(obj, name, kinds, path, default):
    """The <name>_kind selector of a model, with the <name>_table of values
    that only the custom kind takes."""
    table = _numbers(obj, f"{name}_table", path)
    key = f"{name}_kind"
    kind = _choice(obj[key], kinds, f"{path}.{key}") if key in obj else None
    custom = kind in (HKind.CUSTOM, FKind.CUSTOM)
    if table is not None and not custom:
        raise ConfigError(f"{path}.{name}_table: only {name}_kind \"custom\" "
                          "takes a value table")
    if kind is None:
        return default
    if custom:
        if not table:
            raise ConfigError(f"{path}.{name}_kind: custom kind needs a non-empty value table")
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
        h_kind=_parse_selector(obj, "h", HKind, path, NonlinearitySelector(HKind.STANDARD)),
        f_kind=_parse_selector(obj, "f", FKind, path, NonlinearitySelector(FKind.LINEAR)),
    )
    return kwargs


def _parse_field(obj, path, observables, q_grid):
    """(mean_n, phase, n_max) of a field block; an absent n_max is "auto"."""
    _check_keys(obj, _FIELD_KEYS, path)
    mean_n = _number(obj, "mean_n", path, required=True)
    if mean_n < 0.0:
        raise ConfigError(f"{path}.mean_n: must be nonnegative, got {mean_n!r}")
    phase = _number(obj, "phase", path, default=0.0)
    n_max = _resolve_n_max(obj.get("n_max", "auto"), mean_n, observables, q_grid,
                           f"{path}.n_max")
    return mean_n, phase, n_max


def _merged(base_raw, override_raw, keys, path):
    """Raw-dict merge of a curve's block over the top-level one: override
    keys replace base keys, and the result is parsed once."""
    _check_keys(override_raw, keys, path)
    return {**base_raw, **override_raw}


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
    for axis in ("re", "im"):
        if not math.isfinite(getattr(q_grid, f"{axis}_max") - getattr(q_grid, f"{axis}_min")):
            raise ConfigError(f"config.q_grid: {axis}_max - {axis}_min is not a finite number")
    points = q_grid.re_count * q_grid.im_count
    if points > MAX_COUNT:
        raise ConfigError(f"config.q_grid: re_count * im_count = {points} "
                          f"is above {MAX_COUNT}")
    if "qfunction" in obs and not q_grid.times_tau:
        raise ConfigError("config.q_grid.times: required when qfunction is requested")

    base_field = _parse_field(doc["field"], "config.field", obs, q_grid)

    atom_init_name = doc.get("atom_init", "both_excited")
    _choice(atom_init_name, AtomInit, "config.atom_init")

    base_model = _parse_model(doc["model"], "config.model")

    out = doc.get("output", {})
    _check_keys(out, _OUTPUT_KEYS, "config.output")
    out_dir = out.get("dir", "twojc_out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"config.output.dir: expected a non-empty string, got {out_dir!r}")
    prefix = _file_name_part(out.get("prefix", "run"), "config.output.prefix")

    curve_docs = doc.get("curves", [{"label": "base"}])
    if not isinstance(curve_docs, list) or not curve_docs:
        raise ConfigError("config.curves: must be a non-empty list")
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
            model_kwargs = _parse_model(
                _merged(doc["model"], cd["model"], _MODEL_KEYS, f"{path}.model"), f"{path}.model")
        try:
            params = ModelParams(**model_kwargs)
        except TwojcError as exc:
            raise ConfigError(f"{path}.model: {exc}") from exc
        for key, tau in taus:
            if not math.isfinite(tau / params.g):
                raise ConfigError(f"config.{key}: tau / g = {tau!r} / {params.g!r} "
                                  f"is not a finite time for {path}")
        c_mean, c_phase, n_max = base_field
        if "field" in cd:
            c_mean, c_phase, n_max = _parse_field(
                _merged(doc["field"], cd["field"], _FIELD_KEYS, f"{path}.field"),
                f"{path}.field", obs, q_grid)
        c_init = _choice(cd.get("atom_init", atom_init_name), AtomInit,
                         f"{path}.atom_init")
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
    if raw == "auto":
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
                          f"or \"auto\", got {raw!r}")
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
