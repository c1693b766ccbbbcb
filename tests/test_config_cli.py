import glob
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twojc.validation
from twojc import ConfigError, TwojcError, build_block, cli, dynamics
from twojc.cli import main, run_config
from twojc.config import MAX_COUNT, RunConfig, load_config, parse_config
from twojc.validation import (check_spectral_identities, check_t0_anchors,
                              check_unitarity)

BASE = {
    "model": {"omega0": 1.0, "g": 0.001, "kappa": 0.0, "J": 0.0,
              "f_kind": "buck_sukumar"},
    "field": {"mean_n": 3.0, "phase": 0.0, "n_max": 30},
    "time_grid": {"start": 0.0, "stop": 3.0, "count": 40},
    "observables": ["inversion"],
}


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def deep(doc, **updates):
    out = json.loads(json.dumps(doc))
    out.update(updates)
    return out


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(json.loads(json.dumps(BASE)))
        assert len(cfg.curves) == 1
        assert cfg.curves[0].params.g == 0.001
        assert cfg.observables == ("inversion",)

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            parse_config(deep(BASE, bogus=1))

    def test_unknown_model_key(self):
        doc = deep(BASE)
        doc["model"]["coupling"] = 2.0
        with pytest.raises(ConfigError, match="config.model.coupling"):
            parse_config(doc)

    def test_empty_observables(self):
        with pytest.raises(ConfigError, match="observables"):
            parse_config(deep(BASE, observables=[]))

    def test_unknown_observable(self):
        with pytest.raises(ConfigError, match="husimi"):
            parse_config(deep(BASE, observables=["husimi"]))

    def test_bad_time_grid(self):
        doc = deep(BASE, time_grid={"start": 2.0, "stop": 1.0, "count": 5})
        with pytest.raises(ConfigError, match="stop"):
            parse_config(doc)
        doc = deep(BASE, time_grid={"start": 0.0, "stop": 1.0, "count": 0})
        with pytest.raises(ConfigError, match="count"):
            parse_config(doc)

    def test_times_over_g_must_be_finite(self):
        doc = deep(BASE, time_grid={"start": 0.0, "stop": 1e306, "count": 5})
        parse_config(deep(doc, curves=[{"model": {"g": 1.0}}]))
        with pytest.raises(ConfigError, match=r"^config\.time_grid\.stop: .*curves\[1\]"):
            parse_config(deep(doc, curves=[{"model": {"g": 1.0}},
                                           {"model": {"g": 1e-3}}]))
        doc = deep(BASE, q_grid={"times": [0.5, -1e306]})
        with pytest.raises(ConfigError, match=r"^config\.q_grid\.times\[1\]: "):
            parse_config(doc)
        doc = deep(BASE, time_grid={"start": -1e308, "stop": 1e308, "count": 5})
        with pytest.raises(ConfigError, match="stop - start"):
            parse_config(deep(doc, model={"omega0": 1.0, "g": 1.0}))

    def test_qfunction_needs_times(self):
        with pytest.raises(ConfigError, match="q_grid.times"):
            parse_config(deep(BASE, observables=["qfunction"]))

    def test_auto_n_max_widens_for_qfunction(self):
        doc = deep(BASE, observables=["qfunction"],
                   q_grid={"times": [0.5]})
        doc["field"]["n_max"] = "auto"
        doc["field"]["mean_n"] = 10.0
        cfg = parse_config(doc)
        # default +-6 grid corners need 2 * 72 Fock levels
        assert cfg.curves[0].n_max == 144

    def test_counts_are_bounded(self):
        for section, key in (("time_grid", "count"), ("q_grid", "re_count"),
                             ("q_grid", "im_count")):
            doc = deep(BASE, q_grid={"times": [0.5], "re_count": 1, "im_count": 1})
            doc[section][key] = MAX_COUNT
            assert isinstance(parse_config(doc), RunConfig)
            doc[section][key] = MAX_COUNT + 1
            with pytest.raises(ConfigError, match=f"config.{section}.{key}: expected an "
                                                  f"integer in \\[1, {MAX_COUNT}\\]"):
                parse_config(doc)

    def test_q_grid_size_is_bounded(self):
        doc = deep(BASE, q_grid={"times": [0.5], "re_count": 1000, "im_count": 1000})
        assert isinstance(parse_config(doc), RunConfig)
        doc["q_grid"]["im_count"] = 1001
        with pytest.raises(ConfigError, match="config.q_grid: re_count \\* im_count = "
                                              f"1001000 is above {MAX_COUNT}"):
            parse_config(doc)

    def test_n_max_is_bounded(self):
        doc = deep(BASE)
        doc["field"]["n_max"] = MAX_COUNT + 1
        with pytest.raises(ConfigError, match="n_max must be an integer in"):
            parse_config(doc)
        doc["field"].update(n_max="auto", mean_n=float(MAX_COUNT))
        with pytest.raises(ConfigError, match='"auto" n_max for mean_n = 1000000.0'):
            parse_config(doc)
        doc["field"]["mean_n"] = 1e300
        with pytest.raises(ConfigError, match="is above"):
            parse_config(doc)
        doc = deep(BASE, observables=["qfunction"],
                   q_grid={"times": [0.5], "re_max": 1e3, "im_max": 1e3})
        doc["field"]["n_max"] = "auto"
        with pytest.raises(ConfigError, match="window needs n_max >= 4e\\+06"):
            parse_config(doc)

    def test_negative_curve_mean_n_names_its_path(self):
        doc = deep(BASE, curves=[{"label": "a"}, {"label": "b", "field": {"mean_n": -0.5}}])
        with pytest.raises(ConfigError, match=r"config.curves\[1\].field.mean_n: must be "
                                              "nonnegative, got -0.5"):
            parse_config(doc)

    def test_chi_without_kerr_cavity_names_the_curve_model(self, tmp_path, capsys):
        doc = deep(BASE, curves=[{"label": "a", "model": {"chi": 0.1, "h_kind": "kerr"}},
                                 {"label": "b", "model": {"chi": 0.1}}])
        with pytest.raises(ConfigError, match=r"config.curves\[1\].model: chi = 0.1 "
                                              "needs h_kind kerr"):
            parse_config(doc)
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("model", [
        {"f_table": [1.0, 2.0, 3.0]},
        {"f_kind": "linear", "f_table": [1.0, 2.0, 3.0]},
        {"h_table": [1.0, 2.0, 3.0]},
        {"h_kind": "kerr", "h_table": [1.0, 2.0, 3.0]},
    ], ids=["f_no_kind", "f_linear", "h_no_kind", "h_kerr"])
    @pytest.mark.parametrize("where", ["config.model", "config.curves[0].model"])
    def test_value_table_needs_the_custom_kind(self, tmp_path, capsys, model, where):
        doc = deep(BASE, model={"omega0": 1.0, "g": 0.001})
        if where == "config.model":
            doc["model"].update(model)
        else:
            doc["curves"] = [{"label": "a", "model": model}]
        key = f"{where}.{next(k for k in model if k.endswith('_table'))}"
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            parse_config(doc)
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_curve_leaving_the_custom_kind_inherits_no_table(self):
        doc = deep(BASE, curves=[{"label": "a", "model": {"f_kind": "linear"}}])
        doc["model"].update(f_kind="custom", f_table=[1.0] * 40)
        with pytest.raises(ConfigError, match=r"^config\.curves\[0\]\.model\.f_table: "):
            parse_config(doc)

    def test_custom_kinds_take_their_tables(self):
        h_table = [0.01 * m for m in range(40)]
        doc = deep(BASE, curves=[{"label": "a"}, {"label": "b", "model": {
            "h_kind": "custom", "h_table": h_table}}])
        doc["model"].update(f_kind="custom", f_table=[1.0] * 40)
        a, b = parse_config(doc).curves
        assert a.params.f_kind.custom_table == b.params.f_kind.custom_table == (1.0,) * 40
        assert a.params.h_kind.custom_table is None
        assert b.params.h_kind.custom_table == tuple(h_table)

    def test_duplicate_curve_labels(self):
        doc = deep(BASE, curves=[{"label": "a"}, {"label": "a"}])
        with pytest.raises(ConfigError, match="unique"):
            parse_config(doc)

    def test_duplicate_observables(self):
        doc = deep(BASE, observables=["inversion", "purity", "inversion"])
        with pytest.raises(ConfigError, match="config.observables: entries must be unique"):
            parse_config(doc)

    def test_curve_overrides(self):
        doc = deep(BASE, curves=[
            {"label": "x", "model": {"chi": 0.0001, "h_kind": "kerr"}},
            {"label": "y", "atom_init": "symmetric"},
        ])
        cfg = parse_config(doc)
        assert cfg.curves[0].params.chi == 0.0001
        assert cfg.curves[1].params.chi == 0.0
        assert cfg.curves[1].atom_init.value == "symmetric"

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": }')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))

    def test_top_level_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="top level must be an object$"):
            load_config(write_cfg(tmp_path, [BASE]))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["model"].pop("g"), "config.model.g: required"),
        (lambda doc: doc.pop("time_grid"), "config.time_grid: required"),
        (lambda doc: doc["model"].update(f_kind="custom", f_table=[]),
         "config.model.f_kind: custom kind needs a non-empty value table"),
    ], ids=["model.g", "time_grid", "empty_f_table"])
    def test_missing_or_empty_required_value(self, edit, message):
        doc = deep(BASE)
        edit(doc)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(doc)

    @pytest.mark.parametrize("curves", [None, {}, False, 0, "", [], "abc", 3], ids=[
        "null", "object", "false", "zero", "empty_text", "empty_list", "text", "number"])
    def test_curves_must_be_a_non_empty_list(self, curves):
        with pytest.raises(ConfigError, match=r"^config\.curves: must be a non-empty list$"):
            parse_config(deep(BASE, curves=curves))

    @pytest.mark.parametrize("curve, key", [
        ({"model": {"h_kind": None}}, "model.h_kind"),
        ({"model": {"f_kind": None}}, "model.f_kind"),
        ({"field": {"n_max": None}}, "field.n_max"),
        ({"field": {"n_max": "x"}}, "field.n_max"),
    ], ids=["h_kind_null", "f_kind_null", "n_max_null", "n_max_text"])
    def test_a_curve_key_is_parsed_at_its_own_path(self, curve, key):
        # a null is no default: neither the top level's Kerr cavity and integer
        # n_max, nor the defaults of an absent key
        doc = deep(BASE, curves=[{"label": "a"}, {"label": "b", **curve}])
        doc["model"].update(h_kind="kerr", chi=1e-4)
        with pytest.raises(ConfigError, match=rf"^config\.curves\[1\]\.{re.escape(key)}: "):
            parse_config(doc)


class TestRun:
    def test_multi_curve_inversion_files(self, tmp_path):
        doc = deep(BASE, curves=[
            {"label": "chi_1_8", "model": {"chi": 1.25e-4, "h_kind": "kerr"}},
            {"label": "chi_1_4", "model": {"chi": 2.5e-4, "h_kind": "kerr"}},
            {"label": "chi_3_8", "model": {"chi": 3.75e-4, "h_kind": "kerr"}},
            {"label": "chi_1_2", "model": {"chi": 5.0e-4, "h_kind": "kerr"}},
        ], output={"dir": str(tmp_path / "out"), "prefix": "kerr"})
        manifest = run_config(parse_config(doc))
        names = [f["path"] for f in manifest["files"]]
        assert names == [f"kerr_chi_{s}_inversion.csv"
                         for s in ("1_8", "1_4", "3_8", "1_2")]
        data = np.loadtxt(tmp_path / "out" / names[0], delimiter=",",
                          skiprows=18)
        assert data.shape == (40, 2)
        assert data[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_two_init_entropy_series(self, tmp_path):
        doc = deep(BASE, observables=["entropy"], curves=[
            {"label": "excited", "atom_init": "both_excited"},
            {"label": "entangled", "atom_init": "symmetric"},
        ], output={"dir": str(tmp_path / "out"), "prefix": "ent"})
        manifest = run_config(parse_config(doc))
        assert len(manifest["files"]) == 2
        for f in manifest["files"]:
            data = np.loadtxt(tmp_path / "out" / f["path"], delimiter=",",
                              skiprows=18)
            assert data[0, 1] == pytest.approx(0.0, abs=1e-9)
            assert np.all(data[:, 1] <= math.log(3.0) + 1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        doc = deep(BASE, output={"dir": str(tmp_path / "a"), "prefix": "r"})
        m1 = run_config(parse_config(doc))
        doc2 = deep(BASE, output={"dir": str(tmp_path / "b"), "prefix": "r"})
        m2 = run_config(parse_config(doc2))
        assert [f["sha256"] for f in m1["files"]] == \
            [f["sha256"] for f in m2["files"]]
        a = (tmp_path / "a" / m1["files"][0]["path"]).read_bytes()
        b = (tmp_path / "b" / m2["files"][0]["path"]).read_bytes()
        assert a == b

    def test_manifest_hashes_are_file_hashes(self, tmp_path):
        doc = deep(BASE, observables=["inversion", "qfunction", "spectrum-dump"],
                   q_grid={"times": [0.0, 0.5], "re_min": -2.0, "re_max": 2.0,
                           "re_count": 5, "im_min": -2.0, "im_max": 2.0, "im_count": 7},
                   output={"dir": str(tmp_path / "out"), "prefix": "h"})
        manifest = run_config(parse_config(doc))
        assert len(manifest["files"]) == 4
        for f in manifest["files"]:
            data = (tmp_path / "out" / f["path"]).read_bytes()
            assert f["sha256"] == hashlib.sha256(data).hexdigest()

    def test_snapshot_groups_write_the_same_tables(self, tmp_path, monkeypatch):
        # five 5x7 snapshots in one husimi_grid call, then in groups of two
        calls = []
        husimi_grid = dynamics.husimi_grid

        def counted(factors, *axes):
            calls.append(len(factors))
            return husimi_grid(factors, *axes)

        monkeypatch.setattr(dynamics, "husimi_grid", counted)
        manifests = []
        for values in (None, 2 * 35):
            if values is not None:
                monkeypatch.setattr(cli, "_Q_VALUES", values)
            doc = deep(BASE, observables=["inversion", "qfunction"],
                       q_grid={"times": [0.0, 0.5, 1.0, 1.5, 2.0], "re_min": -2.0,
                               "re_max": 2.0, "re_count": 5, "im_min": -2.0,
                               "im_max": 2.0, "im_count": 7},
                       output={"dir": str(tmp_path / f"out_{values}"), "prefix": "g"})
            manifests.append(run_config(parse_config(doc))["files"])
        assert calls == [5, 2, 2, 1]
        assert manifests[0] == manifests[1]

    def test_headers_carry_resolved_config_and_units(self, tmp_path):
        doc = deep(BASE, output={"dir": str(tmp_path / "out"), "prefix": "r"})
        run_config(parse_config(doc))
        text = (tmp_path / "out" / "r_base_inversion.csv").read_text()
        assert "# g = 0.001" in text
        assert "# atom_init = both_excited" in text
        assert "dimensionless time g*t" in text

    def test_spectrum_dump_observable(self, tmp_path):
        doc = deep(BASE, observables=["spectrum-dump"],
                   output={"dir": str(tmp_path / "out"), "prefix": "s"})
        manifest = run_config(parse_config(doc))
        path = tmp_path / "out" / manifest["files"][0]["path"]
        data = np.loadtxt(path, delimiter=",", skiprows=19)
        assert data.shape == (31, 16)
        # lambda completeness per row
        total = data[:, 10:13].sum(axis=1) + 2 * data[:, 13:16].sum(axis=1)
        np.testing.assert_allclose(total, 1.0, atol=1e-10)


class TestCliEntry:
    def test_run_exit_codes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, deep(BASE, output={
            "dir": str(tmp_path / "out"), "prefix": "x"}))
        assert main(["run", cfg]) == 0
        bad = write_cfg(tmp_path, deep(BASE, observables=[]), "bad.json")
        assert main(["run", bad]) == 2

    def test_missing_config_file(self):
        assert main(["run", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize("blocked, out_dir, reason", [
        ("plain", "plain/out", "Not a directory"),      # output.dir under a regular file
        ("out/x_base_inversion.csv/", "out", "Is a directory"),  # a table's path taken
    ])
    def test_unwritable_output_path_is_config_error(self, tmp_path, capsys,
                                                    blocked, out_dir, reason):
        path = tmp_path / blocked
        if blocked.endswith("/"):
            path.mkdir(parents=True)
        else:
            path.write_text("")
        doc = deep(BASE, output={"dir": str(tmp_path / out_dir), "prefix": "x"})
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: config.output.dir") and reason in err

    def test_taken_table_path_renames_no_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "x_base_purity.csv").mkdir(parents=True)
        doc = deep(BASE, observables=["inversion", "purity"],
                   output={"dir": str(out), "prefix": "x"})
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        assert "x_base_purity.csv': Is a directory" in capsys.readouterr().err
        assert os.listdir(out) == ["x_base_purity.csv"]

    def test_write_error_names_the_final_table_path(self, tmp_path, capsys):
        label = "a" * 250  # the table's file name is longer than a file system takes
        doc = deep(BASE, curves=[{"label": label}],
                   output={"dir": str(tmp_path / "out"), "prefix": "x"})
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        final = str(tmp_path / "out" / f"x_{label}_inversion.csv")
        assert capsys.readouterr().err == (
            f"config error: config.output.dir: {final!r}: File name too long\n")
        assert not (tmp_path / "out").exists()

    def test_taken_manifest_path_renames_no_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "x_manifest.json").mkdir(parents=True)
        doc = deep(BASE, output={"dir": str(out), "prefix": "x"})
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        assert "x_manifest.json': Is a directory" in capsys.readouterr().err
        assert os.listdir(out) == ["x_manifest.json"]

    def test_numerical_guard_exit_code(self, tmp_path):
        doc = deep(BASE, observables=["qfunction"],
                   q_grid={"times": [0.1], "re_min": -6.0, "re_max": 6.0,
                           "re_count": 11, "im_min": -6.0, "im_max": 6.0,
                           "im_count": 11},
                   output={"dir": str(tmp_path / "out"), "prefix": "q"})
        doc["field"]["n_max"] = 40  # too small for the +-6 window
        cfg = write_cfg(tmp_path, doc)
        assert main(["run", cfg]) == 3

    @pytest.mark.parametrize("axis", ["re", "im"])
    def test_overflowing_q_grid_span_is_config_error(self, tmp_path, axis):
        # the span of +-1e308 is beyond double range; with an explicit n_max no
        # window guard reads the axes before numpy's linspace would
        out = tmp_path / "out"
        doc = deep(BASE, observables=["qfunction"],
                   q_grid={"times": [0.5], "re_count": 5, "im_count": 5,
                           f"{axis}_min": -1e308, f"{axis}_max": 1e308},
                   output={"dir": str(out), "prefix": "x"})
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "twojc.cli", "run",
                               write_cfg(tmp_path, doc)], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == (f"config error: config.q_grid: {axis}_max - {axis}_min "
                               "is not a finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("omega0", math.inf),
                                            ("delta", math.nan),
                                            ("g", 10 ** 400)])
    def test_non_finite_model_number_is_config_error(self, tmp_path, capsys,
                                                      key, value):
        doc = deep(BASE, output={"dir": str(tmp_path / "out"), "prefix": "x"})
        doc["model"][key] = value
        assert main(["run", write_cfg(tmp_path, doc)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_result_is_not_written(self, tmp_path, capsys):
        # finite couplings whose block entries overflow
        doc = deep(BASE, output={"dir": str(tmp_path / "out"), "prefix": "x"})
        doc["model"].update(kappa=1e308, J=-1e308)
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kappa", [1e200, 1e306])
    def test_large_finite_block_runs_quietly(self, tmp_path, kappa):
        # 1e200 squared and cubed overflows the cubic unless the block is
        # scaled; at 1e306 the phases E t overflow instead and the run exits 3
        out = tmp_path / "out"
        doc = deep(BASE, observables=["inversion", "purity", "concurrence", "entropy",
                                      "qfunction", "spectrum-dump"],
                   q_grid={"times": [0.5], "re_min": -2.0, "re_max": 2.0, "re_count": 5,
                           "im_min": -2.0, "im_max": 2.0, "im_count": 5},
                   output={"dir": str(out), "prefix": "x"})
        doc["model"]["kappa"] = kappa
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv in (["run"], ["dump-spectrum", "--n", "0"]):
            proc = subprocess.run([sys.executable, "-m", "twojc.cli", *argv,
                                   write_cfg(tmp_path, doc)],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == (3 if kappa == 1e306 else 0), proc.stderr
            assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
            assert proc.stderr.count("\n") == (proc.returncode == 3)
        if kappa == 1e306:  # the failed run removes the directory it made
            assert not out.exists()
            return
        csvs = [name for name in os.listdir(out) if name.endswith(".csv")]
        assert len(csvs) == 6
        for name in csvs:
            lines = [ln for ln in (out / name).read_text().splitlines()
                     if not ln.startswith("#")]
            assert np.all(np.isfinite(np.loadtxt(lines[1:], delimiter=","))), name

    @pytest.mark.parametrize("observable", ["inversion", "purity", "concurrence",
                                            "entropy", "qfunction", "spectrum-dump",
                                            "dump-spectrum"])
    def test_overflowing_block_is_one_line_guard(self, tmp_path, capsys, observable):
        out = tmp_path / "out"
        doc = deep(BASE, q_grid={"times": [0.5], "re_count": 5, "im_count": 5},
                   output={"dir": str(out), "prefix": "x"})
        doc["model"].update(kappa=1e308, J=-1e308)
        if observable == "dump-spectrum":
            argv = ["dump-spectrum", "--n", "0", write_cfg(tmp_path, doc)]
        else:
            doc["observables"] = [observable]
            argv = ["run", write_cfg(tmp_path, doc)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "non-finite" in captured.err and "block n = 0" in captured.err
        assert not out.exists()

    def test_late_non_finite_series_value_leaves_nothing(self, tmp_path, capsys,
                                                          monkeypatch, windows):
        # the series tables take the windows as they come; a NaN first seen
        # in the last window still trips the guard before any table exists
        # (a NaN rho_A never reaches eigh: its phases are guarded finite)
        made = tmp_path / "made"
        doc = deep(BASE, observables=["inversion", "purity"],
                   time_grid={"start": 0.0, "stop": 3.0, "count": 3000},
                   output={"dir": str(made / "out"), "prefix": "x"})
        last = 3.0 / doc["model"]["g"]
        gram = dynamics._BranchRows.gram

        def nan_at_the_end(rows, times, out):
            gram(rows, times, out)
            out[times == last, 0, 0] = math.nan

        monkeypatch.setattr(dynamics._BranchRows, "gram", nan_at_the_end)
        monkeypatch.setattr(dynamics, "_WINDOW", 256)
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "x_base_inversion.csv: non-finite" in captured.err
        assert len(windows) > 2 and windows[-1].stop == 3000
        assert not made.exists()

    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_density_is_one_line_guard(self, tmp_path, capsys, monkeypatch,
                                                  where):
        # a NaN in rho_A stops before the eigensolve of entropy and
        # concurrence, which would read it as a number (off the diagonal) or
        # raise numpy's LinAlgError (on it)
        made = tmp_path / "made"
        doc = deep(BASE, observables=["entropy", "concurrence"],
                   output={"dir": str(made / "out"), "prefix": "x"})
        gram = dynamics._BranchRows.gram

        def nan_in_rho(rows, times, out):
            gram(rows, times, out)
            out[-1][where] = math.nan

        monkeypatch.setattr(dynamics._BranchRows, "gram", nan_in_rho)
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "not finite and Hermitian" in captured.err
        assert not made.exists()

    def test_overflowing_coupling_is_one_line_guard(self, tmp_path, capsys):
        # sqrt(2) g f_{n+1} passes double range while g itself is finite
        out = tmp_path / "out"
        doc = deep(BASE, output={"dir": str(out), "prefix": "x"})
        doc["model"].update(g=1e308)
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "non-finite" in captured.err and "block n = 0" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("observable", ["spectrum-dump", "dump-spectrum"])
    def test_overflowing_frequency_is_one_line_guard(self, tmp_path, capsys, observable):
        # every entry and E/g are finite, but E1 - E2 is beyond double range
        out = tmp_path / "out"
        doc = deep(BASE, observables=["spectrum-dump"],
                   output={"dir": str(out), "prefix": "x"})
        doc["model"].update(g=2.0, J=-1.5e308)
        cfg = write_cfg(tmp_path, doc)
        dump = observable == "dump-spectrum"
        argv = ["dump-spectrum", "--n", "3", cfg] if dump else ["run", cfg]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        block = 3 if dump else 0
        assert f"block n = {block}: energies over g, frequencies" in captured.err
        assert not out.exists() or os.listdir(out) == []

    def test_csv_guard(self):
        from twojc.cli import _Table
        from twojc.errors import NumericalGuardError
        fh = io.BytesIO()
        table = _Table(fh, "t.csv", [], ["a", "b"])
        with pytest.raises(NumericalGuardError, match="t.csv: non-finite"):
            table.rows([[0.0, 1.0], [math.inf, 2.0]])
        assert fh.getvalue() == b"a,b\n"  # no line of the block written

    def test_csv_bytes_and_digest(self):
        from twojc.cli import _CHUNK_ROWS, _Table
        rng = np.random.default_rng(11)
        rows = (rng.standard_normal((10_000, 3))
                * 10.0 ** rng.integers(-300, 300, size=(10_000, 3)))
        rows[0] = [-0.0, 1e-300, 1e300]
        rows[-1] = [1e300, -0.0, -1e-300]
        assert len(rows) > 2 * _CHUNK_ROWS
        fh = io.BytesIO()
        table = _Table(fh, "t.csv", ["note"], ["a", "b", "c"])
        table.rows(rows)
        ref = "# note\na,b,c\n" + "".join(
            ",".join("%.17g" % (v + 0.0) for v in row) + "\n" for row in rows.tolist())
        data = fh.getvalue()
        assert data == ref.encode()
        assert table.sha256 == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("re_count, im_count", [
        (97, 91),     # more than 2 * _CHUNK_ROWS rows, blocks of whole grid rows
        (5, 3),       # non-square, one block
        (1, 9000),    # a 1 x N grid: one column, many grid rows
        (9000, 1),    # one grid row wider than _CHUNK_ROWS, cut into pieces
        (4500, 3),    # pieces of rows, blocks straddling two grid rows
    ])
    def test_q_csv_bytes_and_digest(self, re_count, im_count):
        # the layout of a Husimi table: q[i, j] at (im_axis[i], re_axis[j]),
        # re running fastest, each axis value formatted once
        from twojc.cli import _CHUNK_ROWS, _Table, _text
        rng = np.random.default_rng(re_count * im_count)
        re_axis = rng.standard_normal(re_count) * 10.0 ** rng.integers(-300, 300, re_count)
        im_axis = rng.standard_normal(im_count) * 10.0 ** rng.integers(-300, 300, im_count)
        re_axis[:3] = [-0.0, 1e-300, 1e300][:re_count]
        im_axis[-3:] = [1e300, -0.0, -1e-300][-im_count:]
        q = rng.standard_normal((im_count, re_count))
        q.flat[:2] = [-0.0, 1e-300][:q.size]
        assert re_count * im_count > 2 * _CHUNK_ROWS or re_count * im_count < _CHUNK_ROWS
        fh = io.BytesIO()
        table = _Table(fh, "q.csv", ["note"], ["re", "im", "q"])
        table.rows(q[:, :, None], (_text(re_axis)[None], _text(im_axis)[:, None]))
        ref = "# note\nre,im,q\n" + "".join(
            ",".join("%.17g" % (v + 0.0) for v in (re, im, q[i, j])) + "\n"
            for i, im in enumerate(im_axis.tolist()) for j, re in enumerate(re_axis.tolist()))
        data = fh.getvalue()
        assert data == ref.encode()
        assert table.sha256 == hashlib.sha256(data).hexdigest()

    def test_q_csv_guard(self):
        from twojc.cli import _Table, _text
        from twojc.errors import NumericalGuardError
        fh = io.BytesIO()
        table = _Table(fh, "q.csv", [], ["re", "im", "q"])
        q = np.zeros((3, 4))
        q[2, 1] = math.inf
        with pytest.raises(NumericalGuardError, match="non-finite"):
            table.rows(q[:, :, None], (_text(np.arange(4.0))[None], _text(np.arange(3.0))[:, None]))
        assert fh.getvalue() == b"re,im,q\n"  # no line of the grid written

    def test_non_finite_husimi_grid_leaves_nothing(self, tmp_path, capsys, monkeypatch):
        # the guard of the table writer names the snapshot's table, and the
        # run leaves no table, no staged file and no directory it made
        made = tmp_path / "made"
        doc = deep(BASE, observables=["inversion", "qfunction", "spectrum-dump"],
                   q_grid={"times": [0.5, 1.0], "re_count": 5, "im_count": 5,
                           "re_min": -2.0, "re_max": 2.0, "im_min": -2.0, "im_max": 2.0},
                   output={"dir": str(made / "out"), "prefix": "x"})
        husimi_grid = dynamics.husimi_grid

        def nan_grid(*args):
            grid = husimi_grid(*args)
            grid.values[..., 1, 2] = math.nan
            return grid

        monkeypatch.setattr(dynamics, "husimi_grid", nan_grid)
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        assert "x_base_qfunction_0.csv: non-finite" in captured.err
        assert not made.exists()

    @pytest.mark.parametrize("previous", [False, True])
    def test_failed_run_adds_no_file(self, tmp_path, capsys, previous):
        # the inversion is computed and written before the spectrum dump's
        # frequencies overflow
        out = tmp_path / "out"
        out.mkdir()
        doc = deep(BASE, observables=["inversion", "spectrum-dump"],
                   time_grid={"start": 0.0, "stop": 1e-12, "count": 40},
                   output={"dir": str(out), "prefix": "x"})
        doc["model"]["g"] = 2.0
        if previous:  # an earlier, successful run of the same file names
            assert main(["run", write_cfg(tmp_path, doc, "ok.json")]) == 0
            assert sorted(os.listdir(out)) == ["x_base_inversion.csv",
                                               "x_base_spectrum.csv", "x_manifest.json"]
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        doc["model"]["J"] = -1.5e308
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        assert "block n = 0" in capsys.readouterr().err
        assert out.is_dir()
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    @pytest.mark.parametrize("existing", [None, "rn2", "rn2/a"])
    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys, existing):
        # only the directories the run created go, and only while empty
        if existing:
            (tmp_path / existing).mkdir(parents=True)
            (tmp_path / existing / "keep.txt").write_bytes(b"earlier\n")
        doc = deep(BASE, output={"dir": str(tmp_path / "rn2" / "a" / "b"), "prefix": "x"})
        doc["model"].update(kappa=1e308, J=-1e308)
        assert main(["run", write_cfg(tmp_path, doc)]) == 3
        assert "block n = 0" in capsys.readouterr().err
        expected = {"cfg.json"}
        if existing:
            expected |= {"rn2", existing, f"{existing}/keep.txt"}
        assert {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")} == expected
        if existing:
            assert (tmp_path / existing / "keep.txt").read_bytes() == b"earlier\n"

    @pytest.mark.parametrize("where", ["prefix", "label"])
    @pytest.mark.parametrize("name", ["a/b", "..\\x", "", "a b", 7.5, True])
    def test_file_name_parts_restricted(self, tmp_path, where, name):
        doc = deep(BASE, output={"dir": str(tmp_path / "out"), "prefix": "x"})
        if where == "prefix":
            doc["output"]["prefix"] = name
        else:
            doc["curves"] = [{"label": name}]
        with pytest.raises(ConfigError, match=where):
            parse_config(doc)
        assert main(["run", write_cfg(tmp_path, doc)]) == 2

    def test_numeric_file_name_parts_become_strings(self, tmp_path):
        doc = deep(BASE, output={"dir": str(tmp_path / "out"), "prefix": 3},
                   curves=[{"label": 7}])
        cfg = parse_config(doc)
        assert cfg.prefix == "3"
        assert cfg.curves[0].label == "7"

    def test_dump_spectrum(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, deep(BASE))
        assert main(["dump-spectrum", "--n", "2", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2
        assert len(doc["energies_rad_per_time"]) == 3
        assert doc["rabi_21_31_23"][0] == pytest.approx(
            doc["rabi_21_31_23"][1] + doc["rabi_21_31_23"][2])

    def test_dump_spectrum_of_a_fallback_block(self, tmp_path, capsys):
        doc = deep(BASE, field={"mean_n": 20.0})
        doc["model"].update(omega0=1.0, g=1e-6, kappa=1.0, J=1.0)
        assert main(["dump-spectrum", "--n", "0", write_cfg(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["used_numeric_fallback"] is True
        assert min(out["rabi_21_31_23"]) >= 0.0
        cfg = parse_config(doc)
        exact = np.linalg.eigvalsh(build_block(cfg.curves[0].params, 0))
        np.testing.assert_allclose(np.sort(out["energies_rad_per_time"]), exact, rtol=1e-14)

    def test_dump_spectrum_block_out_of_range(self, tmp_path):
        cfg = write_cfg(tmp_path, deep(BASE))
        assert main(["dump-spectrum", "--n", "99", cfg]) == 2


def exact_ties(rng, count):
    """Doubles whose exact decimal has 18 significant digits, the last one a
    5, so that rounding them to 17 digits is a tie.  A double m / 2**k with
    m odd has the digits of m * 5**k, so the search draws odd m that give
    18 of them and keeps the quotients that are exact doubles."""
    ties = []
    for k in range(2, 26):
        for m in rng.integers(-(-10 ** 17 // 5 ** k), 10 ** 18 // 5 ** k, size=count):
            v = (int(m) | 1) / 2 ** k
            exact = Fraction(v)
            digits = str(exact.numerator * 10 ** k // exact.denominator)
            if exact.denominator == 2 ** k and len(digits) == 18 and digits.endswith("5"):
                ties.append(v)
    return np.array(ties)


class TestTextKernel:
    """The writer formats values as arrays; its text must be "%.17g" % v."""

    @staticmethod
    def assert_text(values):
        from twojc.cli import _Table
        values = np.asarray(values, dtype=float)
        fh = io.BytesIO()
        _Table(fh, "v.csv", [], ["v"]).rows(values[:, None])
        want = ("%.17g\n" * values.size) % tuple((values + 0.0).tolist())
        got = fh.getvalue().decode()
        if got != "v\n" + want:
            bad = [(v, g, w) for v, g, w in
                   zip(values.tolist(), got.split("\n")[1:], want.split("\n")) if g != w]
            pytest.fail(f"{len(bad)} values differ from %.17g, first (value, got, want): {bad[:5]}")

    @pytest.mark.parametrize("seed", [17, 18, 19, 20])  # 10**6 draws in all
    def test_random_bit_patterns(self, seed):
        bits = np.random.default_rng(seed).integers(0, 2 ** 64, size=10 ** 6 // 4, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert (values < 0).any() and (values > 0).any()
        self.assert_text(values)

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-308, 309)])
        self.assert_text(np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)]))

    def test_exact_ties_take_the_fallback(self):
        from twojc.cli import _significand
        ties = exact_ties(np.random.default_rng(5), 8)
        assert len(ties) > 100
        assert _significand(ties)[2].all()
        self.assert_text(np.concatenate([ties, -ties]))

    def test_integers_and_extremes(self):
        integers = np.random.default_rng(9).integers(0, 2 ** 63, size=10 ** 4)
        self.assert_text(np.concatenate([
            integers.astype(float), 2.0 ** np.arange(64),
            [5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max, 0.0]]))

    def test_fixed_and_scientific_edges(self):
        edges = [1e-4, np.nextafter(1e-4, 0), 1e-5, 1e16, 1e17, np.nextafter(1e17, 0),
                 100.0, 1000.0, 0.5, 123.456, 0.000123]
        self.assert_text(np.concatenate([edges, np.negative(edges), np.arange(1401.0)]))


# (config path, JSON literal put there, exit code); the literal goes into the
# file text as written, so 1e400 reaches the parser as the JSON number
INPUT_EDGE_PROBES = [
    ("q_grid.re_count", '"x"', 2), ("q_grid.re_count", "0", 2),
    ("q_grid.re_count", "-3", 2), ("q_grid.re_count", "10.7", 2),
    ("q_grid.re_count", "true", 2), ("q_grid.times", '["a"]', 2),
    ("q_grid.times", "[true]", 2), ("q_grid.times", "[1e400]", 2),
    ("model.f_table", '["a", 1.0]', 2), ("model.f_table", "5", 2),
    ("time_grid.count", "true", 2), ("field.mean_n", "1e4", 3),
    ("time_grid.count", "1" + "0" * 30, 2), ("field.mean_n", "-1", 2),
    ("output.dir", "null", 2), ("output.dir", '""', 2), ("output.dir", "5", 2),
    ("field.phase", "1e308", 3), ("time_grid.stop", "1e308", 2),
    # a null is never a default, and a bad field.n_max is named at its own path
    ("model.f_kind", "null", 2), ("model.h_kind", "null", 2),
    ("field.n_max", "null", 2), ("field.n_max", '"x"', 2),
]
# stderr of the probes that trip a numerical guard; a config error names its key
GUARD_MESSAGES = {
    "field.mean_n": "numerical guard: coherent field at mean_n = 10000.0: ",
    "field.phase": "numerical guard: coherent field at mean_n = 3.0: "
                   "field amplitudes not finite",
}


@pytest.mark.parametrize("where, literal, code", INPUT_EDGE_PROBES)
def test_input_edge_exit_codes(tmp_path, capsys, where, literal, code):
    doc = deep(BASE, q_grid={"times": [0.5], "re_count": 5, "im_count": 5},
               output={"dir": str(tmp_path / "out"), "prefix": "x"})
    doc["model"].update(f_kind="custom", f_table=[1.0] * 60)
    doc["field"]["n_max"] = "auto"
    section, key = where.split(".")
    doc[section][key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"@"', literal))
    assert main(["run", str(path)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    if code == 2:
        assert err.startswith(f"config error: config.{where}")
    else:
        assert err.startswith(GUARD_MESSAGES[where])


SMALL = {
    "model": {"omega0": 1.0, "g": 0.1, "kappa": 0.2, "J": 0.05, "chi": 0.01,
              "delta": 0.0, "h_kind": "kerr", "f_kind": "custom",
              "f_table": [1.0] * 12},
    "field": {"mean_n": 1.0, "phase": 0.0, "n_max": 8},
    "atom_init": "both_excited",
    "time_grid": {"start": 0.0, "stop": 1.0, "count": 3},
    "observables": ["inversion", "qfunction"],
    "q_grid": {"re_min": -1.0, "re_max": 1.0, "re_count": 3, "im_min": -1.0,
               "im_max": 1.0, "im_count": 3, "times": [0.5]},
    "curves": [{"label": "a", "model": {"kappa": 0.3}, "field": {"mean_n": 2.0},
                "atom_init": "symmetric"}],
    "output": {"dir": "out", "prefix": "p"},
}


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


SMALL_PATHS = sorted(_paths(SMALL), key=repr)
# integers stay small: parse_config allocates the time grid, so a huge count
# is an allocation, not a parse
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.floats()
    | st.sampled_from([10 ** 400, "auto", "custom", "kerr", "symmetric"])
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                              max_size=3),
    max_leaves=8)


def _put(doc, path, value):
    """Set doc[path] = value unless an earlier edit removed a parent."""
    try:
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


@given(st.lists(st.tuples(st.sampled_from(SMALL_PATHS), JSON_VALUES),
                min_size=1, max_size=3))
@example([(("time_grid", "count"), 10 ** 400)])
@settings(deadline=None)
def test_parse_config_returns_config_or_config_error(edits):
    doc = json.loads(json.dumps(SMALL))
    for path, value in edits:
        _put(doc, path, value)
    try:
        assert isinstance(parse_config(doc), RunConfig)
    except ConfigError:
        pass


def test_shipped_configs_parse():
    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    assert len(paths) >= 5
    for path in paths:
        cfg = load_config(path)
        assert cfg.curves


def test_shipped_configs_write_to_their_own_directories():
    # a loop over every config from one directory leaves each run's tables
    # and manifest in place only if no two configs share an output.dir
    root = os.path.join(os.path.dirname(__file__), "..")
    paths = sorted(glob.glob(os.path.join(root, "configs", "*.json"))
                   + glob.glob(os.path.join(root, "perfbench", "configs", "*.json")))
    assert len(paths) >= 8
    dirs = []
    for path in paths:
        with open(path) as fh:
            dirs.append(json.load(fh)["output"]["dir"])
    assert len(set(dirs)) == len(dirs), sorted(dirs)


class TestValidationSuites:
    def test_fast_checks_pass(self):
        assert check_spectral_identities(n_draws=200)["passed"]
        assert check_unitarity(n_times=10)["passed"]
        assert check_t0_anchors()["passed"]

    def test_unwritable_report_path_is_config_error(self, tmp_path, capsys):
        report = str(tmp_path / "missing" / "report.json")
        assert main(["validate", "--report", report]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith("config error: --report") and "No such file" in captured.err

    def test_failed_validation_keeps_the_earlier_report(self, tmp_path, monkeypatch, capsys):
        report = tmp_path / "report.json"
        report.write_text("earlier\n")

        def broken(level):
            raise TwojcError("a check could not run")

        monkeypatch.setattr(twojc.validation, "run_level", broken)
        assert main(["validate", "--report", str(report)]) == 2
        assert "a check could not run" in capsys.readouterr().err
        assert report.read_text() == "earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_report_path_that_is_a_directory_costs_no_run(self, tmp_path, monkeypatch, capsys):
        def never(level):
            raise AssertionError("the checks ran")

        monkeypatch.setattr(twojc.validation, "run_level", never)
        assert main(["validate", "--report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: --report")
        assert list(tmp_path.iterdir()) == []

    def test_approx_tolerance_tool_measures_the_pinned_tolerance(self):
        path = os.path.join(os.path.dirname(__file__), "..", "tools", "approx_tolerance.py")
        spec = importlib.util.spec_from_file_location("approx_tolerance", path)
        approx_tolerance = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(approx_tolerance)
        near_max, far_max, tolerance = approx_tolerance.measure()
        assert tolerance == twojc.validation.APPROX_TOLERANCE
        assert near_max <= tolerance < far_max

    def test_bench_tool_spreads_the_pair_ratios(self, monkeypatch):
        tools = os.path.join(os.path.dirname(__file__), "..", "tools")
        monkeypatch.syspath_prepend(tools)
        spec = importlib.util.spec_from_file_location(
            "bench_configs", os.path.join(tools, "bench_configs.py"))
        bench_configs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_configs)
        # pair i is round i's two runs: ratios 0.5, 1, 1.5, 2, 3
        ratio = bench_configs.pair_ratios([1.0, 2.0, 3.0, 4.0, 6.0], [2.0] * 5)
        assert ratio == {"median": 1.5, "q1": 1.0, "q3": 2.0,
                         "runs": [0.5, 1.0, 1.5, 2.0, 3.0]}

    def test_full_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["validate", "--level", "full", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert json.loads(capsys.readouterr().out) == doc
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert doc["level"] == "full" and doc["passed"] is True
        assert [c["name"] for c in doc["checks"]] == [
            "spectral_identities", "per_block_unitarity", "t0_anchors",
            "oracle_equivalence", "approx_window", "araki_lieb"]

    def test_report_error_names_the_given_path(self, tmp_path, capsys):
        report = str(tmp_path / "missing" / "report.json")
        assert main(["validate", "--report", report]) == 2
        assert capsys.readouterr().err == (
            f"config error: --report: {report!r}: No such file or directory\n")

    def test_validate_cli_writes_report(self, tmp_path):
        report = str(tmp_path / "report.json")
        assert main(["validate", "--level", "fast", "--report", report]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "spectral_identities", "per_block_unitarity", "t0_anchors"}
