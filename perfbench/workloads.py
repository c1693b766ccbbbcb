"""The four benchmark workloads: one pass each, and the check of its outputs.

Every workload goes through twojc's public API only.  The three run
workloads load a config from ``perfbench/configs`` with
``config.load_config`` and hand it to ``cli.run_config``, with the output
directory moved into a temporary directory.  ``crosscheck`` runs the
spectral identity sweep and the analytic-vs-oracle comparison of the
beat reference setup.

A pass returns an ``Output``; the workload's ``check`` turns it into a list of
problems (empty when the pass is correct) and a digest of the files or
arrays it produced, which must be the same on every pass.
"""

import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

ORACLE_SAMPLES = 20          # series: inversion samples re-checked by the oracle
HUSIMI_SAMPLES = 5           # phase_space: random grid points re-checked per snapshot,
                             # besides the peak
SECTOR_TOL = 1e-8
RK4_TOL = 1e-6
HUSIMI_POINT_TOL = 1e-12
HUSIMI_NORM_TOL = 1e-3
RANGE_TOL = 1e-12
# check_oracle_equivalence's full 16*pi span costs about 30 s a pass, too long to
# repeat; the RK4 step rule and both bounds are unchanged
CROSS_SAMPLES = 200
CROSS_SPAN = 2.0 * math.pi
IDENTITY_DRAWS = 1000


@dataclass
class Output:
    """What one pass produced."""

    files: list = field(default_factory=list)    # [(path, sha256 from the manifest)]
    out_dir: str = None
    arrays: dict = field(default_factory=dict)   # crosscheck results
    report: dict = field(default_factory=dict)


def read_csv(path):
    """The float rows of a twojc CSV (``#`` lines and the column header skipped)."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.loadtxt(lines[1:], delimiter=",", ndmin=2)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class RunWorkload:
    """A config from ``perfbench/configs`` driven through ``cli.run_config``."""

    def __init__(self, name, tw, seed, tmp):
        self.name = name
        self.tw = tw
        self.rng = np.random.default_rng(seed % 2**64)
        self.tmp = tmp
        self.config_path = os.path.join(HERE, "configs", f"{name}.json")
        self.passes = 0
        self.cfg = None
        self._oracle = None
        self._rho_f = {}

    def run_pass(self):
        self.passes += 1
        out_dir = os.path.join(self.tmp, f"pass{self.passes}")
        cfg = self.tw.config.load_config(self.config_path)
        cfg = replace(cfg, out_dir=out_dir)
        manifest = self.tw.cli.run_config(cfg)
        self.cfg = cfg
        files = [(os.path.join(out_dir, f["path"]), f["sha256"])
                 for f in manifest["files"]]
        return Output(files=files, out_dir=out_dir)

    def model_params(self):
        return self.tw.config.load_config(self.config_path).curves[0].params

    def facts(self):
        cfg = self.tw.config.load_config(self.config_path)
        q = cfg.q_grid
        facts = {
            "curves": len(cfg.curves),
            "n_max": sorted({c.n_max for c in cfg.curves}),
            "time_samples": len(cfg.times_tau),
            "observables": list(cfg.observables),
            "husimi_grid": (f"{q.re_count}x{q.im_count} x {len(q.times_tau)} snapshots"
                            if "qfunction" in cfg.observables else None),
            "joint_dim": None,
        }
        if self.name == "series":
            facts["joint_dim"] = 4 * (cfg.curves[0].n_max + 3)
        return facts

    def check(self, out):
        """Problems found in one pass's outputs, digest, and write counts."""
        problems = []
        rows = 0
        nbytes = os.path.getsize(
            os.path.join(out.out_dir, f"{self.cfg.prefix}_manifest.json"))
        tables = {}
        for path, sha in out.files:
            nbytes += os.path.getsize(path)
            if sha256_file(path) != sha:
                problems.append(f"{os.path.basename(path)}: manifest hash mismatch")
            data = read_csv(path)
            rows += data.shape[0]
            if not np.all(np.isfinite(data)):
                problems.append(f"{os.path.basename(path)}: NaN or Inf")
            tables[os.path.basename(path)] = data
        if self.name == "series":
            problems += self._check_series(tables)
        elif self.name == "phase_space":
            problems += self._check_phase_space(tables)
        digest = hashlib.sha256(json.dumps(
            [(os.path.basename(p), s) for p, s in out.files]).encode()).hexdigest()
        shutil.rmtree(out.out_dir)
        return problems, digest, {"rows": rows, "bytes": nbytes}

    def _curve_state(self, curve):
        dyn = self.tw.dynamics
        fld = dyn.coherent_field(curve.mean_n, phase=curve.phase, n_max=curve.n_max,
                                 atom_init=curve.atom_init)
        return fld, self.tw.spectral.spectrum_table(curve.params, curve.n_max)

    def _check_series(self, tables):
        problems = []
        curve = self.cfg.curves[0]
        pre = f"{self.cfg.prefix}_{curve.label}_"
        col = {name: tables[f"{pre}{name}.csv"]
               for name in ("inversion", "purity", "concurrence", "entropy")}
        ranges = {"purity": (1.0 / 3.0, 1.0), "entropy": (0.0, math.log(3.0)),
                  "concurrence": (0.0, 1.0)}
        for name, (lo, hi) in ranges.items():
            v = col[name][:, 1]
            if v.min() < lo - RANGE_TOL or v.max() > hi + RANGE_TOL:
                problems.append(f"{name} outside [{lo:.6g}, {hi:.6g}]: "
                                f"[{v.min():.17g}, {v.max():.17g}]")
        orc = self.tw.oracle
        if self._oracle is None:
            fld, _ = self._curve_state(curve)
            H = orc.build_joint_hamiltonian(curve.params, curve.n_max)
            self._oracle = (orc.SectorPropagator(H, curve.n_max),
                            orc.joint_initial_state(fld))
        prop, psi0 = self._oracle
        inv = col["inversion"]
        picks = self.rng.choice(len(inv), size=ORACLE_SAMPLES, replace=False)
        worst = max(abs(inv[i, 1] - orc.inversion_of(
            prop.evolve(psi0, inv[i, 0] / curve.params.g))) for i in picks)
        if not worst < SECTOR_TOL:
            problems.append(f"inversion vs sector oracle {worst:.3e} >= {SECTOR_TOL:g}")
        return problems

    def _check_phase_space(self, tables):
        problems = []
        curve = self.cfg.curves[0]
        q = self.cfg.q_grid
        dyn = self.tw.dynamics
        state = None
        for idx, tau in enumerate(q.times_tau):
            data = tables[f"{self.cfg.prefix}_{curve.label}_qfunction_{idx}.csv"]
            re_axis, im_axis = q.axes()
            integral = data[:, 2].sum() * (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0])
            if not abs(integral - 1.0) < HUSIMI_NORM_TOL:
                problems.append(f"qfunction_{idx}: integral {integral:.6f} not 1 "
                                f"+- {HUSIMI_NORM_TOL:g}")
            if idx not in self._rho_f:
                state = state or self._curve_state(curve)
                fld, spectra = state
                self._rho_f[idx] = dyn.reduced_field_density(
                    fld, spectra, tau / curve.params.g)
            picks = self.rng.choice(len(data), size=HUSIMI_SAMPLES, replace=False)
            for i in [int(np.argmax(data[:, 2])), *picks]:
                re, im, val = data[i]
                ref = dyn.husimi_q(self._rho_f[idx], complex(re, im))
                if not abs(val - ref) < HUSIMI_POINT_TOL:
                    problems.append(f"qfunction_{idx} at {re}+{im}i: grid {val!r} "
                                    f"vs husimi_q {ref!r}")
        return problems


class CrossCheck:
    """Identity sweep plus the beat reference against both oracles."""

    name = "crosscheck"

    def __init__(self, tw, seed):
        self.tw = tw
        self.seed = seed
        self.n_max = self.dim = None

    def run_pass(self):
        tw = self.tw
        orc, dyn = tw.oracle, tw.dynamics
        identities = tw.validation.check_spectral_identities(
            n_draws=IDENTITY_DRAWS, seed=self.seed % 2**64)
        params, fld, spectra = tw.validation.beat_reference_setup()
        times = np.linspace(0.0, CROSS_SPAN, CROSS_SAMPLES) / params.g
        analytic = dyn.inversion_series(fld, spectra, times)
        H = orc.build_joint_hamiltonian(params, fld.n_max)
        psi0 = orc.joint_initial_state(fld)
        prop = orc.SectorPropagator(H, fld.n_max)
        exact = np.array([orc.inversion_of(prop.evolve(psi0, t)) for t in times])
        states = orc.evolve_numeric_sampled(H, psi0, times)
        rk4 = np.array([orc.inversion_of(s) for s in states])
        self.n_max, self.dim = fld.n_max, H.shape[0]
        return Output(arrays={"analytic": analytic, "sector": exact, "rk4": rk4},
                      report={"identities": identities,
                              "buffer": orc.buffer_population(states[-1])})

    def model_params(self):
        return self.tw.validation.beat_reference_setup()[0]

    def facts(self):
        return {"curves": 1, "n_max": [self.n_max], "time_samples": CROSS_SAMPLES,
                "tau_span": CROSS_SPAN, "identity_draws": IDENTITY_DRAWS,
                "husimi_grid": None, "joint_dim": self.dim}

    def check(self, out):
        a = out.arrays
        problems = []
        ident = out.report["identities"]
        if not ident["passed"]:
            problems.append(f"spectral identities failed: {ident['metrics']}")
        for name in ("analytic", "sector", "rk4"):
            if not np.all(np.isfinite(a[name])):
                problems.append(f"{name}: NaN or Inf")
        sector = float(np.abs(a["analytic"] - a["sector"]).max())
        rk4 = float(np.abs(a["analytic"] - a["rk4"]).max())
        if not sector < SECTOR_TOL:
            problems.append(f"sector oracle {sector:.3e} >= {SECTOR_TOL:g}")
        if not rk4 < RK4_TOL:
            problems.append(f"RK4 oracle {rk4:.3e} >= {RK4_TOL:g}")
        if out.report["buffer"] > self.tw.oracle.BUFFER_TOL:
            problems.append(f"truncation buffer population {out.report['buffer']:.2e}")
        h = hashlib.sha256(json.dumps(ident, sort_keys=True).encode())
        for name in sorted(a):
            h.update(np.ascontiguousarray(a[name]).tobytes())
        return problems, h.hexdigest(), {"rows": 0, "bytes": 0}


def make(name, tw, seed, tmp):
    if name == "crosscheck":
        return CrossCheck(tw, seed)
    return RunWorkload(name, tw, seed, tmp)
