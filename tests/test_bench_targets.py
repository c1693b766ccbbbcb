"""The names the benchmark's tracer wraps stay where the tracer finds them.

``perfbench/spans.py`` swaps each ``TARGETS`` entry on its owner for a timing
wrapper while a traced pass runs, reading ``owner.__dict__[key]``.  A name
that is deleted or moved fails only a traced benchmark pass, which the tests
never otherwise enter, so the file is loaded here by path and checked.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from twojc import F_BUCK_SUKUMAR, ModelParams, coherent_field, spectrum_table

SPANS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()
MODULES = {mod: importlib.import_module(f"twojc.{mod}")
           for mod in sorted({target[0] for target in spans.TARGETS})}


@pytest.mark.parametrize("mod_name, attr, method, name", spans.TARGETS,
                         ids=[target[3] for target in spans.TARGETS])
def test_target_is_in_its_owners_dict(mod_name, attr, method, name):
    module = MODULES[mod_name]
    owner, key = (module, attr) if method is None else (getattr(module, attr), method)
    assert callable(vars(owner).get(key)), f"{name}: {key} not in {owner.__name__}"


def test_traced_calls_are_recorded_and_the_originals_restored():
    dyn = MODULES["dynamics"]
    before = {name: getattr(dyn, name) for name in ("observable_series", "husimi_grid")}
    params = ModelParams(omega0=1.0, g=1.0, kappa=0.25, f_kind=F_BUCK_SUKUMAR)
    field = coherent_field(2.0, n_max=30)
    spectra = spectrum_table(params, field.n_max)
    times = np.linspace(0.0, 1.0, 5)
    with spans.Tracer(MODULES) as tracer:
        dyn.observable_series(field, spectra, times, dyn.SERIES_OBSERVABLES)
        # the series' worker threads call no wrapped name (the span stack is
        # not thread-safe), so the single-call entries are traced on their own
        assert [span[0] for span in tracer.spans] == ["dynamics.observable_series"]
        rho = dyn.reduced_atom_density(field, spectra, times)
        dyn.concurrence(rho)
        dyn.field_entropy(rho)
        ax = np.linspace(-1.0, 1.0, 4)
        dyn.husimi_grid(dyn.reduced_field_density(field, spectra, 0.5), ax, ax)
    assert {name: getattr(dyn, name) for name in before} == before
    metrics = tracer.layer_metrics()
    assert metrics["dynamics.concurrence_calls"] == 1
    assert metrics["dynamics.entropy_eig_calls"] == 1
    assert metrics["dynamics.husimi_points"] == 16
    assert metrics["dynamics.series_s"] > 0.0 and metrics["dynamics.rho_field_s"] > 0.0
