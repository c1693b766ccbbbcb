"""Spans around twojc's public functions, recorded from outside the package.

A ``Tracer`` replaces module attributes (and two ``SectorPropagator``
methods) with timing wrappers while it is entered, and puts the originals
back on exit.  twojc resolves these names through the module at call
time (``cli`` calls ``dynamics.*``/``spectral.*``; ``observable_series``
looks up ``inversion_series``, ``hermitian_eigvals`` and ``concurrence``
as module globals), so nested calls are recorded as child spans without
editing the package.  Spans are kept in memory; ``layer_metrics`` turns
them into per-layer totals, self times and counts.
"""

import time

# (module name, attribute, class attribute or None, span name)
TARGETS = (
    ("config", "load_config", None, "config.load_config"),
    ("spectral", "spectrum_table", None, "spectral.spectrum_table"),
    ("spectral", "block_spectrum", None, "spectral.block_spectrum"),
    ("dynamics", "observable_series", None, "dynamics.observable_series"),
    ("dynamics", "inversion_series", None, "dynamics.inversion_series"),
    ("dynamics", "hermitian_eigvals", None, "dynamics.hermitian_eigvals"),
    ("dynamics", "concurrence", None, "dynamics.concurrence"),
    ("dynamics", "reduced_field_density", None, "dynamics.reduced_field_density"),
    ("dynamics", "husimi_grid", None, "dynamics.husimi_grid"),
    ("oracle", "build_joint_hamiltonian", None, "oracle.build_joint_hamiltonian"),
    ("oracle", "SectorPropagator", "__init__", "oracle.SectorPropagator.init"),
    ("oracle", "SectorPropagator", "evolve", "oracle.SectorPropagator.evolve"),
    ("oracle", "evolve_numeric_sampled", None, "oracle.evolve_numeric_sampled"),
    ("validation", "check_spectral_identities", None,
     "validation.check_spectral_identities"),
    ("cli", "run_config", None, "cli.run_config"),
)

# per-layer metric -> (span name, "total" | "self")
SPAN_METRICS = {
    "config.load_s": ("config.load_config", "total"),
    "spectral.table_s": ("spectral.spectrum_table", "total"),
    "dynamics.series_s": ("dynamics.observable_series", "total"),
    "dynamics.series_self_s": ("dynamics.observable_series", "self"),
    "dynamics.inversion_s": ("dynamics.inversion_series", "total"),
    "dynamics.entropy_eig_s": ("dynamics.hermitian_eigvals", "total"),
    "dynamics.concurrence_s": ("dynamics.concurrence", "total"),
    "dynamics.rho_field_s": ("dynamics.reduced_field_density", "total"),
    "dynamics.husimi_s": ("dynamics.husimi_grid", "total"),
    "oracle.build_s": ("oracle.build_joint_hamiltonian", "total"),
    "oracle.sector_init_s": ("oracle.SectorPropagator.init", "total"),
    "oracle.sector_evolve_s": ("oracle.SectorPropagator.evolve", "total"),
    "oracle.rk4_s": ("oracle.evolve_numeric_sampled", "total"),
    "validation.identities_s": ("validation.check_spectral_identities", "total"),
    "cli.self_s": ("cli.run_config", "self"),
}

CALL_METRICS = {
    "dynamics.entropy_eig_calls": "dynamics.hermitian_eigvals",
    "dynamics.concurrence_calls": "dynamics.concurrence",
}


def _count(counts, key, value, how="add"):
    if how == "max":
        counts[key] = max(counts.get(key, 0), value)
    else:
        counts[key] = counts.get(key, 0) + value


def _note_blocks(counts, args, result):
    _count(counts, "spectral.blocks", 1)
    _count(counts, "spectral.fallback_blocks", int(bool(result.used_fallback)))


def _note_series(counts, args, result):
    # the (T, N+1, 3) complex branch-coefficient array of one curve
    field, _, times = args[:3]
    n_times = len(times)
    _count(counts, "dynamics.coeff_bytes", n_times * (field.n_max + 1) * 3 * 16, "max")


def _note_husimi(counts, args, result):
    _count(counts, "dynamics.husimi_points", int(result.values.size))


def _note_hamiltonian(counts, args, result):
    _count(counts, "oracle.dim", int(result.shape[0]), "max")


NOTES = {
    "spectral.block_spectrum": _note_blocks,
    "dynamics.observable_series": _note_series,
    "dynamics.husimi_grid": _note_husimi,
    "oracle.build_joint_hamiltonian": _note_hamiltonian,
}


class Tracer:
    """Context manager that records spans for the calls made inside it."""

    def __init__(self, modules):
        self._modules = modules
        self._saved = []
        self.spans = []      # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def _wrap(self, fn, name):
        note = NOTES.get(name)
        clock = time.perf_counter
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for mod_name, attr, method, name in TARGETS:
            module = self._modules[mod_name]
            owner, key = (module, attr) if method is None else (getattr(module, attr), method)
            original = owner.__dict__[key]
            self._saved.append((owner, key, original))
            setattr(owner, key, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)
        return False

    def layer_metrics(self):
        """Totals, self times and counts of the recorded spans."""
        total, child, calls = {}, [0.0] * len(self.spans), {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selft = {}
        block_outside_table = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            selft[name] = selft.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            if (name == "spectral.block_spectrum"
                    and (parent < 0 or self.spans[parent][0] != "spectral.spectrum_table")):
                block_outside_table += dur
        out = {}
        for metric, (name, kind) in SPAN_METRICS.items():
            out[metric] = (total if kind == "total" else selft).get(name, 0.0)
        out["spectral.block_s"] = block_outside_table
        for metric, name in CALL_METRICS.items():
            out[metric] = calls.get(name, 0)
        for key in ("spectral.blocks", "spectral.fallback_blocks",
                    "dynamics.coeff_bytes", "dynamics.husimi_points", "oracle.dim"):
            out[key] = self.counts.get(key, 0)
        return out
