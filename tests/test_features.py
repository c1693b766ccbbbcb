import math

import numpy as np
import pytest

from twojc import features, inversion_series
from twojc.dynamics import QGrid
from twojc.features import (beat_nodes, collapse_width, find_peaks, grid_lobes,
                            nearest_extremum, revival_spacing)
from twojc.validation import beat_reference_setup


def synthetic_inversion(tau, mean_n=20.0, x=0.125):
    """Same structure the model produces: envelope, beat, fast carrier."""
    return (np.exp(-2 * mean_n * np.sin(tau) ** 2) * np.cos(x * tau)
            * np.cos(3 * tau + mean_n * np.sin(2 * tau)))


@pytest.fixture(scope="module")
def synthetic():
    tau = np.linspace(0.0, 16 * math.pi, 6000)
    return tau, synthetic_inversion(tau)


def test_find_peaks_on_cosine():
    t = np.linspace(0.0, 20.0, 2000)
    pt, pv = find_peaks(t, np.cos(t), min_height=0.5)
    np.testing.assert_allclose(pt, [2 * math.pi, 4 * math.pi, 6 * math.pi],
                               atol=0.05)
    assert np.all(pv > 0.99)


def test_min_separation_dedupes_plateaus():
    t = np.linspace(0.0, 10.0, 1000)
    y = np.exp(-((t - 5.0) ** 2)) + 0.999 * np.exp(-((t - 5.3) ** 2))
    pt, _ = find_peaks(t, y, min_height=0.1, min_separation=1.0)
    assert len(pt) == 1


def test_revival_spacing_near_pi(synthetic):
    tau, sig = synthetic
    assert revival_spacing(tau, sig) == pytest.approx(math.pi, rel=0.05)


def test_collapse_width_near_inverse_sqrt(synthetic):
    tau, sig = synthetic
    width = collapse_width(tau, sig)
    assert width == pytest.approx(1.0 / math.sqrt(40.0), rel=0.35)


def test_beat_nodes_of_slow_cosine(synthetic):
    tau, sig = synthetic
    nodes = beat_nodes(tau, sig)
    # cos(tau/8) vanishes first at 4 pi
    assert len(nodes) >= 1
    assert nodes[0] == pytest.approx(4 * math.pi, rel=0.05)


def test_beat_node_spacing_kerr_style():
    tau = np.linspace(0.0, 24 * math.pi, 9000)
    sig = synthetic_inversion(tau, x=3.0 / 32.0)  # nodes every 32 pi / 3
    nodes = beat_nodes(tau, sig)
    assert len(nodes) >= 2
    assert nodes[1] - nodes[0] == pytest.approx(32 * math.pi / 3.0, rel=0.1)


def loop_beat_nodes(times, signal, period=math.pi):
    """The per-m loop that beat_nodes replaced, frozen as its reference."""
    h = features._revival_heights(times, signal, period)
    nodes = []
    for m in range(1, len(h) - 1):
        if np.isnan(h[m - 1:m + 2]).any():
            continue
        if h[m] < h[m - 1] and h[m] <= h[m + 1]:
            denom = h[m - 1] + h[m + 1] - 2.0 * h[m]
            shift = (h[m - 1] - h[m + 1]) / (2.0 * denom) if denom > 0 else 0.0
            nodes.append((m + shift) * period)
    return np.array(nodes)


def beat_signal(case):
    """(times, signal) of a named beat-node case."""
    rng = np.random.default_rng(len(case))
    if case.startswith("beat reference"):
        _, field, spectra = beat_reference_setup()
        stop = 16.0 if case.endswith("16 pi") else 40.0
        taus = np.linspace(0.0, stop * math.pi, 4001)
        return taus, inversion_series(field, spectra, taus)
    if case == "kerr-style":
        tau = np.linspace(0.0, 24 * math.pi, 9000)
        return tau, synthetic_inversion(tau, x=3.0 / 32.0)
    if case == "gap":  # no sample near 2 pi or 5 pi: NaN heights
        tau = np.linspace(0.0, 20 * math.pi, 5000)
        keep = (np.abs(tau - 2 * math.pi) > 1.5) & (np.abs(tau - 5 * math.pi) > 1.5)
        return tau[keep], synthetic_inversion(tau[keep], x=0.3)
    if case == "ties":  # heights that repeat
        tau = np.sort(rng.uniform(0.0, 30 * math.pi, 800))
        return tau, rng.integers(0, 4, tau.size).astype(float)
    tau = np.sort(rng.uniform(0.0, 30 * math.pi, 600))
    return tau, rng.normal(size=tau.size)


@pytest.mark.parametrize("case", ["beat reference 16 pi", "beat reference 40 pi",
                                  "kerr-style", "gap", "ties", "random"])
def test_beat_nodes_keep_the_bits_of_the_loop(case):
    times, signal = beat_signal(case)
    nodes = beat_nodes(times, signal)
    ref = loop_beat_nodes(times, signal)
    assert nodes.dtype == ref.dtype and nodes.shape == ref.shape
    assert nodes.tobytes() == ref.tobytes()


def test_local_extrema_roundtrip():
    t = np.linspace(0.0, 4 * math.pi, 1500)
    y = np.sin(t)
    mins_t, _ = find_peaks(t, -y)
    maxs_t, _ = find_peaks(t, y)
    assert nearest_extremum(3 * math.pi / 2, mins_t) < 0.02
    assert nearest_extremum(math.pi / 2, maxs_t) < 0.02
    assert nearest_extremum(1.0, np.array([])) == math.inf


def test_grid_lobes_counts_separated_gaussians():
    ax = np.linspace(-5.0, 5.0, 201)
    X, Y = np.meshgrid(ax, ax)
    v = (np.exp(-((X - 2.0) ** 2 + Y ** 2))
         + 0.8 * np.exp(-((X + 2.0) ** 2 + Y ** 2))
         + 0.02 * np.exp(-((X ** 2 + (Y - 4.0) ** 2))))  # below threshold
    grid = QGrid(re_axis=ax, im_axis=ax, values=v)
    lobes = grid_lobes(grid, rel_threshold=0.1, min_separation=1.0)
    assert len(lobes) == 2
    alphas = sorted(a.real for a, _ in lobes)
    assert alphas[0] == pytest.approx(-2.0, abs=0.1)
    assert alphas[1] == pytest.approx(2.0, abs=0.1)


def test_grid_lobes_merges_close_maxima():
    ax = np.linspace(-3.0, 3.0, 121)
    X, Y = np.meshgrid(ax, ax)
    v = np.exp(-((X - 0.2) ** 2 + Y ** 2)) + np.exp(-((X + 0.2) ** 2 + Y ** 2))
    grid = QGrid(re_axis=ax, im_axis=ax, values=v)
    assert len(grid_lobes(grid, min_separation=1.0)) == 1
