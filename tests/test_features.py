import math

import numpy as np
import pytest

from twojc.dynamics import QGrid
from twojc.features import (beat_nodes, collapse_width, find_peaks, grid_lobes,
                            nearest_extremum, revival_spacing)


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
