"""Feature detectors for time series and phase-space grids.

Collapse/revival structure is read off sampled inversion signals:
revival peaks from a lightly smoothed |signal|, the collapse width from
the 1/e crossing of the peak-interpolated envelope, and beat nodes from
local minima of the revival-height sequence.  The detectors only assume
a revival spacing near pi in tau = g t, which is what the model
produces for the sqrt coupling.
"""

import math

import numpy as np

REVIVAL_SMOOTH_WIDTH = 0.05  # smoothing window in tau units


def _moving_average(y, width_samples):
    w = max(1, int(width_samples))
    if w % 2 == 0:
        w += 1
    if w == 1:
        return y
    kern = np.ones(w) / w
    return np.convolve(y, kern, mode="same")


def _interior_maxima(y):
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1


def _apart(order, at, min_separation):
    """The candidates of `order`, tallest first, each kept if it lies farther
    than min_separation from every taller one kept."""
    kept = []
    for i in order:
        if all(abs(at[i] - at[k]) > min_separation for k in kept):
            kept.append(i)
    return kept


def find_peaks(times, values, min_height=-math.inf, min_separation=0.0):
    """Interior local maxima of values above min_height, tallest first within
    each separation slot; find_peaks(times, -values) gives the minima.

    Returns (peak_times, peak_values) sorted by time.
    """
    idx = _interior_maxima(values)
    idx = idx[values[idx] > min_height]
    if min_separation > 0:
        tallest_first = idx[np.argsort(values[idx])[::-1]]
        idx = np.array(sorted(_apart(tallest_first, times, min_separation)), dtype=int)
    return times[idx], values[idx]


def revival_spacing(times, signal, min_height=0.05):
    """Median spacing between successive revival peaks, found on the
    lightly smoothed |signal|."""
    dt = times[1] - times[0]
    sm = _moving_average(np.abs(signal), round(REVIVAL_SMOOTH_WIDTH / dt))
    pt, _ = find_peaks(times, sm, min_height=min_height, min_separation=0.5)
    pt = pt[pt > 0.5]  # skip the t=0 transient
    if len(pt) < 2:
        return math.nan
    return float(np.median(np.diff(pt)))


def collapse_width(times, signal):
    """First 1/e crossing of the oscillation envelope.

    The envelope is sampled at the local maxima of |signal| (plus the
    initial point) and linearly interpolated between them.
    """
    ab = np.abs(signal)
    idx = _interior_maxima(ab)
    pt = np.concatenate([[times[0]], times[idx]])
    ph = np.concatenate([[ab[0]], ab[idx]])
    target = ph[0] / math.e
    for i in range(1, len(pt)):
        if ph[i] < target <= ph[i - 1]:
            frac = (ph[i - 1] - target) / (ph[i - 1] - ph[i])
            return float(pt[i - 1] + frac * (pt[i] - pt[i - 1]))
    return math.nan


def _revival_heights(times, signal, period):
    """max |signal| near each multiple of the revival period."""
    ab = np.abs(signal)
    m_top = int(np.floor(times[-1] / period + 0.25))
    heights = np.full(m_top + 1, np.nan)
    for m in range(m_top + 1):
        mask = np.abs(times - m * period) < 0.45 * period
        if mask.any():
            heights[m] = ab[mask].max()
    return heights


def beat_nodes(times, signal, period=math.pi):
    """Times where the slow beat envelope vanishes.

    The envelope is sampled by the revival heights h_m near tau = m *
    period; nodes are the maxima of -h (none next to a NaN height), with
    a sub-sample vertex correction where the heights' parabola opens up.
    """
    h = _revival_heights(times, signal, period)
    m = _interior_maxima(-h)
    denom = h[m - 1] + h[m + 1] - 2.0 * h[m]
    shift = np.divide(h[m - 1] - h[m + 1], 2.0 * denom, out=np.zeros(len(m)), where=denom > 0)
    return (m + shift) * period


def nearest_extremum(target, extremum_times):
    """Distance from target to the closest detected extremum."""
    if len(extremum_times) == 0:
        return math.inf
    return float(np.min(np.abs(np.asarray(extremum_times) - target)))


def grid_lobes(qgrid, rel_threshold=0.1, min_separation=1.0):
    """Well-separated local maxima of a Husimi grid.

    A grid point is a lobe candidate if it tops its 8 neighbors and
    exceeds rel_threshold * max(values); candidates closer than
    min_separation to a taller one are absorbed.  Returns a list of
    (alpha, value) with alpha complex.  The prominence threshold is a
    detector choice, not a physical scale.
    """
    v = qgrid.values
    mx = np.zeros_like(v, dtype=bool)
    c = v[1:-1, 1:-1]
    mx[1:-1, 1:-1] = ((c > v[:-2, 1:-1]) & (c >= v[2:, 1:-1])
                      & (c > v[1:-1, :-2]) & (c >= v[1:-1, 2:])
                      & (c > v[:-2, :-2]) & (c >= v[2:, 2:])
                      & (c > v[:-2, 2:]) & (c >= v[2:, :-2]))
    mx &= v > rel_threshold * v.max()
    i, j = np.nonzero(mx)
    alpha = qgrid.re_axis[j] + 1j * qgrid.im_axis[i]
    order = np.argsort(-v[i, j], kind="stable")  # ties in row-major order
    return [(alpha[k], float(v[i[k], j[k]])) for k in _apart(order, alpha, min_separation)]
