"""Acceleration estimation and aggregation of scattered force observations.

The acceleration estimator is the noise bottleneck of the whole
identification chain: forces are recovered as ``m_eq * a`` plus curve
lookups, so phase lag or bias here lands directly on the force curves.
The estimator is therefore centered (no phase shift by construction) and
runs off-line over a whole log segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import DriveLog
from .errors import EmptySeriesError, InvalidParameterError

DEFAULT_WINDOW = 21
DEFAULT_CUTOFF_HZ = 5.0
#: Most bins :func:`log_spaced_edges` makes. Every edge is allocated, so a
#: count of 10^9 asked for 8 GB of edges; 10 000 bins over 0.05-40 m/s are
#: each under 0.07 % wide, finer than a speed signal resolves.
MAX_BIN_COUNT = 10_000

#: Windows per block in :func:`_window_slopes` (two 2048 x 51 float blocks
#: are about 1.7 MB).
_SLOPE_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class AccelSeries:
    """Acceleration estimates aligned index-for-index with a DriveLog.

    Samples too close to a segment boundary for the centered window to fit
    are marked invalid (``valid`` False, ``accel`` NaN) and must be excluded
    downstream. Arrays of unequal length raise
    :class:`~longforce.errors.InvalidParameterError`.
    """

    accel: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if len(self.accel) != len(self.valid):
            raise InvalidParameterError(
                f"acceleration series has {len(self.accel)} estimates but "
                f"{len(self.valid)} validity flags")
        for col in (self.accel, self.valid):
            np.asarray(col).setflags(write=False)

    def __len__(self) -> int:
        return len(self.accel)


def _require_aligned(log: DriveLog, accel: AccelSeries) -> None:
    """Refuse an ``accel`` that does not hold one estimate per sample of ``log``."""
    if len(accel) != len(log):
        raise InvalidParameterError(
            f"acceleration series has {len(accel)} samples, the log {len(log)}")


def _window_slopes(t: np.ndarray, v: np.ndarray, window: int) -> np.ndarray:
    """Least-squares line slope over each full centered window.

    Time is re-centered per window before forming the normal equations, so
    the conditioning does not degrade with the absolute time stamp.
    Returns an array of length ``len(t) - window + 1``. The windows are
    reduced ``_SLOPE_BLOCK_ROWS`` at a time, so the centered copies stay a
    few megabytes however long the segment is; each row's arithmetic does
    not depend on the block it falls in.
    """
    tw = sliding_window_view(t, window)
    vw = sliding_window_view(v, window)
    slopes = np.empty(len(tw))
    for lo in range(0, len(tw), _SLOPE_BLOCK_ROWS):
        rows = slice(lo, lo + _SLOPE_BLOCK_ROWS)
        tc = tw[rows] - tw[rows].mean(axis=1, keepdims=True)
        vc = vw[rows] - vw[rows].mean(axis=1, keepdims=True)
        slopes[rows] = np.einsum("ij,ij->i", tc, vc) / np.einsum("ij,ij->i", tc, tc)
    return slopes


def _lowpass_zero_phase(x: np.ndarray, dt: float, cutoff_hz: float) -> np.ndarray:
    """Zero-phase first-order low-pass.

    Runs the causal first-order filter forward then backward, and averages
    the two pass orders. The averaging makes the smoother exactly symmetric
    under time reversal (not just asymptotically, as plain filtfilt is),
    which the extraction round-trip tests rely on. Constants pass through
    unchanged; linear trends are preserved away from the segment ends.
    """
    rc = 1.0 / (2.0 * math.pi * cutoff_hz)
    alpha = dt / (rc + dt)

    def forward(sig: list[float]) -> list[float]:
        acc = sig[0]
        out = [acc]
        for x_i in sig[1:]:
            acc = acc + alpha * (x_i - acc)
            out.append(acc)
        return out

    def backward(sig: list[float]) -> list[float]:
        return forward(sig[::-1])[::-1]

    xs = x.tolist()
    return 0.5 * (np.array(backward(forward(xs))) + np.array(forward(backward(xs))))


def check_estimator(window: int, cutoff_hz: float) -> None:
    """Refuse settings :func:`estimate_acceleration` cannot use.

    Raises :class:`~longforce.errors.InvalidParameterError` naming the window
    or the cut-off frequency.
    """
    if window < 3 or window % 2 == 0:
        raise InvalidParameterError(f"window must be an odd integer >= 3, got {window}")
    if not 0.0 < cutoff_hz < math.inf:
        raise InvalidParameterError(f"cutoff_hz must be finite and > 0, got {cutoff_hz}")


def estimate_acceleration(log: DriveLog, window: int = DEFAULT_WINDOW,
                          cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> AccelSeries:
    """Smooth, zero-phase acceleration estimate for every log sample.

    Per segment, the acceleration at sample i is the slope of a
    least-squares line over the speed samples in the centered window
    ``[i-(w-1)/2, i+(w-1)/2]``, followed by the zero-phase low-pass at
    ``cutoff_hz``. Segments shorter than the window yield only invalid
    samples; if the whole log yields none, raises
    :class:`~longforce.errors.EmptySeriesError`.
    """
    check_estimator(window, cutoff_hz)
    n = len(log)
    accel = np.full(n, np.nan)
    valid = np.zeros(n, dtype=bool)
    half = (window - 1) // 2
    for seg in log.segments():
        t = log.t[seg]
        v = log.speed[seg]
        if len(t) < window:
            continue
        slopes = _window_slopes(t, v, window)
        dt = float(np.median(np.diff(t)))
        smooth = _lowpass_zero_phase(slopes, dt, cutoff_hz)
        lo = seg.start + half
        hi = seg.stop - half
        accel[lo:hi] = smooth
        valid[lo:hi] = True
    if not valid.any():
        raise EmptySeriesError(
            f"no segment of the log holds >= {window} samples; cannot estimate acceleration")
    return AccelSeries(accel=accel, valid=valid)


def log_spaced_edges(lo: float = 0.05, hi: float = 40.0, count: int = 40) -> np.ndarray:
    """``count`` log-spaced speed bins between ``lo`` and ``hi`` m/s."""
    if not 0 < lo < hi < math.inf:
        raise InvalidParameterError("need 0 < lo < hi < inf for log-spaced bin edges")
    if count < 1:
        raise InvalidParameterError(f"bin count must be >= 1, got {count}")
    if count > MAX_BIN_COUNT:
        raise InvalidParameterError(f"bin count must be <= {MAX_BIN_COUNT}, got {count}")
    return np.geomspace(lo, hi, count + 1)


def bin_by_speed(points, edges) -> np.ndarray:
    """Aggregate scattered (speed, value) points into per-bin medians.

    ``points`` is an (N, 2) array or a list of pairs. Returns a (K, 3) float
    array with one row per non-empty bin, in bin order: the median member
    speed, the median member value and the member count, the (speed, value,
    weight) rows :func:`~longforce.spline.fit_curve` reads. Medians are
    robust to the bump/pothole outliers that contaminate force observations.
    Points outside the edge span are dropped; the top edge is inclusive.
    """
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("edges must be strictly increasing with >= 2 entries")
    speeds, values = np.asarray(points, dtype=float).reshape(-1, 2).T
    idx = np.digitize(speeds, edges)  # 1..nbins inside; the top edge is inclusive
    idx[speeds == edges[-1]] = len(edges) - 1
    inside = np.flatnonzero((idx >= 1) & (idx < len(edges)))
    # One stable sort groups the members by bin and keeps their input order.
    members = inside[np.argsort(idx[inside], kind="stable")]
    groups = np.split(members, np.flatnonzero(np.diff(idx[members])) + 1)
    return np.array([(np.median(speeds[g]), np.median(values[g]), len(g))
                     for g in groups if len(g)], dtype=float).reshape(-1, 3)
