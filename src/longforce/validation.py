"""Model validation against recorded drives.

Compares the measured acceleration of a drive log with what the direct
model predicts from the recorded commands and slope, and aggregates the
error into summary statistics and a histogram centered on zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _INT64_SPAN, DriveLog
from .dynamics import ModelSet, direct_acceleration_many
from .errors import EmptyReportError, InvalidParameterError
from .estimation import AccelSeries, _require_aligned
from .spline import _reject_nan

DEFAULT_HIST_BIN = 0.1
#: Most histogram bins a bin width may ask for over the errors' range.
MAX_HIST_BINS = 100_000
#: Samples ``validate`` passes to the direct model at a time.
_VALIDATE_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class ErrorReport:
    """Acceleration error statistics (measured minus model) over a drive."""

    mean: float
    std_dev: float
    min: float
    max: float
    count: int
    total_distance_m: float
    hist_bin_width: float
    histogram: tuple[tuple[float, int], ...]


def validate(models: ModelSet, log: DriveLog, accel: AccelSeries,
             hist_bin: float = DEFAULT_HIST_BIN) -> ErrorReport:
    """Compare measured against model-estimated acceleration sample by sample.

    Only samples with a valid acceleration estimate are compared; a caller
    that must leave out further samples (e.g. bumps or sharp turns where the
    decoupled-dynamics assumption breaks) clears them in ``accel.valid``. The
    standard deviation is the population one. Total distance integrates
    speed over the whole log with the trapezoidal rule.
    """
    _require_aligned(log, accel)
    idx = np.flatnonzero(accel.valid)
    if len(idx) == 0:
        raise EmptyReportError("no valid samples to compare")
    _reject_nan("measured acceleration", np.where(accel.valid, accel.accel, 0.0))
    # Rows are independent, so blocks of them give the same bits as one call
    # while bounding the size of its temporaries.
    model_a = np.concatenate([
        direct_acceleration_many(models, log.speed[rows], log.throttle[rows],
                                 log.brake[rows], log.slope[rows])[0]
        for rows in np.split(idx, np.arange(_VALIDATE_BLOCK_ROWS, len(idx),
                                            _VALIDATE_BLOCK_ROWS))])
    errors = accel.accel[idx] - model_a
    distance = float(np.trapezoid(log.speed, log.t)) if len(log) > 1 else 0.0
    return ErrorReport(
        mean=float(errors.mean()),
        std_dev=float(errors.std()),
        min=float(errors.min()),
        max=float(errors.max()),
        count=len(errors),
        total_distance_m=distance,
        hist_bin_width=hist_bin,
        histogram=_histogram(errors, hist_bin),
    )


def _histogram(errors: np.ndarray, bin_width: float) -> tuple[tuple[float, int], ...]:
    """Contiguous histogram with bins of the given width centered on zero."""
    if not 0 < bin_width < math.inf:
        raise InvalidParameterError("histogram bin width must be finite and > 0, "
                                    f"got {bin_width}")
    span = float(errors.max()) - float(errors.min())
    if span / bin_width >= MAX_HIST_BINS:
        raise InvalidParameterError(f"histogram bin width {bin_width} gives more than "
                                    f"{MAX_HIST_BINS} bins over an error span of {span:g}")
    # The bin indices are cast to int64, which must hold them.
    reach = float(np.abs(errors).max())
    if reach / bin_width >= _INT64_SPAN:
        raise InvalidParameterError(f"histogram bin width {bin_width} puts an error of "
                                    f"{reach:g} beyond the int64 bin indices")
    k = np.floor(errors / bin_width + 0.5).astype(int)
    lo, hi = int(k.min()), int(k.max())
    counts = np.bincount(k - lo, minlength=hi - lo + 1)
    return tuple((round(j * bin_width, 12), int(c))
                 for j, c in zip(range(lo, hi + 1), counts))


def report_to_dict(report: ErrorReport) -> dict:
    return {
        "mean_mps2": report.mean,
        "std_dev_mps2": report.std_dev,
        "min_mps2": report.min,
        "max_mps2": report.max,
        "count": report.count,
        "total_distance_m": report.total_distance_m,
        "hist_bin_width_mps2": report.hist_bin_width,
        "histogram": [{"center_mps2": c, "count": n} for c, n in report.histogram],
    }


def render_table(report: ErrorReport) -> str:
    """Plain-text summary table (measured acc. minus model acc.)."""
    rows = [
        ("Average [m/s^2]", f"{report.mean:.2f}"),
        ("Std. dev [m/s^2]", f"{report.std_dev:.2f}"),
        ("Min [m/s^2]", f"{report.min:.2f}"),
        ("Max [m/s^2]", f"{report.max:.2f}"),
        ("Number of measurements", str(report.count)),
        ("Total distance [km]", f"{report.total_distance_m / 1000.0:.2f}"),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
