"""Constrained spline curves and force surfaces.

Force models are piecewise-cubic Hermite curves over speed. Tangents are
limited with the Fritsch-Carlson criterion wherever the knot values are
locally monotone, which makes overshoot below zero structurally
impossible: between two knots the curve stays inside the knot value range.
That matters because propulsion and braking forces can never be negative,
and the hand-shaped low-speed regions must not grow spurious wiggles.

A force surface is a family of such curves indexed by an integer command
signal (throttle or brake). Evaluation between defining levels interpolates
the per-level values with the same monotone-limited Hermite scheme along
the signal axis, so the surface passes exactly through its defining curves
and cross-sections in the signal axis stay monotone whenever the level
values are.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import file_values, json_integers, json_numbers, json_object, read_json
from .errors import FitError, InvalidParameterError, InversionError, SchemaError

#: Default knot layout (m/s): log-spaced, dense at low speed where the
#: shapes carry the creep/Stribeck/regen-cutoff features.
DEFAULT_KNOTS_MPS = (0.1, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0, 25.0, 36.0)

SIGNAL_TOL = 1e-3


def _hermite(t: float, y0: float, y1: float, m0: float, m1: float, h: float) -> float:
    # grouped as y0 + (y1-y0)*h01 so flat segments evaluate exactly flat
    t2 = t * t
    t3 = t2 * t
    return (y0 + (y1 - y0) * (-2.0 * t3 + 3.0 * t2)
            + m0 * h * (t3 - 2.0 * t2 + t)
            + m1 * h * (t3 - t2))


def limited_tangents(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, ...]:
    """Hermite tangents from neighbor secants, Fritsch-Carlson limited.

    Interior tangents start as the secant over the two neighboring knots,
    end tangents as the one-sided secant. Wherever the knot values are
    locally monotone the tangents are shrunk to satisfy the Fritsch-Carlson
    monotonicity region (alpha^2 + beta^2 <= 9); at local extrema and across
    flat spans they are zeroed. Shrinking never grows a tangent, so one pass
    suffices: it limits each segment, left to right, once its right knot's
    start tangent is known, carrying the secant and left tangent along.
    Tangent ``j`` is final once segment ``j`` is limited, so a caller that
    needs only the first tangents can stop the pass there
    (:meth:`ForceSurface.eval` does); this runs it to the end.

    There must be at least two knot positions, strictly increasing, with one
    value each; anything else raises :class:`~longforce.errors.FitError`.
    """
    if len(xs) < 2:
        raise FitError(f"need at least 2 knot positions, got {len(xs)}")
    if not all(a < b for a, b in zip(xs, xs[1:])):
        raise FitError("knot positions must be strictly increasing")
    if len(ys) != len(xs):
        raise FitError(f"need one value per knot position, got {len(ys)} for {len(xs)}")
    spans = [b - a for a, b in zip(xs, xs[1:])]
    spans2 = [b - a for a, b in zip(xs, xs[2:])]
    return tuple(_limited_pass(ys, spans, spans2, len(xs) - 1))


def _limited_pass(ys: Sequence[float], spans: Sequence[float], spans2: Sequence[float],
                  stop: int) -> list[float]:
    """Tangents 0 to ``stop`` of :func:`limited_tangents`, each final.

    ``spans[j]`` is ``xs[j + 1] - xs[j]`` and ``spans2[j]`` is
    ``xs[j + 2] - xs[j]``, all > 0, at least one span; the pass stops after
    segment ``stop``.
    """
    last = len(spans)
    d = (ys[1] - ys[0]) / spans[0]
    left = d
    m = []
    for i in range(1, last + 1):
        if i == last:
            right = d_next = d
        else:
            d_next = (ys[i + 1] - ys[i]) / spans[i]
            right = (0.0 if d * d_next <= 0.0  # local extremum or flat neighbor
                     else (ys[i + 1] - ys[i - 1]) / spans2[i - 1])
        if d == 0.0:
            left = right = 0.0
        else:
            # a, b >= 0 or NaN: increasing positions give tangents the secants' sign
            a = left / d
            b = right / d
            r2 = a * a + b * b
            if r2 > 9.0:
                # tau is 0 when r2 overflows (a secant far smaller than a tangent);
                # the tangents are then zero, not 0 * inf.
                tau = 3.0 / math.sqrt(r2)
                left = tau * a * d if tau else 0.0 * d
                right = tau * b * d if tau else 0.0 * d
        m.append(left)
        if i > stop:
            return m
        left, d = right, d_next
    m.append(left)
    return m


def _limited_tangents_many(xs: Sequence[float], ys: np.ndarray) -> np.ndarray:
    """Array form of :func:`limited_tangents`, one column per sample.

    ``ys`` holds one row per knot. The limiter runs along the knot axis with
    numpy arrays across the samples, in the same operation order as the
    scalar function, so each column equals ``limited_tangents(xs, column)``
    bit for bit.
    """
    n = len(xs)
    m = np.zeros_like(ys)
    if n == 1:
        return m
    x = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):  # Python float arithmetic does not warn either
        delta = (ys[1:] - ys[:-1]) / (x[1:] - x[:-1])[:, None]
        m[0] = delta[0]
        m[-1] = delta[-1]
        secant = (ys[2:] - ys[:-2]) / (x[2:] - x[:-2])[:, None]
        m[1:-1] = np.where(delta[:-1] * delta[1:] <= 0.0, 0.0, secant)
        for i in range(n - 1):
            d = delta[i]
            a = m[i] / d  # >= 0 or NaN, as in _limited_pass
            b = m[i + 1] / d
            r2 = a * a + b * b
            tau = 3.0 / np.sqrt(r2)
            steep = r2 > 9.0
            left = np.where(steep, np.where(tau != 0.0, tau * a * d, 0.0 * d), m[i])
            right = np.where(steep, np.where(tau != 0.0, tau * b * d, 0.0 * d), m[i + 1])
            flat = d == 0.0
            m[i] = np.where(flat, 0.0, left)
            m[i + 1] = np.where(flat, 0.0, right)
    return m


def _reject_nan(name: str, values: np.ndarray) -> None:
    nan = np.isnan(values)
    if nan.any():
        raise InvalidParameterError(f"{name} is NaN at row {int(nan.argmax())}")


@dataclass(frozen=True)
class Spline1D:
    """Piecewise-cubic Hermite force curve over speed.

    Evaluation reproduces the knot values exactly, is C1 inside the knot
    span, holds the end values constant outside it, and never returns less
    than 0, as no force is negative. ``lower_clamp`` must be 0: model files
    store it, and callers may still pass it.
    """

    knots_x: tuple[float, ...]
    knots_y: tuple[float, ...]
    tangents: tuple[float, ...]
    lower_clamp: float = 0.0

    def __post_init__(self):
        xs = tuple(float(x) for x in self.knots_x)
        ys = tuple(float(y) for y in self.knots_y)
        ms = tuple(float(m) for m in self.tangents)
        if len(xs) < 2:
            raise FitError("a curve needs at least 2 knots")
        for name, values in (("knot position", xs), ("knot value", ys), ("tangent", ms)):
            bad = [i for i, value in enumerate(values) if not math.isfinite(value)]
            if bad:
                raise FitError(f"{name} {bad[0]} is non-finite: {values[bad[0]]}")
        if self.lower_clamp != 0:
            raise FitError(f"lower clamp must be 0, got {self.lower_clamp}")
        if not all(a < b for a, b in zip(xs, xs[1:])):
            raise FitError("knot positions must be strictly increasing")
        if len(ys) != len(xs) or len(ms) != len(xs):
            raise FitError("knots_x, knots_y and tangents must have equal length")
        if any(y < 0.0 for y in ys):
            raise FitError("knot values must be >= 0")
        object.__setattr__(self, "knots_x", xs)
        object.__setattr__(self, "knots_y", ys)
        object.__setattr__(self, "tangents", ms)
        # Per segment, the factors of _hermite's terms that do not depend on
        # the speed: (y0, y1 - y0, m0 * h, m1 * h).
        object.__setattr__(self, "_segments", tuple(
            (y0, y1 - y0, m0 * (x1 - x0), m1 * (x1 - x0))
            for x0, x1, y0, y1, m0, m1 in zip(xs, xs[1:], ys, ys[1:], ms, ms[1:])))

    @classmethod
    def interpolate(cls, xs: Sequence[float], ys: Sequence[float]) -> "Spline1D":
        """Monotone-limited Hermite interpolant through the points, negatives raised to 0.

        There must be at least two positions ``xs``, strictly increasing, with
        one value each; anything else raises :class:`~longforce.errors.FitError`.
        """
        ys = [max(float(y), 0.0) for y in ys]
        return cls(tuple(float(x) for x in xs), tuple(ys), limited_tangents(xs, ys))

    @property
    def domain(self) -> tuple[float, float]:
        return self.knots_x[0], self.knots_x[-1]

    def eval(self, x: float) -> float:
        """Curve value at speed ``x`` (held-end extrapolation outside the span).

        Raises :class:`~longforce.errors.InvalidParameterError` when ``x`` is NaN.
        """
        xs = self.knots_x
        if x <= xs[0]:
            return self.knots_y[0]
        if x >= xs[-1]:
            return self.knots_y[-1]
        i = bisect_right(xs, x) - 1
        try:
            y0, dy, m0h, m1h = self._segments[i]
        except IndexError:  # only NaN passes both end tests
            raise InvalidParameterError("speed is NaN") from None
        x0 = xs[i]
        t = (x - x0) / (xs[i + 1] - x0)
        t2 = t * t
        t3 = t2 * t
        # _hermite's sum, in its operation order
        y = y0 + dy * (-2.0 * t3 + 3.0 * t2) + m0h * (t3 - 2.0 * t2 + t) + m1h * (t3 - t2)
        return y if y > 0.0 else 0.0

    def eval_many(self, xs) -> np.ndarray:
        """Curve values at an array of speeds, equal to :meth:`eval` bit for bit.

        Raises :class:`~longforce.errors.InvalidParameterError` naming the
        first NaN speed.
        """
        x = np.asarray(xs, dtype=float).ravel()
        _reject_nan("speed", x)
        kx = np.asarray(self.knots_x)
        ky = np.asarray(self.knots_y)
        km = np.asarray(self.tangents)
        out = np.where(x <= kx[0], ky[0], ky[-1])
        inside = (x > kx[0]) & (x < kx[-1])
        xi = x[inside]
        i = np.searchsorted(kx, xi, side="right") - 1
        h = kx[i + 1] - kx[i]
        t = (xi - kx[i]) / h
        y = _hermite(t, ky[i], ky[i + 1], km[i], km[i + 1], h)
        out[inside] = np.where(y > 0.0, y, 0.0)
        return out


def unsupported_knots(knots: Sequence[float], xs: Sequence[float]) -> list[bool]:
    """Flag knots whose value no data point can pin down.

    A knot's basis function lives on the open interval between its
    neighbors; a knot with no point there is determined only through the
    weak tangent coupling, which makes the normal equations nearly singular
    and the solution oscillate wildly. Such knots must be dropped (or
    anchored) before fitting.
    """
    flags = []
    arr = np.asarray(xs, dtype=float)
    for i, k in enumerate(knots):
        lo = knots[i - 1] if i > 0 else -math.inf
        hi = knots[i + 1] if i < len(knots) - 1 else math.inf
        flags.append(not bool(np.any((arr > lo) & (arr < hi))))
    return flags


def prune_unsupported_knots(knots: Sequence[float], xs: Sequence[float]) -> tuple[float, ...]:
    """Drop knots until every survivor has a point within its support.

    Dropping a knot widens its neighbors' support, so the check iterates to
    a fixed point. Knots outside the data span are dropped first, keeping
    one bracketing knot on each side when available.
    """
    kept = [float(k) for k in knots]
    arr = np.asarray(xs, dtype=float)
    if len(arr) == 0:
        return tuple(kept)
    lo, hi = float(arr.min()), float(arr.max())
    below = [k for k in kept if k <= lo]
    above = [k for k in kept if k >= hi]
    first = max(below) if below else kept[0]
    last = min(above) if above else kept[-1]
    kept = [k for k in kept if first <= k <= last]
    while len(kept) > 2:
        flags = unsupported_knots(kept, arr)
        drop = [i for i in range(1, len(kept) - 1) if flags[i]]
        if not drop:
            break
        del kept[drop[0]]
    return tuple(kept)


def fit_curve(binned, anchors: Sequence["Anchor"], knots_x: Sequence[float]) -> Spline1D:
    """Weighted least-squares Hermite fit to binned points plus anchors.

    Binned points weigh in with their sample counts, anchors with their
    configured weights. A first pass ties the tangents to the knot values
    through the neighbor-secant rule, which keeps the model linear in the
    knot values. Because evaluation uses Fritsch-Carlson-limited tangents,
    the knot values are then re-solved with the limited tangents frozen,
    alternating until the shape settles; without this the fit is biased by
    several newtons wherever limiting bends a plateau transition. Fitted
    values are clamped at zero before deriving tangents, so the returned
    curve cannot overshoot below zero.
    """
    knots = [float(k) for k in knots_x]
    n = len(knots)
    if n < 2 or not all(a < b for a, b in zip(knots, knots[1:])):
        raise FitError("knots must be strictly increasing with >= 2 entries")

    xs = list(np.asarray(binned.bin_centers, dtype=float)) if len(binned) else []
    ys = list(np.asarray(binned.values, dtype=float)) if len(binned) else []
    ws = list(np.asarray(binned.counts, dtype=float)) if len(binned) else []
    for a in anchors:
        xs.append(float(a.speed_mps))
        ys.append(float(a.force_n))
        ws.append(float(a.weight))
    if not xs:
        raise FitError("nothing to fit: no binned points and no anchors")
    if min(xs) < knots[0] or max(xs) > knots[-1]:
        raise FitError(
            f"knot span [{knots[0]}, {knots[-1]}] does not cover the data span "
            f"[{min(xs)}, {max(xs)}]")
    if len(xs) < n:
        raise FitError(
            f"underdetermined fit: {len(xs)} data points for {n} knots; use fewer knots")
    for i, unsupported in enumerate(unsupported_knots(knots, xs)):
        if unsupported:
            lo = knots[i - 1] if i > 0 else knots[0]
            hi = knots[i + 1] if i < n - 1 else knots[-1]
            raise FitError(
                f"underdetermined fit: no data or anchor supports the knot at "
                f"{knots[i]} m/s (support ({lo}, {hi})); use fewer knots")

    # Per-point Hermite basis: value hats on the bracketing knots plus the
    # two tangent weights (h10, h11 scaled by the segment width).
    value_basis = np.zeros((len(xs), n))
    tan_left = np.zeros(len(xs))
    tan_right = np.zeros(len(xs))
    seg = np.zeros(len(xs), dtype=int)
    for row, x in enumerate(xs):
        i = n - 2 if x >= knots[-1] else max(bisect_right(knots, x) - 1, 0)
        h = knots[i + 1] - knots[i]
        t = (x - knots[i]) / h
        t2, t3 = t * t, t * t * t
        seg[row] = i
        value_basis[row, i] = 2.0 * t3 - 3.0 * t2 + 1.0
        value_basis[row, i + 1] = -2.0 * t3 + 3.0 * t2
        tan_left[row] = (t3 - 2.0 * t2 + t) * h
        tan_right[row] = (t3 - t2) * h

    # Tangents as a linear map of knot values: m = C @ y (neighbor secants).
    c = np.zeros((n, n))
    c[0, 0] = -1.0 / (knots[1] - knots[0])
    c[0, 1] = 1.0 / (knots[1] - knots[0])
    c[-1, -2] = -1.0 / (knots[-1] - knots[-2])
    c[-1, -1] = 1.0 / (knots[-1] - knots[-2])
    for j in range(1, n - 1):
        span = knots[j + 1] - knots[j - 1]
        c[j, j - 1] = -1.0 / span
        c[j, j + 1] = 1.0 / span
    design = value_basis + tan_left[:, None] * c[seg] + tan_right[:, None] * c[seg + 1]

    sw = np.sqrt(np.asarray(ws, dtype=float))
    targets = np.asarray(ys, dtype=float)
    solution, _, rank, _ = np.linalg.lstsq(design * sw[:, None], targets * sw,
                                           rcond=None)
    if rank < n:
        raise FitError(
            f"underdetermined fit: data supports rank {rank} of {n} knots; use fewer knots")

    # Re-solve the knot values under the limited tangents (frozen per pass).
    for _ in range(10):
        clamped = np.maximum(solution, 0.0)
        tangents = np.asarray(limited_tangents(knots, clamped))
        offsets = tan_left * tangents[seg] + tan_right * tangents[seg + 1]
        refined, _, rank2, _ = np.linalg.lstsq(value_basis * sw[:, None],
                                               (targets - offsets) * sw, rcond=None)
        if rank2 < n:
            break
        done = np.max(np.abs(refined - solution)) <= 1e-9 * max(1.0, np.max(np.abs(refined)))
        solution = refined
        if done:
            break
    return Spline1D.interpolate(knots, solution)


@dataclass(frozen=True)
class Anchor:
    """A hand-specified (speed, force) point with a fit weight."""

    speed_mps: float
    force_n: float
    weight: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.speed_mps) and math.isfinite(self.force_n)):
            raise FitError(f"anchor ({self.speed_mps} m/s, {self.force_n} N) is non-finite")
        if not self.weight > 0:
            raise FitError(f"anchor weight must be > 0, got {self.weight}")
        if self.weight == math.inf:
            raise FitError("anchor weight must be finite, got inf")


@dataclass(frozen=True)
class InversionResult:
    """Signal returned by a surface inversion, with saturation bookkeeping."""

    signal: float
    saturated: bool = False
    underflow: bool = False


@dataclass(frozen=True)
class ForceSurface:
    """Force as a function of (speed, command signal).

    Built from one curve per defining signal level; the lowest is 0, the
    released pedal (creep or regeneration), which every reader needs.
    Cross-sections along the signal axis pass exactly through the defining
    curves and are interpolated with monotone-limited Hermite in between, so
    they are monotone whenever the defining values are.
    """

    levels: tuple[int, ...]
    curves: tuple[Spline1D, ...]

    def __post_init__(self):
        levels = tuple(int(v) for v in self.levels)
        if len(levels) < 1:
            raise FitError("a surface needs at least one level")
        if len(levels) != len(self.curves):
            raise FitError("levels and curves must have equal length")
        if not all(a < b for a, b in zip(levels, levels[1:])):
            raise FitError("levels must be strictly increasing")
        if levels[0] != 0:
            raise FitError(f"the lowest level must be 0 (the released pedal), got "
                           f"levels {list(levels)}")
        curves = tuple(self.curves)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "curves", curves)
        # The level spans the limiter divides by along the signal axis. Stored
        # as floats: Python converts an int operand on every operation.
        object.__setattr__(self, "_spans",
                           tuple(float(b - a) for a, b in zip(levels, levels[1:])))
        object.__setattr__(self, "_spans2",
                           tuple(float(b - a) for a, b in zip(levels, levels[2:])))
        # When every curve shares one knot grid, a cross-section needs one
        # bisect and one set of Hermite basis terms for all of them; each
        # segment then holds every curve's terms.
        shared = all(c.knots_x == curves[0].knots_x for c in curves)
        object.__setattr__(self, "_grid", curves[0].knots_x if shared else None)
        object.__setattr__(self, "_rows", tuple(zip(*(c._segments for c in curves)))
                           if shared else None)

    def cross_section(self, v: float) -> list[float]:
        """Values of every defining curve at speed ``v``, in level order.

        On a shared knot grid each value is :meth:`Spline1D.eval`'s Hermite
        expression and clamp, in the same operation order, so the results
        are equal bit for bit. A NaN ``v`` raises
        :class:`~longforce.errors.InvalidParameterError`, as in ``eval``.
        """
        xs = self._grid
        if xs is None:
            return [curve.eval(v) for curve in self.curves]
        if v <= xs[0]:
            return [curve.knots_y[0] for curve in self.curves]
        if v >= xs[-1]:
            return [curve.knots_y[-1] for curve in self.curves]
        i = bisect_right(xs, v) - 1
        try:
            row = self._rows[i]
        except IndexError:  # only NaN passes both end tests
            raise InvalidParameterError("speed is NaN") from None
        x0 = xs[i]
        t = (v - x0) / (xs[i + 1] - x0)
        t2 = t * t
        t3 = t2 * t
        h01 = -2.0 * t3 + 3.0 * t2
        h10 = t3 - 2.0 * t2 + t
        h11 = t3 - t2
        out = []
        for y0, dy, m0h, m1h in row:
            y = y0 + dy * h01 + m0h * h10 + m1h * h11
            out.append(y if y > 0.0 else 0.0)
        return out

    def eval(self, v: float, signal: float) -> float:
        """Surface value at (v, signal); a signal outside the levels is clamped to them.

        Between levels, the value is ``_along_signal(cross_section(v), signal)``
        bit for bit. On a shared knot grid with ``v`` inside it, both run in
        this one frame, each written out as those two methods write it, in
        the same operation order; per-level grids and speeds outside the
        grid call them. Raises
        :class:`~longforce.errors.InvalidParameterError` when either is NaN.
        """
        levels = self.levels
        if signal <= levels[0]:
            return self.curves[0].eval(v)
        if signal >= levels[-1]:
            return self.curves[-1].eval(v)
        xs = self._grid
        if xs is None or not xs[0] < v < xs[-1]:  # per-level grids, a held end or NaN
            return self._along_signal(self.cross_section(v), signal)
        # cross_section(v), inside the grid
        i = bisect_right(xs, v) - 1
        x0 = xs[i]
        t = (v - x0) / (xs[i + 1] - x0)
        t2 = t * t
        t3 = t2 * t
        h01 = -2.0 * t3 + 3.0 * t2
        h10 = t3 - 2.0 * t2 + t
        h11 = t3 - t2
        values = []
        for y0, dy, m0h, m1h in self._rows[i]:
            y = y0 + dy * h01 + m0h * h10 + m1h * h11
            values.append(y if y > 0.0 else 0.0)
        # _along_signal(values, signal)
        spans = self._spans
        i = bisect_right(levels, signal) - 1
        try:
            h = spans[i]
        except IndexError:  # only NaN passes both end tests
            raise InvalidParameterError("signal is NaN") from None
        m = _limited_pass(values, spans, self._spans2, i + 1)
        t = (signal - levels[i]) / h
        t2 = t * t
        t3 = t2 * t
        y0 = values[i]
        y = (y0 + (values[i + 1] - y0) * (-2.0 * t3 + 3.0 * t2)
             + m[i] * h * (t3 - 2.0 * t2 + t)
             + m[i + 1] * h * (t3 - t2))
        return 0.0 if 0.0 > y else y

    def _along_signal(self, values: list[float], signal: float) -> float:
        """Value at ``signal`` of the section ``values`` (a :meth:`cross_section`),
        for a signal strictly between the first and last level; NaN raises.

        :meth:`invert` bisects with it, and :meth:`eval` calls it where it does
        not write it out."""
        levels = self.levels
        spans = self._spans
        i = bisect_right(levels, signal) - 1
        try:
            h = spans[i]
        except IndexError:  # only NaN passes both end tests
            raise InvalidParameterError("signal is NaN") from None
        # Tangents i and i + 1 are final once segment i + 1 is limited.
        m = _limited_pass(values, spans, self._spans2, i + 1)
        t = (signal - levels[i]) / h
        t2 = t * t
        t3 = t2 * t
        y0 = values[i]
        # _hermite's sum written out, since a call to it cost 2.7 % of simulate
        # ops_per_s (2-vCPU Xeon); same operation order, then max(y, 0.0)
        y = (y0 + (values[i + 1] - y0) * (-2.0 * t3 + 3.0 * t2)
             + m[i] * h * (t3 - 2.0 * t2 + t)
             + m[i + 1] * h * (t3 - t2))
        return 0.0 if 0.0 > y else y

    def eval_many(self, v, signal) -> np.ndarray:
        """Surface values at arrays of (speed, signal), equal to :meth:`eval` bit for bit.

        ``v`` and ``signal`` broadcast against each other. Raises
        :class:`~longforce.errors.InvalidParameterError` naming the first
        row where either is NaN.
        """
        v, signal = np.broadcast_arrays(np.asarray(v, dtype=float).ravel(),
                                        np.asarray(signal, dtype=float).ravel())
        _reject_nan("speed", v)
        _reject_nan("signal", signal)
        levels = np.asarray(self.levels, dtype=float)
        out = np.empty(len(v))
        low = signal <= levels[0]
        high = ~low & (signal >= levels[-1])
        out[low] = self.curves[0].eval_many(v[low])
        out[high] = self.curves[-1].eval_many(v[high])
        between = ~(low | high)
        vb, sb = v[between], signal[between]
        values = np.array([curve.eval_many(vb) for curve in self.curves])
        tangents = _limited_tangents_many(self.levels, values)
        i = np.searchsorted(levels, sb, side="right") - 1
        h = levels[i + 1] - levels[i]
        t = (sb - levels[i]) / h
        col = np.arange(len(sb))
        y = _hermite(t, values[i, col], values[i + 1, col],
                     tangents[i, col], tangents[i + 1, col], h)
        out[between] = np.where(0.0 > y, 0.0, y)
        return out

    def invert(self, v: float, force: float) -> InversionResult:
        """A signal whose force at speed ``v`` reaches ``force``, the smallest to ``SIGNAL_TOL``.

        Bisection on the one cross-section at ``v``, read once per call: each
        step runs ``_along_signal`` on it, ``eval(v, mid)`` bit for bit. It returns
        the upper end of the last bracket, a signal where ``eval(v, signal)
        >= force``, within ``SIGNAL_TOL`` signal units of the smallest such
        signal on a section that is monotone at the ulp level. On a section
        flat to a few ulps, rounding can dip below ``force`` past that
        smallest signal, and the bisection then stops later. Forces above
        the cross-section's maximum return the top level with ``saturated``
        set; forces below the minimum return the bottom level with
        ``underflow`` set. Raises :class:`~longforce.errors.InversionError`
        when the cross-section is not monotone non-decreasing in the signal,
        and :class:`~longforce.errors.InvalidParameterError` when ``v`` or
        ``force`` is NaN.
        """
        values = self.cross_section(v)
        slack = 1e-9 * max(1.0, max(abs(f) for f in values))
        for i in range(len(values) - 1):
            if values[i + 1] < values[i] - slack:
                raise InversionError(
                    f"cross-section at v={v:.3f} m/s decreases between levels "
                    f"{self.levels[i]} and {self.levels[i + 1]}; inversion unsupported")
        lo, hi = float(self.levels[0]), float(self.levels[-1])
        f_lo, f_hi = values[0], values[-1]
        if force <= f_lo:
            return InversionResult(lo, underflow=force < f_lo)
        if force > f_hi:
            return InversionResult(hi, saturated=True)
        if math.isnan(force):
            raise InvalidParameterError("force is NaN")
        # Invariant: eval(lo) < force <= eval(hi). Every mid lies strictly
        # between the first and last level, where eval(v, mid) is exactly
        # _along_signal(cross_section(v), mid).
        while hi - lo > SIGNAL_TOL:
            mid = 0.5 * (lo + hi)
            if self._along_signal(values, mid) >= force:
                hi = mid
            else:
                lo = mid
        return InversionResult(hi)


def check_signal_monotone(surface: ForceSurface, speeds=None) -> None:
    """Verify cross-sections never decrease with the signal; raise FitError if they do.

    Checked on a dense speed grid over the union of the curve domains, with
    the slack :meth:`ForceSurface.invert` allows, at fit time and at load
    time, so that inversion later is well posed everywhere.
    """
    if speeds is None:
        lo = min(c.domain[0] for c in surface.curves)
        hi = max(c.domain[1] for c in surface.curves)
        speeds = np.geomspace(max(lo, 1e-3), hi, 200)
    speeds = np.asarray(speeds, dtype=float).ravel()
    values = np.array([curve.eval_many(speeds) for curve in surface.curves])
    slack = 1e-9 * np.maximum(1.0, np.abs(values).max(axis=0))
    falls = values[1:] < values[:-1] - slack
    if falls.any():
        k = int(falls.any(axis=0).argmax())
        i = int(falls[:, k].argmax())
        raise FitError(
            f"level {surface.levels[i + 1]} falls below level {surface.levels[i]} "
            f"by {values[i, k] - values[i + 1, k]:.3g} N at {speeds[k]:.2f} m/s; "
            "surface would not be monotone in the signal")


# --- model file serialization -------------------------------------------------

MODEL_KINDS = ("friction", "propulsion", "braking")


def _curve_to_dict(curve: Spline1D) -> dict:
    return {"knots_x_mps": list(curve.knots_x), "knots_y_N": list(curve.knots_y)}


def _curve_from_dict(obj: dict, lower_clamp: float) -> Spline1D:
    # The knots and clamp are checked (under zero tangents) before the tangents
    # are derived, so that a bad curve is refused with the curve's own message.
    # A "tangents" key, as earlier versions wrote, is ignored.
    xs, ys = json_numbers(obj, "knots_x_mps"), json_numbers(obj, "knots_y_N")
    knots = Spline1D(tuple(xs), tuple(ys), (0.0,) * len(xs), lower_clamp)
    return replace(knots, tangents=limited_tangents(knots.knots_x, knots.knots_y))


def model_to_dict(kind: str, model: Spline1D | ForceSurface,
                  provenance: dict | None = None) -> dict:
    if kind not in MODEL_KINDS:
        raise SchemaError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    out: dict = {"kind": kind}
    if isinstance(model, Spline1D):
        out["curves"] = [_curve_to_dict(model)]
    else:
        out["levels"] = list(model.levels)
        out["curves"] = [_curve_to_dict(c) for c in model.curves]
    out["lower_clamp_N"] = 0.0
    out["provenance"] = dict(provenance or {"source_logs": []})
    return out


def model_from_dict(obj: dict) -> tuple[str, Spline1D | ForceSurface, dict]:
    """The kind, model and provenance held in a model file's object; a bad value
    raises as it is found, and :func:`load_model` names the file."""
    kind = obj["kind"]
    curves = obj["curves"]
    clamp = float(json_numbers(obj, "lower_clamp_N", 0.0))
    provenance = dict(json_object(obj, "provenance"))
    if kind not in MODEL_KINDS:
        raise SchemaError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")
    if kind == "friction":
        if len(curves) != 1:
            raise SchemaError("a friction model holds exactly one curve")
        return kind, _curve_from_dict(curves[0], clamp), provenance
    levels = json_integers(obj, "levels", [])
    if not levels or len(levels) != len(curves):
        raise SchemaError(f"a {kind} model needs matching 'levels' and 'curves' lists")
    surface = ForceSurface(tuple(int(v) for v in levels),
                           tuple(_curve_from_dict(c, clamp) for c in curves))
    check_signal_monotone(surface)
    return kind, surface, provenance


def save_model(path: str | Path, kind: str, model: Spline1D | ForceSurface,
               provenance: dict | None = None) -> None:
    obj = model_to_dict(kind, model, provenance)
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


def load_model(path: str | Path) -> tuple[str, Spline1D | ForceSurface, dict]:
    """The kind, model and provenance stored at ``path``; a bad value is a SchemaError naming it."""
    obj = read_json(path)
    kind = obj.get("kind")
    with file_values(path, f"malformed {kind} model" if kind in MODEL_KINDS
                     else "malformed model file"):
        return model_from_dict(obj)


def load_typed_model(path: str | Path, kind: str) -> Spline1D | ForceSurface:
    """The model stored at ``path``, which must be a ``kind`` model."""
    got, model, _ = load_model(path)
    if got != kind:
        raise SchemaError(f"{path}: expected a {kind} model, got {got}")
    return model
