"""The array evaluation kernel against the scalar path, its oracle.

``Spline1D.eval_many``, ``ForceSurface.eval_many``, ``direct_acceleration_many``
and ``grade_force_many`` must equal a per-element loop over the scalar
``eval`` / ``direct_acceleration`` / ``grade_force`` bit for bit, including
the sign of zero, so that vectorised callers (validation, extraction,
export) give the same results as before. Likewise the scalar fast paths:
``ForceSurface.cross_section`` on a shared knot grid must equal
``Spline1D.eval`` per curve, ``ForceSurface.eval`` must equal
``_along_signal(cross_section(v), signal)``, and ``simulate`` must equal an
RK4 loop over ``direct_acceleration``. The scalar kernel itself (per-segment Hermite
terms and the one-loop limiter) must equal copies of the plain per-call
Hermite and two-pass limiter it replaced. The scalar inverse must undo the
scalar surface evaluation on random monotone surfaces, and equal, bit for
bit, the bisection over the public ``eval`` that it replaced.
"""

import json
import math
import re
from bisect import bisect_right
from unittest.mock import patch

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from longforce.cli import main  # noqa: E402
from longforce.core import DriveLog, grade_force, grade_force_many  # noqa: E402
from longforce.dynamics import (ModelSet, direct_acceleration,  # noqa: E402
                                direct_acceleration_many, inverse_actuation, simulate)
from longforce.errors import FitError, InvalidParameterError  # noqa: E402
from longforce.estimation import AccelSeries, estimate_acceleration  # noqa: E402
from longforce.reference import data_path  # noqa: E402
from longforce.spline import (SIGNAL_TOL, ForceSurface, Spline1D,  # noqa: E402
                              _limited_pass, _limited_tangents_many, limited_tangents)
from longforce.validation import _histogram, validate  # noqa: E402

from conftest import mixed_drive  # noqa: E402

KERNEL = settings(max_examples=200, deadline=None)

# Knot values drawn partly from a small pool, so that flat spans (the
# zero-secant branch of the limiter) and steep jumps next to gentle slopes
# (the alpha^2 + beta^2 > 9 rescale) come up often.
KNOT_VALUES = st.one_of(st.sampled_from([0.0, 0.0, 5.0, 5.0, 120.0, 3000.0]),
                        st.floats(-200.0, 4000.0, allow_nan=False))
# Overflowing secants (1e308 apart) and signed zeros, beside the usual values.
LIMITER_VALUES = st.one_of(KNOT_VALUES, st.sampled_from([1e308, -1e308, -0.0, 1e-300]))


def assert_same_bits(array, oracle):
    array = np.asarray(array, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    assert np.array_equal(array, oracle, equal_nan=True)
    # array_equal treats 0.0 and -0.0 as equal; repr (used by export) does not.
    number = ~np.isnan(oracle)
    assert np.array_equal(array[number].view(np.uint64), oracle[number].view(np.uint64))


@st.composite
def knot_grids(draw):
    # Knots on a 1 mm/s grid: knots a few ulps apart blow the secants up to
    # inf and NaN, which no fit produces.
    xs = sorted(draw(st.lists(st.integers(0, 45_000), min_size=2, max_size=8,
                              unique=True)))
    return [k / 1000.0 for k in xs]


@st.composite
def curves(draw, knots=None, values=KNOT_VALUES):
    """A curve on the given knot grid or its own, with limited or hand-set tangents."""
    xs = draw(knot_grids()) if knots is None else knots
    ys = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    if draw(st.booleans()):
        try:
            return Spline1D.interpolate(xs, ys)
        except FitError:  # a 1e308 knot a millimetre from a small one: infinite tangent
            pass
    # Unlimited tangents can overshoot below the clamp at 0 between knots.
    ms = draw(st.lists(st.floats(-5000.0, 5000.0), min_size=len(xs), max_size=len(xs)))
    return Spline1D(tuple(xs), tuple(max(y, 0.0) for y in ys), tuple(ms))


def level_sets(max_above_zero=8):
    """Level 0, as every surface holds, and up to ``max_above_zero`` levels above it."""
    return st.lists(st.integers(1, 255), max_size=max_above_zero).map(
        lambda above: sorted({0, *above}))


def builds(*curves):
    """Whether ``curves``, in level order, make a surface; it refuses one that
    falls with the signal, and checks neighbouring levels only."""
    try:
        ForceSurface(tuple(range(len(curves))), curves)
    except FitError:
        return False
    return True


def raised_above(curve, below):
    """``curve`` raised by a constant to lie above ``below`` everywhere, or
    ``below`` itself where that fails: a raised knot value overflows, or next
    to a 1e308 knot value the Hermite sum rounds the lift away.

    A Hermite piece strays from its chord by at most 4/27 of its two scaled
    tangents' sum, so ``below`` stays under its top value plus that reach,
    and ``curve`` raised by that much and its own reach stays over it.
    """
    def reach(c):
        return 4 / 27 * max(abs(m0h) + abs(m1h) for _, _, m0h, m1h in c._segments)

    lift = max(below.knots_y) + reach(below) + reach(curve)
    try:
        raised = Spline1D(curve.knots_x, tuple(y + lift for y in curve.knots_y), curve.tangents)
    except FitError:
        return below
    return raised if builds(below, raised) else below


@st.composite
def surfaces(draw, shared_grid=None, values=KNOT_VALUES):
    """A surface on one knot grid, as fitted, or with one grid per level, as after pruning.

    Each curve is drawn alone, so two distinct ones often cross somewhere,
    and a surface that falls with the signal is refused. Such a curve is
    raised above the one below it, or else the level repeats the curve
    below, a flat span along the signal axis, as the draw also does by
    choice.
    """
    levels = draw(level_sets())
    if shared_grid is None:
        shared_grid = draw(st.booleans())
    grid = draw(knot_grids()) if shared_grid else None
    chosen = []
    for _ in levels:
        if chosen and draw(st.booleans()):
            chosen.append(chosen[-1])  # a flat span along the signal axis
            continue
        curve = draw(curves(knots=grid, values=values))
        if chosen and not builds(chosen[-1], curve):
            curve = raised_above(curve, chosen[-1])
        chosen.append(curve)
    try:
        return ForceSurface(tuple(levels), tuple(chosen))
    except FitError:
        # Each pair builds, but inside a piece falling from a 1e308 knot value
        # the Hermite sum is rounding; split at other levels' knots, it can fall.
        reject()


def speed_for(knots):
    """A speed inside or outside the knot span, on a knot, a signed zero, or infinite."""
    return st.one_of(st.floats(-5.0, 60.0, allow_nan=False), st.sampled_from(sorted(knots)),
                     st.sampled_from([0.0, -0.0, -math.inf, math.inf]))


def speeds_for(knots):
    return st.lists(speed_for(knots), min_size=1, max_size=60)


def finite_signals_for(levels):
    """Signals below, above, on and between the defining levels."""
    return st.one_of(st.floats(-20.0, 280.0), st.sampled_from(levels),
                     st.integers(-5, 260).map(float))


def signals_for(levels):
    return st.one_of(finite_signals_for(levels), st.sampled_from([-math.inf, math.inf]))


def all_knots(surface):
    return {x for curve in surface.curves for x in curve.knots_x}


@KERNEL
@given(st.data())
def test_spline_eval_many_matches_scalar(data):
    curve = data.draw(curves())
    xs = data.draw(speeds_for(curve.knots_x))
    assert_same_bits(curve.eval_many(xs), [curve.eval(x) for x in xs])


@pytest.mark.parametrize("shared_grid", [True, False])
@KERNEL
@given(data=st.data())
def test_cross_section_matches_per_curve_eval(shared_grid, data):
    surface = data.draw(surfaces(shared_grid=shared_grid))
    grids = {curve.knots_x for curve in surface.curves}
    assert (len(grids) == 1) == (surface._grid is not None)
    for x in data.draw(st.lists(speed_for(all_knots(surface)), min_size=1, max_size=30)):
        assert_same_bits(surface.cross_section(x), [curve.eval(x) for curve in surface.curves])


@KERNEL
@given(st.data())
def test_surface_eval_many_matches_scalar(data):
    # Level values 1e308 apart overflow the limiter's secant products, in eval_many as in eval.
    surface = data.draw(surfaces(values=LIMITER_VALUES))
    v = data.draw(speeds_for(all_knots(surface)))
    signal = data.draw(st.lists(signals_for(surface.levels), min_size=len(v),
                                max_size=len(v)))
    assert_same_bits(surface.eval_many(v, signal),
                     [surface.eval(x, s) for x, s in zip(v, signal)])


@KERNEL
@given(st.data())
def test_surface_eval_many_broadcasts_one_signal(data):
    surface = data.draw(surfaces())
    v = data.draw(speeds_for(all_knots(surface)))
    level = data.draw(st.sampled_from(surface.levels))
    assert_same_bits(surface.eval_many(v, level), [surface.eval(x, level) for x in v])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_direct_model_many_matches_scalar(gt_models, data):
    models = ModelSet(data.draw(curves()), data.draw(surfaces()), data.draw(surfaces()),
                      gt_models.params)
    knots = all_knots(models.propulsion) | all_knots(models.braking)
    n = data.draw(st.integers(1, 40))
    v = data.draw(st.lists(st.one_of(st.floats(0.0, 60.0), st.sampled_from(sorted(knots))),
                           min_size=n, max_size=n))
    # Zero throttle (regen on), throttle with and without brake (regen off).
    pedal = st.one_of(st.just(0.0), finite_signals_for(models.propulsion.levels))
    throttle = data.draw(st.lists(pedal, min_size=n, max_size=n))
    brake = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 260.0)),
                               min_size=n, max_size=n))
    slope = data.draw(st.lists(st.floats(-0.35, 0.35), min_size=n, max_size=n))
    accel, forces = direct_acceleration_many(models, v, throttle, brake, slope)
    oracle = [direct_acceleration(models, *row) for row in zip(v, throttle, brake, slope)]
    assert_same_bits(grade_force_many(models.params, np.array(slope)),
                     [grade_force(models.params, s) for s in slope])
    assert_same_bits(accel, [a for a, _ in oracle])
    for k, column in enumerate(forces):  # f_p, f_f, f_b
        assert_same_bits(column, [f[k] for _, f in oracle])


SLOPES = st.one_of(st.floats(-0.35, 0.35),
                   st.sampled_from([0.0, -0.0, 1e-300, -1e-300, math.pi / 2, -math.pi / 2]))


@KERNEL
@given(st.lists(SLOPES, min_size=1, max_size=40))
def test_grade_force_many_matches_scalar(gt_models, slope):
    array = np.array(slope)
    assert_same_bits(grade_force_many(gt_models.params, array),
                     [grade_force(gt_models.params, s) for s in slope])
    # The shape is kept, as extraction's masked columns need.
    column = array.reshape(-1, 1)
    assert grade_force_many(gt_models.params, column).shape == column.shape


def test_grade_force_keeps_signed_zero_and_tiny_slopes(gt_models):
    params = gt_models.params
    slopes = [0.0, -0.0, 1e-300, -1e-300, math.pi / 2, -math.pi / 2]
    assert_same_bits([grade_force(params, s) for s in slopes],
                     [params.weight_n * math.sin(s) for s in slopes])
    assert_same_bits(grade_force_many(params, np.array(slopes)),
                     [params.weight_n * math.sin(s) for s in slopes])
    assert math.copysign(1.0, grade_force(params, -0.0)) == -1.0


@pytest.mark.parametrize("slope", [math.inf, -math.inf, math.nan])
def test_direct_model_refuses_a_non_finite_slope_before_the_grade_force(gt_models, slope):
    # math.sin(inf) would raise a bare ValueError; the direct model names the point first.
    with pytest.raises(InvalidParameterError) as err:
        direct_acceleration(gt_models, 10.0, 50.0, 0.0, slope)
    assert str(err.value) == (f"non-finite operating point: v=10.0, throttle=50.0, "
                              f"brake=0.0, slope={slope}")


# --- the scalar kernel against the plain form it replaced -------------------------
# Copies of the evaluation code before segment terms were precomputed: the
# Hermite sum from knot values and tangents per call, and the limiter as a
# start-tangent pass followed by a limiting pass.

def _hermite_oracle(t, y0, y1, m0, m1, h):
    t2 = t * t
    t3 = t2 * t
    return (y0 + (y1 - y0) * (-2.0 * t3 + 3.0 * t2)
            + m0 * h * (t3 - 2.0 * t2 + t)
            + m1 * h * (t3 - t2))


def _limited_tangents_oracle(xs, ys):
    n = len(xs)
    if n == 1:
        return (0.0,)
    delta = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(n - 1)]
    m = [0.0] * n
    m[0] = delta[0]
    m[-1] = delta[-1]
    for i in range(1, n - 1):
        if delta[i - 1] * delta[i] <= 0.0:
            m[i] = 0.0
        else:
            m[i] = (ys[i + 1] - ys[i - 1]) / (xs[i + 1] - xs[i - 1])
    for i in range(n - 1):
        if delta[i] == 0.0:
            m[i] = 0.0
            m[i + 1] = 0.0
            continue
        a = m[i] / delta[i]
        b = m[i + 1] / delta[i]
        if a < 0.0:
            m[i] = 0.0
            a = 0.0
        if b < 0.0:
            m[i + 1] = 0.0
            b = 0.0
        r2 = a * a + b * b
        if r2 > 9.0:
            tau = 3.0 / math.sqrt(r2)
            m[i] = tau * a * delta[i] if tau else 0.0 * delta[i]
            m[i + 1] = tau * b * delta[i] if tau else 0.0 * delta[i]
    return tuple(m)


def _curve_eval_oracle(curve, x):
    xs = curve.knots_x
    if x <= xs[0]:
        return curve.knots_y[0]
    if x >= xs[-1]:
        return curve.knots_y[-1]
    i = bisect_right(xs, x) - 1
    h = xs[i + 1] - xs[i]
    t = (x - xs[i]) / h
    y = _hermite_oracle(t, curve.knots_y[i], curve.knots_y[i + 1],
                        curve.tangents[i], curve.tangents[i + 1], h)
    return y if y > 0.0 else 0.0


def _cross_section_oracle(surface, v):
    xs = surface.curves[0].knots_x
    if any(curve.knots_x != xs for curve in surface.curves):
        return [_curve_eval_oracle(curve, v) for curve in surface.curves]
    if v <= xs[0]:
        return [curve.knots_y[0] for curve in surface.curves]
    if v >= xs[-1]:
        return [curve.knots_y[-1] for curve in surface.curves]
    i = bisect_right(xs, v) - 1
    h = xs[i + 1] - xs[i]
    t = (v - xs[i]) / h
    t2 = t * t
    t3 = t2 * t
    h01 = -2.0 * t3 + 3.0 * t2
    h10 = t3 - 2.0 * t2 + t
    h11 = t3 - t2
    out = []
    for curve in surface.curves:
        ys, ms = curve.knots_y, curve.tangents
        y = ys[i] + (ys[i + 1] - ys[i]) * h01 + ms[i] * h * h10 + ms[i + 1] * h * h11
        out.append(y if y > 0.0 else 0.0)
    return out


def _surface_eval_oracle(surface, v, signal):
    levels = surface.levels
    if signal <= levels[0]:
        return _curve_eval_oracle(surface.curves[0], v)
    if signal >= levels[-1]:
        return _curve_eval_oracle(surface.curves[-1], v)
    values = _cross_section_oracle(surface, v)
    tangents = _limited_tangents_oracle(levels, values)
    i = bisect_right(levels, signal) - 1
    h = levels[i + 1] - levels[i]
    t = (signal - levels[i]) / h
    y = _hermite_oracle(t, values[i], values[i + 1], tangents[i], tangents[i + 1], h)
    return max(y, 0.0)


POSITIONS = st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 50.0))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_limited_tangents_matches_two_pass_oracle(data):
    n = data.draw(st.integers(1, 7))
    xs = data.draw(st.lists(POSITIONS, min_size=n, max_size=n))
    if data.draw(st.booleans()):
        xs = sorted(xs)  # repeated positions stay, and are refused
    ys = data.draw(st.lists(LIMITER_VALUES, min_size=n, max_size=n))
    if n < 2:
        with pytest.raises(FitError, match="^need at least 2 knot positions, got 1$"):
            limited_tangents(xs, ys)
        return
    if not all(a < b for a, b in zip(xs, xs[1:])):
        with pytest.raises(FitError, match="strictly increasing"):
            limited_tangents(xs, ys)
        return
    assert_same_bits(limited_tangents(xs, ys), _limited_tangents_oracle(xs, ys))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_limiter_on_increasing_positions_matches_two_pass_oracle(data):
    # The oracle zeroes a negative ratio of start tangent to secant; the kernel
    # has no such branch, because on increasing positions none arises. Spans
    # that overflow to inf and values 1e308 apart put that to the test. The
    # knot-layout rule refuses infinite positions in limited_tangents; the
    # pass and the array form still meet the oracle there.
    xs = sorted(data.draw(st.lists(
        st.one_of(POSITIONS, st.sampled_from([-math.inf, -1e308, 1e308, math.inf])),
        min_size=1, max_size=7, unique=True)))
    n = len(xs)
    columns = data.draw(st.lists(st.lists(LIMITER_VALUES, min_size=n, max_size=n),
                                 min_size=1, max_size=4))
    spans = [b - a for a, b in zip(xs, xs[1:])]
    spans2 = [b - a for a, b in zip(xs, xs[2:])]
    many = _limited_tangents_many(xs, np.array(columns, dtype=float).T)
    for j, ys in enumerate(columns):
        expected = _limited_tangents_oracle(xs, ys)
        if n >= 2:  # a single knot reaches only the array form, on a one-level surface
            if math.isinf(xs[0]) or math.isinf(xs[-1]):  # sorted: only an end is infinite
                i = 0 if math.isinf(xs[0]) else n - 1
                with pytest.raises(FitError, match=f"^knot position {i} is non-finite: "
                                                   f"{xs[i]}$"):
                    limited_tangents(xs, ys)
            else:
                assert_same_bits(limited_tangents(xs, ys), expected)
            # Stopped after segment ``stop``, the pass already holds tangents 0 to ``stop``.
            for stop in range(n):
                assert_same_bits(_limited_pass(ys, spans, spans2, stop), expected[:stop + 1])
        # ForceSurface.eval_many runs the array form, one column per sample.
        assert_same_bits(many[:, j], expected)


def inner_speeds(data, knots, n):
    """``n`` speeds spread over the knot span, where most segment rounding happens.

    Drawn from a seeded generator, so that each example covers many
    unremarkable points besides the edge cases Hypothesis favours.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    return rng.uniform(min(knots), max(knots), n).tolist()


@KERNEL
@given(st.data())
def test_curve_eval_matches_hermite_oracle(data):
    curve = data.draw(curves())
    xs = data.draw(speeds_for(curve.knots_x)) + inner_speeds(data, curve.knots_x, 100)
    assert_same_bits([curve.eval(x) for x in xs], [_curve_eval_oracle(curve, x) for x in xs])


@pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "mixed-grids"])
@KERNEL
@given(data=st.data())
def test_surface_matches_hermite_oracle(shared_grid, data):
    # The oracle runs the limiter over every level; eval stops it after the
    # segment past its own, so a signal inside every segment checks each stop.
    surface = data.draw(surfaces(shared_grid=shared_grid, values=LIMITER_VALUES))
    knots = all_knots(surface)
    levels = surface.levels
    speeds = data.draw(st.lists(speed_for(knots), min_size=1, max_size=10))
    signals = data.draw(st.lists(signals_for(levels), min_size=1, max_size=4))
    signals += [0.5 * (a + b) for a, b in zip(levels, levels[1:])]
    for v in speeds + inner_speeds(data, knots, 10):
        assert_same_bits(surface.cross_section(v), _cross_section_oracle(surface, v))
        assert_same_bits([surface.eval(v, s) for s in signals],
                         [_surface_eval_oracle(surface, v, s) for s in signals])


def test_limiting_past_the_next_segment_leaves_eval_unchanged():
    # Curves flat in speed, so the cross-section is the level values. Level 3's
    # start tangent, the secant (3000.1 - 200) / 20, is 14 000 times segment
    # 3's secant of 0.01, so the limiter rescales tangents 3 and 4. Raising level 4
    # to 5800 makes that tangent equal its secant, unlimited. A signal in
    # segment 0 or 1 stops the pass before segment 3: the two surfaces must
    # agree there, and with the oracle that limits every segment.
    levels = (0, 10, 20, 30, 40)

    def flat_surface(values):
        return ForceSurface(levels, tuple(Spline1D.interpolate([0.0, 50.0], [y, y])
                                          for y in values))

    limited, unlimited = (0.0, 100.0, 200.0, 3000.0, 3000.1), (0.0, 100.0, 200.0, 3000.0, 5800.0)
    assert limited_tangents(levels, limited)[3] < (3000.1 - 200.0) / 20
    assert limited_tangents(levels, unlimited)[3] == (5800.0 - 200.0) / 20
    a, b = flat_surface(limited), flat_surface(unlimited)
    for signal in (2.5, 5.0, 9.0, 10.5, 15.0, 19.5):
        assert_same_bits(a.eval(10.0, signal), b.eval(10.0, signal))
        assert_same_bits(a.eval(10.0, signal), _surface_eval_oracle(a, 10.0, signal))
    assert a.eval(10.0, 35.0) != b.eval(10.0, 35.0)


def _unclamped(curve, x):
    """The curve's Hermite value at ``x`` before its clamp at 0; the end values outside."""
    xs = curve.knots_x
    x = min(max(x, xs[0]), xs[-1])
    i = min(bisect_right(xs, x) - 1, len(xs) - 2)
    h = xs[i + 1] - xs[i]
    return _hermite_oracle((x - xs[i]) / h, curve.knots_y[i], curve.knots_y[i + 1],
                           curve.tangents[i], curve.tangents[i + 1], h)


def _worst_falls_oracle(chosen):
    """Per pair of neighbouring curves, the largest ``(excess, fall)`` of the
    lower's unclamped value over the upper's, excess being the fall less the
    slack ``1e-9 * max(1, f)``. On each segment of the union of their knots the
    fall is the cubic through four of its values; numpy's polynomial routines
    give the roots of its derivative."""
    knots = sorted({x for c in chosen for x in c.knots_x})
    worst = []
    for lower, upper in zip(chosen, chosen[1:]):
        best = (-math.inf, 0.0)
        for a, b in zip(knots, knots[1:]):
            def fall(u):
                x = a + u * (b - a)
                return _unclamped(lower, x) - _unclamped(upper, x)

            us = [0.0, 1 / 3, 2 / 3, 1.0]
            slope = np.polyder(np.polyfit(us, [fall(u) for u in us], 3))
            roots = [r.real for r in np.roots(slope) if r.imag == 0 and 0.0 < r.real < 1.0]
            for u in [0.0, 1.0, *roots]:
                x = a + u * (b - a)
                lo, hi = _unclamped(lower, x), _unclamped(upper, x)
                best = max(best, (lo - hi - 1e-9 * max(1.0, lo, hi), lo - hi))
        worst.append(best)
    return worst


@KERNEL
@given(st.data())
def test_check_signal_monotone_matches_scalar_loop(data):
    # Arbitrary curves, hand-set tangents among them, on one grid or one per
    # level: ForceSurface refuses exactly the surfaces where, somewhere, a
    # curve before its clamp lies above its neighbour above by more than the
    # slack, and names the worst such fall, as the scalar loop over segments
    # ``_worst_falls_oracle`` finds it. Away from that boundary, that is: two
    # exact computations of one cubic differ by rounding.
    levels = data.draw(level_sets(max_above_zero=3))
    grid = data.draw(knot_grids()) if data.draw(st.booleans()) else None
    chosen = [data.draw(curves(knots=grid)) for _ in levels]
    worst = _worst_falls_oracle(chosen)
    scale = max(1.0, *(abs(m) * 45.0 + max(c.knots_y) for c in chosen for m in c.tangents))
    clear = [excess for excess, _ in worst if abs(excess) > 1e-12 * scale]
    try:
        ForceSurface(tuple(levels), tuple(chosen))
    except FitError as err:
        assert any(excess > 0.0 for excess in clear) or len(clear) < len(worst)
        found = re.fullmatch(r"level (\d+) falls below level (\d+) by (\S+) N at \S+ m/s; "
                             r"surface would not be monotone in the signal", str(err))
        k = levels.index(int(found[2]))
        assert levels[k + 1] == int(found[1])
        assert worst[k][0] >= max(worst)[0] - 1e-12 * scale
        assert float(found[3]) == pytest.approx(worst[k][1], rel=6e-3, abs=1e-12 * scale)
    else:
        assert all(excess <= 0.0 for excess in clear)


def test_single_level_surface_is_its_curve():
    curve = Spline1D.interpolate([0.5, 3.0, 20.0], [100.0, 400.0, 250.0])
    surface = ForceSurface((0,), (curve,))
    v = np.linspace(0.0, 25.0, 101)
    for signal in (-3.0, 0.0, 60.0, 200.0):
        assert_same_bits(surface.eval_many(v, signal), curve.eval_many(v))


@st.composite
def monotone_surfaces(draw, shared_grid=True):
    """A surface whose knot values do not decrease from level to level, on one
    knot grid or, with ``shared_grid`` false, on one grid per level (each
    level's knots stretched by 0.1 % more than the level below). Between knots
    two such curves can still cross; the upper is then raised above the lower."""
    levels = draw(level_sets(max_above_zero=5))
    grid = draw(knot_grids())
    ys = draw(st.lists(KNOT_VALUES, min_size=len(grid), max_size=len(grid)))
    steps = st.one_of(st.sampled_from([0.0, 0.0, 1e-6, 5.0, 3000.0]), st.floats(0.0, 4000.0))
    curves = []
    for k, _ in enumerate(levels):
        xs = grid if shared_grid else [x * (1.0 + 0.001 * k) for x in grid]
        curves.append(Spline1D.interpolate(xs, ys))
        if k and not builds(*curves[-2:]):
            curves[-1] = raised_above(curves[-1], curves[-2])
        ys = [y + draw(steps) for y in curves[-1].knots_y]
    return ForceSurface(tuple(levels), tuple(curves))


@pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "per-level-grids"])
@KERNEL
@given(data=st.data())
def test_eval_equals_along_signal_of_cross_section(shared_grid, data):
    # On a shared grid eval writes both steps out in one frame; on per-level
    # grids it calls them. Either way the bits are theirs, and eval_many's.
    surface = data.draw(monotone_surfaces(shared_grid=shared_grid))
    assert (surface._grid is not None) == (shared_grid or len(surface.levels) == 1)
    levels = surface.levels
    knots = all_knots(surface)
    speeds = data.draw(st.lists(speed_for(knots), min_size=1, max_size=10))
    speeds += inner_speeds(data, knots, 10)
    signals = data.draw(st.lists(signals_for(levels), min_size=1, max_size=4))
    signals += [0.5 * (a + b) for a, b in zip(levels, levels[1:])]
    for v in speeds:
        got = [surface.eval(v, s) for s in signals]
        assert_same_bits(got, surface.eval_many(v, signals))
        between = [(k, s) for k, s in enumerate(signals) if levels[0] < s < levels[-1]]
        section = surface.cross_section(v)
        assert_same_bits([got[k] for k, _ in between],
                         [surface._along_signal(section, s) for _, s in between])
        # A NaN signal between the end tests, at a speed inside the grid, must not
        # index past the level spans.
        with pytest.raises(InvalidParameterError, match="^signal is NaN$"):
            surface.eval(v, math.nan)
        with pytest.raises(InvalidParameterError, match="^speed is NaN$"):
            surface.eval(math.nan, signals[0])
    if len(levels) > 1:
        with pytest.raises(InvalidParameterError, match="^speed is NaN$"):
            surface.eval(math.nan, math.nan)


@pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "per-level-grids"])
def test_eval_calls_no_section_method_on_a_shared_grid(shared_grid):
    grid = [0.0, 1.0, 2.0]
    surface = ForceSurface((0, 10, 20), tuple(
        Spline1D.interpolate(grid if shared_grid else [x + 0.1 * k for x in grid],
                             [y + 5.0 * k for y in (1.0, 2.0, 3.0)]) for k in range(3)))
    with patch.object(ForceSurface, "cross_section", autospec=True,
                      side_effect=ForceSurface.cross_section) as section, \
            patch.object(ForceSurface, "_along_signal", autospec=True,
                         side_effect=ForceSurface._along_signal) as along:
        surface.eval(1.5, 15.0)   # inside the grid, between levels
        surface.eval(-1.0, 15.0)  # a held end of the grid
    assert section.call_count == along.call_count == (1 if shared_grid else 2)


def assert_invert_undoes_eval(surface, v, s):
    force = surface.eval(v, s)
    values = surface.cross_section(v)
    signal, saturated, underflow = surface.invert(v, force)
    # A section may fall within invert's slack, so a force the surface
    # reaches can lie below the bottom level's value: the flags compare the
    # force with the end levels, as documented.
    assert underflow == (force < values[0])
    assert saturated == (force > values[-1])
    reached = surface.eval(v, signal)
    assert saturated or reached >= force
    # Where a cross-section is flat to a few ulps, evaluation rounding can dip
    # by an ulp past s and the bisection may stop there; the force it reaches
    # is then the target's to rounding.
    assert signal <= s + SIGNAL_TOL or reached - force <= 4 * math.ulp(force)


@KERNEL
@given(st.data())
def test_invert_undoes_eval(data):
    surface = data.draw(monotone_surfaces())
    levels = surface.levels
    v = data.draw(speed_for(all_knots(surface)))
    s = data.draw(st.one_of(st.floats(levels[0], levels[-1]), st.sampled_from(levels)))
    assert_invert_undoes_eval(surface, v, s)


def test_invert_flags_a_force_below_a_section_that_dips_within_the_slack():
    # Level 1 lies 4e-9 N below level 0 at every speed, within the slack of
    # 1e-9 * max(1, 5) N, so the surface builds; the force at signal 1.0 lies
    # below the bottom level's value, and invert returns signal 0.0 with
    # underflow set.
    surface = ForceSurface((0, 1), tuple(Spline1D.interpolate([0.0, 2.0], [y, y])
                                         for y in (5.0, 5.0 - 4e-9)))
    assert surface.eval(1.0, 1.0) == 5.0 - 4e-9
    assert surface.invert(1.0, 5.0 - 4e-9) == (0.0, False, True)
    assert_invert_undoes_eval(surface, 1.0, 1.0)


# --- invert against the bisection over the public eval -----------------------------

def _invert_by_eval(surface, v, force):
    """``ForceSurface.invert`` as it was, bisecting with ``surface.eval``."""
    values = surface.cross_section(v)
    lo, hi = float(surface.levels[0]), float(surface.levels[-1])
    f_lo, f_hi = values[0], values[-1]
    if force <= f_lo:
        return lo, False, force < f_lo
    if force > f_hi:
        return hi, True, False
    if math.isnan(force):
        raise InvalidParameterError("force is NaN")
    while hi - lo > SIGNAL_TOL:
        mid = 0.5 * (lo + hi)
        if surface.eval(v, mid) >= force:
            hi = mid
        else:
            lo = mid
    return hi, False, False


def _outcome(fn, *args):
    try:
        signal, saturated, underflow = fn(*args)
    except InvalidParameterError as err:
        return type(err), str(err)
    return np.float64(signal).view(np.uint64), saturated, underflow


def assert_invert_matches_oracle(surface, v, forces):
    for force in forces:
        assert _outcome(surface.invert, v, force) == _outcome(_invert_by_eval, surface, v, force)


def forces_for(data, surface, v):
    """Forces below, at and above each section value, and inside every segment."""
    values = surface.cross_section(v)
    forces = [math.nan, -math.inf, math.inf]
    for f in values:
        forces += [f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf),
                   f - 1.0, f + 1.0]
    for a, b in zip(surface.levels, surface.levels[1:]):
        s = data.draw(st.floats(a, b, exclude_min=True, exclude_max=True))
        forces.append(surface.eval(v, s))
    return forces


@pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "mixed-grids"])
@KERNEL
@given(data=st.data())
def test_invert_matches_bisection_over_eval(shared_grid, data):
    surface = data.draw(surfaces(shared_grid=shared_grid))
    v = data.draw(speed_for(all_knots(surface)))
    assert_invert_matches_oracle(surface, v, forces_for(data, surface, v))


@KERNEL
@given(st.data())
def test_invert_matches_bisection_over_eval_on_monotone_surfaces(data):
    surface = data.draw(monotone_surfaces())
    v = data.draw(speed_for(all_knots(surface)))
    assert_invert_matches_oracle(surface, v, forces_for(data, surface, v))


@KERNEL
@given(st.data())
def test_invert_matches_bisection_over_eval_on_one_level(data):
    surface = ForceSurface((0,), (data.draw(curves()),))
    v = data.draw(speed_for(all_knots(surface)))
    assert_invert_matches_oracle(surface, v, forces_for(data, surface, v))


def test_invert_matches_bisection_over_eval_on_an_ulp_flat_section():
    # The section of the ulp-flat case in test_invert_undoes_eval's comment,
    # where the bisection stops past the smallest signal that reaches the force.
    surface = ForceSurface((0, 3, 126, 130), tuple(
        Spline1D.interpolate([0.0, 0.001], [y, y]) for y in (0.0, 3000.0, 3000.000001,
                                                           3000.000001)))
    force = surface.eval(0.0, 124.0)
    assert surface.invert(0.0, force)[0] > 124.0 + SIGNAL_TOL
    assert_invert_matches_oracle(surface, 0.0, [force, 3000.0000005, 1500.0])


@pytest.mark.parametrize("kind", ["propulsion", "braking"])
def test_invert_reads_one_cross_section_and_no_public_eval(gt_models, kind):
    surface = getattr(gt_models, kind)
    v = 12.0
    values = surface.cross_section(v)
    force = 0.5 * (values[0] + values[-1])
    with patch.object(ForceSurface, "cross_section", autospec=True,
                      side_effect=ForceSurface.cross_section) as section, \
            patch.object(ForceSurface, "eval", autospec=True,
                         side_effect=ForceSurface.eval) as public_eval:
        _, saturated, underflow = surface.invert(v, force)
    assert section.call_count == 1
    assert public_eval.call_count == 0
    assert not (saturated or underflow)
    assert _outcome(surface.invert, v, force) == _outcome(_invert_by_eval, surface, v, force)


@pytest.fixture(scope="module")
def mixed_log(gt_models):
    log, _, _ = mixed_drive(gt_models, cycles=1)
    return log


class TestValidateMatchesScalarLoop:
    def test_report_equals_per_sample_loop(self, gt_models, mixed_log):
        log = mixed_log
        accel = estimate_acceleration(log, 51, 2.0)
        # Every 7th sample left out of the comparison, as a caller clears it.
        accel = AccelSeries(accel.accel, accel.valid & (np.arange(len(log)) % 7 != 0))
        report = validate(gt_models, log, accel)
        idx = np.flatnonzero(accel.valid)
        errors = np.array([
            accel.accel[i] - direct_acceleration(
                gt_models, float(log.speed[i]), float(log.throttle[i]),
                float(log.brake[i]), float(log.slope[i]))[0]
            for i in idx])
        assert report.count == len(errors)
        assert report.mean == float(errors.mean())
        assert report.std_dev == float(errors.std())
        assert report.min == float(errors.min())
        assert report.max == float(errors.max())
        assert report.histogram == _histogram(errors, report.hist_bin_width)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("v, slope, accel", [
        (10.0, 0.0, math.nan), (10.0, math.nan, 0.5), (math.nan, 0.0, 0.5),
        (10.0, math.inf, 0.5), (math.inf, 0.0, 0.5), (10.0, 0.0, -math.inf)])
    def test_inverse_actuation_rejects(self, gt_models, v, slope, accel):
        # A NaN desired acceleration used to walk the brake bisection to a
        # silent full brake with no flag set.
        with pytest.raises(InvalidParameterError, match="non-finite"):
            inverse_actuation(gt_models, v, slope, accel)

    @pytest.mark.parametrize("row", [
        (math.nan, 0.0, 0.0, 0.0), (10.0, math.nan, 0.0, 0.0), (10.0, 0.0, math.nan, 0.0),
        (10.0, 0.0, 0.0, math.nan), (10.0, 0.0, 0.0, math.inf), (math.inf, 50.0, 0.0, 0.0)])
    def test_direct_acceleration_rejects(self, gt_models, row):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            direct_acceleration(gt_models, *row)
        v, throttle, brake, slope = (np.full(6, x) for x in (10.0, 50.0, 0.0, 0.01))
        for col, value in zip((v, throttle, brake, slope), row):
            col[4] = value
        with pytest.raises(InvalidParameterError, match="at row 4"):
            direct_acceleration_many(gt_models, v, throttle, brake, slope)
        # A finite row whose sum overflows, before the NaN, is not the one named.
        v[2] = slope[2] = 1e308
        with pytest.raises(InvalidParameterError, match="at row 4"):
            direct_acceleration_many(gt_models, v, throttle, brake, slope)

    @pytest.mark.parametrize("throttle, brake", [(50.0, 0.0), (0.0, 40.0), (0.0, 0.0)])
    def test_finite_values_whose_sum_overflows_are_accepted(self, gt_models, throttle, brake):
        # 1e308 + 1e308 is inf, but each value of the operating point is finite.
        accel, forces = direct_acceleration(gt_models, 1e308, throttle, brake, 1e308)
        columns = [np.full(6, x) for x in (10.0, 50.0, 0.0, 0.01)]
        for col, value in zip(columns, (1e308, throttle, brake, 1e308)):
            col[3] = value
        many, breakdown = direct_acceleration_many(gt_models, *columns)
        assert_same_bits(many[3], accel)
        assert_same_bits([column[3] for column in breakdown], forces)
        command = inverse_actuation(gt_models, 1e308, 1e308, 0.5)
        assert math.isfinite(command.throttle) and math.isfinite(command.brake)

    def test_validate_accepts_finite_values_whose_sum_overflows(self, gt_models, mixed_log):
        # One sample of speed and slope 1e308, as DriveLog accepts, against a
        # hand-built acceleration series: validate returns a report.
        part = slice(0, 3000)
        speed, slope = mixed_log.speed[part].copy(), mixed_log.slope[part].copy()
        speed[1500] = slope[1500] = 1e308
        log = DriveLog(mixed_log.t[part], speed, mixed_log.throttle[part],
                       mixed_log.brake[part], slope)
        accel = AccelSeries(np.zeros(len(log)), np.ones(len(log), dtype=bool))
        report = validate(gt_models, log, accel)
        assert report.count == len(log)
        assert math.isfinite(report.std_dev)

    @pytest.mark.parametrize("slope", [math.inf, -math.inf, math.nan])
    def test_simulate_names_a_non_finite_mid_step_slope(self, gt_models, slope):
        # math.sin refuses an infinite slope; a non-finite slope at the
        # mid-step stages must still be named as the operating point.
        def schedule(t):
            return 50.0, 0.0, slope if t > 0.0 else 0.0

        with pytest.raises(InvalidParameterError,
                           match=f"non-finite operating point: v=.*, slope={slope}"):
            simulate(gt_models, schedule, 5.0, 0.01, 1.0)

    def test_eval_many_names_nan_row(self, gt_models):
        v = np.array([1.0, 2.0, np.nan, 4.0])
        with pytest.raises(InvalidParameterError, match="speed is NaN at row 2"):
            gt_models.friction.eval_many(v)
        with pytest.raises(InvalidParameterError, match="speed is NaN at row 2"):
            gt_models.propulsion.eval_many(v, 50.0)
        with pytest.raises(InvalidParameterError, match="signal is NaN at row 1"):
            gt_models.propulsion.eval_many(5.0, [0.0, np.nan, 10.0])

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-grid", "per-level-grid"])
    def test_scalar_eval_names_nan(self, shared):
        # Each used to raise a bare IndexError, and invert(v, nan) returned
        # the top level with no flag set.
        top = [0.0, 1.0, 2.0] if shared else [0.0, 1.5, 3.0]
        surface = ForceSurface((0, 10), (Spline1D.interpolate([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
                                         Spline1D.interpolate(top, [2.0, 3.0, 4.0])))
        calls = [(surface.curves[0].eval, (math.nan,), "speed"),
                 (surface.cross_section, (math.nan,), "speed"),
                 (surface.eval, (math.nan, 5.0), "speed"),
                 (surface.eval, (math.nan, 0.0), "speed"),
                 (surface.eval, (0.5, math.nan), "signal"),
                 (surface.invert, (math.nan, 2.0), "speed"),
                 (surface.invert, (0.5, math.nan), "force")]
        for fn, args, name in calls:
            with pytest.raises(InvalidParameterError, match=f"^{name} is NaN$"):
                fn(*args)

    def test_validate_cli_exits_2_on_nan_speed(self, mixed_log, tmp_path, capsys):
        # DriveLog refuses a NaN speed, so the file is written as raw JSON;
        # load_drive_log must then stop at the boundary, naming the row.
        part = slice(0, 3000)
        speed = mixed_log.speed[part].tolist()
        speed[1500] = math.nan
        log_path = tmp_path / "drive.json"
        log_path.write_text(json.dumps({
            "format": "longforce-drivelog-v1",
            "metadata": {"gear": "drive", "description": ""},
            "t_s": mixed_log.t[part].tolist(), "speed_mps": speed,
            "throttle": mixed_log.throttle[part].tolist(),
            "brake": mixed_log.brake[part].tolist(),
            "slope_rad": mixed_log.slope[part].tolist()}))
        assert main(["reference", "--out-dir", str(tmp_path)]) == 0
        code = main(["validate", "--friction", str(tmp_path / "friction.json"),
                     "--propulsion", str(tmp_path / "propulsion.json"),
                     "--braking", str(tmp_path / "braking.json"),
                     "--params", str(data_path("zoe_params.json")), "--log", str(log_path)])
        assert code == 2
        assert "column 'speed' is non-finite at row 1500" in capsys.readouterr().err


def _rk4_oracle(models, schedule, v0, dt, duration):
    """The RK4 loop ``simulate`` runs, with one ``direct_acceleration`` call per stage.

    Each stage asks the schedule for its own commands, so a moving step
    makes four schedule calls where ``simulate`` makes three.
    """
    def accel_at(t, v):
        return direct_acceleration(models, max(v, 0.0), *schedule(t))[0]

    steps = max(int(round(duration / dt)), 0)
    rows = []
    v = float(v0)
    for k in range(steps + 1):
        t = k * dt
        a, (f_p, f_f, f_b) = direct_acceleration(models, v, *schedule(t))
        at_rest = v == 0.0 and a <= 0.0
        rows.append((t, v, 0.0 if at_rest else a, f_p, f_f, f_b))
        if k == steps:
            break
        if at_rest:
            continue
        k2 = accel_at(t + 0.5 * dt, v + 0.5 * dt * a)
        k3 = accel_at(t + 0.5 * dt, v + 0.5 * dt * k2)
        k4 = accel_at(t + dt, v + dt * k3)
        v = max(v + dt / 6.0 * (a + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
    return [np.array(col) for col in zip(*rows)]


# (end time s, throttle, brake, slope rad): held at rest by the brake, a launch
# through a throttle inside every propulsion segment (levels 0/50/100/150/186),
# regen-only coasting, a stop through a brake inside every braking segment
# (levels 0/40/80/120/160) and a wait at rest, then throttle uphill and regen
# downhill.
PHASES = [(3.0, 0.0, 120.0, 0.0), (10.0, 30.0, 0.0, 0.0), (16.0, 70.0, 0.0, 0.0),
          (22.0, 127.0, 0.0, 0.02), (28.0, 170.0, 0.0, 0.0), (32.0, 0.0, 0.0, 0.0),
          (36.0, 0.0, 20.0, 0.0), (40.0, 0.0, 60.0, -0.02), (44.0, 0.0, 100.0, 0.0),
          (50.0, 0.0, 140.0, 0.0), (53.0, 0.0, 90.0, 0.0), (63.0, 150.0, 0.0, 0.04),
          (70.0, 0.0, 0.0, -0.03)]


def _phase_schedule(t):
    for end, throttle, brake, slope in PHASES:
        if t < end:
            return throttle, brake, slope
    return PHASES[-1][1:]


def test_simulate_matches_rk4_oracle(gt_models):
    traj = simulate(gt_models, _phase_schedule, 0.0, 0.01, 70.0)
    oracle = _rk4_oracle(gt_models, _phase_schedule, 0.0, 0.01, 70.0)
    for column, expected in zip((traj.t, traj.speed, traj.accel, traj.f_p, traj.f_f, traj.f_b),
                                oracle):
        assert_same_bits(column, expected)
    # Every regime of the direct model was visited.
    throttle, brake, slope = (np.array(col) for col in zip(*map(_phase_schedule, traj.t)))
    moving = traj.speed > 0.0
    assert np.any((traj.speed == 0.0) & (traj.accel == 0.0) & (brake > 0.0))
    assert np.any(moving & (throttle > 0.0) & (traj.f_b == 0.0))
    assert np.any(moving & (throttle == 0.0) & (brake == 0.0) & (traj.f_b > 0.0))
    assert np.any(moving & (brake > 0.0) & (traj.f_b > 0.0))
    assert np.any(moving & (slope > 0.0)) and np.any(moving & (slope < 0.0))
    # Every segment between defining levels was evaluated on the move.
    for level in (30.0, 70.0, 127.0, 170.0):
        assert np.any(moving & (throttle == level))
    for level in (20.0, 60.0, 100.0, 140.0):
        assert np.any(moving & (brake == level))


def test_model_set_caches_equivalent_mass(gt_models):
    models = ModelSet(gt_models.friction, gt_models.propulsion, gt_models.braking,
                      gt_models.params)
    params = gt_models.params
    m_eq = params.base_mass_kg + params.payload_mass_kg
    for wheel in params.wheels:
        m_eq += wheel.inertia_kgm2 / wheel.radius_m**2
    assert params.wheels and models.params.m_eq_kg == m_eq


def test_schedule_calls_per_step(gt_models):
    # A moving step asks at t, t + dt/2 and t + dt; a step at rest only at t.
    calls = []

    def recording(t):
        calls.append(t)
        return _phase_schedule(t)

    dt = 0.01
    traj = simulate(gt_models, recording, 0.0, dt, 70.0)
    at_rest = (traj.speed == 0.0) & (traj.accel == 0.0)
    expected = []
    for k, t in enumerate(traj.t.tolist()):
        expected.append(t)
        if k < len(traj) - 1 and not at_rest[k]:
            expected += [t + 0.5 * dt, t + dt]
    assert calls == expected
    assert at_rest.any() and not at_rest.all()
