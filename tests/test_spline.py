import json
import math
import re
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longforce.errors import FitError, SchemaError
from longforce.pipeline import load_pipeline_config
from longforce.reference import load_anchor_file
from longforce.spline import (DEFAULT_KNOTS_MPS, ForceSurface, Spline1D,
                              check_signal_monotone, fit_curve, limited_tangents,
                              load_model, model_from_dict, model_to_dict, save_model,
                              _hermite, _supported_knots)


def model_bits(model):
    """Knots, tangents and clamp of every curve of ``model``, as raw float bits."""
    curves = model.curves if isinstance(model, ForceSurface) else (model,)
    return [np.array([*c.knots_x, *c.knots_y, *c.tangents, c.lower_clamp]).tobytes()
            for c in curves]


def write_json(path, obj):
    """``obj`` written as JSON at ``path``; returns the path."""
    path.write_text(json.dumps(obj))
    return path


def binned(centers, values, counts=None):
    """(speed, value, count) rows for ``fit_curve``, each count 1 unless given."""
    counts = np.ones(len(centers)) if counts is None else counts
    return np.column_stack([centers, values, counts]).astype(float).reshape(-1, 3)


class TestSpline1D:
    def test_knot_interpolation_exact(self):
        xs = [0.1, 1.0, 5.0, 20.0]
        ys = [300.0, 180.0, 200.0, 420.0]
        s = Spline1D.interpolate(xs, ys)
        for x, y in zip(xs, ys):
            assert s.eval(x) == y

    def test_held_end_extrapolation(self):
        s = Spline1D.interpolate([1.0, 2.0, 3.0], [10.0, 20.0, 15.0])
        assert s.eval(0.0) == 10.0
        assert s.eval(100.0) == 15.0

    def test_monotone_segment_stays_bounded(self):
        s = Spline1D.interpolate([0.0, 1.0, 2.0, 5.0], [0.0, 10.0, 12.0, 400.0])
        for x in np.linspace(0.0, 5.0, 2000):
            y = s.eval(float(x))
            i = int(np.searchsorted(s.knots_x, x, side="right")) - 1
            i = min(max(i, 0), len(s.knots_x) - 2)
            lo = min(s.knots_y[i], s.knots_y[i + 1])
            hi = max(s.knots_y[i], s.knots_y[i + 1])
            assert lo - 1e-9 <= y <= hi + 1e-9

    def test_plateau_is_exactly_flat(self):
        s = Spline1D.interpolate([0.0, 1.0, 2.0, 3.0, 8.0], [500.0, 200.0, 200.0, 200.0, 900.0])
        for x in np.linspace(1.0, 3.0, 100):
            assert s.eval(float(x)) == 200.0

    def test_lower_clamp_applies_between_knots(self):
        # Hand-built tangents that would dip below zero get clamped at eval.
        s = Spline1D((0.0, 1.0), (10.0, 0.0), (-40.0, 0.0))
        values = [s.eval(float(x)) for x in np.linspace(0.0, 1.0, 200)]
        assert min(values) == 0.0

    def test_knots_below_clamp_rejected(self):
        with pytest.raises(FitError):
            Spline1D((0.0, 1.0), (-5.0, 1.0), (0.0, 0.0))

    def test_needs_two_knots(self):
        with pytest.raises(FitError):
            Spline1D((1.0,), (1.0,), (0.0,))

    def test_decreasing_knots_rejected(self):
        with pytest.raises(FitError):
            Spline1D((1.0, 1.0), (0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("field, name", [(0, "knot position"), (1, "knot value"),
                                             (2, "tangent")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, name, value):
        parts = [[0.0, 1.0, 2.0], [5.0, 6.0, 7.0], [0.0, 1.0, 0.0]]
        parts[field][1] = value
        with pytest.raises(FitError, match=f"{name} 1 is non-finite"):
            Spline1D(*map(tuple, parts))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_lower_clamp_rejected(self, value):
        with pytest.raises(FitError, match=f"lower clamp must be 0, got {value}"):
            Spline1D((0.0, 1.0), (5.0, 6.0), (0.0, 0.0), lower_clamp=value)

    def test_negative_lower_clamp_rejected(self):
        # Forces are never negative; a surface of such curves used to jump
        # from its clamp at the first level to 0 N between levels.
        with pytest.raises(FitError, match="lower clamp must be 0, got -50.0"):
            Spline1D((0.0, 1.0), (5.0, 6.0), (0.0, 0.0), lower_clamp=-50.0)
        # interpolate raises values below 0 to 0, the one clamp.
        assert Spline1D.interpolate([0.0, 10.0], [-40.0, -30.0]).knots_y == (0.0, 0.0)

    @pytest.mark.parametrize("value", [40.0, 1e-300])
    def test_positive_lower_clamp_rejected(self, value):
        # Every fit, reference model and model file clamps at 0, and the
        # surface's along-signal step clamps at 0 whatever its curves hold.
        with pytest.raises(FitError, match=f"lower clamp must be 0, got {value}"):
            Spline1D((0.0, 1.0), (50.0, 60.0), (0.0, 0.0), value)
        assert Spline1D((0.0, 1.0), (50.0, 60.0), (0.0, 0.0), 0).lower_clamp == 0

    def test_eval_many_matches_eval(self):
        s = Spline1D.interpolate([0.0, 2.0, 4.0], [1.0, 5.0, 3.0])
        xs = np.linspace(-1, 5, 50)
        assert np.array_equal(s.eval_many(xs), [s.eval(float(x)) for x in xs])


class TestLimitedTangents:
    def test_linear_data_keeps_slope(self):
        m = limited_tangents([0.0, 1.0, 2.0], [0.0, 10.0, 20.0])
        assert m == (10.0, 10.0, 10.0)

    def test_extremum_gets_zero_tangent(self):
        m = limited_tangents([0.0, 1.0, 2.0], [0.0, 10.0, 5.0])
        assert m[1] == 0.0

    def test_flat_span_zeroes_tangents(self):
        m = limited_tangents([0.0, 1.0, 2.0, 3.0], [5.0, 5.0, 5.0, 9.0])
        assert m[0] == 0.0 and m[1] == 0.0 and m[2] == 0.0

    def test_overflowing_ratio_gives_zero_tangents(self):
        # m/delta overflows next to a subnormal secant; r2 = inf used to give
        # 0 * inf = NaN tangents.
        assert limited_tangents([0.0, 0.001, 0.002], [0.0, 5e-313, 1.0]) == (0.0, 0.0, 1000.0)

    @pytest.mark.parametrize("xs, ys", [
        ([0.0, 1.0, 2.0], [0.0, 1e-300, 1e300]),
        ([0.0, 0.001, 0.002], [0.0, 5e-313, 1.0]),
        ([0.1, 0.7, 2.0, 2.5, 9.0], [3.0, 3.0, 17.5, 2.0, 40.0])],
        ids=["overflowing-secant", "overflowing-ratio", "mixed"])
    def test_list_tuple_and_array_inputs_give_equal_tangents(self, xs, ys):
        # Array positions used to give numpy-scalar arithmetic, whose overflow
        # warning (an error here) the Python floats of a list do not raise.
        want = np.array(limited_tangents(xs, ys)).tobytes()
        for kind in (tuple, np.array):
            assert np.array(limited_tangents(kind(xs), kind(ys))).tobytes() == want
        assert (np.array(Spline1D.interpolate(np.array(xs), np.array(ys)).tangents).tobytes()
                == np.array(Spline1D.interpolate(xs, ys).tangents).tobytes())

    def test_steep_tangents_scaled_into_monotone_region(self):
        xs = [0.0, 1.0, 1.001, 2.0]
        ys = [0.0, 100.0, 100.1, 200.0]
        m = limited_tangents(xs, ys)
        for i in range(len(xs) - 1):
            delta = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            a, b = m[i] / delta, m[i + 1] / delta
            assert a * a + b * b <= 9.0 + 1e-12

    @pytest.mark.parametrize("xs, ys", [([], []), ([3.0], [7.0]), ((), (7.0,))])
    def test_fewer_than_two_positions_refused(self, xs, ys):
        # An empty list used to give one tangent, (0.0,), for no knots.
        with pytest.raises(FitError, match=f"^need at least 2 knot positions, got {len(xs)}$"):
            limited_tangents(xs, ys)

    @pytest.mark.parametrize("call, message", [
        (lambda tmp: limited_tangents([0.0, 1.0, 2.0], [0.0, 1.0, 5.0, 7.0]),
         "need one value per knot position, got 4 for 3"),
        (lambda tmp: limited_tangents([0.0, 1.0], [0.0]),
         "need one value per knot position, got 1 for 2"),
        (lambda tmp: Spline1D.interpolate([0.0, 1.0, 2.0], [0.0, 1.0]),
         "need one value per knot position, got 2 for 3"),
        (lambda tmp: Spline1D([0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 0.0, 0.0]),
         "need one value per knot position, got 2 for 3"),
        (lambda tmp: Spline1D([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0, 0.0]),
         "need one tangent per knot position, got 4 for 3"),
        (lambda tmp: load_model(write_json(tmp / "friction.json", {
            "kind": "friction", "curves": [{"knots_x_mps": [0.0, 1.0, 2.0],
                                            "knots_y_N": [0.0, 1.0]}]})),
         "{tmp}/friction.json: malformed friction model: "
         "need one value per knot position, got 2 for 3")],
        ids=["extra-value", "missing-value", "interpolate", "Spline1D", "Spline1D-tangent",
             "load_model"])
    def test_one_value_per_position(self, tmp_path, call, message):
        # The first used to drop the value 7.0 silently; the next two ended in
        # a bare IndexError. Spline1D said "knots_x, knots_y and tangents must
        # have equal length"; one count rule now gives one message everywhere.
        with pytest.raises((FitError, SchemaError)) as exc:
            call(tmp_path)
        assert str(exc.value) == message.format(tmp=tmp_path)
        assert isinstance(exc.value, SchemaError if "{tmp}" in message else FitError)


class TestFitCurve:
    def test_linear_data_reproduced_exactly(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [100.0 + 10.0 * x for x in xs]
        curve = fit_curve(binned(xs, ys), xs)
        for x, y in zip(xs, ys):
            assert abs(curve.eval(x) - y) <= 1e-9

    def test_anchor_plus_plateau(self):
        # A standstill anchor above a data plateau: both are honored and the
        # curve never dips negative in between.
        bins = binned(np.linspace(1.0, 8.0, 15), np.full(15, 200.0), np.full(15, 50))
        curve = fit_curve(np.vstack([bins, (0.0, 500.0, 100.0)]), [0.0, 1.0, 2.0, 4.0, 8.0])
        assert abs(curve.eval(0.0) - 500.0) <= 5.0
        assert abs(curve.eval(4.0) - 200.0) <= 5.0
        sweep = [curve.eval(float(x)) for x in np.linspace(0.0, 8.0, 1000)]
        assert min(sweep) >= 0.0

    def test_full_throttle_plateau_from_anchors(self):
        # 6300 N plateau between 5 and 30 km/h.
        knots = [0.28, 5.0 / 3.6, 3.0, 6.0, 30.0 / 3.6, 12.0]
        anchors = binned(knots, [7000.0, 6300.0, 6300.0, 6300.0, 6300.0, 4750.0])
        curve = fit_curve(anchors, knots)
        for v in np.linspace(5.0 / 3.6, 30.0 / 3.6, 200):
            assert abs(curve.eval(float(v)) - 6300.0) <= 63.0

    def test_counts_weight_the_fit(self):
        # One heavy bin pulls the curve much closer than a light one.
        knots = [0.0, 1.0, 2.0]
        heavy = fit_curve(binned([0.0, 1.0, 2.0, 1.0], [0.0, 100.0, 0.0, 0.0], [1, 1000, 1, 1]),
                          knots)
        light = fit_curve(binned([0.0, 1.0, 2.0, 1.0], [0.0, 100.0, 0.0, 0.0], [1, 1, 1, 1000]),
                          knots)
        assert heavy.eval(1.0) > 90.0
        assert light.eval(1.0) < 10.0

    def test_negative_values_clamped(self):
        bins = binned([0.5, 1.0, 1.5], [-50.0, -80.0, -60.0], [10, 10, 10])
        curve = fit_curve(bins, [0.5, 1.0, 1.5])
        assert curve.knots_y == (0.0, 0.0, 0.0)

    def test_fewer_points_than_knots(self):
        # Every knot is supported, so none is pruned.
        with pytest.raises(FitError, match="^underdetermined fit: 2 data points for 3 knots"):
            fit_curve(binned([0.5, 1.5], [1.0, 2.0]), [0.0, 1.0, 2.0])

    def test_unsupported_knot_pruned(self):
        # No point lies between 0.3 and 5.0 m/s, so the knot at 2.0 m/s goes.
        bins = binned([0.1, 0.2, 5.5, 5.6, 5.8, 6.0], np.full(6, 100.0))
        curve = fit_curve(bins, [0.1, 0.3, 2.0, 5.0, 6.0])
        assert curve.knots_x == (0.1, 0.3, 5.0, 6.0)
        assert model_bits(curve) == model_bits(fit_curve(bins, curve.knots_x))

    def test_span_must_cover_data(self):
        with pytest.raises(FitError, match="span"):
            fit_curve(binned([0.5, 1.0, 3.0], [1.0, 1.0, 1.0]), [1.0, 2.0, 3.0])

    def test_nothing_to_fit(self):
        with pytest.raises(FitError):
            fit_curve(binned([], []), [0.0, 1.0])

    @pytest.mark.parametrize("row", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0),
                                     (1.0, 1.0, math.inf), (1.0, 1.0, 0.0), (1.0, 1.0, -1.0)],
                             ids=["nan-speed", "nan-value", "inf-weight", "zero-weight",
                                  "negative-weight"])
    def test_bad_row_refused_by_name(self, capfd, row):
        # A NaN speed, an infinite or a negative weight used to reach LAPACK, which
        # printed to stderr and raised LinAlgError; a NaN value ended in "knot value 0
        # is non-finite", and a zero weight was left to the rank check.
        rows = np.vstack([binned([0.5, 1.0, 1.5], [1.0, 2.0, 3.0]), row])
        with pytest.raises(FitError) as exc:
            fit_curve(rows, [0.5, 1.0, 1.5])
        x, y, w = (float(v) for v in row)
        assert str(exc.value) == (f"fit row 3 ({x} m/s, {y}, weight {w}): speed and value "
                                  "must be finite, and the weight finite and > 0")
        assert capfd.readouterr().err == ""

    def test_anchor_weight_positive(self, tmp_path):
        # Anchors load as rows under the fit's row rule, weight > 0 included.
        path = write_json(tmp_path / "anchors.json", {
            "friction": [{"speed_mps": 1.0, "force_n": 1.0}],
            "braking": {"0": [{"speed_mps": 1.0, "force_n": 1.0, "weight": 0.0}]}})
        with pytest.raises(SchemaError) as exc:
            load_anchor_file(path)
        assert str(exc.value) == (
            f"{path}: invalid anchor config: braking level 0 anchor 0 (1.0 m/s, 1.0, "
            "weight 0.0): speed must be finite, |value| <= 1e+06 and the weight > 0 "
            "and <= 1e+06")

    @pytest.mark.parametrize("knots, message", [
        ([1.0], "need at least 2 knot positions, got 1"),
        ([0.0, 2.0, 2.0], "knot positions must be strictly increasing"),
        ([0.0, math.nan, 2.0], "knot position 1 is non-finite: nan")])
    def test_knot_positions_refused_as_the_limiter_refuses_them(self, knots, message):
        with pytest.raises(FitError, match=f"^{message}$"):
            fit_curve(binned([0.5, 1.0, 1.5], [1.0, 2.0, 3.0]), knots)


# --- the one knot-layout rule ---------------------------------------------------------

BAD_LAYOUTS = {
    "one-knot": ([1.0], "need at least 2 knot positions, got 1"),
    "nan": ([0.0, math.nan, 2.0], "knot position 1 is non-finite: nan"),
    "inf": ([0.0, 1.0, math.inf], "knot position 2 is non-finite: inf"),
    "minus-inf": ([-math.inf, 1.0, 2.0], "knot position 0 is non-finite: -inf"),
    "repeated": ([0.0, 2.0, 2.0], "knot positions must be strictly increasing"),
    "decrease": ([0.0, 2.0, 1.0], "knot positions must be strictly increasing"),
}


def layout_refusal(entry, xs, tmp_path) -> tuple:
    """A call that gives knot positions ``xs`` to ``entry``, and the text its
    error must carry before the rule's message: the file readers name the file."""
    ys = [1.0] * len(xs)
    if entry == "load_model":
        path = tmp_path / "friction.json"
        path.write_text(json.dumps({"kind": "friction",
                                    "curves": [{"knots_x_mps": xs, "knots_y_N": ys}]}))
        return lambda: load_model(path), f"{path}: malformed friction model: "
    if entry == "load_pipeline_config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"params": "params.json", "anchors": "anchors.json",
                                    "knots_mps": xs}))
        return (lambda: load_pipeline_config(path),
                f"{path}: invalid pipeline config: knots_mps for friction: ")
    return {"Spline1D": lambda: Spline1D(xs, ys, [0.0] * len(xs)),
            "interpolate": lambda: Spline1D.interpolate(xs, ys),
            "limited_tangents": lambda: limited_tangents(xs, ys),
            "fit_curve": lambda: fit_curve(binned([1.0, 1.5, 2.0], [1.0, 2.0, 3.0]), xs),
            }[entry], ""


@pytest.mark.parametrize("entry", ["Spline1D", "interpolate", "limited_tangents", "fit_curve",
                                   "load_model", "load_pipeline_config"])
@pytest.mark.parametrize("layout", BAD_LAYOUTS)
def test_every_entry_point_refuses_a_bad_layout_with_one_message(tmp_path, layout, entry):
    # fit_curve used to end in LinAlgError on an infinite position, and
    # limited_tangents to return tangents for it.
    xs, message = BAD_LAYOUTS[layout]
    call, prefix = layout_refusal(entry, xs, tmp_path)
    with pytest.raises(SchemaError if prefix else FitError) as exc:
        call()
    assert str(exc.value) == prefix + message


# --- fit_curve and its knot pruning against their per-point loops ------------------

def unsupported_knots_loop(knots, xs):
    """``unsupported_knots`` as it was, one knot at a time."""
    flags = []
    arr = np.asarray(xs, dtype=float)
    for i, k in enumerate(knots):
        lo = knots[i - 1] if i > 0 else -math.inf
        hi = knots[i + 1] if i < len(knots) - 1 else math.inf
        flags.append(not bool(np.any((arr > lo) & (arr < hi))))
    return flags


def prune_loop(knots, xs):
    """The knot pruning as it was: knots outside the points' span go, save one
    bracketing knot each side, then the first unsupported interior knot, until
    none is left."""
    kept = [float(k) for k in knots]
    if len(xs) == 0:
        return kept
    lo, hi = min(xs), max(xs)
    first = max((k for k in kept if k <= lo), default=kept[0])
    last = min((k for k in kept if k >= hi), default=kept[-1])
    kept = [k for k in kept if first <= k <= last]
    while len(kept) > 2:
        interior = unsupported_knots_loop(kept, xs)[1:-1]
        if True not in interior:
            break
        del kept[interior.index(True) + 1]
    return kept


def pruned_fit_loop(points, knots_x):
    """``fit_curve`` as it was, on the knots ``prune_loop`` keeps for the rows."""
    return fit_curve_loop(points, prune_loop(knots_x, [float(row[0]) for row in points]))


def fit_curve_loop(points, knots_x):
    """``fit_curve`` without pruning, building its design point by point and knot by
    knot; it refuses a knot no point supports."""
    knots = [float(k) for k in knots_x]
    n = len(knots)
    if n < 2:
        raise FitError(f"need at least 2 knot positions, got {n}")
    if not all(a < b for a, b in zip(knots, knots[1:])):
        raise FitError("knot positions must be strictly increasing")
    xs, ys, ws = [], [], []
    for x, y, w in points:
        xs.append(float(x))
        ys.append(float(y))
        ws.append(float(w))
    if not xs:
        raise FitError("nothing to fit: no binned points and no anchors")
    if min(xs) < knots[0] or max(xs) > knots[-1]:
        raise FitError(
            f"knot span [{knots[0]}, {knots[-1]}] does not cover the data span "
            f"[{min(xs)}, {max(xs)}]")
    if len(xs) < n:
        raise FitError(
            f"underdetermined fit: {len(xs)} data points for {n} knots; use fewer knots")
    for i, unsupported in enumerate(unsupported_knots_loop(knots, xs)):
        if unsupported:
            lo = knots[i - 1] if i > 0 else knots[0]
            hi = knots[i + 1] if i < n - 1 else knots[-1]
            raise FitError(
                f"underdetermined fit: no data or anchor supports the knot at "
                f"{knots[i]} m/s (support ({lo}, {hi})); use fewer knots")
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
    solution, _, rank, _ = np.linalg.lstsq(design * sw[:, None], targets * sw, rcond=None)
    if rank < n:
        raise FitError(
            f"underdetermined fit: data supports rank {rank} of {n} knots; use fewer knots")
    for _ in range(10):
        clamped = np.maximum(solution, 0.0).tolist()
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


@st.composite
def knot_layouts(draw, min_size=2):
    """Strictly increasing knots, 0.05 to 8 m/s apart."""
    gaps = draw(st.lists(st.floats(0.05, 8.0), min_size=min_size - 1, max_size=7))
    return list(accumulate(gaps, initial=draw(st.floats(0.0, 5.0))))


def points_for(knots, max_size):
    """Speeds spread over the knots' segments, or on a knot."""
    inside = st.tuples(st.integers(0, len(knots) - 2), st.floats(0.0, 1.0)).map(
        lambda p: knots[p[0]] + p[1] * (knots[p[0] + 1] - knots[p[0]]))
    return st.lists(st.one_of(inside, inside, st.sampled_from(knots)), max_size=max_size)


def outcome(fn, *args):
    """The bits of the fitted model, or the FitError raised."""
    try:
        return model_bits(fn(*args))
    except FitError as exc:
        return str(exc)


@st.composite
def fit_inputs(draw):
    """Rows and knots for ``fit_curve``, the bins' rows before the anchors': some bins
    on the last knot or past the span, some cases with anchors only."""
    knots = draw(knot_layouts())
    centers = draw(points_for(knots, 4 * len(knots)))
    case = draw(st.integers(0, 9))
    if case < 3:
        centers.append(knots[-1])  # a bin exactly on the last knot
    elif case < 5:
        centers = []               # anchors only
    elif case == 5:
        centers.append(draw(st.floats(knots[-1] + 0.01, knots[-1] + 5.0)))  # past the span
    forces = st.floats(-500.0, 3000.0)
    bins = binned(centers, draw(st.lists(forces, min_size=len(centers),
                                         max_size=len(centers))),
                  draw(st.lists(st.integers(1, 500), min_size=len(centers),
                                max_size=len(centers))))
    anchors = [(x, draw(forces), draw(st.floats(0.5, 100.0)))
               for x in draw(points_for(knots, 2 * len(knots)))]
    return np.vstack([bins, np.reshape(anchors, (-1, 3))]), knots


@settings(max_examples=300, deadline=None)
@given(fit_inputs())
def test_fit_curve_equals_its_loop_oracle(case):
    assert outcome(fit_curve, *case) == outcome(pruned_fit_loop, *case)


def segment_sums(curve, samples=64):
    """Per segment, its two knot values and its unclamped Hermite sum at ``samples`` + 1
    speeds across it; ``spline._hermite`` keeps ``eval``'s operation order."""
    xs, ys, ms = curve.knots_x, curve.knots_y, curve.tangents
    for i in range(len(xs) - 1):
        h = xs[i + 1] - xs[i]
        t = (xs[i] + h * np.linspace(0.0, 1.0, samples + 1) - xs[i]) / h
        yield ys[i], ys[i + 1], _hermite(t, ys[i], ys[i + 1], ms[i], ms[i + 1], h)


def leaves_its_knot_values(curve, ulps=4):
    """Whether a segment's sum leaves the range of its two knot values by more than
    ``ulps`` ulps of the larger one."""
    return any(y.min() < min(y0, y1) - ulps * np.spacing(max(y0, y1))
               or y.max() > max(y0, y1) + ulps * np.spacing(max(y0, y1))
               for y0, y1, y in segment_sums(curve))


def test_excursion_check_flags_unlimited_tangents():
    # The neighbour secant at the middle knot, not limited, overshoots the plateau.
    assert leaves_its_knot_values(Spline1D([0.0, 1.0, 2.0], [0.0, 10.0, 10.0], [10.0, 5.0, 0.0]))
    assert not leaves_its_knot_values(Spline1D.interpolate([0.0, 1.0, 2.0], [0.0, 10.0, 10.0]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_built_curves_stay_within_their_knot_values(data):
    # Every curve the package builds, interpolated or fitted, keeps each segment
    # within its knot values up to 4 ulps and never below 0, so the clamps at 0 in
    # eval and eval_many never act on it.
    knots = data.draw(knot_layouts())
    values = st.one_of(st.floats(0.0, 1e4), st.sampled_from([0.0, 500.0]))
    curves = [Spline1D.interpolate(knots, data.draw(st.lists(values, min_size=len(knots),
                                                             max_size=len(knots))))]
    try:
        curves.append(fit_curve(*data.draw(fit_inputs())))
    except FitError:
        pass
    for curve in curves:
        assert not leaves_its_knot_values(curve)
        assert all((y >= 0.0).all() for _, _, y in segment_sums(curve))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fit_curve_prunes_as_its_loop_oracle(data):
    # No point in the support of knot ``gap``, so that it goes, and maybe others;
    # unsorted, repeated and on a knot included. Points all on one knot, or all past
    # either end, leave one knot, which fit_curve refuses with the layout rule's message.
    knots = data.draw(knot_layouts(min_size=3))
    gap = data.draw(st.integers(1, len(knots) - 2))
    others = [i for i in range(len(knots) - 1) if i not in (gap - 1, gap)]
    inside = st.tuples(st.sampled_from(others or [0]), st.floats(0.0, 0.99)).map(
        lambda p: knots[p[0]] + p[1] * (knots[p[0] + 1] - knots[p[0]]))
    on_knot = st.sampled_from(knots[:gap] + knots[gap + 1:])
    speeds = data.draw(st.lists(st.one_of(inside, inside, on_knot) if others else on_knot,
                                min_size=len(knots), max_size=3 * len(knots)))
    case = data.draw(st.integers(0, 9))
    if case == 0:
        speeds = [data.draw(st.sampled_from(knots))] * len(speeds)
    elif case == 1:
        speeds = [knots[-1] + 1.0 + x for x in speeds]
    elif case == 2:
        speeds = [knots[0] - 1.0 - x for x in speeds]
    speeds += data.draw(st.lists(st.sampled_from(speeds), max_size=4))
    rows = binned(speeds, data.draw(st.lists(st.floats(0.0, 3000.0), min_size=len(speeds),
                                             max_size=len(speeds))),
                  data.draw(st.lists(st.floats(0.5, 100.0), min_size=len(speeds),
                                     max_size=len(speeds))))
    assert len(prune_loop(knots, speeds)) < len(knots)
    assert outcome(fit_curve, rows, knots) == outcome(pruned_fit_loop, rows, knots)


class TestKnotSupport:
    def supported(self, knots, xs):
        return tuple(_supported_knots(np.array(knots), np.array(xs)).tolist())

    def test_prune_drops_gap_knots(self):
        assert self.supported([0.0, 1.0, 2.0, 3.0, 4.0], [0.5, 3.5]) == (0.0, 1.0, 3.0, 4.0)

    def test_prune_trims_span(self):
        assert self.supported([0.0, 1.0, 2.0, 4.0, 8.0], [1.2, 1.8]) == (1.0, 2.0)

    def test_prune_keeps_supported(self):
        knots = (0.0, 1.0, 2.0)
        assert self.supported(knots, [0.5, 1.5]) == knots

    def test_one_knot_left_is_refused(self):
        # Every point past the last knot: only the last knot brackets them.
        assert self.supported([0.0, 1.0, 2.0], [3.0, 4.0]) == (2.0,)
        with pytest.raises(FitError, match="^need at least 2 knot positions, got 1$"):
            fit_curve(binned([3.0, 4.0], [1.0, 1.0]), [0.0, 1.0, 2.0])


def two_level_surface():
    lo = Spline1D.interpolate([0.0, 40.0], [0.0, 0.0])
    hi = Spline1D.interpolate([0.0, 40.0], [1000.0, 1000.0])
    return ForceSurface((0, 100), (lo, hi))


class TestForceSurface:
    def test_pass_through_defining_levels(self, gt_models):
        surface = gt_models.propulsion
        rng = np.random.default_rng(12)
        for v in rng.uniform(0.0, 36.0, 64):
            for level, curve in zip(surface.levels, surface.curves):
                assert surface.eval(float(v), level) == curve.eval(float(v))

    def test_midway_between_constant_levels(self):
        surface = two_level_surface()
        assert surface.eval(5.0, 50.0) == pytest.approx(500.0, abs=1e-9)
        for sig in np.linspace(0, 100, 40):
            assert 0.0 <= surface.eval(5.0, float(sig)) <= 1000.0

    def test_signal_clamped_outside_range(self):
        surface = two_level_surface()
        assert surface.eval(5.0, 150.0) == surface.eval(5.0, 100.0) == 1000.0
        assert surface.eval(5.0, -5.0) == surface.eval(5.0, 0.0) == 0.0
        assert 0.0 < surface.eval(5.0, 50.0) < 1000.0

    def test_monotone_cross_sections_invert_round_trip(self, gt_models):
        surface = gt_models.propulsion
        rng = np.random.default_rng(13)
        for _ in range(200):
            v = float(rng.uniform(0.2, 34.0))
            x = float(rng.uniform(0.0, 186.0))
            f = surface.eval(v, x)
            values = surface.cross_section(v)
            slopes = np.diff(values)
            # stay away from flat plateaus where the inverse is set-valued
            if min(slopes) < 1.0:
                continue
            signal, saturated, underflow = surface.invert(v, f)
            assert not saturated and not underflow
            assert abs(signal - x) <= 1e-3

    def test_plateau_inversion_returns_smallest_signal(self):
        flat = Spline1D.interpolate([0.0, 10.0], [500.0, 500.0])
        rising = Spline1D.interpolate([0.0, 10.0], [500.0, 500.0])
        top = Spline1D.interpolate([0.0, 10.0], [900.0, 900.0])
        surface = ForceSurface((0, 50, 100), (flat, rising, top))
        # at the plateau value the smallest matching signal is the floor
        signal, _, _ = surface.invert(5.0, 500.0)
        assert signal == 0.0
        assert surface.eval(5.0, signal) >= 500.0
        # above the plateau the inverse is unique again
        signal, _, _ = surface.invert(5.0, 600.0)
        assert 50.0 < signal <= 100.0
        assert surface.eval(5.0, signal) >= 600.0
        assert surface.eval(5.0, signal - 2e-3) < 600.0

    def test_saturation_flag(self):
        surface = two_level_surface()
        assert surface.invert(5.0, 2000.0) == (100.0, True, False)

    def test_underflow_flag(self):
        lo = Spline1D.interpolate([0.0, 40.0], [300.0, 300.0])
        hi = Spline1D.interpolate([0.0, 40.0], [1000.0, 1000.0])
        surface = ForceSurface((0, 100), (lo, hi))
        assert surface.invert(5.0, 100.0) == (0.0, False, True)

    def test_zero_force_at_zero_floor_no_flag(self):
        surface = two_level_surface()
        assert surface.invert(5.0, 0.0) == (0.0, False, False)

    def test_non_monotone_cross_section_raises(self):
        lo = Spline1D.interpolate([0.0, 40.0], [800.0, 800.0])
        hi = Spline1D.interpolate([0.0, 40.0], [200.0, 200.0])
        with pytest.raises(FitError, match="^level 100 falls below level 0 by 600 N at 0 m/s; "
                                           "surface would not be monotone in the signal$"):
            ForceSurface((0, 100), (lo, hi))

    def test_check_signal_monotone_names_level(self):
        lo = Spline1D.interpolate([0.0, 40.0], [0.0, 900.0])
        mid = Spline1D.interpolate([0.0, 40.0], [500.0, 500.0])
        hi = Spline1D.interpolate([0.0, 40.0], [1000.0, 1000.0])
        with pytest.raises(FitError, match="level 40 falls below level 0"):
            ForceSurface((0, 40, 80), (lo, mid, hi))

    def test_baseline_surface_is_refused_inside_its_narrow_segment(self):
        # Level 100 falls below level 0 by 0.46 N between 20.0 and 20.1 m/s,
        # which a check on 200 speeds spread over the span did not sample.
        knots = [0.1, 20.0, 20.1, 36.0]
        curves = (Spline1D.interpolate(knots, [0.0, 500.0, 600.0, 600.0]),
                  Spline1D.interpolate(knots, [0.0, 500.0, 600.0, 1000.0]))
        with pytest.raises(FitError) as err:
            ForceSurface((0, 100), curves)
        v = assert_names_a_real_fall(err.value, (0, 100), curves)
        assert 20.0 < v < 20.1
        assert "by 0.463 N" in str(err.value)

    def test_an_overflowing_hermite_sum_is_a_fall(self):
        # The sum overflows, the difference of the levels is NaN, and argmax
        # used to hide that NaN: the surface built, and eval at 20 m/s read
        # inf, NaN and 5.0 at signals 0, 1 and 2.
        big = Spline1D((0.0, 40.0), (1e308, 1e308), (1e308, -1e308))
        flat = Spline1D.interpolate([0.0, 40.0], [5.0, 5.0])
        with pytest.raises(FitError) as err:
            ForceSurface((0, 1, 2), (big, big, flat))
        assert str(err.value) == ("level 1 falls below level 0 by an overflowing sum at 0 m/s; "
                                  "surface would not be monotone in the signal")

    @pytest.mark.parametrize("top, fall", [(10.0, 5e-7), (6000.0, 3e-6), (0.5, 2e-9)])
    def test_check_signal_monotone_allows_what_invert_allows(self, top, fall):
        # A fall by up to 1e-9 * max(1, f) N is rounding; invert's own scan
        # allowed that much, and the surface check now allows the same.
        flat = tuple(Spline1D.interpolate([0.0, 40.0], [y, y]) for y in (top, top - fall))
        if fall > 1e-9 * max(1.0, top):
            with pytest.raises(FitError, match=f"level 100 falls below level 0 by {fall:.3g} N"):
                ForceSurface((0, 100), flat)
        else:
            surface = ForceSurface((0, 100), flat)
            assert surface.invert(5.0, 0.5 * top) == (0.0, False, True)
            check_signal_monotone(surface)

    def test_levels_strictly_increasing(self):
        zero = Spline1D.interpolate([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(FitError):
            ForceSurface((10, 10), (zero, zero))

    @pytest.mark.parametrize("levels", [(50,), (10, 100), (-5, 0), (-1,)],
                             ids=["one-level", "two-levels", "below-zero", "negative"])
    def test_lowest_level_must_be_zero(self, levels):
        # Every reader needs the released-pedal curve: the brake fit takes
        # the creep curve, the direct model regeneration at zero brake.
        zero = Spline1D.interpolate([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(FitError, match=rf"lowest level must be 0 .*got levels "
                                           rf"\[{', '.join(map(str, levels))}\]"):
            ForceSurface(levels, (zero,) * len(levels))


# --- monotone in the signal, exactly ---------------------------------------------

def assert_names_a_real_fall(err, levels, curves) -> float:
    """The speed ``err`` names, where the curve of the lower named level, a
    neighbour of the upper one, lies above it by more than the slack and by
    about the named fall."""
    found = re.fullmatch(r"level (\d+) falls below level (\d+) by (\S+) N at (\S+) m/s; "
                         r"surface would not be monotone in the signal", str(err))
    assert found, str(err)
    upper, lower = levels.index(int(found[1])), levels.index(int(found[2]))
    assert upper == lower + 1
    v = float(found[4])
    # The speed is printed to 6 digits: the worst fall lies within its last
    # one, and at the printed speed itself the curves need not cross at all.
    near = np.linspace(v - 1e-5 * abs(v), v + 1e-5 * abs(v), 41).tolist()
    worst = max(curves[lower].eval(x) - curves[upper].eval(x) for x in near)
    assert worst > 1e-9 * max(1.0, curves[lower].eval(v))
    assert worst == pytest.approx(float(found[3]), rel=6e-3)
    return v


def assert_monotone_in_the_signal(surface, speeds, signals):
    """``eval(v, s1) <= eval(v, s2)`` for ``s1 < s2``, within the slack of each
    level gap: neighbouring levels may fall by 1e-9 * max(1, f) N."""
    for v in speeds:
        section = surface.cross_section(v)
        slack = (len(section) - 1) * 1e-9 * max(1.0, max(section))
        values = [surface.eval(v, s) for s in sorted(signals)]
        assert all(a <= b + slack for a, b in zip(values, values[1:])), (v, values)
        assert all(a <= b + slack for a, b in zip(section, section[1:]))


@st.composite
def rising_surfaces(draw, shared_grid):
    """Level curves, or the error ``ForceSurface`` refuses them with: knot values
    that mostly rise with the level, on one knot grid or one stretched grid per
    level. Between knots such curves can still cross."""
    levels = sorted({0, *draw(st.lists(st.integers(1, 255), max_size=5))})
    grid = [k / 1000.0 for k in sorted(draw(st.lists(st.integers(0, 45_000), min_size=2,
                                                     max_size=8, unique=True)))]
    ys = draw(st.lists(st.floats(0.0, 4000.0), min_size=len(grid), max_size=len(grid)))
    steps = st.one_of(st.sampled_from([0.0, 0.0, 1e-6, 5.0, 3000.0]), st.floats(-20.0, 4000.0))
    curves = []
    for _ in levels:
        stretch = 1.0 if shared_grid else 1.0 + 0.002 * draw(st.integers(0, 10))
        curves.append(Spline1D.interpolate([x * stretch for x in grid], ys))
        ys = [max(y + draw(steps), 0.0) for y in ys]
    return tuple(levels), tuple(curves)


def built_or_refused(levels, curves, data):
    """Either branch of the property: a surface that builds is monotone in the
    signal at random speeds, and a refusal names a speed where it falls."""
    try:
        surface = ForceSurface(levels, curves)
    except FitError as err:
        assert_names_a_real_fall(err, levels, curves)
        return
    knots = sorted({x for c in curves for x in c.knots_x})
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    speeds = [*knots, *rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 40).tolist()]
    signals = [*levels, *rng.uniform(-5.0, levels[-1] + 5.0, 12).tolist()]
    assert_monotone_in_the_signal(surface, speeds, signals)


@pytest.mark.parametrize("shared_grid", [True, False], ids=["shared-grid", "per-level-grids"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_surface_builds_monotone_or_names_a_real_fall(shared_grid, data):
    built_or_refused(*data.draw(rising_surfaces(shared_grid)), data)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fitted_surface_builds_monotone_or_names_a_real_fall(data):
    # Bins of a force curve that rises with the level, plus noise, fitted on
    # one knot layout: noise can make neighbouring fits cross.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    levels = tuple(sorted({0, *data.draw(st.lists(st.integers(1, 255), min_size=1,
                                                  max_size=4))}))
    knots = DEFAULT_KNOTS_MPS
    shape = rng.uniform(0.0, 3000.0, len(knots))
    gain = data.draw(st.floats(0.0, 20.0))  # N per signal unit at every speed
    noise = data.draw(st.sampled_from([0.0, 5.0, 50.0, 500.0]))
    centers = np.geomspace(0.1, 36.0, 40)
    counts = rng.integers(1, 200, len(centers))
    curves = []
    for level in levels:
        truth = np.interp(centers, knots, shape) + gain * level
        values = truth + rng.normal(0.0, noise, len(centers)) if noise else truth
        curves.append(fit_curve(binned(centers, values, counts), knots))
    built_or_refused(levels, tuple(curves), data)


class TestSerialization:
    def test_curve_round_trip_bit_exact(self, tmp_path, gt_models):
        path = tmp_path / "friction.json"
        save_model(path, "friction", gt_models.friction, {"source_logs": ["a.json"]})
        kind, loaded, provenance = load_model(path)
        assert kind == "friction"
        assert provenance["source_logs"] == ["a.json"]
        rng = np.random.default_rng(14)
        for v in rng.uniform(-1.0, 40.0, 1000):
            assert loaded.eval(float(v)) == gt_models.friction.eval(float(v))

    def test_surface_round_trip_bit_exact(self, tmp_path, gt_models):
        path = tmp_path / "propulsion.json"
        save_model(path, "propulsion", gt_models.propulsion, {"source_logs": []})
        kind, loaded, _ = load_model(path)
        assert kind == "propulsion"
        assert loaded.levels == gt_models.propulsion.levels
        rng = np.random.default_rng(15)
        for _ in range(1000):
            v = float(rng.uniform(0.0, 36.0))
            sig = float(rng.uniform(0.0, 186.0))
            assert loaded.eval(v, sig) == gt_models.propulsion.eval(v, sig)

    def test_file_is_deterministic(self, tmp_path, gt_models):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(p1, "braking", gt_models.braking, {"source_logs": [], "fit_timestamp": 0})
        save_model(p2, "braking", gt_models.braking, {"source_logs": [], "fit_timestamp": 0})
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_kind_rejected(self, gt_models):
        with pytest.raises(SchemaError):
            model_to_dict("steering", gt_models.friction)
        with pytest.raises(SchemaError):
            model_from_dict({"kind": "steering", "curves": []})

    def test_mismatched_levels_rejected(self, tmp_path, gt_models):
        # ForceSurface refuses the mismatch; load_model names the file.
        obj = model_to_dict("propulsion", gt_models.propulsion)
        obj["levels"] = obj["levels"][:-1]
        message = "levels and curves must have equal length"
        with pytest.raises(FitError, match=f"^{message}$"):
            model_from_dict(obj)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: malformed propulsion model: {message}"

    @pytest.mark.parametrize("edit", [
        lambda obj: obj["curves"][0]["knots_y_N"].__setitem__(1, math.nan),
        lambda obj: obj["curves"][1]["knots_x_mps"].__setitem__(0, math.inf),
        lambda obj: obj["levels"].__setitem__(1, math.nan),
        lambda obj: obj["levels"].__setitem__(1, math.inf),
        lambda obj: obj["levels"].reverse(),
        lambda obj: obj["curves"][-1].update(  # top level below the one beneath it
            knots_y_N=[0.5 * y for y in obj["curves"][-1]["knots_y_N"]])])
    def test_bad_values_rejected_as_schema_error(self, tmp_path, gt_models, edit):
        # model_from_dict raises the error that refuses the value; load_model
        # turns it into a SchemaError naming the file.
        obj = model_to_dict("braking", gt_models.braking)
        edit(obj)
        path = tmp_path / "braking.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}: malformed braking model: ")

    @pytest.mark.parametrize("zero", [True, False])
    @pytest.mark.parametrize("kind, curve, name", [
        ("friction", 0, "the curve"), ("braking", 0, "level 0"), ("braking", 3, "level 120")])
    def test_stored_tangents_must_be_the_limiters(self, gt_models, kind, curve, name, zero):
        # Loading derives every tangent from the knots. A stored copy, as
        # earlier versions wrote, is ignored: absent, one ulp off, a zero
        # stored as -0.0 (equal as a number) or inf, the model's bits are
        # those of the saved model.
        model = getattr(gt_models, kind)
        obj = model_to_dict(kind, model)
        stored = obj["curves"][curve]
        derived = list(limited_tangents(stored["knots_x_mps"], stored["knots_y_N"]))
        i = next(j for j, m in enumerate(derived) if (m == 0.0) == zero)
        for tangent in (None, derived[i], -0.0 if zero else math.nextafter(derived[i], math.inf),
                        math.inf):
            if tangent is not None:
                stored["tangents"] = derived[:i] + [tangent] + derived[i + 1:]
            assert model_bits(model_from_dict(obj)[1]) == model_bits(model), (name, tangent)

    def test_saved_file_holds_no_tangents(self, tmp_path, gt_models):
        path = tmp_path / "braking.json"
        save_model(path, "braking", gt_models.braking)
        curves = json.loads(path.read_text())["curves"]
        assert [sorted(c) for c in curves] == [["knots_x_mps", "knots_y_N"]] * len(curves)

    def test_friction_single_curve_enforced(self, gt_models):
        obj = model_to_dict("friction", gt_models.friction)
        obj["curves"] = obj["curves"] * 2
        with pytest.raises(SchemaError):
            model_from_dict(obj)


def test_anchor_set_lookup(tmp_path):
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps({
        "friction": [{"speed_mps": 0.1, "force_n": 300.0}],
        "propulsion": {"50": [{"speed_mps": 1.0, "force_n": 2000.0, "weight": 5.0},
                              {"speed_mps": 0.5, "force_n": 1500.0, "weight": 0.25}],
                       "0": []}}))
    anchors = load_anchor_file(path)
    # (speed_mps, force_n, weight) rows in file order, the weight 1 when absent
    assert list(anchors["friction"]) == [None]
    assert anchors["friction"][None].tolist() == [[0.1, 300.0, 1.0]]
    assert list(anchors["propulsion"]) == [50, 0]
    assert anchors["propulsion"][50].tolist() == [[1.0, 2000.0, 5.0], [0.5, 1500.0, 0.25]]
    assert anchors["propulsion"][0].shape == (0, 3)
    assert "braking" not in anchors
