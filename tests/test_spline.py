import json
import math

import numpy as np
import pytest

from longforce.errors import FitError, InversionError, SchemaError
from longforce.estimation import BinnedPoints
from longforce.reference import load_anchor_file
from longforce.spline import (Anchor, ForceSurface, Spline1D,
                              check_signal_monotone, fit_curve, limited_tangents,
                              load_model, model_from_dict, model_to_dict,
                              prune_unsupported_knots, save_model,
                              unsupported_knots)


def model_bits(model):
    """Knots, tangents and clamp of every curve of ``model``, as raw float bits."""
    curves = model.curves if isinstance(model, ForceSurface) else (model,)
    return [np.array([*c.knots_x, *c.knots_y, *c.tangents, c.lower_clamp]).tobytes()
            for c in curves]


def binned(centers, values, counts=None):
    centers = np.asarray(centers, dtype=float)
    values = np.asarray(values, dtype=float)
    if counts is None:
        counts = np.ones(len(centers), dtype=np.int64)
    return BinnedPoints(centers, values, np.asarray(counts, dtype=np.int64))


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
        s = Spline1D((0.0, 1.0), (10.0, 0.0), (-40.0, 0.0), lower_clamp=0.0)
        values = [s.eval(float(x)) for x in np.linspace(0.0, 1.0, 200)]
        assert min(values) == 0.0

    def test_knots_below_clamp_rejected(self):
        with pytest.raises(FitError):
            Spline1D((0.0, 1.0), (-5.0, 1.0), (0.0, 0.0), lower_clamp=0.0)

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
        with pytest.raises(FitError, match="lower clamp is non-finite"):
            Spline1D((0.0, 1.0), (5.0, 6.0), (0.0, 0.0), lower_clamp=value)

    def test_negative_lower_clamp_rejected(self):
        # Forces are never negative; a surface of such curves used to jump
        # from its clamp at the first level to 0 N between levels.
        with pytest.raises(FitError, match="lower clamp must be >= 0, got -50.0"):
            Spline1D((0.0, 1.0), (5.0, 6.0), (0.0, 0.0), lower_clamp=-50.0)
        with pytest.raises(FitError, match="lower clamp must be >= 0, got -50.0"):
            Spline1D.interpolate([0.0, 10.0], [-40.0, -30.0], lower_clamp=-50.0)

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

    def test_steep_tangents_scaled_into_monotone_region(self):
        xs = [0.0, 1.0, 1.001, 2.0]
        ys = [0.0, 100.0, 100.1, 200.0]
        m = limited_tangents(xs, ys)
        for i in range(len(xs) - 1):
            delta = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
            a, b = m[i] / delta, m[i + 1] / delta
            assert a * a + b * b <= 9.0 + 1e-12


class TestFitCurve:
    def test_linear_data_reproduced_exactly(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        ys = [100.0 + 10.0 * x for x in xs]
        curve = fit_curve(binned(xs, ys), [], xs)
        for x, y in zip(xs, ys):
            assert abs(curve.eval(x) - y) <= 1e-9

    def test_anchor_plus_plateau(self):
        # A standstill anchor above a data plateau: both are honored and the
        # curve never dips negative in between.
        bins = binned(np.linspace(1.0, 8.0, 15), np.full(15, 200.0), np.full(15, 50))
        curve = fit_curve(bins, [Anchor(0.0, 500.0, weight=100.0)],
                          [0.0, 1.0, 2.0, 4.0, 8.0])
        assert abs(curve.eval(0.0) - 500.0) <= 5.0
        assert abs(curve.eval(4.0) - 200.0) <= 5.0
        sweep = [curve.eval(float(x)) for x in np.linspace(0.0, 8.0, 1000)]
        assert min(sweep) >= 0.0

    def test_full_throttle_plateau_from_anchors(self):
        # 6300 N plateau between 5 and 30 km/h.
        anchors = [Anchor(0.28, 7000.0), Anchor(5.0 / 3.6, 6300.0), Anchor(3.0, 6300.0),
                   Anchor(6.0, 6300.0), Anchor(30.0 / 3.6, 6300.0), Anchor(12.0, 4750.0)]
        knots = [a.speed_mps for a in anchors]
        curve = fit_curve(binned([], []), anchors, knots)
        for v in np.linspace(5.0 / 3.6, 30.0 / 3.6, 200):
            assert abs(curve.eval(float(v)) - 6300.0) <= 63.0

    def test_counts_weight_the_fit(self):
        # One heavy bin pulls the curve much closer than a light one.
        knots = [0.0, 1.0, 2.0]
        heavy = fit_curve(binned([0.0, 1.0, 2.0], [0.0, 100.0, 0.0], [1, 1000, 1]),
                          [Anchor(1.0, 0.0, weight=1.0)], knots)
        light = fit_curve(binned([0.0, 1.0, 2.0], [0.0, 100.0, 0.0], [1, 1, 1]),
                          [Anchor(1.0, 0.0, weight=1000.0)], knots)
        assert heavy.eval(1.0) > 90.0
        assert light.eval(1.0) < 10.0

    def test_negative_values_clamped(self):
        bins = binned([0.5, 1.0, 1.5], [-50.0, -80.0, -60.0], [10, 10, 10])
        curve = fit_curve(bins, [], [0.5, 1.0, 1.5])
        assert curve.knots_y == (0.0, 0.0, 0.0)

    def test_fewer_points_than_knots(self):
        with pytest.raises(FitError, match="underdetermined"):
            fit_curve(binned([1.0, 2.0], [1.0, 2.0]), [], [0.5, 1.0, 2.0, 3.0])

    def test_unsupported_knot_rejected(self):
        bins = binned([0.1, 0.2, 5.5, 5.6, 5.8, 6.0], np.full(6, 100.0))
        with pytest.raises(FitError, match="underdetermined"):
            fit_curve(bins, [], [0.1, 0.3, 2.0, 5.0, 6.0])

    def test_span_must_cover_data(self):
        with pytest.raises(FitError, match="span"):
            fit_curve(binned([0.5, 1.0, 3.0], [1.0, 1.0, 1.0]), [], [1.0, 2.0, 3.0])

    def test_nothing_to_fit(self):
        with pytest.raises(FitError):
            fit_curve(binned([], []), [], [0.0, 1.0])

    def test_anchor_weight_positive(self):
        with pytest.raises(FitError):
            Anchor(1.0, 1.0, weight=0.0)


class TestKnotSupport:
    def test_unsupported_flags(self):
        flags = unsupported_knots([0.0, 1.0, 2.0, 3.0], [0.5, 3.5])
        assert flags == [False, False, True, False]

    def test_prune_drops_gap_knots(self):
        kept = prune_unsupported_knots([0.0, 1.0, 2.0, 3.0, 4.0], [0.5, 3.5])
        assert kept == (0.0, 1.0, 3.0, 4.0)

    def test_prune_trims_span(self):
        kept = prune_unsupported_knots([0.0, 1.0, 2.0, 4.0, 8.0], [1.2, 1.8])
        assert kept == (1.0, 2.0)

    def test_prune_keeps_supported(self):
        knots = (0.0, 1.0, 2.0)
        assert prune_unsupported_knots(knots, [0.5, 1.5]) == knots


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
            inv = surface.invert(v, f)
            assert not inv.saturated and not inv.underflow
            assert abs(inv.signal - x) <= 1e-3

    def test_plateau_inversion_returns_smallest_signal(self):
        flat = Spline1D.interpolate([0.0, 10.0], [500.0, 500.0])
        rising = Spline1D.interpolate([0.0, 10.0], [500.0, 500.0])
        top = Spline1D.interpolate([0.0, 10.0], [900.0, 900.0])
        surface = ForceSurface((0, 50, 100), (flat, rising, top))
        # at the plateau value the smallest matching signal is the floor
        inv = surface.invert(5.0, 500.0)
        assert inv.signal == 0.0
        assert surface.eval(5.0, inv.signal) >= 500.0
        # above the plateau the inverse is unique again
        inv = surface.invert(5.0, 600.0)
        assert 50.0 < inv.signal <= 100.0
        assert surface.eval(5.0, inv.signal) >= 600.0
        assert surface.eval(5.0, inv.signal - 2e-3) < 600.0

    def test_saturation_flag(self):
        surface = two_level_surface()
        inv = surface.invert(5.0, 2000.0)
        assert inv.saturated and inv.signal == 100.0

    def test_underflow_flag(self):
        lo = Spline1D.interpolate([0.0, 40.0], [300.0, 300.0])
        hi = Spline1D.interpolate([0.0, 40.0], [1000.0, 1000.0])
        surface = ForceSurface((0, 100), (lo, hi))
        inv = surface.invert(5.0, 100.0)
        assert inv.underflow and inv.signal == 0.0

    def test_zero_force_at_zero_floor_no_flag(self):
        surface = two_level_surface()
        inv = surface.invert(5.0, 0.0)
        assert inv.signal == 0.0
        assert not inv.underflow and not inv.saturated

    def test_non_monotone_cross_section_raises(self):
        lo = Spline1D.interpolate([0.0, 40.0], [800.0, 800.0])
        hi = Spline1D.interpolate([0.0, 40.0], [200.0, 200.0])
        surface = ForceSurface((0, 100), (lo, hi))
        with pytest.raises(InversionError):
            surface.invert(5.0, 500.0)

    def test_check_signal_monotone_names_level(self):
        lo = Spline1D.interpolate([0.0, 40.0], [0.0, 900.0])
        mid = Spline1D.interpolate([0.0, 40.0], [500.0, 500.0])
        hi = Spline1D.interpolate([0.0, 40.0], [1000.0, 1000.0])
        surface = ForceSurface((0, 40, 80), (lo, mid, hi))
        with pytest.raises(FitError, match="level 40"):
            check_signal_monotone(surface)

    def test_levels_strictly_increasing(self):
        zero = Spline1D.interpolate([0.0, 1.0], [0.0, 0.0])
        with pytest.raises(FitError):
            ForceSurface((10, 10), (zero, zero))

    def test_curve_at_unknown_level(self):
        surface = two_level_surface()
        with pytest.raises(KeyError):
            surface.curve_at(7)


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

    def test_mismatched_levels_rejected(self, gt_models):
        obj = model_to_dict("propulsion", gt_models.propulsion)
        obj["levels"] = obj["levels"][:-1]
        with pytest.raises(SchemaError):
            model_from_dict(obj)

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

    def test_mixed_clamp_surface_refused_at_save(self, tmp_path):
        # model_to_dict used to write curve 0's clamp for every level, so
        # this file saved and then failed to load.
        surface = ForceSurface((0, 10), (
            Spline1D.interpolate([0, 10], [100, 200], lower_clamp=50),
            Spline1D.interpolate([0, 10], [0, 400])))
        path = tmp_path / "propulsion.json"
        with pytest.raises(SchemaError, match="level 0 has 50.0 and level 10 has 0.0"):
            save_model(path, "propulsion", surface)
        assert not path.exists()

    def test_friction_single_curve_enforced(self, gt_models):
        obj = model_to_dict("friction", gt_models.friction)
        obj["curves"] = obj["curves"] * 2
        with pytest.raises(SchemaError):
            model_from_dict(obj)


def test_anchor_set_lookup(tmp_path):
    path = tmp_path / "anchors.json"
    path.write_text(json.dumps({
        "friction": [{"speed_mps": 0.1, "force_n": 300.0}],
        "propulsion": {"50": [{"speed_mps": 1.0, "force_n": 2000.0, "weight": 5.0}]}}))
    anchors = load_anchor_file(path)
    assert anchors["friction"] == {None: (Anchor(0.1, 300.0),)}
    assert anchors["propulsion"] == {50: (Anchor(1.0, 2000.0, 5.0),)}
    assert "braking" not in anchors
