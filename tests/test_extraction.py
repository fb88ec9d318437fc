import math

import numpy as np
import pytest

from longforce.core import DriveLog, Gear, VehicleParams
from longforce.errors import (InvalidParameterError, ProtocolViolationError,
                             SegmentSplitRequired)
from longforce.estimation import AccelSeries, estimate_acceleration
from longforce.extraction import (MIN_EXTRACTION_SPEED, extract_braking,
                                  extract_friction, extract_propulsion,
                                  split_constant_signal)
from longforce.spline import Spline1D

from conftest import protocol_log


def make_log(speeds, throttle=0, brake=0, slope=0.0, gear=Gear.NEUTRAL):
    n = len(speeds)
    t = np.arange(n) * 0.01
    return DriveLog(t, np.asarray(speeds, float),
                    np.full(n, throttle, dtype=np.int64),
                    np.full(n, brake, dtype=np.int64),
                    np.full(n, slope, float), gear=gear)


def series_for(log, accel_value):
    n = len(log)
    return AccelSeries(np.full(n, accel_value, float), np.ones(n, dtype=bool))


def flat_curve(value, lo=0.0, hi=40.0):
    return Spline1D.interpolate([lo, hi], [value, value])


def extract_in_gear(protocol, params):
    """The gear ``protocol``'s extractor requires, and the extractor with its curves bound."""
    return {
        "friction": (Gear.NEUTRAL, lambda log, accel: extract_friction(log, accel, params)),
        "propulsion": (Gear.DRIVE, lambda log, accel: extract_propulsion(
            log, accel, flat_curve(200.0), params)),
        "braking": (Gear.DRIVE, lambda log, accel: extract_braking(
            log, accel, flat_curve(300.0), flat_curve(300.0), params)),
    }[protocol]


@pytest.mark.parametrize("protocol", ["friction", "propulsion", "braking"])
class TestObservationRows:
    def test_rows_of_speed_and_force(self, flat_params, protocol):
        gear, extract = extract_in_gear(protocol, flat_params)
        log = make_log([0.01, 5.0, 10.0], gear=gear)
        obs = extract(log, series_for(log, 0.0))
        assert isinstance(obs, np.ndarray)
        assert obs.shape == (2, 2) and obs.dtype == np.float64
        assert obs[:, 0].tolist() == [5.0, 10.0]

    def test_empty_log_gives_no_rows(self, flat_params, protocol):
        # Propulsion and braking used to end in a bare IndexError from the
        # constant-signal check, which read the first sample.
        gear, extract = extract_in_gear(protocol, flat_params)
        log = make_log([], gear=gear)
        obs = extract(log, series_for(log, 0.0))
        assert isinstance(obs, np.ndarray)
        assert obs.shape == (0, 2) and obs.dtype == np.float64


class TestExtractFriction:
    def test_static_balance_is_zero(self, flat_params):
        log = make_log([10.0] * 5)
        obs = extract_friction(log, series_for(log, 0.0), flat_params)
        assert np.allclose(obs[:, 1], 0.0)

    def test_deceleration_arithmetic(self, flat_params):
        # m_eq = 1720 kg, a = -0.1 on flat road: F_f = 172 N
        log = make_log([10.0] * 5)
        obs = extract_friction(log, series_for(log, -0.1), flat_params)
        assert np.allclose(obs[:, 1], 172.0)

    def test_downhill_arithmetic(self):
        params = VehicleParams(1680.0)
        log = make_log([10.0] * 5, slope=-0.01)
        obs = extract_friction(log, series_for(log, 0.0), params)
        assert np.allclose(obs[:, 1], 1680.0 * 9.81 * math.sin(0.01), atol=1e-9)
        assert obs[0, 1] == pytest.approx(164.8, abs=0.05)

    def test_wrong_gear(self, flat_params):
        log = make_log([10.0] * 5, gear=Gear.DRIVE)
        with pytest.raises(ProtocolViolationError, match="neutral"):
            extract_friction(log, series_for(log, 0.0), flat_params)

    def test_nonzero_throttle_lists_indices(self, flat_params):
        n = 10
        throttle = np.zeros(n, dtype=np.int64)
        throttle[[3, 7]] = 5
        log = DriveLog(np.arange(n) * 0.01, np.full(n, 10.0), throttle,
                       np.zeros(n, dtype=np.int64), np.zeros(n), gear=Gear.NEUTRAL)
        with pytest.raises(ProtocolViolationError) as exc_info:
            extract_friction(log, series_for(log, 0.0), flat_params)
        assert exc_info.value.indices == [3, 7]

    def test_nonzero_brake_rejected(self, flat_params):
        log = make_log([10.0] * 5, brake=3)
        with pytest.raises(ProtocolViolationError):
            extract_friction(log, series_for(log, 0.0), flat_params)

    def test_low_speed_samples_excluded(self, flat_params):
        log = make_log([0.01, 0.04, 0.05, 1.0, 2.0])
        obs = extract_friction(log, series_for(log, 0.0), flat_params)
        assert len(obs) == 3
        assert obs[:, 0].min() >= MIN_EXTRACTION_SPEED

    def test_invalid_accel_samples_excluded(self, flat_params):
        log = make_log([10.0] * 6)
        accel = AccelSeries(np.full(6, -0.1), np.array([False, True, True, True, True, False]))
        obs = extract_friction(log, accel, flat_params)
        assert len(obs) == 4

    def test_linear_in_accel_and_slope(self, flat_params):
        log0 = make_log([10.0] * 3)
        base = extract_friction(log0, series_for(log0, 0.0), flat_params)[0, 1]
        f_a = extract_friction(log0, series_for(log0, -1.0), flat_params)[0, 1]
        f_2a = extract_friction(log0, series_for(log0, -2.0), flat_params)[0, 1]
        assert f_2a - base == pytest.approx(2.0 * (f_a - base), rel=1e-12)
        log_s = make_log([10.0] * 3, slope=-0.02)
        log_2s = make_log([10.0] * 3, slope=-0.04)
        f_s = extract_friction(log_s, series_for(log_s, 0.0), flat_params)[0, 1]
        f_2s = extract_friction(log_2s, series_for(log_2s, 0.0), flat_params)[0, 1]
        ratio = math.sin(0.04) / math.sin(0.02)
        assert f_2s - base == pytest.approx(ratio * (f_s - base), rel=1e-12)

    def test_uphill_decreases_friction_estimate(self, flat_params):
        flat = make_log([10.0] * 3, slope=0.0)
        up = make_log([10.0] * 3, slope=+0.02)
        f_flat = extract_friction(flat, series_for(flat, -0.2), flat_params)[0, 1]
        f_up = extract_friction(up, series_for(up, -0.2), flat_params)[0, 1]
        assert f_up < f_flat


class TestExtractPropulsion:
    def test_steady_state_balances_friction(self, flat_params):
        log = make_log([10.0] * 5, throttle=40, gear=Gear.DRIVE)
        obs = extract_propulsion(log, series_for(log, 0.0), flat_curve(200.0), flat_params)
        assert np.allclose(obs[:, 1], 200.0)

    def test_acceleration_arithmetic(self, flat_params):
        # F_f = 250 N, a = 3 m/s^2, m_eq = 1720: F_p = 5410 N
        log = make_log([10.0] * 5, throttle=100, gear=Gear.DRIVE)
        obs = extract_propulsion(log, series_for(log, 3.0), flat_curve(250.0), flat_params)
        assert np.allclose(obs[:, 1], 5410.0)

    def test_wrong_gear(self, flat_params):
        log = make_log([10.0] * 5, throttle=40, gear=Gear.NEUTRAL)
        with pytest.raises(ProtocolViolationError):
            extract_propulsion(log, series_for(log, 0.0), flat_curve(200.0), flat_params)

    def test_nonzero_brake_rejected(self, flat_params):
        log = make_log([10.0] * 5, throttle=40, brake=2, gear=Gear.DRIVE)
        with pytest.raises(ProtocolViolationError):
            extract_propulsion(log, series_for(log, 0.0), flat_curve(200.0), flat_params)

    def test_varying_throttle_requests_split(self, flat_params):
        n = 10
        throttle = np.full(n, 40, dtype=np.int64)
        throttle[5:] = 60
        log = DriveLog(np.arange(n) * 0.01, np.full(n, 10.0), throttle,
                       np.zeros(n, dtype=np.int64), np.zeros(n), gear=Gear.DRIVE)
        with pytest.raises(SegmentSplitRequired) as exc_info:
            extract_propulsion(log, series_for(log, 0.0), flat_curve(200.0), flat_params)
        assert str(exc_info.value) == ("propulsion extraction requires a constant throttle; "
                                       "split the log into constant-throttle segments first")

    def test_simulate_then_extract_recovers_surface(self, gt_models):
        # Noiseless constant-throttle run: recovered forces match the
        # generating surface within the smoother's bias. The bias lives
        # where the force curve bends fast at low speed; above 2.5 m/s it
        # is below a few newtons (bounds frozen from the analytic-ramp
        # oracle plus measured curvature bias).
        log = protocol_log(gt_models, 100, 0, 0.0, 60.0, Gear.DRIVE)
        accel = estimate_acceleration(log, 21, 5.0)
        obs = extract_propulsion(log, accel, gt_models.friction, gt_models.params)
        want = np.array([gt_models.propulsion.eval(v, 100) for v in obs[:, 0]])
        err = np.abs(obs[:, 1] - want)
        assert err[obs[:, 0] >= 2.5].max() <= 25.0
        assert err.max() <= 120.0

    def test_round_trip_identity(self, gt_models):
        # Plugging the extracted force back into the balance returns the
        # measured acceleration exactly, for all three extractors.
        params = gt_models.params
        m = params.base_mass_kg + params.payload_mass_kg
        m_eq = m
        for wheel in params.wheels:
            m_eq += wheel.inertia_kgm2 / wheel.radius_m**2
        assert params.m_eq_kg == m_eq and params.weight_n == m * params.gravity_mps2
        g = params.gravity_mps2
        rng = np.random.default_rng(41)
        for _ in range(50):
            v = float(rng.uniform(0.1, 34.0))
            slope = float(rng.uniform(-0.05, 0.05))
            a = float(rng.uniform(-3.0, 3.0))
            grade = m * g * math.sin(slope)
            f_f = gt_models.friction.eval(v)
            f_p0 = gt_models.propulsion.curves[0].eval(v)

            coast = make_log([v] * 3, slope=slope, gear=Gear.NEUTRAL)
            f = extract_friction(coast, series_for(coast, a), gt_models.params)[0, 1]
            assert (-grade - f - 0.0 + 0.0) / m_eq == pytest.approx(a, abs=1e-12)

            run = make_log([v] * 3, throttle=80, slope=slope, gear=Gear.DRIVE)
            f = extract_propulsion(run, series_for(run, a), gt_models.friction,
                                   gt_models.params)[0, 1]
            assert (f - grade - f_f - 0.0) / m_eq == pytest.approx(a, abs=1e-12)

            stop = make_log([v] * 3, brake=60, slope=slope, gear=Gear.DRIVE)
            f = extract_braking(stop, series_for(stop, a), gt_models.friction,
                                gt_models.propulsion.curves[0],
                                gt_models.params)[0, 1]
            assert (f_p0 - grade - f_f - f) / m_eq == pytest.approx(a, abs=1e-12)


class TestExtractBraking:
    def test_coasting_equilibrium(self, flat_params):
        log = make_log([10.0] * 5, brake=20, gear=Gear.DRIVE)
        obs = extract_braking(log, series_for(log, 0.0), flat_curve(300.0),
                              flat_curve(300.0), flat_params)
        assert np.allclose(obs[:, 1], 0.0)

    def test_deceleration_arithmetic(self, flat_params):
        # F_p0 = 0, F_f = 400, a = -2: F_b = 3040 N at m_eq = 1720
        log = make_log([10.0] * 5, brake=120, gear=Gear.DRIVE)
        obs = extract_braking(log, series_for(log, -2.0), flat_curve(400.0),
                              flat_curve(0.0), flat_params)
        assert np.allclose(obs[:, 1], 3040.0)

    def test_nonzero_throttle_rejected(self, flat_params):
        log = make_log([10.0] * 5, throttle=5, brake=20, gear=Gear.DRIVE)
        with pytest.raises(ProtocolViolationError):
            extract_braking(log, series_for(log, 0.0), flat_curve(300.0),
                            flat_curve(0.0), flat_params)

    def test_varying_brake_requests_split(self, flat_params):
        n = 10
        brake = np.full(n, 40, dtype=np.int64)
        brake[5:] = 80
        log = DriveLog(np.arange(n) * 0.01, np.full(n, 10.0),
                       np.zeros(n, dtype=np.int64), brake, np.zeros(n), gear=Gear.DRIVE)
        with pytest.raises(SegmentSplitRequired) as exc_info:
            extract_braking(log, series_for(log, 0.0), flat_curve(300.0),
                            flat_curve(0.0), flat_params)
        assert str(exc_info.value) == ("braking extraction requires a constant brake; "
                                       "split the log into constant-brake segments first")

    def test_simulate_then_extract_recovers_surface(self, gt_models):
        log = protocol_log(gt_models, 0, 120, 125.0 / 3.6, 30.0, Gear.DRIVE,
                           cut_below=0.02)
        accel = estimate_acceleration(log, 21, 5.0)
        obs = extract_braking(log, accel, gt_models.friction,
                              gt_models.propulsion.curves[0], gt_models.params)
        want = np.array([gt_models.braking.eval(v, 120) for v in obs[:, 0]])
        err = np.abs(obs[:, 1] - want)
        assert err[obs[:, 0] >= 2.5].max() <= 25.0
        assert err.max() <= 250.0


@pytest.mark.parametrize("gear, extract", [
    (Gear.NEUTRAL, extract_friction),
    (Gear.DRIVE, lambda log, accel, params: extract_propulsion(log, accel, flat_curve(200.0),
                                                               params)),
    (Gear.DRIVE, lambda log, accel, params: extract_braking(log, accel, flat_curve(300.0),
                                                            flat_curve(0.0), params))],
    ids=["friction", "propulsion", "braking"])
def test_misaligned_series_raises(flat_params, gear, extract):
    # An InvalidParameterError, so that the CLI reports it with exit 2.
    log = make_log([10.0] * 6, gear=gear)
    with pytest.raises(InvalidParameterError) as exc_info:
        extract(log, series_for(make_log([10.0] * 5), 0.0), flat_params)
    assert str(exc_info.value) == "acceleration series has 5 samples, the log 6"


class TestSplitConstantSignal:
    def test_splits_on_changes(self):
        n = 9
        throttle = np.array([0, 0, 0, 50, 50, 50, 0, 0, 0], dtype=np.int64)
        log = DriveLog(np.arange(n) * 0.01, np.full(n, 5.0), throttle,
                       np.zeros(n, dtype=np.int64), np.zeros(n), gear=Gear.DRIVE)
        parts = split_constant_signal(log, "throttle")
        assert [len(p) for p in parts] == [3, 3, 3]
        assert [int(p.throttle[0]) for p in parts] == [0, 50, 0]

    def test_constant_log_single_part(self):
        log = make_log([5.0] * 4, throttle=10, gear=Gear.DRIVE)
        assert len(split_constant_signal(log, "throttle")) == 1

    def test_unknown_signal(self):
        log = make_log([5.0] * 4)
        with pytest.raises(ValueError):
            split_constant_signal(log, "slope")
