import math

import numpy as np
import pytest

from longforce import dynamics
from longforce.dynamics import (MAX_SIMULATE_STEPS, ActuationCommand, ModelSet,
                                direct_acceleration, inverse_actuation, load_schedule_csv,
                                simulate, step_hold_schedule)
from longforce.errors import InvalidParameterError, SchemaError
from longforce.reference import neutral_model_set
from longforce.spline import ForceSurface, Spline1D


def flat_curve(value, lo=0.0, hi=40.0):
    return Spline1D.interpolate([lo, hi], [value, value])


def flat_surface(levels_values, lo=0.0, hi=40.0):
    levels = tuple(sorted(levels_values))
    curves = tuple(flat_curve(levels_values[lv], lo, hi) for lv in levels)
    return ForceSurface(levels, curves)


@pytest.fixture()
def toy_models(flat_params):
    # friction 400 N, propulsion 0/6300 N, braking regen 500 N / disc 3000 N
    return ModelSet(
        friction=flat_curve(400.0),
        propulsion=flat_surface({0: 0.0, 186: 6300.0}),
        braking=flat_surface({0: 500.0, 160: 3000.0}),
        params=flat_params,
    )


class TestDirectAcceleration:
    def test_balanced_at_zero(self, flat_params):
        models = ModelSet(flat_curve(0.0), flat_surface({0: 0.0}),
                          flat_surface({0: 0.0}), flat_params)
        a, forces = direct_acceleration(models, 0.0, 0, 0, 0.0)
        assert a == 0.0
        assert forces == (0.0, 0.0, 0.0)

    def test_full_throttle_arithmetic(self, toy_models):
        # (6300 - 400) / 1720 = 3.43 m/s^2
        a, (f_p, _, f_b) = direct_acceleration(toy_models, 5.0, 186, 0, 0.0)
        assert f_p == 6300.0 and f_b == 0.0
        assert a == pytest.approx(3.43, abs=0.005)

    def test_regen_active_only_at_zero_throttle(self, toy_models):
        _, (_, _, f_b0) = direct_acceleration(toy_models, 10.0, 0, 0, 0.0)
        assert f_b0 == 500.0  # regen
        _, (_, _, f_b1) = direct_acceleration(toy_models, 10.0, 50, 0, 0.0)
        assert f_b1 == 0.0  # throttle deactivates regen
        assert toy_models.braking.eval(10.0, 0) > 0.0

    def test_disc_brake_applies_with_throttle(self, toy_models):
        # mixed commands never come from the inverse model, but logs may
        # contain them: an explicit brake acts regardless of throttle
        _, (_, _, f_b) = direct_acceleration(toy_models, 10.0, 50, 160, 0.0)
        assert f_b == 3000.0

    def test_slope_term(self, toy_models):
        a_flat, _ = direct_acceleration(toy_models, 10.0, 186, 0, 0.0)
        a_up, _ = direct_acceleration(toy_models, 10.0, 186, 0, 0.05)
        m_eq = toy_models.params.m_eq_kg
        expected_drop = 1720.0 * 9.81 * math.sin(0.05) / m_eq
        assert a_flat - a_up == pytest.approx(expected_drop, rel=1e-12)


class TestActuationCommand:
    def test_mutual_exclusion(self):
        with pytest.raises(ValueError):
            ActuationCommand(throttle=10.0, brake=5.0)

    def test_flags(self):
        cmd = ActuationCommand(throttle=10.0, brake=0.0, saturated=True)
        assert (cmd.saturated, cmd.underflow) == (True, False)
        cmd = ActuationCommand(0.0, 0.0)
        assert (cmd.saturated, cmd.underflow) == (False, False)


class TestSimulate:
    def test_rest_stays_at_rest(self, flat_params):
        models = ModelSet(flat_curve(100.0), flat_surface({0: 0.0}),
                          flat_surface({0: 0.0}), flat_params)
        traj = simulate(models, lambda t: (0, 0, 0.0), 0.0, 0.01, 2.0)
        assert np.all(traj.speed == 0.0)
        assert np.all(traj.accel == 0.0)

    def test_coast_down_matches_closed_form(self, flat_params):
        # friction c0 + c v^2 as an exact quadratic spline (explicit
        # tangents), coast from 125 km/h:
        #   v(t) = sqrt(c0/c) * tan(atan(v0/sqrt(c0/c)) - sqrt(c0 c)/m_eq t)
        c0, c = 200.0, 0.4
        knots = np.linspace(-2.0, 40.0, 43)
        friction = Spline1D(tuple(knots), tuple(c0 + c * knots**2),
                            tuple(2.0 * c * knots))
        zero = flat_surface({0: 0.0})
        models = ModelSet(friction, zero, zero, flat_params)
        v0 = 125.0 / 3.6
        traj = simulate(models, lambda t: (0, 0, 0.0), v0, 0.01, 60.0)
        m_eq = flat_params.m_eq_kg
        vc = math.sqrt(c0 / c)
        analytic = vc * np.tan(np.arctan(v0 / vc) - math.sqrt(c0 * c) / m_eq * traj.t)
        assert np.max(np.abs(traj.speed - analytic)) <= 0.01

    def test_coast_down_matches_fine_reference(self, gt_models):
        models = neutral_model_set(gt_models)
        v0 = 125.0 / 3.6
        coarse = simulate(models, lambda t: (0, 0, 0.0), v0, 0.01, 30.0)
        fine = simulate(models, lambda t: (0, 0, 0.0), v0, 0.0001, 30.0)
        assert np.max(np.abs(coarse.speed - fine.speed[::100])) <= 0.01

    def test_rk4_fourth_order_convergence(self, flat_params):
        # Single-segment curves keep the right-hand side smooth, so halving
        # dt must shrink the error ~16x.
        friction = Spline1D.interpolate([0.0, 40.0], [100.0, 500.0])
        propulsion = ForceSurface(
            (0, 100), (Spline1D.interpolate([0.0, 40.0], [0.0, 0.0]),
                       Spline1D.interpolate([0.0, 40.0], [3000.0, 2000.0])))
        braking = flat_surface({0: 0.0})
        models = ModelSet(friction, propulsion, braking, flat_params)

        def schedule(t):
            return (50.0 + 30.0 * math.sin(0.5 * t), 0.0, 0.02 * math.sin(0.3 * t))

        ref = simulate(models, schedule, 10.0, 0.1 / 128.0, 20.0)

        def final_error(dt):
            traj = simulate(models, schedule, 10.0, dt, 20.0)
            return abs(traj.speed[-1] - ref.speed[-1])

        ratio = final_error(0.1) / final_error(0.05)
        assert 12.0 <= ratio <= 20.0

    def test_kinetic_energy_non_increasing_when_coasting(self, gt_models):
        models = neutral_model_set(gt_models)
        traj = simulate(models, lambda t: (0, 0, 0.0), 20.0, 0.01, 120.0)
        assert np.all(np.diff(traj.speed) <= 1e-12)

    def test_full_throttle_reaches_equilibrium(self, gt_models):
        # Steady state must match the root of F_p(v, 186) = F_f(v) found by
        # an independent bisection.
        lo, hi = 5.0, 36.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gt_models.propulsion.eval(mid, 186) > gt_models.friction.eval(mid):
                lo = mid
            else:
                hi = mid
        v_star = 0.5 * (lo + hi)
        traj = simulate(gt_models, lambda t: (186, 0, 0.0), 0.0, 0.01, 180.0)
        assert abs(traj.speed[-1] - v_star) <= 0.05

    def test_speed_clamped_at_zero_under_hard_braking(self, gt_models):
        traj = simulate(gt_models, lambda t: (0, 160, 0.0), 5.0, 0.01, 10.0)
        assert traj.speed.min() == 0.0
        assert traj.speed[-1] == 0.0

    def test_dt_validation(self, toy_models):
        with pytest.raises(ValueError):
            simulate(toy_models, lambda t: (0, 0, 0.0), 0.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            simulate(toy_models, lambda t: (0, 0, 0.0), -1.0, 0.01, 1.0)

    @pytest.mark.parametrize("duration, dt", [(1e12, 0.01), (1.0, 1e-300),
                                              (1.5e-3 * MAX_SIMULATE_STEPS, 1e-3)])
    def test_step_count_past_the_bound_refused(self, toy_models, duration, dt):
        # 1e12 s used to end in MemoryError ("Unable to allocate 728. TiB").
        def schedule(t):
            raise AssertionError("refused before the first step")

        with pytest.raises(InvalidParameterError, match=f"^duration / dt must be <= "
                                                        f"{MAX_SIMULATE_STEPS} steps, got "):
            simulate(toy_models, schedule, 0.0, dt, duration)

    def test_forces_recorded(self, toy_models):
        traj = simulate(toy_models, lambda t: (186, 0, 0.0), 10.0, 0.01, 1.0)
        assert np.all(traj.f_p == 6300.0)
        assert np.all(traj.f_f == 400.0)
        assert np.all(traj.f_b == 0.0)

    @pytest.mark.parametrize("throttle, v0, calls", [(186, 10.0, 4 * 100 + 1), (0, 0.0, 101)],
                             ids=["moving", "at-rest"])
    def test_one_direct_acceleration_call_per_stage(self, toy_models, monkeypatch, throttle,
                                                    v0, calls):
        # A moving step evaluates the public direct model at its four RK4
        # stages; a step at rest, and the last row, only at the first.
        seen = []

        def counting(*args):
            seen.append(args)
            return direct_acceleration(*args)

        monkeypatch.setattr(dynamics, "direct_acceleration", counting)
        traj = simulate(toy_models, lambda t: (throttle, 0, 0.0), v0, 0.01, 1.0)
        assert len(seen) == calls
        assert (traj.speed[-1] > v0) == (throttle > 0)


class TestInverseActuation:
    def test_branch_boundary_coasts(self, gt_models):
        # a desired acceleration that needs exactly the creep force returns
        # the (near-)zero command: the branch boundary lands on coast up to
        # the inversion tolerance in the last float digit
        v = 1.0
        m_eq = gt_models.params.m_eq_kg
        f_p0 = gt_models.propulsion.eval(v, 0)
        a_des = (f_p0 - gt_models.friction.eval(v)) / m_eq
        cmd = inverse_actuation(gt_models, v, 0.0, a_des)
        assert cmd.throttle <= 1e-3 and cmd.brake <= 1e-3
        assert not cmd.saturated and not cmd.underflow
        a, _ = direct_acceleration(gt_models, v, cmd.throttle, cmd.brake, 0.0)
        assert abs(a - a_des) <= 1e-3

    def test_hold_speed_needs_small_throttle(self, gt_models):
        # steady cruise above the creep range: friction must be balanced by
        # a genuine positive throttle and the loop closes on the request
        cmd = inverse_actuation(gt_models, 15.0, 0.0, 0.0)
        assert cmd.throttle > 0.0 and cmd.brake == 0.0
        a, _ = direct_acceleration(gt_models, 15.0, cmd.throttle, cmd.brake, 0.0)
        assert abs(a - 0.0) <= 0.01

    def test_saturates_on_excessive_braking(self, gt_models):
        cmd = inverse_actuation(gt_models, 20.0, 0.0, -8.0)
        assert cmd.brake == 160.0 and cmd.throttle == 0.0
        assert cmd.saturated

    def test_saturates_on_excessive_acceleration(self, gt_models):
        cmd = inverse_actuation(gt_models, 30.0, 0.0, 5.0)
        assert cmd.throttle == 186.0 and cmd.saturated

    def test_weak_deceleration_underflows_to_coast(self, gt_models):
        # at 20 m/s regen alone brakes harder than -0.3 m/s^2; the request
        # cannot be met without throttle, so the command coasts and flags it
        v = 20.0
        m_eq = gt_models.params.m_eq_kg
        f_p0 = gt_models.propulsion.eval(v, 0)
        f_b0 = gt_models.braking.eval(v, 0)
        a_coast = (f_p0 - gt_models.friction.eval(v) - f_b0) / m_eq
        a_des = a_coast + 0.25 * abs(a_coast)  # inside the regen gap
        cmd = inverse_actuation(gt_models, v, 0.0, a_des)
        assert cmd.throttle == 0.0 and cmd.brake == 0.0
        assert cmd.underflow

    def test_creep_fought_with_brakes_at_low_speed(self, gt_models):
        # holding a crawl below the creep equilibrium requires braking
        cmd = inverse_actuation(gt_models, 0.5, 0.0, 0.0)
        assert cmd.throttle == 0.0
        assert cmd.brake > 0.0

    def test_inverse_direct_identity(self, gt_models):
        rng = np.random.default_rng(21)
        checked = 0
        attempts = 0
        while checked < 1000:
            attempts += 1
            assert attempts < 20000
            v = float(rng.uniform(0.2, 34.0))
            slope = float(rng.uniform(-0.05, 0.05))
            a_des = float(rng.uniform(-3.0, 3.0))
            cmd = inverse_actuation(gt_models, v, slope, a_des)
            if cmd.saturated or cmd.underflow:
                continue
            a_got, _ = direct_acceleration(gt_models, v, cmd.throttle, cmd.brake, slope)
            assert abs(a_got - a_des) <= 1e-3
            checked += 1

    def test_exactly_one_pedal_nonzero(self, gt_models):
        rng = np.random.default_rng(22)
        for _ in range(300):
            cmd = inverse_actuation(gt_models, float(rng.uniform(0.2, 34.0)),
                                    float(rng.uniform(-0.05, 0.05)),
                                    float(rng.uniform(-4.0, 4.0)))
            assert cmd.throttle == 0.0 or cmd.brake == 0.0


class TestSchedules:
    def test_step_hold(self):
        schedule = step_hold_schedule([(0.0, 0.0, 0.0, 0.0), (5.0, 100.0, 0.0, 0.01)])
        assert schedule(0.0) == (0.0, 0.0, 0.0)
        assert schedule(4.999) == (0.0, 0.0, 0.0)
        assert schedule(5.0) == (100.0, 0.0, 0.01)
        assert schedule(100.0) == (100.0, 0.0, 0.01)

    def test_before_first_row_holds_first(self):
        schedule = step_hold_schedule([(1.0, 50.0, 0.0, 0.0)])
        assert schedule(0.0) == (50.0, 0.0, 0.0)

    def test_csv_loading(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("t_s,throttle,brake,slope_rad\n0,0,0,0\n2,150,0,0.01\n")
        schedule = load_schedule_csv(path)
        assert schedule(1.0) == (0.0, 0.0, 0.0)
        assert schedule(3.0) == (150.0, 0.0, 0.01)

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "schedule.csv"
        path.write_text("t_s,throttle,brake\n0,0,0\n")
        with pytest.raises(SchemaError, match="slope_rad"):
            load_schedule_csv(path)

    def test_empty_schedule_rejected(self):
        with pytest.raises(SchemaError):
            step_hold_schedule([])
