import json
import warnings

import numpy as np
import pytest

from longforce.core import (KMH_PER_MPS, DriveLog, Gear, VehicleParams, Wheel, kmh_to_mps,
                            load_vehicle_params)
from longforce.dynamics import Trajectory
from longforce.estimation import AccelSeries
from longforce.errors import InvalidParameterError, SchemaError


def zoe_wheels():
    return tuple(Wheel(inertia_kgm2=0.86, radius_m=0.29) for _ in range(4))


def m_eq_formula(base, payload, wheels):
    """The equivalent mass written out: base plus payload, then J/R^2 per wheel in order."""
    m = base + payload
    for wheel in wheels:
        m += wheel.inertia_kgm2 / wheel.radius_m**2
    return m


class TestMasses:
    def test_total_mass_zoe(self):
        params = VehicleParams(1480.0, 200.0)
        assert params.weight_n == (1480.0 + 200.0) * 9.81

    def test_total_mass_zero_payload(self):
        assert VehicleParams(1480.0).weight_n == 1480.0 * 9.81

    def test_total_mass_addition(self):
        params = VehicleParams(1000.0, 250.0, gravity_mps2=2.0)
        assert params.weight_n == (1000.0 + 250.0) * 2.0 == 2500.0

    def test_equivalent_mass_zoe(self):
        params = VehicleParams(1480.0, 200.0, wheels=zoe_wheels())
        assert params.m_eq_kg == m_eq_formula(1480.0, 200.0, zoe_wheels())
        assert abs(params.m_eq_kg - 1720.0) <= 1.0

    def test_equivalent_mass_no_wheels(self):
        params = VehicleParams(1480.0, 200.0)
        assert params.m_eq_kg == 1680.0

    def test_equivalent_mass_zero_inertia(self):
        params = VehicleParams(1480.0, 200.0, wheels=(Wheel(0.0, 0.3),))
        assert params.m_eq_kg == 1680.0

    def test_equivalent_mass_zero_radius_rejected(self):
        with pytest.raises(InvalidParameterError):
            Wheel(0.86, 0.0)

    def test_equivalent_mass_at_least_total(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            params = VehicleParams(
                base_mass_kg=float(rng.uniform(500, 3000)),
                payload_mass_kg=float(rng.uniform(0, 500)),
                gravity_mps2=float(rng.uniform(1.0, 25.0)),
                wheels=tuple(Wheel(float(rng.uniform(0, 2)), float(rng.uniform(0.1, 0.5)))
                             for _ in range(rng.integers(0, 6))),
            )
            mass = params.base_mass_kg + params.payload_mass_kg
            assert params.weight_n == mass * params.gravity_mps2
            assert params.m_eq_kg == m_eq_formula(params.base_mass_kg,
                                                  params.payload_mass_kg, params.wheels)
            assert params.m_eq_kg >= mass

    def test_equivalent_mass_wheel_order_invariant(self):
        wheels = (Wheel(0.9, 0.3), Wheel(0.5, 0.25), Wheel(1.2, 0.35))
        a = VehicleParams(1000.0, wheels=wheels)
        b = VehicleParams(1000.0, wheels=wheels[::-1])
        assert a.m_eq_kg == b.m_eq_kg


class TestParamValidation:
    def test_negative_base_mass(self):
        with pytest.raises(InvalidParameterError):
            VehicleParams(-1.0)

    def test_negative_payload(self):
        with pytest.raises(InvalidParameterError):
            VehicleParams(1000.0, payload_mass_kg=-5.0)

    def test_zero_gravity(self):
        with pytest.raises(InvalidParameterError):
            VehicleParams(1000.0, gravity_mps2=0.0)

    def test_negative_wheel_inertia(self):
        with pytest.raises(InvalidParameterError):
            Wheel(-0.1, 0.3)


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        obj = {
            "base_mass_kg": 1480.0,
            "payload_mass_kg": 200.0,
            "gravity_mps2": 9.81,
            "wheels": [{"inertia_kgm2": 0.86, "radius_m": 0.29}] * 4,
        }
        path = tmp_path / "params.json"
        path.write_text(json.dumps(obj))
        params = load_vehicle_params(path)
        assert params.weight_n == (1480.0 + 200.0) * 9.81
        assert params.m_eq_kg == m_eq_formula(1480.0, 200.0, zoe_wheels())
        assert len(params.wheels) == 4

    @pytest.mark.parametrize("ranges", [
        {"throttle_range": [0, 186], "brake_range": [0, 255]},
        {"throttle_range": [10, 10], "brake_range": "x"},
    ], ids=["valid", "malformed"])
    def test_signal_range_keys_are_ignored(self, tmp_path, ranges):
        # Earlier versions read and checked these keys; a surface clamps a
        # command to its own levels, so files that still carry them load alike.
        obj = {"base_mass_kg": 1480.0, "payload_mass_kg": 200.0,
               "wheels": [{"inertia_kgm2": 0.86, "radius_m": 0.29}] * 4}
        without, with_ranges = tmp_path / "without.json", tmp_path / "with.json"
        without.write_text(json.dumps(obj))
        with_ranges.write_text(json.dumps({**obj, **ranges}))
        assert load_vehicle_params(with_ranges) == load_vehicle_params(without)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"payload_mass_kg": 10}))
        with pytest.raises(SchemaError):
            load_vehicle_params(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_vehicle_params(path)


class TestDriveLog:
    def make(self, t, speed):
        n = len(t)
        zeros = np.zeros(n, dtype=np.int64)
        return DriveLog(np.asarray(t, float), np.asarray(speed, float),
                        zeros, zeros, np.zeros(n))

    def test_non_monotone_time_rejected(self):
        with pytest.raises(SchemaError, match="row 2"):
            self.make([0.0, 0.01, 0.01], [1.0, 1.0, 1.0])

    def test_negative_speed_rejected(self):
        with pytest.raises(SchemaError):
            self.make([0.0, 0.01], [1.0, -0.1])

    @pytest.mark.parametrize("column", ["speed", "throttle", "brake"])
    def test_negative_value_rejected_naming_first_row(self, column):
        # A throttle of -5 used to be accepted, and would fit a level -5 curve;
        # a negative speed was reported at the row of the smallest speed.
        cols = {"speed": np.ones(4), "throttle": np.array([0, 50, 50, 50]),
                "brake": np.zeros(4, dtype=np.int64)}
        cols[column][1:3] = (-1, -5)
        with pytest.raises(SchemaError, match=f"^{column} must be >= 0; violated at row 1$"):
            DriveLog(np.array([0.0, 0.01, 0.02, 0.03]), cols["speed"], cols["throttle"],
                     cols["brake"], np.zeros(4))

    @pytest.mark.parametrize("column", ["t", "speed", "slope"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_row(self, column, value):
        cols = {"t": np.array([0.0, 0.01, 0.02]), "speed": np.ones(3), "slope": np.zeros(3)}
        cols[column][1] = value
        zeros = np.zeros(3, dtype=np.int64)
        with pytest.raises(SchemaError, match=f"column '{column}' is non-finite at row 1"):
            DriveLog(cols["t"], cols["speed"], zeros, zeros, cols["slope"])

    def test_segments_split_on_gaps(self):
        t = np.concatenate([np.arange(0, 1, 0.01), np.arange(2, 3, 0.01)])
        log = self.make(t, np.ones(len(t)))
        segs = log.segments()
        assert len(segs) == 2
        assert segs[0] == slice(0, 100)
        assert segs[1] == slice(100, 200)

    def test_time_stamps_near_float_limits(self):
        # Their difference overflows to inf, which must neither warn nor pass
        # for a non-increasing pair.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = self.make([-1e308, 1e308], [1.0, 1.0])
            assert log.segments() == [slice(0, 1), slice(1, 2)]
            with pytest.raises(SchemaError, match="row 1"):
                self.make([1e308, -1e308], [1.0, 1.0])

    def test_small_gap_not_split(self):
        t = np.array([0.0, 0.01, 0.4, 0.8])
        log = self.make(t, np.ones(4))
        assert log.segments() == [slice(0, 4)]

    def test_columns_read_only(self):
        log = self.make([0.0, 0.01], [1.0, 1.0])
        with pytest.raises(ValueError):
            log.speed[0] = 5.0

    def test_row_values(self):
        log = DriveLog(np.array([0.0]), np.array([10.0]), np.array([50]),
                       np.array([0]), np.array([0.01]), gear=Gear.DRIVE)
        row = (log.t[0], log.speed[0], log.throttle[0], log.brake[0], log.slope[0])
        assert row == (0.0, 10.0, 50, 0, 0.01)
        assert (log.throttle.dtype, log.brake.dtype) == (np.int64, np.int64)


    @pytest.mark.parametrize("column", ["throttle", "brake"])
    @pytest.mark.parametrize("value, shown", [
        (0.5, "0.5"), (39.7, "39.7"), (np.nan, "nan"), (1e30, "1e+30"),
        (2.0**63, "9.223372036854776e+18"),
    ], ids=["half", "39.7", "nan", "1e30", "2**63"])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_command_must_be_a_whole_int64(self, column, value, shown, as_list):
        # 0.5 read as 0 and 39.7 as 39; NaN and 1e30 were cast with a warning and
        # refused as negative, or, in a list, raised a bare ValueError or OverflowError.
        cols = {"throttle": np.zeros(3), "brake": np.zeros(3)}
        cols[column][1] = value
        cols[column] = cols[column].tolist() if as_list else cols[column]
        with pytest.raises(SchemaError) as err:
            DriveLog(np.array([0.0, 0.01, 0.02]), np.ones(3), cols["throttle"],
                     cols["brake"], np.zeros(3))
        assert str(err.value) == (f"column '{column}' must hold whole numbers within the "
                                  f"int64 range, got {shown} at row 1")

    def test_whole_floats_and_int64_extremes_are_kept(self):
        log = DriveLog(np.array([0.0, 0.01]), np.ones(2), np.array([3.0, 0.0]),
                       np.array([0, 2**63 - 1], dtype=np.uint64), np.zeros(2))
        assert log.throttle.tolist() == [3, 0] and log.brake.tolist() == [0, 2**63 - 1]


def record_columns(record) -> dict:
    """Writeable columns for ``record`` that it accepts, by field name."""
    n = 4
    if record is DriveLog:
        return {"t": np.arange(n) * 0.01, "speed": np.ones(n), "throttle": np.full(n, 20),
                "brake": np.zeros(n, dtype=np.int64), "slope": np.zeros(n)}
    if record is AccelSeries:
        return {"accel": np.linspace(-1.0, 1.0, n), "valid": np.ones(n, dtype=bool)}
    return {name: np.arange(n) * 0.5 for name in ("t", "speed", "accel", "f_p", "f_f", "f_b")}


RECORDS = pytest.mark.parametrize("record", [DriveLog, AccelSeries, Trajectory],
                                  ids=["DriveLog", "AccelSeries", "Trajectory"])


class TestRecordColumns:
    """The one column rule of DriveLog, AccelSeries and Trajectory."""

    @RECORDS
    def test_caller_arrays_are_copied_not_frozen(self, record):
        # DriveLog and AccelSeries used to keep the caller's array and make it
        # read-only in the caller's hands (``log.t is t``).
        cols = record_columns(record)
        before = {name: col.tobytes() for name, col in cols.items()}
        built = record(**cols)
        for name, col in cols.items():
            assert col.flags.writeable and col.tobytes() == before[name], name
            kept = getattr(built, name)
            assert kept is not col and not kept.flags.writeable, name
            col[...] = 7
            assert kept.tobytes() == before[name], name

    @RECORDS
    def test_list_columns_become_read_only_arrays(self, record):
        # A Trajectory built from lists used to keep the mutable lists.
        cols = record_columns(record)
        built = record(**{name: col.tolist() for name, col in cols.items()})
        for name, col in cols.items():
            kept = getattr(built, name)
            assert isinstance(kept, np.ndarray) and not kept.flags.writeable, name
            assert kept.dtype == record._COLUMNS[name] and np.array_equal(kept, col), name
        assert len(built) == 4

    @RECORDS
    @pytest.mark.parametrize("shape", [(2, 4), ()], ids=["2-D", "scalar"])
    def test_a_column_that_is_not_1d_is_refused_naming_it(self, record, shape):
        # DriveLog(1.0, ...) raised a bare TypeError, and a 2-D AccelSeries built.
        cols = record_columns(record)
        name = list(cols)[-1]
        cols[name] = np.zeros(shape, dtype=cols[name].dtype)
        error = SchemaError if record is DriveLog else InvalidParameterError
        with pytest.raises(error) as err:
            record(**cols)
        assert str(err.value) == (f"column '{name}' must be 1-D real numbers, got shape "
                                  f"{shape} of {cols[name].dtype}")

    @RECORDS
    @pytest.mark.parametrize("value", [["a"] * 4, [1 + 2j] * 4, [None] * 4],
                             ids=["str", "complex", "object"])
    def test_a_column_that_is_not_real_numbers_is_refused_naming_it(self, record, value):
        cols = record_columns(record)
        name = list(cols)[0]
        error = SchemaError if record is DriveLog else InvalidParameterError
        with pytest.raises(error, match=f"^column '{name}' must be 1-D real numbers, got shape "
                                        r"\(4,\) of (<U1|complex128|object)$"):
            record(**{**cols, name: value})

    @RECORDS
    def test_unequal_lengths_are_refused_naming_the_column(self, record):
        cols = record_columns(record)
        name = list(cols)[1]
        error = SchemaError if record is DriveLog else InvalidParameterError
        with pytest.raises(error) as err:
            record(**{**cols, name: cols[name][:3]})
        assert str(err.value) == f"column '{name}' has 3 rows, expected 4"


def test_unit_conversions():
    assert kmh_to_mps(36.0) == pytest.approx(10.0)
    assert kmh_to_mps(87.3) * KMH_PER_MPS == pytest.approx(87.3)


def test_public_names_import_and_the_dropped_ones_are_gone():
    import dataclasses

    import longforce
    from longforce import core
    from longforce.errors import SegmentSplitRequired

    namespace = {}
    exec("from longforce import *", namespace)
    assert set(longforce.__all__) <= set(namespace)
    for name in ("total_mass", "equivalent_mass", "mps_to_kmh"):
        assert not hasattr(longforce, name) and not hasattr(core, name), name
    assert [f.name for f in dataclasses.fields(longforce.AccelSeries)] == ["accel", "valid"]
    assert not hasattr(SegmentSplitRequired("a message"), "signal")
