"""Every public callable that takes arrays, fed arrays it may not expect.

Each example draws the array arguments of calls, each either a good value or
one mangled copy of it: a list, a 2-D stack, a scalar, one row short,
another real dtype, a NaN, or an empty array. Each call must return or raise
a :class:`~longforce.errors.LongforceError`, and must leave every input as it
was: an array's bytes and ``writeable`` flag, a list's items. The records
built must hold read-only copies, so that later writes to the caller's
arrays do not reach them.

Magnitudes stay within +-1e6: finite values near the float limits still
overflow late in the estimator and the fits (ROADMAP item 2), which the
loader fuzz tests and those items cover.
"""

import copy
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from longforce import (AccelSeries, DriveLog, Gear, Trajectory, bin_by_speed,  # noqa: E402
                       direct_acceleration_many, estimate_acceleration, extract_braking,
                       extract_friction, extract_propulsion, fit_curve, validate)
from longforce.errors import LongforceError  # noqa: E402
from longforce.reference import reference_model_set  # noqa: E402

GATE = settings(max_examples=300, deadline=None)
MODELS = reference_model_set()
MANGLINGS = ("list", "2-D", "scalar", "short", "dtype", "nan", "empty")
OTHER_DTYPES = (np.float32, np.int64, np.int8, np.uint8, np.bool_)


def check_call(fn, *args):
    """``fn(*args)``, or None where it raises a LongforceError; any other
    exception fails the test, as does a change to an array or list argument."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    before = [(a.tobytes(), a.flags.writeable) for a in arrays]
    lists = [(a, copy.deepcopy(a)) for a in args if isinstance(a, list)]
    try:
        result = fn(*args)
    except LongforceError:
        result = None
    assert [(a.tobytes(), a.flags.writeable) for a in arrays] == before
    assert all(a == saved for a, saved in lists)
    return result


@st.composite
def maybe_mangled(draw, good: np.ndarray):
    """``good`` (three times in four), or one mangled copy of it."""
    kind = draw(st.sampled_from(("good",) * 3 * len(MANGLINGS) + MANGLINGS))
    if kind == "good":
        return good
    if kind == "list":
        return good.tolist()
    if kind == "2-D":
        return np.stack([good, good], axis=draw(st.integers(0, 1)))
    if kind == "scalar":
        return good.ravel()[0] if good.size else 0.0
    if kind == "short":
        return good[:-1].copy()
    if kind == "dtype":
        with np.errstate(invalid="ignore", over="ignore"):
            return good.astype(draw(st.sampled_from(OTHER_DTYPES)))
    if kind == "nan":
        nan = good.astype(float)
        if nan.size:
            nan.flat[draw(st.integers(0, nan.size - 1))] = math.nan
        return nan
    return np.empty((0,) + good.shape[1:], dtype=good.dtype)


def floats(draw, n: int, lo: float, hi: float, shape=None) -> np.ndarray:
    values = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))
    return np.array(values, dtype=float).reshape(shape or (n,))


def log_columns(draw, n: int) -> list[np.ndarray]:
    """Good columns of an n-sample drive log: t, speed, throttle, brake, slope."""
    t = np.cumsum(floats(draw, n, 0.005, 0.02))
    commands = [np.full(n, draw(st.integers(0, 200)), dtype=np.int64) for _ in range(2)]
    return [t, floats(draw, n, 0.0, 40.0), *commands, floats(draw, n, -0.1, 0.1)]


def assert_read_only_copies(record, args) -> None:
    for name, arg in zip(record._COLUMNS, args):
        col = getattr(record, name)
        assert isinstance(col, np.ndarray) and not col.flags.writeable, name
        if isinstance(arg, np.ndarray):
            assert not np.shares_memory(col, arg), name


@GATE
@given(st.data(), st.integers(0, 12), st.sampled_from((DriveLog, AccelSeries, Trajectory)))
def test_records_hold_read_only_copies(data, n, record):
    if record is DriveLog:
        good = log_columns(data.draw, n)
    elif record is AccelSeries:
        good = [floats(data.draw, n, -5.0, 5.0),
                np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)]
    else:
        good = [np.arange(n) * 0.01, *(floats(data.draw, n, -1e6, 1e6) for _ in range(5))]
    args = [data.draw(maybe_mangled(col)) for col in good]
    built = check_call(record, *args)
    if built is not None:
        assert_read_only_copies(built, args)
        copies = [getattr(built, name).copy() for name in built._COLUMNS]
        for arg in args:
            if isinstance(arg, np.ndarray) and arg.size:
                arg[...] = 1  # the caller writes after building
        assert all(np.array_equal(getattr(built, name), old, equal_nan=True)
                   for name, old in zip(built._COLUMNS, copies))


@GATE
@given(st.data(), st.integers(0, 12))
def test_binning_and_fitting(data, n):
    points = floats(data.draw, 2 * n, 0.0, 40.0, (n, 2))
    edges = np.array([0.05, 1.0, 10.0, 40.0])
    check_call(bin_by_speed, data.draw(maybe_mangled(points)), data.draw(maybe_mangled(edges)))
    rows = np.column_stack([points, np.ones(n)])
    knots = np.array([0.0, 10.0, 20.0, 40.0])
    check_call(fit_curve, data.draw(maybe_mangled(rows)), data.draw(maybe_mangled(knots)))


@GATE
@given(st.data(), st.integers(0, 12))
def test_evaluations(data, n):
    v, signal = floats(data.draw, n, 0.0, 40.0), floats(data.draw, n, 0.0, 200.0)
    brake, slope = floats(data.draw, n, 0.0, 200.0), floats(data.draw, n, -0.1, 0.1)
    mangle = data.draw
    check_call(MODELS.friction.eval_many, mangle(maybe_mangled(v)))
    check_call(MODELS.propulsion.eval_many, mangle(maybe_mangled(v)),
               mangle(maybe_mangled(signal)))
    check_call(lambda *cols: direct_acceleration_many(MODELS, *cols),
               *(mangle(maybe_mangled(col)) for col in (v, signal, brake, slope)))


@GATE
@given(st.data(), st.integers(0, 12), st.sampled_from(Gear))
def test_estimation_extraction_and_validation(data, n, gear):
    good = log_columns(data.draw, n)
    log_args = [data.draw(maybe_mangled(col)) for col in good]
    log = check_call(lambda *cols: DriveLog(*cols, gear=gear), *log_args)
    accel_args = [data.draw(maybe_mangled(floats(data.draw, n, -5.0, 5.0))),
                  data.draw(maybe_mangled(np.ones(n, dtype=bool)))]
    accel = check_call(AccelSeries, *accel_args)
    if log is None:
        return
    check_call(estimate_acceleration, log, 3, 5.0)
    if accel is None:
        return
    friction, p0 = MODELS.friction, MODELS.propulsion.curves[0]
    params = MODELS.params
    check_call(extract_friction, log, accel, params)
    check_call(extract_propulsion, log, accel, friction, params)
    check_call(extract_braking, log, accel, friction, p0, params)
    check_call(validate, MODELS, log, accel)


@pytest.mark.parametrize("call, error", [
    (lambda: MODELS.propulsion.eval_many([1.0, 2.0], [0.0, 1.0, 2.0]),
     "arrays of [2, 3] rows do not broadcast"),
    (lambda: direct_acceleration_many(MODELS, [1.0, 2.0], 0.0, 0.0, [0.0] * 3),
     "arrays of [2, 1, 1, 3] rows do not broadcast"),
    (lambda: bin_by_speed([(1.0, 2.0)], 1.0),
     "edges must be strictly increasing with >= 2 entries"),
    (lambda: fit_curve(np.ones(4), [0.0, 1.0]),
     "points must be (speed, value, weight) rows, got shape (4,)"),
    (lambda: fit_curve(np.float64(1.0), [0.0, 1.0]),
     "points must be (speed, value, weight) rows, got shape ()"),
    (lambda: fit_curve(np.ones((2, 3)), np.ones((2, 2))),
     "knot positions must be 1-D, got shape (2, 2)"),
], ids=["surface-broadcast", "direct-broadcast", "scalar-edges", "flat-rows", "scalar-rows",
        "2-D-knots"])
def test_shapes_the_property_found_are_refused(call, error):
    # Each raised a bare ValueError, TypeError or IndexError.
    with pytest.raises(LongforceError) as err:
        call()
    assert str(err.value) == error


def test_validate_refuses_a_nan_measurement_on_a_valid_sample():
    # It used to end in numpy's "invalid value encountered in cast" warning.
    t = np.arange(8) * 0.01
    zeros = np.zeros(8, dtype=np.int64)
    log = DriveLog(t, np.full(8, 10.0), zeros, zeros, np.zeros(8))
    accel = np.zeros(8)
    accel[5] = math.nan
    with pytest.raises(LongforceError, match="^measured acceleration is NaN at row 5$"):
        validate(MODELS, log, AccelSeries(accel, np.ones(8, dtype=bool)))
