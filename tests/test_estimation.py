import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longforce.core import DriveLog
from longforce.errors import EmptySeriesError, InvalidParameterError
from longforce.estimation import (AccelSeries, bin_by_speed, estimate_acceleration,
                                  log_spaced_edges)


def speed_log(t, speed):
    n = len(t)
    zeros = np.zeros(n, dtype=np.int64)
    return DriveLog(np.asarray(t, float), np.asarray(speed, float), zeros, zeros,
                    np.zeros(n))


class TestAccelSeries:
    def test_unequal_lengths_refused(self):
        with pytest.raises(InvalidParameterError) as exc_info:
            AccelSeries(np.zeros(5), np.ones(4, dtype=bool))
        assert str(exc_info.value) == \
            "acceleration series has 5 estimates but 4 validity flags"

    def test_length_and_read_only_columns(self):
        series = estimate_acceleration(speed_log(np.arange(30) * 0.01, np.full(30, 5.0)), 5)
        assert len(series) == len(series.accel) == len(series.valid) == 30
        assert not series.accel.flags.writeable and not series.valid.flags.writeable
        assert not hasattr(series, "t")


class TestEstimateAcceleration:
    def test_constant_speed_gives_zero(self):
        t = np.arange(0, 5, 0.01)
        acc = estimate_acceleration(speed_log(t, np.full_like(t, 10.0)), 21, 5.0)
        assert np.all(np.abs(acc.accel[acc.valid]) < 1e-9)

    def test_linear_ramp_exact(self):
        t = np.arange(0, 20, 0.01)
        acc = estimate_acceleration(speed_log(t, 2.0 * t), 21, 5.0)
        assert np.all(np.abs(acc.accel[acc.valid] - 2.0) <= 1e-9)

    def test_quadratic_ramp_vs_analytic_derivative(self):
        # v = 0.5 t^2 -> a = t. Interior error is at numerical noise level;
        # the low-pass transient near segment ends stays under 0.05 m/s^2.
        t = np.arange(0, 20, 0.01)
        acc = estimate_acceleration(speed_log(t, 0.5 * t**2), 21, 5.0)
        err = np.abs(acc.accel - t)
        interior = acc.valid & (t >= 1.0) & (t <= t[-1] - 1.0)
        assert err[interior].max() <= 1e-9
        assert np.nanmax(err[acc.valid]) <= 0.05

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        t = np.arange(0, 10, 0.01)
        v = np.abs(10 + np.cumsum(rng.normal(0, 0.01, len(t))))
        a1 = estimate_acceleration(speed_log(t, v), 21, 5.0)
        a2 = estimate_acceleration(speed_log(t, v + 7.0), 21, 5.0)
        assert np.allclose(a1.accel[a1.valid], a2.accel[a2.valid], atol=1e-10)

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(6)
        t = np.arange(0, 10, 0.01)
        v = np.abs(10 + np.cumsum(rng.normal(0, 0.01, len(t))))
        fwd = estimate_acceleration(speed_log(t, v), 21, 5.0)
        rev = estimate_acceleration(speed_log(t[-1] - t[::-1], v[::-1]), 21, 5.0)
        assert np.allclose(rev.accel[::-1], -fwd.accel, atol=1e-9, equal_nan=True)
        assert np.array_equal(rev.valid[::-1], fwd.valid)

    def test_boundary_samples_invalid(self):
        t = np.arange(0, 2, 0.01)
        acc = estimate_acceleration(speed_log(t, 2.0 * t), 21, 5.0)
        assert not acc.valid[:10].any()
        assert not acc.valid[-10:].any()
        assert acc.valid[10:-10].all()
        assert np.isnan(acc.accel[0])

    def test_short_log_raises(self):
        t = np.arange(0, 0.1, 0.01)
        with pytest.raises(EmptySeriesError):
            estimate_acceleration(speed_log(t, np.ones_like(t)), 21, 5.0)

    def test_short_segment_marked_invalid(self):
        # 1 s segment, 0.05 s fragment after a 2 s gap: the fragment cannot
        # hold the window and contributes only invalid samples.
        t = np.concatenate([np.arange(0, 1, 0.01), np.arange(3, 3.05, 0.01)])
        log = speed_log(t, 2.0 * t)
        acc = estimate_acceleration(log, 21, 5.0)
        assert not acc.valid[100:].any()
        assert acc.valid[10:90].all()

    def test_gap_splits_estimation(self):
        # Different linear slopes per segment survive independently.
        t1 = np.arange(0, 2, 0.01)
        t2 = np.arange(5, 7, 0.01)
        t = np.concatenate([t1, t2])
        v = np.concatenate([1.0 * t1, 3.0 * (t2 - 5.0) + 10.0])
        acc = estimate_acceleration(speed_log(t, v), 21, 5.0)
        assert np.allclose(acc.accel[acc.valid][:150], 1.0, atol=1e-9)
        assert np.allclose(acc.accel[acc.valid][-150:], 3.0, atol=1e-9)

    def test_even_or_small_window_rejected(self):
        t = np.arange(0, 1, 0.01)
        log = speed_log(t, t)
        with pytest.raises(ValueError):
            estimate_acceleration(log, 20, 5.0)
        with pytest.raises(ValueError):
            estimate_acceleration(log, 1, 5.0)


class TestBinBySpeed:
    def test_median_arithmetic(self):
        binned = bin_by_speed([(1.0, 10.0), (1.2, 12.0), (5.0, 50.0)], [0.0, 2.0, 10.0])
        assert binned[:, 0].tolist() == [1.1, 5.0]
        assert binned[:, 1].tolist() == [11.0, 50.0]
        assert binned[:, 2].tolist() == [2, 1]

    def test_empty_input(self):
        binned = bin_by_speed([], [0.0, 1.0, 2.0])
        assert len(binned) == 0

    def test_empty_bins_omitted(self):
        binned = bin_by_speed([(0.5, 1.0), (3.5, 2.0)], [0.0, 1.0, 2.0, 3.0, 4.0])
        assert binned[:, 0].tolist() == [0.5, 3.5]
        assert binned[:, 2].tolist() == [1, 1]

    def test_noise_median_oracle(self):
        # 1000 points with value = speed^2 plus uniform +-1 noise: per-bin
        # medians land within 1 N of center^2.
        rng = np.random.default_rng(3)
        speeds = np.exp(rng.uniform(np.log(0.5), np.log(30.0), 1000))
        values = speeds**2 + rng.uniform(-1.0, 1.0, 1000)
        binned = bin_by_speed(np.column_stack([speeds, values]),
                              log_spaced_edges(0.5, 30.0, 30))
        assert np.all(binned[:, 2] >= 15)
        assert np.all(np.abs(binned[:, 1] - binned[:, 0]**2) <= 1.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(0, 10, 500), rng.normal(0, 1, 500)])
        edges = np.linspace(0, 10, 11)
        a = bin_by_speed(pts, edges)
        b = bin_by_speed(pts[rng.permutation(500)], edges)
        assert np.array_equal(a[:, 0], b[:, 0])
        assert np.array_equal(a[:, 1], b[:, 1])
        assert np.array_equal(a[:, 2], b[:, 2])

    def test_centers_strictly_increasing(self):
        rng = np.random.default_rng(9)
        pts = np.column_stack([rng.uniform(0.05, 39, 2000), rng.normal(0, 5, 2000)])
        binned = bin_by_speed(pts, log_spaced_edges())
        assert np.all(np.diff(binned[:, 0]) > 0)
        assert np.all(binned[:, 2] >= 1)

    def test_outside_points_dropped(self):
        binned = bin_by_speed([(0.5, 1.0), (5.0, 2.0), (11.0, 3.0)], [1.0, 10.0])
        assert binned[:, 2].tolist() == [1]

    def test_top_edge_inclusive(self):
        binned = bin_by_speed([(10.0, 7.0)], [0.0, 10.0])
        assert binned[:, 2].tolist() == [1]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            bin_by_speed([(1.0, 1.0)], [2.0, 1.0])
        with pytest.raises(ValueError):
            bin_by_speed([(1.0, 1.0)], [1.0])


def bin_by_speed_loop(points, edges):
    """``bin_by_speed`` as it was, scanning the points once per bin."""
    edges = np.asarray(edges, dtype=float)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    speeds, values = pts[:, 0], pts[:, 1]
    idx = np.digitize(speeds, edges)
    idx[speeds == edges[-1]] = len(edges) - 1
    rows = []
    for b in range(1, len(edges)):
        members = idx == b
        if not members.any():
            continue
        rows.append((float(np.median(speeds[members])), float(np.median(values[members])),
                     int(members.sum())))
    return np.array(rows, dtype=float).reshape(-1, 3)


@st.composite
def binning_inputs(draw):
    """Edges and points: some points on an edge, on the top edge or outside the span,
    bins with one member, and empty input."""
    edges = sorted(set(draw(st.lists(st.floats(0.0, 50.0), min_size=2, max_size=12))))
    if len(edges) < 2:
        edges.append(edges[0] + 1.0)
    speeds = st.one_of(st.floats(edges[0], edges[-1]), st.sampled_from(edges),
                       st.just(edges[-1]), st.floats(edges[0] - 5.0, edges[-1] + 5.0))
    pairs = draw(st.lists(st.tuples(speeds, st.floats(-1e4, 1e4)), max_size=60))
    return np.array(pairs, dtype=float).reshape(-1, 2), edges


@settings(max_examples=300, deadline=None)
@given(binning_inputs())
def test_bin_by_speed_equals_its_loop_oracle(case):
    points, edges = case
    got = bin_by_speed(points, edges)
    assert got.shape[1] == 3 and got.dtype == np.float64
    assert got.tobytes() == bin_by_speed_loop(points, edges).tobytes()
