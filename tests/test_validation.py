import numpy as np
import pytest

from longforce import validation
from longforce.core import DriveLog, Gear
from longforce.dynamics import direct_acceleration_many
from longforce.errors import EmptyReportError, InvalidParameterError
from longforce.estimation import AccelSeries
from longforce.validation import (MAX_HIST_BINS, _histogram, render_table, report_to_dict,
                                  validate)

from conftest import mixed_drive


def exact_series(traj, noise=None):
    accel = traj.accel if noise is None else traj.accel + noise
    return AccelSeries(accel, np.ones(len(traj), dtype=bool))


@pytest.fixture(scope="module")
def drive(gt_models):
    log, traj, _ = mixed_drive(gt_models, cycles=1)
    return log, traj


class TestValidate:
    def test_self_consistency_is_exact(self, gt_models, drive):
        log, traj = drive
        report = validate(gt_models, log, exact_series(traj))
        assert report.mean == 0.0
        assert report.std_dev == 0.0
        assert report.min == 0.0 and report.max == 0.0
        assert report.count == len(log)

    def test_injected_noise_statistics(self, gt_models, drive):
        log, traj = drive
        rng = np.random.default_rng(31)
        noise = rng.normal(0.0, 0.35, len(traj))
        report = validate(gt_models, log, exact_series(traj, noise))
        assert report.count >= 10_000
        assert -0.02 <= report.mean <= 0.02
        assert 0.33 <= report.std_dev <= 0.37

    def test_distance_constant_speed(self, gt_models):
        # 984 s at 10 m/s: 9840 m / 9.84 km
        n = 9841
        t = np.arange(n) * 0.1
        log = DriveLog(t, np.full(n, 10.0), np.zeros(n, dtype=np.int64),
                       np.zeros(n, dtype=np.int64), np.zeros(n), gear=Gear.DRIVE)
        accel = AccelSeries(np.zeros(n), np.ones(n, dtype=bool))
        report = validate(gt_models, log, accel)
        assert report.total_distance_m == pytest.approx(9840.0, abs=1e-6)

    def test_histogram_counts_sum_to_count(self, gt_models, drive):
        log, traj = drive
        rng = np.random.default_rng(32)
        report = validate(gt_models, log,
                          exact_series(traj, rng.normal(0, 0.35, len(traj))))
        assert sum(c for _, c in report.histogram) == report.count
        centers = [c for c, _ in report.histogram]
        widths = np.diff(centers)
        assert np.allclose(widths, report.hist_bin_width)
        assert any(abs(c) < 1e-12 for c in centers)  # centered on zero

    def test_bin_width_giving_too_many_bins_is_refused(self, gt_models):
        # The errors span 2 m/s^2: a width of 1e-6 asks for 2e6 bins, which
        # used to be allocated (a width of 1e-9 asked numpy for 15 GiB).
        n = 50
        t = np.arange(n) * 0.01
        log = DriveLog(t, np.full(n, 10.0), np.zeros(n, dtype=np.int64),
                       np.zeros(n, dtype=np.int64), np.zeros(n), gear=Gear.DRIVE)
        accel = AccelSeries(np.linspace(-1.0, 1.0, n), np.ones(n, dtype=bool))
        assert len(validate(gt_models, log, accel, hist_bin=1e-4).histogram) < MAX_HIST_BINS
        with pytest.raises(InvalidParameterError, match="histogram bin width 1e-06 gives"):
            validate(gt_models, log, accel, hist_bin=1e-6)
        # Equal errors span no bins at all, but at a width of 1e-300 their bin
        # index overflows the int64 cast (it used to give one bin at -0.0).
        same = AccelSeries(np.full(n, 0.05), np.ones(n, dtype=bool))
        with pytest.raises(InvalidParameterError, match="beyond the int64 bin indices"):
            validate(gt_models, log, same, hist_bin=1e-300)
        with pytest.raises(InvalidParameterError, match="beyond the int64 bin indices"):
            _histogram(np.array([0.05, 0.05]), 1e-300)

    def test_mean_shifts_with_offset_std_unchanged(self, gt_models, drive):
        log, traj = drive
        rng = np.random.default_rng(33)
        noise = rng.normal(0.0, 0.35, len(traj))
        base = validate(gt_models, log, exact_series(traj, noise))
        shifted = validate(gt_models, log, exact_series(traj, noise + 0.5))
        assert shifted.mean - base.mean == pytest.approx(0.5, abs=1e-12)
        assert shifted.std_dev == pytest.approx(base.std_dev, abs=1e-12)

    def test_segment_order_invariance(self, gt_models):
        # same samples presented in a different segment order give the same
        # statistics and histogram
        rng = np.random.default_rng(34)
        n = 400
        speed = rng.uniform(3.0, 20.0, n)
        throttle = rng.integers(0, 100, n)
        accel_meas = rng.normal(0.0, 0.5, n)

        def build(order):
            sp = speed[order]
            th = throttle[order]
            t = np.arange(n) * 0.01
            log = DriveLog(t, sp, th.astype(np.int64), np.zeros(n, dtype=np.int64),
                           np.zeros(n), gear=Gear.DRIVE)
            acc = AccelSeries(accel_meas[order], np.ones(n, dtype=bool))
            return log, acc

        first = np.arange(n)
        swapped = np.concatenate([np.arange(n // 2, n), np.arange(0, n // 2)])
        r1 = validate(gt_models, *build(first))
        r2 = validate(gt_models, *build(swapped))
        assert (r1.mean, r1.std_dev, r1.min, r1.max, r1.count) == \
               (r2.mean, r2.std_dev, r2.min, r2.max, r2.count)
        assert r1.histogram == r2.histogram

    def test_blocks_give_the_same_bits(self, gt_models, drive, monkeypatch):
        # Rows are independent, so passing them to the direct model in blocks
        # must not change a bit of any prediction or statistic. The repr of
        # a float spells its bits, -0.0 included.
        log, traj = drive
        rng = np.random.default_rng(35)
        accel = exact_series(traj, rng.normal(0.0, 0.35, len(traj)))
        # Samples left out of the comparison, as a caller clears them.
        accel = AccelSeries(accel.accel, accel.valid & (rng.random(len(log)) < 0.9))
        predicted = []

        def recorded(*args):
            model_a, forces = direct_acceleration_many(*args)
            predicted.append(model_a)
            return model_a, forces

        monkeypatch.setattr(validation, "direct_acceleration_many", recorded)
        runs = []
        for block in (len(log), 7):
            monkeypatch.setattr(validation, "_VALIDATE_BLOCK_ROWS", block)
            predicted.clear()
            report = validate(gt_models, log, accel)
            runs.append((len(predicted), repr(report), np.concatenate(predicted).tobytes()))
        (calls_whole, *whole), (calls_blocked, *blocked) = runs
        assert calls_whole == 1 and calls_blocked > 1
        assert blocked == whole

    def test_empty_comparison_raises(self, gt_models, drive):
        log, traj = drive
        accel = AccelSeries(np.full(len(log), np.nan), np.zeros(len(log), dtype=bool))
        with pytest.raises(EmptyReportError):
            validate(gt_models, log, accel)

    def test_misaligned_series_raises(self, gt_models, drive):
        log, traj = drive
        accel = AccelSeries(np.zeros(10), np.ones(10, dtype=bool))
        with pytest.raises(InvalidParameterError) as exc_info:
            validate(gt_models, log, accel)
        assert str(exc_info.value) == \
            f"acceleration series has 10 samples, the log {len(log)}"


class TestReportOutput:
    def test_dict_round_trip_fields(self, gt_models, drive):
        log, traj = drive
        report = validate(gt_models, log, exact_series(traj))
        obj = report_to_dict(report)
        assert obj["count"] == report.count
        assert obj["mean_mps2"] == report.mean
        assert len(obj["histogram"]) == len(report.histogram)

    def test_table_rows(self, gt_models, drive):
        log, traj = drive
        report = validate(gt_models, log, exact_series(traj))
        table = render_table(report)
        for label in ("Average", "Std. dev", "Min", "Max",
                      "Number of measurements", "Total distance"):
            assert label in table
