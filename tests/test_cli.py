import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from longforce.cli import main
from longforce.core import DriveLog, Gear, ingest_csv, load_drive_log, save_drive_log
from longforce.dynamics import MAX_SIMULATE_STEPS
from longforce.errors import SchemaError
from longforce.estimation import MAX_BIN_COUNT, bin_by_speed
from longforce.pipeline import (MAX_EXPORT_POINTS, load_model_set, load_pipeline_config,
                                run_export, run_fit_brake, run_fit_friction, run_fit_propulsion,
                                run_reference, run_simulate, run_validate)
from longforce.reference import data_path, load_anchor_file
from longforce.spline import fit_curve, limited_tangents, load_model

from conftest import coast_down_log, mixed_drive, protocol_log


@pytest.fixture()
def config_path(tmp_path):
    obj = json.loads(data_path("pipeline_zoe.json").read_text())
    obj["params"] = str(data_path("zoe_params.json"))
    obj["anchors"] = str(data_path("anchors_zoe.json"))
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(obj))
    return path


def write_csv(path, rows, header="t,speed,throttle,brake,slope"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


class TestIngest:
    def test_kmh_conversion(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,36,0,0,0", "0.01,36,0,0,0", "0.02,36,0,0,0"])
        log, report = ingest_csv(path, "speed_kmh")
        assert report["rows"] == 3 and report["rejected"] == 0
        assert np.allclose(log.speed, 10.0)

    def test_mps_passthrough(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0,0", "0.01,10,0,0,0"])
        log, _ = ingest_csv(path, "speed_mps")
        assert np.allclose(log.speed, 10.0)

    def test_duplicate_timestamp_is_error(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0,0", "0.01,10,0,0,0", "0.01,10,0,0,0"])
        with pytest.raises(SchemaError, match="row 3"):
            ingest_csv(path, "speed_mps")

    def test_time_order_error_names_the_csv_row(self, tmp_path):
        # Used to number the row among the kept rows ("data row 4") while
        # rejected rows are numbered among all CSV data rows.
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0,0", "abc,10,0,0,0", "0.01,10,0,0,0",
                         "0.03,10,0,0,0", "0.025,10,0,0,0"])
        with pytest.raises(SchemaError, match=r"at data row 5 \(t=0\.025 after t=0\.03\)"):
            ingest_csv(path, "speed_mps")

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0"], header="t,speed,throttle,brake")
        with pytest.raises(SchemaError, match="slope"):
            ingest_csv(path, "speed_mps")

    def test_rejected_rows_counted(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0,0", "0.01,nan,0,0,0", "0.02,-3,0,0,0",
                         "0.03,10,0.5,0,0", "0.04,10,0,0,0"])
        log, report = ingest_csv(path, "speed_mps")
        assert report["rows"] == 2
        assert report["rejected"] == 3
        reasons = [reason for _, reason in report["rejected_rows"]]
        assert "non-finite value" in reasons
        assert "negative speed" in reasons
        assert "non-integer command signal" in reasons

    def test_negative_command_rejected(self, tmp_path, capsys):
        # Such rows used to ingest with "0 rejected".
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0,0", "0.01,10,-5,0,0", "0.02,10,0,-1,0", "0.03,10,0,0,0"])
        assert main(["ingest", str(path), "--units", "speed_mps",
                     "--out", str(tmp_path / "log.json")]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  rejected row 2: negative command signal",
            "  rejected row 3: negative command signal"]
        assert load_drive_log(tmp_path / "log.json").t.tolist() == [0.0, 0.03]

    def test_unknown_units(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0,1,0,0,0"])
        with pytest.raises(SchemaError):
            ingest_csv(path, "speed_mph")

    def test_segment_report(self, tmp_path):
        path = tmp_path / "log.csv"
        write_csv(path, ["0.00,10,0,0,0", "0.01,10,0,0,0", "2.00,10,0,0,0"])
        _, report = ingest_csv(path, "speed_mps")
        assert report["segments"] == 2

    def test_byte_stable_output(self, tmp_path):
        csv_path = tmp_path / "log.csv"
        write_csv(csv_path, ["0.00,36.7,10,0,0.001", "0.01,36.8,10,0,0.001",
                             "0.02,36.9,10,0,0.001"])
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            log, _ = ingest_csv(csv_path, "speed_kmh", Gear.DRIVE, "demo")
            save_drive_log(out, log, {"source_csv": str(csv_path)})
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("last_row", [[], ["abc,0,0,0,0"]], ids=["loadtxt", "block-path"])
    def test_memory_per_row_is_bounded(self, tmp_path, last_row):
        # Ingest and save used to hold every CSV row as Python strings and
        # the whole document as text: 526 B per row at their peak on this CSV
        # (CPython 3.11). Block by block they need 84 B. Rows beyond 20 000
        # may add at most 240 B each to the peak, also when an unparseable
        # last row aborts the loadtxt pass and the block path reads the file.
        def peak(n):
            csv_path = tmp_path / f"{n}.csv"
            write_csv(csv_path, [f"{0.01 * k:.2f},{28.8343 + k % 977 / 100:.4f},{k % 187},"
                                 f"{k % 256},{k % 1000 * 1e-6:.6f}" for k in range(n)]
                      + last_row)
            tracemalloc.start()
            try:
                log, _ = ingest_csv(csv_path, "speed_kmh")
                save_drive_log(tmp_path / f"{n}.json", log, {"source_csv": str(csv_path)})
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert (peak(80_000) - peak(20_000)) / 60_000 <= 240

    def test_drive_log_round_trip(self, tmp_path):
        n = 50
        log = DriveLog(np.arange(n) * 0.01, np.linspace(0, 5, n),
                       np.full(n, 30, dtype=np.int64), np.zeros(n, dtype=np.int64),
                       np.full(n, 0.01), gear=Gear.NEUTRAL, description="x")
        path = tmp_path / "log.json"
        save_drive_log(path, log)
        loaded = load_drive_log(path)
        assert np.array_equal(loaded.t, log.t)
        assert np.array_equal(loaded.speed, log.speed)
        assert np.array_equal(loaded.throttle, log.throttle)
        assert loaded.gear is Gear.NEUTRAL
        assert loaded.description == "x"

    def test_load_rejects_other_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}")
        with pytest.raises(SchemaError):
            load_drive_log(path)


class TestPipelineConfig:
    def test_per_kind_knots(self, config_path):
        config = load_pipeline_config(config_path)
        assert config.knots_mps["friction"][0] == 0.1
        assert len(config.knots_mps["propulsion"]) >= len(config.knots_mps["braking"])
        assert config.window == 21 and config.cutoff_hz == 5.0

    def test_shared_knot_list(self, tmp_path):
        obj = {
            "params": str(data_path("zoe_params.json")),
            "anchors": str(data_path("anchors_zoe.json")),
            "knots_mps": [0.1, 1.0, 10.0, 36.0],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        config = load_pipeline_config(path)
        assert config.knots_mps["friction"] == (0.1, 1.0, 10.0, 36.0)
        assert config.knots_mps["braking"] == (0.1, 1.0, 10.0, 36.0)

    def test_omitted_knots_fall_back_to_default_layout(self, tmp_path):
        from longforce.spline import DEFAULT_KNOTS_MPS
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": str(data_path("zoe_params.json")),
                                    "anchors": str(data_path("anchors_zoe.json"))}))
        config = load_pipeline_config(path)
        assert config.knots_mps["friction"] == DEFAULT_KNOTS_MPS
        assert config.knots_mps["propulsion"] == DEFAULT_KNOTS_MPS

    def test_missing_params_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"anchors": str(data_path("anchors_zoe.json"))}))
        with pytest.raises(SchemaError):
            load_pipeline_config(path)

    def test_anchor_list_rejected(self, tmp_path):
        # A list used to parse as "no anchors at all".
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps([{"speed_mps": 1.0, "force_n": 100.0}]))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": str(data_path("zoe_params.json")),
                                    "anchors": str(anchors)}))
        with pytest.raises(SchemaError, match="anchors.json: expected a JSON object, got list"):
            load_pipeline_config(path)


class TestFitPipeline:
    def test_friction_fit_within_two_percent(self, gt_models, config_path, tmp_path):
        # noiseless coast-down: the fitted curve tracks the generator within
        # 2% at every bin center backed by at least 20 samples. A light
        # window suffices without noise and keeps the smoothing bias far
        # below the 2% band in the curved low-speed zone.
        coast = coast_down_log(gt_models)
        log_path = tmp_path / "coast.json"
        save_drive_log(log_path, coast)
        obj = json.loads(config_path.read_text())
        obj["estimator"] = {"window": 11, "cutoff_hz": 10.0}
        light_cfg = tmp_path / "light.json"
        light_cfg.write_text(json.dumps(obj))
        config = load_pipeline_config(light_cfg)
        out = tmp_path / "friction.json"
        curve = run_fit_friction([str(log_path)], config, out)
        kind, loaded, provenance = load_model(out)
        assert kind == "friction"
        assert provenance["source_logs"] == [str(log_path)]
        binned = bin_by_speed(
            np.column_stack([coast.speed, np.zeros(len(coast))]), config.bin_edges)
        for center, _, count in binned:
            if count < 20 or not 0.1 <= center <= 36.0:
                continue
            want = gt_models.friction.eval(float(center))
            assert abs(curve.eval(float(center)) - want) <= 0.02 * abs(want)

    def test_friction_without_logs_is_fitted_from_the_anchors(self, config_path, tmp_path,
                                                               capsys):
        # No log leaves no (speed, force) rows, and no level to look the rows up by.
        config = load_pipeline_config(config_path)
        out = tmp_path / "friction.json"
        curve = run_fit_friction([], config, out)
        rows = config.anchors["friction"][None]
        no_bins = np.empty((0, 3))
        want = fit_curve(np.vstack([no_bins, rows]), config.knots_mps["friction"])
        _, loaded, _ = load_model(out)
        for got in (curve, loaded):
            assert (np.array([got.knots_x, got.knots_y, got.tangents]).tobytes()
                    == np.array([want.knots_x, want.knots_y, want.tangents]).tobytes())
        assert "friction: 0 points in 0 bins" in capsys.readouterr().out

    def test_sparse_anchors_prune_the_knots_they_cannot_support(self, gt_models, config_path,
                                                                tmp_path, capsys):
        # No anchor lies between 12 and 20 m/s or between 25 and 36 m/s, so the
        # friction knots at 16, 30 and 34.72 m/s are dropped before the fit.
        speeds = [0.1, 0.2, 0.5, 0.8, 2.0, 2.5, 5.0, 10.0, 11.0, 22.0, 23.0, 36.0]
        anchors = tmp_path / "anchors.json"
        anchors.write_text(json.dumps({"friction": [
            {"speed_mps": v, "force_n": gt_models.friction.eval(v), "weight": 30.0}
            for v in speeds]}))
        obj = json.loads(config_path.read_text())
        obj["anchors"] = str(anchors)
        config_path.write_text(json.dumps(obj))
        out = tmp_path / "friction.json"
        curve = run_fit_friction([], load_pipeline_config(config_path), out)
        assert "friction: pruned 3 unsupported knot(s)\n" in capsys.readouterr().out
        kept = (0.1, 0.25, 1.0, 3.0, 8.333333333333334, 12.0, 20.0, 25.0, 36.0)
        assert curve.knots_x == kept
        assert load_model(out)[1].knots_x == kept

    def test_propulsion_fit_level_bookkeeping(self, gt_models, config_path, tmp_path):
        coast = coast_down_log(gt_models)
        save_drive_log(tmp_path / "coast.json", coast)
        config = load_pipeline_config(config_path)
        run_fit_friction([str(tmp_path / "coast.json")], config, tmp_path / "friction.json")
        levels = [0, 100, 186]
        paths = []
        for level in levels:
            log = protocol_log(gt_models, level, 0, 0.0, 80.0, Gear.DRIVE)
            p = tmp_path / f"run_{level}.json"
            save_drive_log(p, log)
            paths.append(str(p))
        out = tmp_path / "propulsion.json"
        run_fit_propulsion(paths, tmp_path / "friction.json", config, out)
        kind, surface, _ = load_model(out)
        assert kind == "propulsion"
        assert surface.levels == (0, 100, 186)

    def test_brake_fit_flags_non_monotone_level(self, gt_models, config_path, tmp_path):
        # adversarial generator: the disc force at brake 80 is weaker than
        # at brake 40, so the assembled surface cannot be monotone in the
        # signal and the fit must name the offending level
        from longforce.dynamics import ModelSet
        from longforce.spline import ForceSurface, Spline1D

        def flat(value):
            return Spline1D.interpolate([0.0, 40.0], [value, value])

        bad = ModelSet(
            friction=gt_models.friction,
            propulsion=gt_models.propulsion,
            braking=ForceSurface((0, 40, 80), (flat(0.0), flat(3000.0), flat(1200.0))),
            params=gt_models.params,
        )
        coast = coast_down_log(gt_models)
        save_drive_log(tmp_path / "coast.json", coast)
        config = load_pipeline_config(config_path)
        run_fit_friction([str(tmp_path / "coast.json")], config, tmp_path / "friction.json")
        creep_log = protocol_log(gt_models, 0, 0, 0.0, 60.0, Gear.DRIVE)
        save_drive_log(tmp_path / "creep.json", creep_log)
        run_fit_propulsion([str(tmp_path / "creep.json")], tmp_path / "friction.json",
                           config, tmp_path / "propulsion.json")
        paths = []
        for level in (0, 40, 80):  # level 0, the released pedal, as every brake fit needs
            log = protocol_log(bad, 0, level, 125.0 / 3.6, 40.0, Gear.DRIVE,
                               cut_below=0.02)
            p = tmp_path / f"brake_{level}.json"
            save_drive_log(p, log)
            paths.append(str(p))
        from longforce.errors import FitError
        with pytest.raises(FitError, match="level 80 falls below level 40"):
            run_fit_brake(paths, tmp_path / "friction.json",
                          tmp_path / "propulsion.json", config, tmp_path / "braking.json")


class TestExport:
    @pytest.fixture()
    def model_dir(self, tmp_path):
        run_reference(tmp_path / "models")
        return tmp_path / "models"

    def test_log_spaced_grid(self, model_dir, tmp_path):
        out = tmp_path / "friction.csv"
        run_export(model_dir / "friction.json", out, log_axes=True, points=500)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 500
        speeds = [float(r["speed_kmh"]) for r in rows]
        assert speeds[0] == pytest.approx(0.1)
        assert speeds[-1] == pytest.approx(130.0)
        ratios = np.diff(np.log(speeds))
        assert np.allclose(ratios, ratios[0])

    def test_propulsion_plateau_rows(self, model_dir, tmp_path):
        out = tmp_path / "prop.csv"
        run_export(model_dir / "propulsion.json", out, levels=[186], points=400)
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["level"] == "186"]
        assert len(rows) == 400
        plateau = [float(r["force_N"]) for r in rows
                   if 6.0 <= float(r["speed_kmh"]) <= 29.0]
        assert plateau and all(abs(f - 6300.0) <= 63.0 for f in plateau)

    def test_export_round_trip_matches_eval(self, model_dir, tmp_path):
        out = tmp_path / "brake.csv"
        run_export(model_dir / "braking.json", out, levels=[160], points=100)
        kind, surface, _ = load_model(model_dir / "braking.json")
        with open(out) as fh:
            for row in csv.DictReader(fh):
                v = float(row["speed_kmh"]) / 3.6
                assert float(row["force_N"]) == surface.eval(v, 160)

    def test_unknown_level_lists_available(self, model_dir, tmp_path):
        with pytest.raises(SchemaError, match="available levels"):
            run_export(model_dir / "propulsion.json", tmp_path / "x.csv", levels=[42])

    def test_friction_has_no_levels(self, model_dir, tmp_path):
        with pytest.raises(SchemaError):
            run_export(model_dir / "friction.json", tmp_path / "x.csv", levels=[1])


class TestSimulateValidateCommands:
    @pytest.fixture()
    def model_dir(self, tmp_path):
        run_reference(tmp_path / "models")
        return tmp_path / "models"

    def model_set(self, model_dir):
        return load_model_set(model_dir / "friction.json", model_dir / "propulsion.json",
                              model_dir / "braking.json", data_path("zoe_params.json"))

    def test_rest_simulation_all_zero(self, model_dir, tmp_path):
        # clamp the creep curve to zero via a modified propulsion model so a
        # standing start with no commands stays parked
        kind, surface, _ = load_model(model_dir / "propulsion.json")
        from longforce.spline import ForceSurface, Spline1D, save_model
        zero = Spline1D.interpolate([0.1, 36.0], [0.0, 0.0])
        curves = (zero,) + surface.curves[1:]
        save_model(model_dir / "propulsion.json", "propulsion",
                   ForceSurface(surface.levels, curves), {"source_logs": []})
        schedule = tmp_path / "sched.csv"
        schedule.write_text("t_s,throttle,brake,slope_rad\n0,0,0,0\n")
        out = tmp_path / "traj.csv"
        run_simulate(self.model_set(model_dir), schedule, 0.0, 0.01, 5.0, out)
        with open(out) as fh:
            speeds = [float(r["speed_mps"]) for r in csv.DictReader(fh)]
        assert len(speeds) == 501
        assert all(s == 0.0 for s in speeds)

    def test_validate_self_consistent_drive(self, gt_models, model_dir, tmp_path, capsys):
        log, traj, _ = mixed_drive(gt_models, cycles=1)
        # thin the drive to keep the file and the estimator run fast
        sl = slice(0, 6000)
        log_path = tmp_path / "drive.json"
        save_drive_log(log_path, DriveLog(log.t[sl], log.speed[sl], log.throttle[sl],
                                          log.brake[sl], log.slope[sl], gear=Gear.DRIVE))
        out = tmp_path / "report.json"
        run_validate(self.model_set(model_dir), log_path, 21, 5.0, 0.1, out)
        report = json.loads(out.read_text())
        # measured acceleration comes from the estimator here, so the error
        # is smoothing noise, not exactly zero
        assert abs(report["mean_mps2"]) <= 0.02
        assert report["std_dev_mps2"] <= 0.2
        assert report["count"] > 5000
        table = capsys.readouterr().out
        assert "Std. dev" in table


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        csv_path = tmp_path / "log.csv"
        write_csv(csv_path, ["0.00,10,0,0,0", "0.01,10,0,0,0"])
        code = main(["ingest", str(csv_path), "--units", "speed_mps",
                     "--out", str(tmp_path / "log.json")])
        assert code == 0

    def test_schema_error_is_2(self, tmp_path, capsys):
        csv_path = tmp_path / "log.csv"
        write_csv(csv_path, ["0.00,10,0,0"], header="t,speed,throttle,brake")
        code = main(["ingest", str(csv_path), "--units", "speed_mps",
                     "--out", str(tmp_path / "log.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("header, rows, line", [
        ("t,speed,throttle,brake,slope,note" + "s" * 140_000, ["0.00,10,0,0,0,a"], 1),
        ("t,speed,throttle,brake,slope,note",
         ["0.00,10,0,0,0,a", "abc,10,0,0,0,a", "0.01,10,0,0,0," + "a" * 140_000], 4)],
        ids=["header", "data-row"])
    def test_cell_past_the_csv_field_limit_is_2(self, tmp_path, capsys, header, rows, line):
        # Used to end in an _csv.Error traceback (exit 1). The "abc" row sends
        # the file down the block path, the one that reads data rows with csv.
        csv_path = tmp_path / "log.csv"
        write_csv(csv_path, rows, header=header)
        code = main(["ingest", str(csv_path), "--units", "speed_mps",
                     "--out", str(tmp_path / "log.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {csv_path}: line {line}: field larger than field limit "
            f"({csv.field_size_limit()})\n")
        assert not (tmp_path / "log.json").exists()

    def test_fit_error_is_3(self, gt_models, config_path, tmp_path, capsys):
        # no anchors and a single populated bin cannot determine two knots
        coast = coast_down_log(gt_models)
        log_path = tmp_path / "coast.json"
        save_drive_log(log_path, coast)
        anchors_path = tmp_path / "no_friction_anchors.json"
        anchors_path.write_text(json.dumps({"propulsion": {}, "braking": {}}))
        obj = json.loads(config_path.read_text())
        obj["anchors"] = str(anchors_path)
        obj["knots_mps"] = [0.1, 36.0]
        obj["bins"] = {"lo_mps": 30.0, "hi_mps": 40.0, "count": 1}
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps(obj))
        code = main(["fit-friction", str(log_path), "--config", str(bad_cfg),
                     "--out", str(tmp_path / "f.json")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_protocol_error_is_2(self, gt_models, config_path, tmp_path, capsys):
        log = protocol_log(gt_models, 50, 0, 0.0, 5.0, Gear.DRIVE)
        log_path = tmp_path / "drive.json"
        save_drive_log(log_path, log)
        code = main(["fit-friction", str(log_path), "--config", str(config_path),
                     "--out", str(tmp_path / "f.json")])
        assert code == 2

    def test_reference_command(self, tmp_path):
        code = main(["reference", "--out-dir", str(tmp_path / "models")])
        assert code == 0
        models = load_model_set(tmp_path / "models" / "friction.json",
                                tmp_path / "models" / "propulsion.json",
                                tmp_path / "models" / "braking.json",
                                data_path("zoe_params.json"))
        assert models.propulsion.levels == (0, 50, 100, 150, 186)

    def test_module_entry_point(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path
        csv_path = tmp_path / "log.csv"
        write_csv(csv_path, ["0.00,10,0,0,0", "0.01,10,0,0,0"])
        env = os.environ.copy()
        src = Path(__file__).resolve().parent.parent / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "longforce.cli", "ingest", str(csv_path),
             "--units", "speed_mps", "--out", str(tmp_path / "log.json")],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "log.json").exists()


@pytest.fixture()
def cli_inputs(tmp_path, config_path):
    """One valid file of each type the CLI reads, by name."""
    assert main(["reference", "--out-dir", str(tmp_path)]) == 0
    csv_path = tmp_path / "log.csv"
    write_csv(csv_path, ["0.00,10,0,0,0", "0.01,10,0,0,0"])
    log_path = tmp_path / "log.json"
    assert main(["ingest", str(csv_path), "--units", "speed_mps", "--out", str(log_path)]) == 0
    schedule = tmp_path / "schedule.csv"
    schedule.write_text("t_s,throttle,brake,slope_rad\n0,0,0,0\n")
    return {"csv": csv_path, "log": log_path, "config": config_path, "schedule": schedule,
            "params": data_path("zoe_params.json"),
            **{kind: tmp_path / f"{kind}.json" for kind in ("friction", "propulsion", "braking")}}


def cli_argv(command, files, out):
    f = {name: str(path) for name, path in files.items()}
    models = ["--friction", f["friction"], "--propulsion", f["propulsion"],
              "--braking", f["braking"], "--params", f["params"]]
    return {
        "ingest": ["ingest", f["csv"], "--units", "speed_mps", "--out", out],
        "fit-friction": ["fit-friction", f["log"], "--config", f["config"], "--out", out],
        "fit-propulsion": ["fit-propulsion", f["log"], "--friction", f["friction"],
                           "--config", f["config"], "--out", out],
        "fit-brake": ["fit-brake", f["log"], "--friction", f["friction"],
                      "--propulsion", f["propulsion"], "--config", f["config"], "--out", out],
        "simulate": ["simulate", *models, "--schedule", f["schedule"], "--duration", "1",
                     "--out", out],
        "validate": ["validate", *models, "--log", f["log"]],
        "export-plot-data": ["export-plot-data", f["propulsion"], "--out", out],
    }[command]


class TestMainInputFiles:
    """A bad input file ends in one ``error:`` line and exit code 2."""

    @pytest.mark.parametrize("command, name", [
        ("ingest", "csv"), ("validate", "log"), ("fit-friction", "config"),
        ("fit-friction", "anchors"), ("validate", "params"), ("validate", "friction"),
        ("simulate", "schedule")])
    def test_missing_file_is_2(self, cli_inputs, tmp_path, capsys, command, name):
        missing = tmp_path / "absent" / f"{name}.file"
        if name == "anchors":  # named inside the pipeline config
            obj = json.loads(cli_inputs["config"].read_text())
            obj["anchors"] = str(missing)
            cli_inputs["config"] = tmp_path / "cfg.json"
            cli_inputs["config"].write_text(json.dumps(obj))
        else:
            cli_inputs[name] = missing
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err and str(missing) in err

    @pytest.mark.parametrize("content, message", [
        (b"[]", "expected a JSON object, got list"),
        (b"null", "expected a JSON object, got NoneType"),
        (b"\xff\xfe{}", "not valid JSON")])
    def test_non_object_drive_log_is_2(self, cli_inputs, tmp_path, capsys, content, message):
        # A list used to crash load_drive_log with an AttributeError.
        cli_inputs["log"].write_bytes(content)
        assert main(cli_argv("fit-friction", cli_inputs, str(tmp_path / "out"))) == 2
        assert f"log.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, other", [
        ("validate", "friction", "propulsion"), ("validate", "propulsion", "braking"),
        ("simulate", "braking", "friction"), ("fit-propulsion", "friction", "braking"),
        ("fit-brake", "propulsion", "friction")])
    def test_wrong_model_kind_is_2(self, cli_inputs, tmp_path, capsys, command, flag, other):
        cli_inputs[flag] = cli_inputs[other]
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        assert f"expected a {flag} model, got {other}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_non_finite_model_is_2(self, cli_inputs, tmp_path, capsys, command):
        # Such a curve used to load and evaluate to its lower clamp.
        obj = json.loads(cli_inputs["friction"].read_text())
        obj["curves"][0]["knots_y_N"][1] = math.nan
        cli_inputs["friction"].write_text(json.dumps(obj))
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        assert "knot value 1 is non-finite: nan" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name, key", [
        ("fit-friction", "config", "estimator"), ("fit-friction", "config", "bins"),
        ("fit-friction", "anchors", "propulsion"), ("fit-friction", "log", "metadata"),
        ("validate", "friction", "provenance")])
    def test_non_object_member_is_2(self, cli_inputs, tmp_path, capsys, command, name, key):
        # Each used to end in an AttributeError traceback; a list provenance
        # was read as an empty one.
        if name == "anchors":  # named inside the pipeline config
            path = tmp_path / "anchors.json"
            path.write_text(data_path("anchors_zoe.json").read_text())
            config = json.loads(cli_inputs["config"].read_text())
            config["anchors"] = str(path)
            cli_inputs["config"].write_text(json.dumps(config))
        else:
            path = cli_inputs[name]
        obj = json.loads(path.read_text())
        obj[key] = []
        path.write_text(json.dumps(obj))
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and f"'{key}' must be a JSON object, got list" in err

    @pytest.mark.parametrize("command", ["fit-brake", "validate", "simulate",
                                         "export-plot-data"])
    def test_propulsion_without_level_zero_is_2(self, cli_inputs, tmp_path, capsys,
                                                command):
        # fit-brake used to end in a KeyError traceback from curve_at(0), and
        # export-plot-data wrote the file's levels without complaint.
        path = cli_inputs["propulsion"]
        obj = json.loads(path.read_text())
        obj["levels"], obj["curves"] = obj["levels"][1:], obj["curves"][1:]
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main(cli_argv(command, cli_inputs, str(out))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed propulsion model: the lowest level must be 0 "
            "(the released pedal), got levels [50, 100, 150, 186]\n")
        assert not out.exists()

    def test_braking_without_level_zero_names_its_file(self, cli_inputs, tmp_path, capsys):
        path = cli_inputs["braking"]
        obj = json.loads(path.read_text())
        obj["levels"], obj["curves"] = obj["levels"][1:], obj["curves"][1:]
        path.write_text(json.dumps(obj))
        assert main(cli_argv("validate", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed braking model: the lowest level must be 0 "
            "(the released pedal), got levels [40, 80, 120, 160]\n")

    @pytest.mark.parametrize("command, throttle, brake", [
        ("fit-propulsion", 100, 0), ("fit-brake", 0, 60)])
    def test_fit_without_level_zero_is_3(self, gt_models, cli_inputs, tmp_path, capsys,
                                         command, throttle, brake):
        # Such a fit used to write a model that fit-brake or validate then refused.
        save_drive_log(cli_inputs["log"], protocol_log(gt_models, throttle, brake, 20.0, 15.0,
                                                       Gear.DRIVE, cut_below=0.5))
        out = tmp_path / "out.json"
        assert main(cli_argv(command, cli_inputs, str(out))) == 3
        kind = "propulsion" if throttle else "braking"
        assert capsys.readouterr().err == (
            f"error: {kind}: the lowest level must be 0 (the released pedal), got levels "
            f"[{throttle + brake}] in {cli_inputs['log']}\n")
        assert not out.exists()

    def test_fit_without_level_zero_stops_before_any_fit(self, gt_models, cli_inputs,
                                                          tmp_path, capsys):
        # The walkthrough's throttle 50 and 100 runs without the level-0 run:
        # this used to print both levels' fit lines before the refusal.
        logs = []
        for level in (50, 100):
            logs.append(tmp_path / f"throttle_{level:03d}.json")
            save_drive_log(logs[-1], protocol_log(gt_models, level, 0, 0.0, 30.0, Gear.DRIVE))
        out = tmp_path / "fitted.json"
        capsys.readouterr()  # the fixture's own output
        assert main(["fit-propulsion", *map(str, logs), "--friction",
                     str(cli_inputs["friction"]), "--config", str(cli_inputs["config"]),
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: propulsion: the lowest level must be 0 (the released pedal), got levels "
            f"[50, 100] in {logs[0]}, {logs[1]}\n")
        assert not out.exists()

    # A zero or negative weight used to exit 3 without naming the file; a force of
    # 1e160 N exited 3 with "overflow encountered in square", and a weight of 1e30 as
    # an underdetermined fit.
    @pytest.mark.parametrize("kind, level", [("friction", None), ("propulsion", "100")],
                             ids=["friction", "propulsion-100"])
    @pytest.mark.parametrize("field, value", [
        ("speed_mps", math.nan), ("speed_mps", math.inf), ("force_n", math.nan),
        ("force_n", -math.inf), ("force_n", 1e160), ("force_n", -2e6),
        ("weight", 0.0), ("weight", -1.0), ("weight", math.inf), ("weight", 1e30)],
        ids=["speed-nan", "speed-inf", "force-nan", "force-inf", "force-huge",
             "force-over-bound", "weight-zero", "weight-negative", "weight-inf",
             "weight-over-bound"])
    def test_anchor_weight_not_positive_is_2(self, cli_inputs, tmp_path, capsys, field,
                                             value, kind, level):
        path = tmp_path / "anchors.json"
        obj = json.loads(data_path("anchors_zoe.json").read_text())
        anchors = obj[kind] if level is None else obj[kind][level]
        anchors[3][field] = value
        path.write_text(json.dumps(obj))
        config = json.loads(cli_inputs["config"].read_text())
        config["anchors"] = str(path)
        cli_inputs["config"].write_text(json.dumps(config))
        speed, force, weight = (float(anchors[3].get(key, 1.0))
                                for key in ("speed_mps", "force_n", "weight"))
        where = "friction" if level is None else f"{kind} level {level}"
        assert main(cli_argv("fit-friction", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid anchor config: {where} anchor 3 ({speed} m/s, {force}, "
            f"weight {weight}): speed must be finite, |value| <= 1e+06 and the weight > 0 "
            "and <= 1e+06\n")

    @pytest.mark.parametrize("command", ["fit-brake", "simulate", "validate"])
    def test_edited_tangent_is_ignored(self, gt_models, cli_inputs, tmp_path, capsys,
                                       monkeypatch, command):
        # Tangents are derived from the knots on load, so an edited tangent
        # in a file written by an earlier version changes nothing.
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        save_drive_log(cli_inputs["log"], protocol_log(gt_models, 0, 60, 20.0, 15.0,
                                                       Gear.DRIVE, cut_below=0.5))
        out = tmp_path / "out"
        argv = cli_argv(command, cli_inputs, str(out))
        if command == "fit-brake":  # the released-pedal run, as every brake fit needs
            regen = tmp_path / "regen.json"
            save_drive_log(regen, protocol_log(gt_models, 0, 0, 20.0, 15.0, Gear.DRIVE,
                                               cut_below=0.5))
            argv.insert(1, str(regen))

        def outputs():
            assert main(argv) == 0
            return capsys.readouterr(), out.read_bytes() if out.exists() else None

        untouched = outputs()
        path = cli_inputs["propulsion"]
        obj = json.loads(path.read_text())
        curve = obj["curves"][2]
        curve["tangents"] = list(limited_tangents(curve["knots_x_mps"], curve["knots_y_N"]))
        curve["tangents"][3] += 50.0
        path.write_text(json.dumps(obj))
        assert outputs() == untouched

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_non_monotone_surface_is_2(self, cli_inputs, tmp_path, capsys, command):
        # Such a file used to load, and inverting it raised InversionError later.
        path = cli_inputs["propulsion"]
        obj = json.loads(path.read_text())
        top = obj["curves"][-1]
        top["knots_y_N"] = [0.5 * y for y in top["knots_y_N"]]
        path.write_text(json.dumps(obj))
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        assert (f"{path}: malformed propulsion model: level 186 falls below level 150"
                in capsys.readouterr().err)


class TestMainOutOfRange:
    """An argument or config value out of range ends in exit 2 with a message naming it."""

    @pytest.fixture()
    def inputs(self, cli_inputs):
        # A log long enough for the estimator, so validation reaches the histogram.
        write_csv(cli_inputs["csv"], [f"{0.01 * k:.2f},10,0,0,0" for k in range(100)])
        assert main(["ingest", str(cli_inputs["csv"]), "--units", "speed_mps",
                     "--out", str(cli_inputs["log"])]) == 0
        return cli_inputs

    # Each used to end in a traceback, exit 0 with a wrong result, or exit 3.
    @pytest.mark.parametrize("command, extra, message", [
        ("validate", ["--window", "4"], "window must be an odd integer >= 3, got 4"),
        ("validate", ["--cutoff", "0"], "cutoff_hz must be finite and > 0, got 0.0"),
        ("validate", ["--cutoff", "-1"], "cutoff_hz must be finite and > 0, got -1.0"),
        ("validate", ["--cutoff", "nan"], "cutoff_hz must be finite and > 0, got nan"),
        ("validate", ["--hist-bin", "0"], "histogram bin width must be finite and > 0, got 0.0"),
        ("validate", ["--hist-bin", "inf"], "histogram bin width must be finite and > 0, got inf"),
        ("simulate", ["--dt", "0"], "dt must be in (0, 0.1] s, got 0.0"),
        ("simulate", ["--v0", "-1"], "v0 must be >= 0, got -1.0"),
        ("simulate", ["--duration", "nan"], "duration must be finite and >= 0 s, got nan"),
        ("simulate", ["--duration", "-5"], "duration must be finite and >= 0 s, got -5.0"),
        # Used to end in a MemoryError traceback: "Unable to allocate 728. TiB".
        ("simulate", ["--duration", "1e12"],
         f"duration / dt must be <= {MAX_SIMULATE_STEPS} steps, got 1e+14"),
        ("export-plot-data", ["--points", "-1"], "points must be >= 1, got -1"),
        # Used to allocate the whole grid before writing a row; a large
        # enough value ended in MemoryError or an out-of-memory kill.
        ("export-plot-data", ["--points", str(MAX_EXPORT_POINTS + 1)],
         f"points must be <= {MAX_EXPORT_POINTS}, got {MAX_EXPORT_POINTS + 1}")],
        ids=["window-4", "cutoff-0", "cutoff-neg", "cutoff-nan", "hist-bin-0", "hist-bin-inf",
             "dt-0", "v0-neg", "duration-nan", "duration-neg", "duration-huge", "points-neg",
             "points-huge"])
    def test_argument_is_2(self, inputs, tmp_path, capsys, command, extra, message):
        out = str(tmp_path / "out")
        if command == "export-plot-data":
            argv = ["export-plot-data", str(inputs["friction"]), "--out", out]
        else:
            argv = cli_argv(command, inputs, out)
        assert main(argv + extra) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("bins", "count", 0, "bin count must be >= 1, got 0"),
        # Used to ask np.geomspace for 8 GB of edges at a count of 10^9.
        ("bins", "count", 10**9, f"bin count must be <= {MAX_BIN_COUNT}, got {10**9}"),
        ("estimator", "window", 4, "window must be an odd integer >= 3, got 4"),
        ("estimator", "cutoff_hz", 0, "cutoff_hz must be finite and > 0, got 0.0"),
        ("estimator", "cutoff_hz", -1, "cutoff_hz must be finite and > 0, got -1.0"),
        ("knots_mps", "friction", [], "knots_mps for friction: "
                                      "need at least 2 knot positions, got 0")],
        ids=["bins-count-0", "bins-count-huge", "window-4", "cutoff-0", "cutoff-neg",
             "knots-empty"])
    def test_config_value_is_2(self, inputs, tmp_path, capsys, section, key, value, message):
        path = inputs["config"]
        obj = json.loads(path.read_text())
        obj[section][key] = value
        path.write_text(json.dumps(obj))
        assert main(cli_argv("fit-friction", inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == f"error: {path}: invalid pipeline config: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_without_a_kinds_knots_is_2(self, inputs, tmp_path, capsys):
        # fit-brake used to load, estimate and extract every log, then fail
        # with a message that named no file. The config is now refused
        # before any log is read, so an absent log is never reached.
        path = inputs["config"]
        obj = json.loads(path.read_text())
        del obj["knots_mps"]["braking"]
        path.write_text(json.dumps(obj))
        inputs["log"] = tmp_path / "absent.json"
        assert main(cli_argv("fit-brake", inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid pipeline config: knots_mps has no layout for braking\n")


class TestFractionalIntegerFields:
    """A fraction in an integer field is refused (exit 2), naming the file and key.

    Each such value used to load truncated: 39.7 as 39, 21.5 as 21.
    """

    @pytest.mark.parametrize("column", ["throttle", "brake"])
    def test_drive_log_command_is_2(self, cli_inputs, tmp_path, capsys, column):
        path = cli_inputs["log"]
        obj = json.loads(path.read_text())
        obj[column][1] = 39.7
        path.write_text(json.dumps(obj))
        assert main(cli_argv("fit-friction", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed drive log: '{column}' must hold whole numbers, "
            "got 39.7 at row 1\n")

    @pytest.mark.parametrize("section, key, value", [
        ("estimator", "window", 21.5), ("bins", "count", 40.5)], ids=["window", "bins-count"])
    def test_config_value_is_2(self, cli_inputs, tmp_path, capsys, section, key, value):
        path = cli_inputs["config"]
        obj = json.loads(path.read_text())
        obj[section][key] = value
        path.write_text(json.dumps(obj))
        assert main(cli_argv("fit-friction", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid pipeline config: '{key}' must hold whole numbers, "
            f"got {value}\n")

    def test_model_level_is_2(self, cli_inputs, tmp_path, capsys):
        path = cli_inputs["propulsion"]
        obj = json.loads(path.read_text())
        obj["levels"][1] = 50.9
        path.write_text(json.dumps(obj))
        assert main(cli_argv("simulate", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed propulsion model: 'levels' must hold whole numbers, "
            "got 50.9 at row 1\n")

    def test_whole_floats_still_load(self, cli_inputs, tmp_path):
        # JSON writers that spell every number as a float stay readable.
        log = json.loads(cli_inputs["log"].read_text())
        log["throttle"] = [float(v) for v in log["throttle"]]
        cli_inputs["log"].write_text(json.dumps(log))
        config = json.loads(cli_inputs["config"].read_text())
        config["estimator"]["window"] = 21.0
        config["bins"]["count"] = 40.0
        cli_inputs["config"].write_text(json.dumps(config))
        model = json.loads(cli_inputs["propulsion"].read_text())
        model["levels"] = [float(v) for v in model["levels"]]
        cli_inputs["propulsion"].write_text(json.dumps(model))
        assert load_drive_log(cli_inputs["log"]).throttle.dtype == np.int64
        loaded = load_pipeline_config(cli_inputs["config"])
        assert loaded.window == 21 and len(loaded.bin_edges) == 41
        assert load_model(cli_inputs["propulsion"])[1].levels == (0, 50, 100, 150, 186)


HUGE_INT = 10**400  # a JSON integer literal that float() refuses with OverflowError


class TestInputBoundary:
    """A value the program cannot use, in any file it reads, is exit 2 naming that file."""

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.__setitem__("lower_clamp_N", HUGE_INT),
        lambda obj: obj["curves"][0]["knots_y_N"].__setitem__(1, HUGE_INT)],
        ids=["clamp", "knot"])
    def test_huge_integer_in_model_is_2(self, cli_inputs, tmp_path, capsys, edit):
        # The clamp used to exit 3 with "int too large to convert to float",
        # naming no file.
        path = cli_inputs["friction"]
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        assert main(cli_argv("simulate", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed friction model: int too large to convert to float\n")

    def test_huge_integer_in_anchors_names_the_anchor_file(self, cli_inputs, tmp_path,
                                                            capsys):
        # Used to name the pipeline config; load_anchor_file raised a bare
        # OverflowError.
        path = tmp_path / "anchors.json"
        obj = json.loads(data_path("anchors_zoe.json").read_text())
        obj["friction"][0]["force_n"] = HUGE_INT
        path.write_text(json.dumps(obj))
        config = json.loads(cli_inputs["config"].read_text())
        config["anchors"] = str(path)
        cli_inputs["config"].write_text(json.dumps(config))
        message = f"{path}: invalid anchor config: int too large to convert to float"
        with pytest.raises(SchemaError) as exc:
            load_anchor_file(path)
        assert str(exc.value) == message
        assert main(cli_argv("fit-friction", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # A NaN time and a negative throttle or brake used to exit 0 (a negative
    # throttle turns regenerative braking off and gives creep force); a NaN
    # slope exited 2 naming neither the file nor the row.
    @pytest.mark.parametrize("row, message", [
        ("nan,0,0,0", "t_s is non-finite: nan"),
        ("1,0,0,nan", "slope_rad is non-finite: nan"),
        ("1,inf,0,0", "throttle is non-finite: inf"),
        ("1,-80,0,0", "throttle must be >= 0, got -80.0"),
        ("1,0,-5,0", "brake must be >= 0, got -5.0")],
        ids=["t-nan", "slope-nan", "throttle-inf", "throttle-neg", "brake-neg"])
    def test_bad_schedule_row_is_2(self, cli_inputs, tmp_path, capsys, row, message):
        path = cli_inputs["schedule"]
        path.write_text(f"t_s,throttle,brake,slope_rad\n0,0,0,0\n{row}\n")
        assert main(cli_argv("simulate", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == f"error: {path}: bad schedule row 2: {message}\n"

    # Each used to load and end fit-friction in exit 3 naming no file:
    # "invalid value encountered in multiply", "(34, 'Numerical result out of
    # range')" and "float division by zero".
    @pytest.mark.parametrize("edit, message", [
        ({"base_mass_kg": 1e308, "payload_mass_kg": 1e308}, "weight must be finite, got inf N"),
        ({"wheels": [{"inertia_kgm2": 0.86, "radius_m": 1e200}]},
         "equivalent mass is not finite: the square of a wheel radius in [1e+200] m is out "
         "of the float range"),
        ({"wheels": [{"inertia_kgm2": 0.86, "radius_m": 1e-200}]},
         "equivalent mass is not finite: the square of a wheel radius in [1e-200] m is out "
         "of the float range")],
        ids=["masses-1e308", "radius-1e200", "radius-1e-200"])
    def test_params_without_a_finite_mass_is_2(self, gt_models, config_path, tmp_path, capsys,
                                               edit, message):
        log = tmp_path / "coast.json"
        save_drive_log(log, coast_down_log(gt_models, duration=30.0))
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**json.loads(data_path("zoe_params.json").read_text()),
                                      **edit}))
        config = json.loads(config_path.read_text())
        config["params"] = str(params)
        config_path.write_text(json.dumps(config))
        assert main(["fit-friction", str(log), "--config", str(config_path),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {params}: invalid vehicle parameter config: {message}\n")

    def test_negative_clamp_model_is_2(self, cli_inputs, tmp_path, capsys):
        # Such a surface used to load and evaluate to -35 N at throttle 0,
        # then to 0 N between the levels.
        path = cli_inputs["propulsion"]
        path.write_text(json.dumps({
            "kind": "propulsion", "levels": [0, 100], "lower_clamp_N": -50,
            "curves": [{"knots_x_mps": [0, 10], "knots_y_N": [-40, -30]},
                       {"knots_x_mps": [0, 10], "knots_y_N": [-20, -10]}]}))
        assert main(cli_argv("simulate", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed propulsion model: lower clamp must be 0, got -50.0\n")

    @pytest.mark.parametrize("command", ["simulate", "export-plot-data"])
    def test_positive_clamp_model_is_2(self, cli_inputs, tmp_path, capsys, command):
        # A clamp of 40 used to load, and held the curves at 40 N while the
        # surface between levels went down to 0 N.
        path = cli_inputs["propulsion"]
        obj = json.loads(path.read_text())
        obj["lower_clamp_N"] = 40
        path.write_text(json.dumps(obj))
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed propulsion model: lower clamp must be 0, got 40.0\n")

    @pytest.mark.parametrize("clamp", [0.0, 0, None], ids=["zero", "integer-zero", "absent"])
    def test_zero_or_absent_clamp_loads(self, cli_inputs, tmp_path, clamp):
        path = cli_inputs["propulsion"]
        obj = json.loads(path.read_text())
        if clamp is None:
            del obj["lower_clamp_N"]
        else:
            obj["lower_clamp_N"] = clamp
        path.write_text(json.dumps(obj))
        assert main(cli_argv("simulate", cli_inputs, str(tmp_path / "out"))) == 0

    @pytest.mark.parametrize("column", ["throttle", "brake"])
    def test_negative_command_in_drive_log_is_2(self, cli_inputs, tmp_path, capsys, column):
        path = cli_inputs["log"]
        obj = json.loads(path.read_text())
        obj[column][1] = -5
        path.write_text(json.dumps(obj))
        assert main(cli_argv("fit-friction", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed drive log: {column} must be >= 0; violated at row 1\n")

    # A friction anchor at 100 m/s used to end fit-friction in exit 3 with "knot
    # span [0.1, 36.0] does not cover the data span [0.1, 100.0]", naming no file.
    @pytest.mark.parametrize("command, kind, level, speed", [
        ("fit-friction", "friction", None, 100.0),
        ("fit-friction", "friction", None, -1.0),
        ("fit-propulsion", "propulsion", "100", 40.0)],
        ids=["friction-100", "friction-negative", "propulsion-40"])
    def test_anchor_outside_the_knot_span_is_2(self, cli_inputs, tmp_path, capsys, command,
                                               kind, level, speed):
        path = tmp_path / "anchors.json"
        obj = json.loads(data_path("anchors_zoe.json").read_text())
        anchors = obj[kind] if level is None else obj[kind][level]
        anchors[1]["speed_mps"] = speed
        path.write_text(json.dumps(obj))
        config = json.loads(cli_inputs["config"].read_text())
        config["anchors"] = str(path)
        cli_inputs["config"].write_text(json.dumps(config))
        name = kind if level is None else f"{kind} level {level}"
        assert main(cli_argv(command, cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid anchor config: {name} anchor 1 at {speed} m/s lies "
            f"outside the {kind} knot span [0.1, 36.0] m/s\n")

    # Each used to exit 2 with the message alone, naming no file.
    def test_header_only_schedule_names_its_file(self, cli_inputs, tmp_path, capsys):
        path = cli_inputs["schedule"]
        path.write_text("t_s,throttle,brake,slope_rad\n")
        assert main(cli_argv("simulate", cli_inputs, str(tmp_path / "out"))) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: invalid schedule: a schedule needs at least one row\n")

    @pytest.mark.parametrize("kind, level, message", [
        ("friction", "1", "a friction model has no levels"),
        ("propulsion", "42", "unknown level(s) [42]; available levels: [0, 50, 100, 150, 186]")],
        ids=["friction", "unknown-level"])
    def test_export_level_error_names_the_model_file(self, cli_inputs, tmp_path, capsys, kind,
                                                     level, message):
        path = cli_inputs[kind]
        assert main(["export-plot-data", str(path), "--level", level,
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestFitDeterminism:
    def test_model_files_byte_identical_under_pinned_epoch(
            self, gt_models, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1234")
        coast = coast_down_log(gt_models)
        log_path = tmp_path / "coast.json"
        save_drive_log(log_path, coast)
        config = load_pipeline_config(config_path)
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        run_fit_friction([str(log_path)], config, out1)
        run_fit_friction([str(log_path)], config, out2)
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["provenance"]["fit_timestamp"] == 1234
