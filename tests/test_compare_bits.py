"""scripts/compare_bits.py: digests that follow every bit, compared side by side."""

import importlib.util
import math
from pathlib import Path
from unittest.mock import patch

import pytest

from longforce import core, estimation, extraction, pipeline, reference, spline

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_bits.py"
_spec = importlib.util.spec_from_file_location("compare_bits", SCRIPT)
compare_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bits)

SMALL = {"seed": 3, "queries": 40, "scale": 0.02}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """:data:`SMALL`, with the ingest digest's CSVs."""
    return {**SMALL, "csv_dir": compare_bits.write_ingest_inputs(tmp_path_factory.mktemp("demo"))}


def test_compare_prints_each_pair_and_fails_on_any_difference(capsys):
    base = {"a": "0" * 64, "b": "1" * 64}
    assert compare_bits.compare(base, dict(base)) == 0
    assert compare_bits.compare(base, {"a": "0" * 64, "b": "2" * 64}) == 1
    assert compare_bits.compare(base, {"a": "0" * 64}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["same", "a"], ["same", "b"]]
    assert lines[4].split()[:2] == ["DIFF", "b"] and lines[7].split()[:2] == ["DIFF", "b"]


def test_a_changed_grade_force_moves_only_its_callers(small):
    before = compare_bits.digests(**small)
    assert compare_bits.digests(**small) == before
    with patch("longforce.dynamics.grade_force",
               lambda params, slope: params.weight_n * math.sin(slope) + 1.0):
        after = compare_bits.digests(**small)
    moved = {name for name in before if before[name] != after[name]}
    # The array form reads grade_force_many, which is left as it was.
    assert moved == {"direct_acceleration", "inverse_actuation", "simulate mixed_drive",
                     "simulate stop_and_go", "simulate neutral_coast_down",
                     "simulate full_throttle_launch"}


def regrouped_basis(k, xs, original=spline._fit_basis):
    """``_fit_basis`` with its h10 tangent weight regrouped as t (t - 1)^2 h."""
    seg, value_basis, tan_left, tan_right = original(k, xs)
    h = k[seg + 1] - k[seg]
    t = (xs - k[seg]) / h
    return seg, value_basis, t * (t - 1.0) ** 2 * h, tan_right


def test_a_regrouped_basis_term_moves_only_the_fit_digest(small):
    before = compare_bits.digests(**small)
    with patch.object(spline, "_fit_basis", regrouped_basis):
        after = compare_bits.digests(**small)
    # The fit stages digest runs every fit of the walkthrough, so it moves too.
    assert {name for name in before if before[name] != after[name]} == {"fit_curve",
                                                                        "fit stages"}


def test_a_changed_knot_pruning_moves_only_the_fit_digest(small):
    # Keeping every knot; the walkthrough's fits keep every knot anyway.
    before = compare_bits.digests(**small)
    with patch.object(spline, "_supported_knots", lambda k, xs: k):
        after = compare_bits.digests(**small)
    assert {name for name in before if before[name] != after[name]} == {"fit_curve"}


def regrouped_curve_from_dict(obj, lower_clamp, original=spline._curve_from_dict):
    """``_curve_from_dict`` with each derived tangent regrouped as (m / 3) * 3."""
    curve = original(obj, lower_clamp)
    return spline.Spline1D(curve.knots_x, curve.knots_y,
                           [m / 3.0 * 3.0 for m in curve.tangents], lower_clamp)


def test_a_regrouped_loaded_tangent_moves_only_the_load_model_digest(small):
    before = compare_bits.digests(**small)
    with patch.object(spline, "_curve_from_dict", regrouped_curve_from_dict):
        after = compare_bits.digests(**small)
    # The fit stages read each model back, and the later stages load the earlier ones.
    assert {name for name in before if before[name] != after[name]} == {"load_model",
                                                                        "fit stages"}


def shifted_loadtxt_columns(csv_path, fh, indices, original=core._loadtxt_columns):
    parsed = original(csv_path, fh, indices)
    return None if parsed is None else (parsed[0] + 1.0, parsed[1])


def shifted_parse_floats(cells, original=core._parse_floats):
    values, bad = original(cells)
    return values + 1.0, bad


# The fit stages ingest the demo CSVs, which take the loadtxt path, not the block path.
@pytest.mark.parametrize("name, parse, moved", [
    ("_loadtxt_columns", shifted_loadtxt_columns, {"ingest_csv", "fit stages"}),
    ("_parse_floats", shifted_parse_floats, {"ingest_csv"})], ids=["loadtxt", "block-path"])
def test_a_changed_parse_moves_only_the_ingest_digest(small, name, parse, moved):
    before = compare_bits.digests(**small)
    with patch.object(core, name, parse):
        after = compare_bits.digests(**small)
    assert {name for name in before if before[name] != after[name]} == moved


def test_a_changed_extraction_moves_only_the_fit_stages_digest(small):
    # One newton more grade force in every extracted observation.
    before = compare_bits.digests(**small)
    with patch.object(extraction, "grade_force_many",
                      lambda params, slope, original=extraction.grade_force_many:
                      original(params, slope) + 1.0):
        after = compare_bits.digests(**small)
    assert {name for name in before if before[name] != after[name]} == {"fit stages"}


def test_a_changed_bin_median_moves_only_the_binning_digests(small):
    # One more in every bin's median value, wherever the package bins.
    def shifted(points, edges, original=estimation.bin_by_speed):
        return original(points, edges) + [0.0, 1.0, 0.0]

    before = compare_bits.digests(**small)
    with patch("longforce.bin_by_speed", shifted), \
            patch.object(pipeline, "bin_by_speed", shifted):
        after = compare_bits.digests(**small)
    assert {name for name in before if before[name] != after[name]} == {"bin_by_speed",
                                                                        "fit stages"}


def test_a_changed_anchor_parse_moves_only_the_anchor_digests(small):
    # One more in every anchor weight read. The reference models interpolate the
    # anchors' speeds and forces only, so every evaluation digest stays.
    def shifted(obj, key, default=None, original=reference.json_numbers):
        return original(obj, key, default) + (1.0 if key == "weight" else 0.0)

    before = compare_bits.digests(**small)
    with patch.object(reference, "json_numbers", shifted):
        after = compare_bits.digests(**small)
    assert {name for name in before if before[name] != after[name]} == {"load_anchor_file",
                                                                        "fit stages"}


def test_a_side_in_its_own_interpreter_gives_the_in_process_digests(small):
    assert compare_bits.run_side(SCRIPT.parent.parent, **small) == compare_bits.digests(**small)
