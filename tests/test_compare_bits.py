"""scripts/compare_bits.py: digests that follow every bit, compared side by side."""

import importlib.util
import math
from pathlib import Path
from unittest.mock import patch

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_bits.py"
_spec = importlib.util.spec_from_file_location("compare_bits", SCRIPT)
compare_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bits)

SMALL = {"seed": 3, "queries": 40, "scale": 0.02}


def test_compare_prints_each_pair_and_fails_on_any_difference(capsys):
    base = {"a": "0" * 64, "b": "1" * 64}
    assert compare_bits.compare(base, dict(base)) == 0
    assert compare_bits.compare(base, {"a": "0" * 64, "b": "2" * 64}) == 1
    assert compare_bits.compare(base, {"a": "0" * 64}) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["same", "a"], ["same", "b"]]
    assert lines[4].split()[:2] == ["DIFF", "b"] and lines[7].split()[:2] == ["DIFF", "b"]


def test_a_changed_grade_force_moves_only_its_callers():
    before = compare_bits.digests(**SMALL)
    assert compare_bits.digests(**SMALL) == before
    with patch("longforce.dynamics.grade_force",
               lambda params, slope: params.weight_n * math.sin(slope) + 1.0):
        after = compare_bits.digests(**SMALL)
    moved = {name for name in before if before[name] != after[name]}
    assert moved == {"inverse_actuation", "simulate mixed_drive", "simulate stop_and_go",
                     "simulate neutral_coast_down", "simulate full_throttle_launch"}


def test_a_side_in_its_own_interpreter_gives_the_in_process_digests():
    assert compare_bits.run_side(SCRIPT.parent.parent, **SMALL) == compare_bits.digests(**SMALL)
