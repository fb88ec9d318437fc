"""scripts/bench_ab.py: failed runs are counted and kept out of every figure."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", SCRIPT)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

BETTER = {"ops_per_s": "higher"}


def _run(side, pair, ops, failed=0, units=10):
    return {"side": side, "pair": pair, "workload": "simulate", "seed": 11,
            "inputs_sha256": "x", "quality": {}, "units": units,
            "result": {"correct": True, "attempted": 10, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops}}}}


def test_failed_runs_leave_their_pairs_out_of_the_figures():
    runs = [_run("base", 1, 100.0), _run("head", 1, 120.0),
            _run("base", 2, 100.0), _run("head", 2, 900.0, failed=1),
            _run("base", 3, 100.0), {"side": "head", "pair": 3, "workload": "simulate",
                                     "seed": 11, "error": "exit 2: boom"},
            _run("base", 4, 100.0), _run("head", 4, 800.0)]
    runs[7]["error"] = "wrong answer: ['x']"   # what bench() sets for correct: false
    bench_ab.mark_failed_operations(runs[2], runs[3])
    assert "error" in runs[3]
    entry = bench_ab.summarise(runs, BETTER)["simulate seed 11"]
    assert entry["pairs"] == 1
    assert entry["failed_runs"] == 3
    assert entry["ops_per_s"]["head"]["median"] == 120.0
    assert entry["ops_per_s"]["pairs_won"] == 1


def test_fewer_failed_operations_than_the_base_is_no_failure():
    base, head = _run("base", 1, 100.0, failed=2), _run("head", 1, 100.0, failed=1)
    bench_ab.mark_failed_operations(base, head)
    assert "error" not in head


def test_failed_pairs_stay_out_of_the_units_figures():
    runs = [_run("base", 1, 100.0, units=10), _run("head", 1, 120.0, units=12),
            _run("base", 2, 100.0, units=11), _run("head", 2, 900.0, failed=1, units=90),
            _run("base", 3, 100.0, units=10), _run("head", 3, 130.0, units=14),
            _run("base", 4, 100.0, units=80), {"side": "head", "pair": 4,
                                               "workload": "simulate", "seed": 11,
                                               "error": "exit 2: boom"}]
    bench_ab.mark_failed_operations(runs[2], runs[3])
    units = bench_ab.summarise(runs, BETTER)["simulate seed 11"]["units"]
    assert units["base"] == {"q1": 10, "median": 10, "q3": 10}
    assert units["head"] == {"q1": 12.5, "median": 13.0, "q3": 13.5}
