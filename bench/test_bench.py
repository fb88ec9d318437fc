"""Smoke test of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, traced and untraced, and checks that every
metric named in BENCHMARK.json is reported with its unit. It also proves that
the correctness checks fire: a propulsion surface scaled by 1.1 must fail both
the control identity check and the identify accuracy check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import longforce as lf  # noqa: E402
import longforce.cli  # noqa: E402,F401
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    details, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert details["missing"] == []
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
    assert details["problems"] == []


def scaled(surface, factor: float):
    return lf.ForceSurface(surface.levels, tuple(
        lf.Spline1D(c.knots_x, tuple(y * factor for y in c.knots_y),
                    tuple(m * factor for m in c.tangents), c.lower_clamp)
        for c in surface.curves))


@pytest.fixture(scope="module")
def truth():
    return lf.reference_model_set()


def test_control_identity_check_fires_on_a_wrong_model(truth):
    wrong = lf.ModelSet(truth.friction, scaled(truth.propulsion, 1.1), truth.braking,
                        truth.params)
    v, slope = workloads.reference_profile(np.random.default_rng(0), 30.0)
    queries = list(zip(v.tolist(), slope.tolist(), np.gradient(v, workloads.DT).tolist()))

    right = [lf.inverse_actuation(truth, *q) for q in queries]
    assert workloads.inverse_identity(truth, queries, right)[1] == []

    commands = [lf.inverse_actuation(wrong, *q) for q in queries]
    worst, problems, _ = workloads.inverse_identity(truth, queries, commands)
    assert problems and worst > workloads.INVERSE_TOL_MPS2


@pytest.fixture(scope="module")
def identify_inputs(tmp_path_factory):
    inputs = tmp_path_factory.mktemp("identify") / "inputs"
    info = workloads.generate("identify", 5, inputs)
    return inputs, info


def test_identify_accuracy_check_fires_on_a_wrong_model(truth, identify_inputs):
    inputs, _ = identify_inputs
    csvs = sorted((inputs / "telemetry").glob("*.csv"))
    bins = json.loads((inputs / "pipeline.json").read_text(encoding="utf-8"))["bins"]
    exact = {"friction": truth.friction, "propulsion": truth.propulsion,
             "braking": truth.braking}
    assert workloads.fit_err_ratio(csvs, exact, truth, bins) == 0.0
    wrong = dict(exact, propulsion=scaled(truth.propulsion, 1.1))
    assert workloads.fit_err_ratio(csvs, wrong, truth, bins) > 1.0


@pytest.mark.parametrize("workload", ["simulate", "control"])
def test_input_digest_follows_the_seed(workload, tmp_path):
    def digest(seed, name):
        return workloads.generate(workload, seed, tmp_path / name, "tiny")["inputs_sha256"]

    assert digest(1, "a") == digest(1, "b")
    assert digest(1, "a") != digest(2, "c")


def test_identify_digest_follows_the_seed(identify_inputs, tmp_path):
    _, info = identify_inputs
    assert workloads.generate("identify", 5, tmp_path / "same")["inputs_sha256"] \
        == info["inputs_sha256"]
    assert workloads.generate("identify", 6, tmp_path / "other")["inputs_sha256"] \
        != info["inputs_sha256"]


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "control", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
