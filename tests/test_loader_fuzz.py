"""Every kind of input file the CLI reads, mutated one edit at a time.

Each example takes one valid file (drive log, pipeline config, vehicle
parameters, anchors, model with or without a legacy ``tangents`` key, or
schedule CSV), applies one mutation, and runs the command that reads the
file through ``cli.main``:

* drop a key (a column of the CSV);
* change a value's JSON type (an unparseable CSV cell);
* put in a non-finite, empty or huge value.

``main`` must return 0, 2 or 3 and never raise. A pure schema mutation, a
required key dropped or a value of the wrong JSON type, must give 2.
"""

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from longforce.cli import main  # noqa: E402
from longforce.core import DriveLog, save_drive_log  # noqa: E402
from longforce.reference import data_path, reference_model_set  # noqa: E402
from longforce.spline import MODEL_KINDS, limited_tangents  # noqa: E402

from conftest import coast_down_log  # noqa: E402

FUZZ = settings(max_examples=60, deadline=None)

SCHEMA_MUTATIONS = ("drop", "retype")
VALUE_MUTATIONS = ("non-finite", "empty", "huge")
NON_FINITE = (math.nan, math.inf, -math.inf)
HUGE = (1e308, -1e308, 10**30, 10**400)

# Keys a file may lack (dropping one may give any exit code), and members
# whose content is free (any mutation may give 0), as paths where "*"
# matches any key or index.
OPTIONAL = {
    "log": [("metadata",), ("metadata", "gear")],
    "config": [("estimator",), ("estimator", "*"), ("bins",), ("bins", "*"), ("knots_mps",)],
    "anchors": [("*",), ("propulsion", "*"), ("braking", "*"), ("*", "*", "weight"),
                ("*", "*", "*", "weight")],
    "params": [("payload_mass_kg",), ("gravity_mps2",), ("wheels",)],
    "model": [("lower_clamp_N",), ("provenance",)],
}
FREE = {
    "log": [("metadata", "description")],
    "model": [("provenance", "*"), ("curves", "*", "tangents")],
}


def json_type(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}.get(type(value), "null")


def matches(path, patterns, prefix=False) -> bool:
    """Whether a pattern matches ``path`` (or, with ``prefix``, leads to it)."""
    return any((len(path) >= len(p) if prefix else len(path) == len(p))
               and all(q in ("*", k) for q, k in zip(p, path)) for p in patterns)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """One valid file of each kind, and the coast-down log fit-friction reads."""
    root = tmp_path_factory.mktemp("base")
    assert main(["reference", "--out-dir", str(root)]) == 0
    n = 100
    save_drive_log(root / "log.json", DriveLog([0.01 * k for k in range(n)], [10.0] * n,
                                               [0] * n, [0] * n, [0.0] * n))
    save_drive_log(root / "coast.json", coast_down_log(reference_model_set(), duration=40.0))
    shutil.copy(data_path("zoe_params.json"), root / "params.json")
    shutil.copy(data_path("anchors_zoe.json"), root / "anchors.json")
    config = json.loads(data_path("pipeline_zoe.json").read_text())
    config["params"], config["anchors"] = "params.json", "anchors.json"
    (root / "config.json").write_text(json.dumps(config))
    (root / "schedule.csv").write_text("t_s,throttle,brake,slope_rad\n0,80,0,0\n0.5,0,40,0.01\n")
    for kind in MODEL_KINDS:
        legacy = json.loads((root / f"{kind}.json").read_text())
        for curve in legacy["curves"]:
            curve["tangents"] = list(limited_tangents(curve["knots_x_mps"], curve["knots_y_N"]))
        (root / f"legacy_{kind}.json").write_text(json.dumps(legacy))
    for name in ("log", "config", "params", "schedule"):  # unmutated, every command succeeds
        assert run(root, name, lambda work: None) == 0
    return root


def run(base: Path, name: str, mutate) -> int:
    """Copy the base files, let ``mutate(dir)`` edit one, run the command reading it."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for path in base.iterdir():
            if path.name != "coast.json":
                shutil.copy(path, work / path.name)
        mutate(work)
        f = {p.stem: str(p) for p in work.iterdir()}
        models = ["--friction", f["friction"], "--propulsion", f["propulsion"],
                  "--braking", f["braking"], "--params", f["params"]]
        out = str(work / "out")
        argv = {
            "log": ["validate", *models, "--log", f["log"]],
            "params": ["validate", *models, "--log", f["log"]],
            "model": ["validate", *models, "--log", f["log"]],
            "config": ["fit-friction", str(base / "coast.json"), "--config", f["config"],
                       "--out", out],
            "anchors": ["fit-friction", str(base / "coast.json"), "--config", f["config"],
                        "--out", out],
            "schedule": ["simulate", *models, "--schedule", f["schedule"], "--duration", "1",
                         "--out", out],
        }[name]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        return code


def draw_path(data, obj) -> tuple:
    """A path to a node of ``obj``: at each container, stop or descend one step."""
    path = ()
    node = obj
    while isinstance(node, (dict, list)) and node:
        if path and data.draw(st.booleans(), label="stop"):
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys), label="key")
        path += (key,)
        node = node[key]
    return path


def mutate_json(data, obj) -> tuple:
    """Apply one drawn mutation to ``obj`` in place; return (mutation, path)."""
    path = draw_path(data, obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    choices = [m for m in SCHEMA_MUTATIONS + VALUE_MUTATIONS
               if not (m == "drop" and not isinstance(parent, dict))
               and not (m == "empty" and not isinstance(value, (str, list, dict)))]
    mutation = data.draw(st.sampled_from(choices), label="mutation")
    if mutation == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from({
            "retype": [v for v in (None, True, "x", "1.5", [], {}, 1.5)
                       if json_type(v) != json_type(value)],
            "non-finite": NON_FINITE,
            "empty": [type(value)()],
            "huge": HUGE,
        }[mutation]), label="value")
    return mutation, path


def expect(code: int, kind: str, mutation: str, path: tuple) -> None:
    if mutation not in SCHEMA_MUTATIONS or matches(path, FREE.get(kind, []), prefix=True):
        return
    if not (mutation == "drop" and matches(path, OPTIONAL.get(kind, []))):
        assert code == 2, (mutation, path)


@pytest.mark.parametrize("kind", ["log", "config", "anchors", "params"])
@FUZZ
@given(data=st.data())
def test_mutated_json_input(base, kind, data):
    file = f"{kind}.json"
    obj = json.loads((base / file).read_text())
    mutation, path = mutate_json(data, obj)
    code = run(base, kind, lambda work: (work / file).write_text(json.dumps(obj)))
    expect(code, kind, mutation, path)


@pytest.mark.parametrize("legacy", [False, True], ids=["knots-only", "legacy-tangents"])
@FUZZ
@given(data=st.data(), model=st.sampled_from(MODEL_KINDS))
def test_mutated_model(base, legacy, data, model):
    obj = json.loads((base / f"{'legacy_' if legacy else ''}{model}.json").read_text())
    mutation, path = mutate_json(data, obj)
    code = run(base, "model", lambda work: (work / f"{model}.json").write_text(json.dumps(obj)))
    expect(code, "model", mutation, path)


@FUZZ
@given(data=st.data())
def test_mutated_schedule_csv(base, data):
    rows = [line.split(",") for line in (base / "schedule.csv").read_text().splitlines()]
    mutation = data.draw(st.sampled_from(SCHEMA_MUTATIONS + VALUE_MUTATIONS + ("empty file",)))
    column = data.draw(st.integers(0, len(rows[0]) - 1))
    row = data.draw(st.integers(1, len(rows) - 1))
    if mutation == "drop":
        rows = [r[:column] + r[column + 1:] for r in rows]
    elif mutation == "empty file":
        rows = []
    else:
        rows[row][column] = data.draw(st.sampled_from({
            "retype": ["x", "[]", "true"],
            "non-finite": ["nan", "inf", "-inf"],
            "empty": [""],
            "huge": ["1e308", "-1e308", "1e30"],
        }[mutation]))
    text = "".join(",".join(r) + "\n" for r in rows)
    code = run(base, "schedule", lambda work: (work / "schedule.csv").write_text(text))
    if mutation in SCHEMA_MUTATIONS + ("empty file",):
        assert code == 2, (mutation, column, row)
