"""The three benchmark workloads: seeded inputs, timed work units, output checks.

The workloads reach longforce only through ``longforce.cli.main(argv)``, the
names in ``longforce.__all__`` and ``longforce.cli.load_drive_log`` (which the
README documents), so that code moving between modules cannot break them.
Every name is looked up on the module at call time, which lets the tracer
replace it.

A run is a whole number of *work units*, at least one, repeated until the
requested time has passed. Every unit does the same work, cut into the same
*slices*, and each slice is timed:

* ``identify``: one pass of the README walkthrough (12 ingests, three fits,
  validate). An operation is one CLI stage invocation, and each stage is a
  slice.
* ``simulate``: one round over the four scenarios. An operation is one
  scenario, that is one ``simulate`` call. Each ``CHUNK_S`` of simulated time
  is a slice, timed from inside the call by the schedule (``StepHold``).
* ``control``: one sweep over the query list in time order. An operation is
  one ``inverse_actuation`` call, timed singly, and each block of
  ``CONTROL_SLICE`` consecutive queries is a slice.

Each slice is timed in the process's CPU time, and the end-to-end figures
take each slice's mean over the units, trimmed of the fastest and slowest
tenth. The host's speed also wanders from one minute to the next, by 10 to
20 % in CPU time too. So between slices, at most every ``CAL_EVERY_S``, a
unit times a fixed calibration kernel that uses nothing of longforce, and the
figures are scaled by ``CAL_REF_S`` over the kernel's median time in the run
(see ``Workload.timing``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np

import longforce as lf

WORKLOADS = ("identify", "simulate", "control")

DT = 0.01
SPEED_NOISE_MPS = 0.02
V_MAX = 125.0 / 3.6
MODEL_KINDS = ("friction", "propulsion", "braking")

# protocol runs of the identification walkthrough: (level, duration s)
THROTTLE_RUNS = ((0, 60.0), (50, 150.0), (100, 150.0), (150, 140.0), (186, 130.0))
BRAKE_RUNS = ((0, 80.0), (40, 40.0), (80, 25.0), (120, 18.0), (160, 14.0))
COAST_S = 230.0
VALIDATION_S = 280.0
# (start s, throttle, brake) of the validation drive before seeded jitter
VALIDATION_PHASES = ((0.0, 150, 0), (25.0, 80, 0), (60.0, 50, 0), (90.0, 0, 40),
                     (102.0, 100, 0), (132.0, 0, 0), (140.0, 120, 0), (165.0, 60, 0),
                     (200.0, 0, 60), (210.0, 90, 0), (240.0, 70, 0))
ESTIMATOR = {"window": 51, "cutoff_hz": 2.0}

# Operations are timed in the process's CPU time (user + system). The work is
# single-threaded and CPU-bound, so uncontended this equals wall time; on a
# shared host it leaves out the time the process waited for a core (run queue,
# hypervisor steal), which is the host's noise rather than the program's cost.
CLOCK = time.process_time
CAL_EVERY_S = 0.05              # CPU seconds of work between calibration samples
CAL_LOOPS = 20000               # iterations of the calibration kernel, about 1.6 ms
CAL_REF_S = 1.6e-3              # the kernel's median time on the reference host

CHUNK_S = 1.0                   # simulated seconds per timed slice of a simulate call
CONTROL_PROFILE_S = 2400.0      # reference profile length; long, so every seed's mix is alike
CONTROL_HZ = 2.5                # query rate taken from the 100 Hz reference profile
CONTROL_SLICE = 250             # queries per timed slice, about 30 ms

# correctness tolerances
FIT_MIN_BIN_COUNT = 20          # acceptance criterion 2: compare bins with >= 20 samples
INVERSE_TOL_MPS2 = 1e-3         # acceptance criterion 4
# |v(dt) - v(dt/2)| on the mixed drive: a step-hold schedule switches up to one
# step apart on the two grids, worth dt * |jump in a| (about 3e-3 m/s here)
SIM_TOL_MPS = 1e-2


# --- shared helpers ---------------------------------------------------------------

def data_dir() -> Path:
    """The packaged data directory (vehicle parameters, anchors, pipeline)."""
    return Path(lf.__file__).parent / "data"


@contextlib.contextmanager
def quiet():
    """Silence the CLI's progress lines; they are not part of any output checked."""
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        yield


def digest_dir(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path, then contents."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def calibration_kernel() -> float:
    """CPU time of a fixed integer loop that touches nothing of longforce.

    Of the kernels tried (this loop, a scalar spline evaluation, a mix of json,
    numpy and float math, and a mix of pure-Python library calls), its speed
    followed the workloads' speed most closely from run to run.
    """
    start = CLOCK()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    return CLOCK() - start


def _write_csv(path: Path, t, speed_mps, throttle, brake, slope) -> int:
    """Telemetry CSV in the walkthrough format: 100 Hz, speed in km/h."""
    n = len(t)
    cols = (np.asarray(t, dtype=float).tolist(),
            (np.asarray(speed_mps, dtype=float) * 3.6).tolist(),
            np.broadcast_to(throttle, n).astype(int).tolist(),
            np.broadcast_to(brake, n).astype(int).tolist(),
            np.broadcast_to(slope, n).astype(float).tolist())
    rows = ["%.2f,%.4f,%d,%d,%.6f\n" % row for row in zip(*cols)]
    path.write_text("t,speed,throttle,brake,slope\n" + "".join(rows), encoding="utf-8")
    return n


def _noisy(speed, rng) -> np.ndarray:
    return np.clip(speed + rng.normal(0.0, SPEED_NOISE_MPS, len(speed)), 0.0, None)


def _cut_below(traj, v_min: float) -> int:
    below = np.flatnonzero(traj.speed < v_min)
    return int(below[0]) if len(below) else len(traj)


def _write_reference_models(inputs: Path) -> None:
    with quiet():
        code = lf.cli.main(["reference", "--out-dir", str(inputs / "models")])
    if code != 0:
        raise RuntimeError(f"longforce reference exited with {code}")
    shutil.copy(data_dir() / "zoe_params.json", inputs / "zoe_params.json")


class StepHold:
    """Schedule holding (throttle, brake) per phase, over a sinusoidal slope.

    Once armed, it also notes ``CLOCK()`` the first time it is asked about each
    whole ``CHUNK_S`` of simulated time, so one ``simulate`` call can be timed
    in slices without touching the program.
    """

    def __init__(self, phases, slope_amp=0.0, slope_period=120.0, slope_phase=0.0):
        self.starts = [float(p[0]) for p in phases]
        self.commands = [(float(p[1]), float(p[2])) for p in phases]
        self.amp = float(slope_amp)
        self.omega = 2.0 * math.pi / float(slope_period)
        self.phase = float(slope_phase)
        self.stamps, self.marks, self.next_mark = [], [], math.inf

    def arm(self, duration: float) -> None:
        """Start noting slice boundaries for a call over ``duration`` seconds."""
        self.marks = [k * CHUNK_S for k in range(math.ceil(duration / CHUNK_S) - 1, 0, -1)]
        self.next_mark = self.marks.pop() if self.marks else math.inf
        self.stamps = [CLOCK()]

    def __call__(self, t: float) -> tuple[float, float, float]:
        if t >= self.next_mark:
            self.stamps.append(CLOCK())
            self.next_mark = self.marks.pop() if self.marks else math.inf
        i = max(bisect_right(self.starts, t) - 1, 0)
        throttle, brake = self.commands[i]
        return throttle, brake, self.amp * math.sin(self.omega * t + self.phase)


# --- input generation (untimed) ----------------------------------------------------

def generate(workload: str, seed: int, inputs: Path, size: str = "full") -> dict:
    """Write the workload's inputs under ``inputs``; same seed, same bytes."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    scale = 1.0 if size == "full" else 0.1
    if workload == "identify":
        info = _generate_identify(rng, inputs)
    elif workload == "simulate":
        info = _generate_simulate(rng, inputs, scale)
    else:
        info = _generate_control(rng, inputs, scale)
    info["inputs_sha256"] = digest_dir(inputs)
    return info


def validation_schedule(rng) -> StepHold:
    phases = []
    for k, (start, throttle, brake) in enumerate(VALIDATION_PHASES):
        start = start + (float(rng.uniform(-2.0, 2.0)) if k else 0.0)
        if throttle:
            throttle = int(np.clip(throttle + rng.integers(-15, 16), 10, 186))
        if brake:
            brake = int(np.clip(brake + rng.integers(-10, 11), 10, 120))
        phases.append((start, throttle, brake))
    return StepHold(phases, 0.02 * rng.uniform(0.8, 1.2), 120.0 * rng.uniform(0.8, 1.2),
                    rng.uniform(0.0, 2.0 * math.pi))


def _generate_identify(rng, inputs: Path) -> dict:
    telemetry = inputs / "telemetry"
    telemetry.mkdir(exist_ok=True)
    models = lf.reference_model_set()
    rows = 0

    traj = lf.simulate(lf.neutral_model_set(models), lambda t: (0, 0, 0.0), V_MAX, DT, COAST_S)
    n = _cut_below(traj, 0.02)
    rows += _write_csv(telemetry / "coast_down.csv", traj.t[:n],
                       _noisy(traj.speed[:n], rng), 0, 0, 0.0)
    for level, duration in THROTTLE_RUNS:
        traj = lf.simulate(models, lambda t, lv=level: (lv, 0, 0.0), 0.0, DT, duration)
        rows += _write_csv(telemetry / f"throttle_{level:03d}.csv", traj.t,
                           _noisy(traj.speed, rng), level, 0, 0.0)
    for level, duration in BRAKE_RUNS:
        traj = lf.simulate(models, lambda t, lv=level: (0, lv, 0.0), V_MAX, DT, duration)
        n = _cut_below(traj, 0.02)
        rows += _write_csv(telemetry / f"brake_{level:03d}.csv", traj.t[:n],
                           _noisy(traj.speed[:n], rng), 0, level, 0.0)
    schedule = validation_schedule(rng)
    traj = lf.simulate(models, schedule, 8.0, DT, VALIDATION_S)
    commands = np.array([schedule(t) for t in traj.t.tolist()])
    rows += _write_csv(telemetry / "validation_drive.csv", traj.t, _noisy(traj.speed, rng),
                       commands[:, 0], commands[:, 1], commands[:, 2])

    for name in ("zoe_params.json", "anchors_zoe.json"):
        shutil.copy(data_dir() / name, inputs / name)
    pipeline = json.loads((data_dir() / "pipeline_zoe.json").read_text(encoding="utf-8"))
    pipeline["estimator"] = dict(ESTIMATOR)
    (inputs / "pipeline.json").write_text(json.dumps(pipeline, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return {"rows_per_pass": rows, "csv_files": 12}


def simulate_scenarios(rng, scale: float) -> list[dict]:
    """The four simulate scenarios; levels and slopes vary with the seed."""
    scenarios = []
    # Command levels stay at least 2 away from the surfaces' defining levels
    # (throttle 0/50/100/150/186, brake 0/40/80/120/160), so every seed pays
    # for the same interpolated surface evaluations.
    # (a) mixed urban/highway drive over rolling hills
    phases, t = [], 0.0
    for throttle, brake, hold in ((135, 0, 10), (70, 0, 8), (0, 60, 4), (125, 0, 15),
                                  (75, 0, 15), (0, 0, 5), (170, 0, 12), (80, 0, 10),
                                  (0, 100, 5), (30, 0, 8), (115, 0, 10), (65, 0, 10)):
        jitter = int(rng.integers(-8, 9))
        phases.append((t, throttle + jitter if throttle else 0,
                       brake + jitter if brake else 0))
        t += hold * scale
    scenarios.append({"name": "mixed_drive", "neutral": False, "v0": 8.0, "duration": t,
                      "phases": phases, "slope_amp": 0.03 * rng.uniform(0.8, 1.2),
                      "slope_period": 90.0 * rng.uniform(0.8, 1.2),
                      "slope_phase": rng.uniform(0.0, 2.0 * math.pi)})
    # (b) stop-and-go: launch, brake to a standstill, hold, release and creep
    phases, t = [], 0.0
    for _ in range(2):
        throttle = int(rng.integers(60, 91))
        brake = int(rng.integers(90, 111))
        for cmd, hold in (((throttle, 0), 7.0), ((0, 0), 3.0), ((0, brake), 10.0),
                          ((0, 0), 5.0)):
            phases.append((t, *cmd))
            t += hold * scale
    scenarios.append({"name": "stop_and_go", "neutral": False, "v0": 0.0, "duration": t,
                      "phases": phases, "slope_amp": 0.0, "slope_period": 1.0,
                      "slope_phase": 0.0})
    # (c) neutral coast-down from 125 km/h
    scenarios.append({"name": "neutral_coast_down", "neutral": True, "v0": V_MAX,
                      "duration": 30.0 * scale, "phases": [(0.0, 0, 0)],
                      "slope_amp": 0.01 * rng.uniform(0.5, 1.0), "slope_period": 200.0,
                      "slope_phase": rng.uniform(0.0, 2.0 * math.pi)})
    # (d) full-throttle launch to the propulsion plateau
    scenarios.append({"name": "full_throttle_launch", "neutral": False, "v0": 0.0,
                      "duration": 20.0 * scale, "phases": [(0.0, 186, 0)],
                      "slope_amp": 0.0, "slope_period": 1.0, "slope_phase": 0.0})
    return scenarios


def _generate_simulate(rng, inputs: Path, scale: float) -> dict:
    _write_reference_models(inputs)
    scenarios = simulate_scenarios(rng, scale)
    (inputs / "scenarios.json").write_text(json.dumps(scenarios, indent=1) + "\n",
                                           encoding="utf-8")
    steps = sum(int(round(s["duration"] / DT)) for s in scenarios)
    return {"scenarios": len(scenarios), "steps_per_round": steps}


def reference_profile(rng, seconds: float) -> tuple[np.ndarray, np.ndarray]:
    """A 100 Hz reference speed profile and its slope: urban, highway, hills.

    A kinematic driver chases a sequence of target speeds, accelerating with a
    constant-power taper above 9 m/s, then holds each target for a while. The
    legs rotate through urban stop-and-go, highway and hills. The result is
    smoothed over 0.5 s so the desired acceleration (its derivative) is
    continuous.
    """
    n = int(round(seconds / DT))
    v, speed, slope = 0.0, [], []
    kind = 0
    while len(speed) < n + 25:  # the smoothing reads 25 samples past the last one kept
        kind = (kind + 1) % 3   # the same rotation for every seed keeps the mix steady
        if kind == 0:    # urban stop-and-go, with a crawl where the brake fights creep
            legs = [(rng.uniform(30, 50) / 3.6, rng.uniform(1.0, 2.5), 1.0,
                     rng.uniform(3, 8), 0.0),
                    (rng.uniform(4, 7) / 3.6, 1.0, rng.uniform(1.5, 2.5),
                     rng.uniform(3, 6), 0.0),
                    (0.0, 1.0, rng.uniform(0.5, 1.5), rng.uniform(2, 4), 0.0)]
        elif kind == 1:  # highway: launch, cruise, passing burst, slow-down
            cruise = rng.uniform(90, 125) / 3.6
            legs = [(cruise, rng.uniform(1.5, 3.0), 1.0, rng.uniform(4, 8), 0.0),
                    (cruise + 3.0, 1.5, 1.0, 1.0, 0.0),
                    (rng.uniform(50, 80) / 3.6, 1.0, rng.uniform(1.5, 2.5),
                     rng.uniform(2, 5), 0.0)]
        else:            # hills: climb, crest, descend
            grade = rng.uniform(0.03, 0.08)
            legs = [(rng.uniform(40, 70) / 3.6, rng.uniform(0.8, 2.0), 1.0,
                     rng.uniform(4, 8), grade),
                    (rng.uniform(30, 60) / 3.6, 1.0, rng.uniform(1.0, 1.5),
                     rng.uniform(4, 8), -grade)]
        for target, accel, decel, hold, grade in legs:  # (m/s, m/s^2, m/s^2, s, rad)
            while abs(target - v) > 1e-9:
                if target > v:
                    v = min(target, v + accel * min(1.0, 9.0 / max(v, 1e-3)) * DT)
                else:
                    v = max(target, v - decel * DT)
                speed.append(v)
                slope.append(grade)
            held = int(round(hold / DT))
            speed += [v] * held
            slope += [grade] * held
    kernel = np.ones(51) / 51
    speed = np.maximum(np.convolve(np.pad(speed, 25, mode="edge"), kernel, mode="valid"), 0.0)
    slope = np.convolve(np.pad(slope, 25, mode="edge"), kernel, mode="valid")
    return speed[:n], slope[:n]


def _generate_control(rng, inputs: Path, scale: float) -> dict:
    _write_reference_models(inputs)
    v, slope = reference_profile(rng, CONTROL_PROFILE_S * scale)
    a_des = np.gradient(v, DT)
    queries = np.column_stack([v, slope, a_des])[::round(1.0 / (DT * CONTROL_HZ))]
    np.save(inputs / "queries.npy", queries)
    return {"queries": len(queries)}


# --- set-up ------------------------------------------------------------------------

def load_models(inputs: Path):
    """The one-time loading a simulation or control user pays: three model files,
    the vehicle parameters and the ModelSet."""
    loaded = {}
    for kind in MODEL_KINDS:
        got, model, _ = lf.load_model(inputs / "models" / f"{kind}.json")
        if got != kind:
            raise RuntimeError(f"{kind}.json holds a {got} model")
        loaded[kind] = model
    params = lf.load_vehicle_params(inputs / "zoe_params.json")
    return lf.ModelSet(loaded["friction"], loaded["propulsion"], loaded["braking"], params)


# --- work units --------------------------------------------------------------------

def trimmed_mean(runs: np.ndarray) -> np.ndarray:
    """Mean over the units (axis 0), leaving out the lowest and highest tenth."""
    k = len(runs) // 10
    return np.sort(runs, axis=0)[k:len(runs) - k].mean(axis=0)


class Workload:
    """A workload's prepared inputs, its work unit and its output checks."""

    def __init__(self, inputs: Path, work: Path, models=None):
        self.inputs = inputs
        self.models = models
        self.attempted = 0
        self.failed = 0
        self.rows = 0           # ops_per_s numerator per unit
        self.units = []         # per unit, per slice: latencies (s) of its operations
        self.latency_scale = 1.0  # per slice: latency sample = op seconds * scale
        self.cal = []           # calibration kernel times (s)
        self.next_cal = -math.inf

    def unit(self, tracer=None) -> None:
        raise NotImplementedError

    def tick(self) -> None:
        """At a slice boundary: time the calibration kernel if it is due."""
        if CLOCK() >= self.next_cal:
            self.cal.append(calibration_kernel())
            self.next_cal = CLOCK() + CAL_EVERY_S

    def timing(self) -> dict:
        """ops_per_s and latency percentiles from trimmed means over the units.

        The rate is rows per unit over the sum of each slice's mean time. The
        latency samples are each operation's mean time over the units. Each
        mean leaves out the fastest and the slowest tenth of the units. Both
        are scaled to the reference host by ``host_scale``.
        """
        host_scale = CAL_REF_S / statistics.median(self.cal)
        total, samples = 0.0, []
        scales = np.broadcast_to(self.latency_scale, len(self.units[0]))
        for j, scale in enumerate(scales):
            runs = np.array([u[j] for u in self.units], dtype=float)  # units x operations
            total += float(trimmed_mean(runs.sum(axis=1)))
            samples.append(trimmed_mean(runs) * scale)
        lat_us = np.concatenate(samples) * 1e6 * host_scale
        return {"ops_per_s": self.rows / (total * host_scale),
                "op_p50_us": float(np.percentile(lat_us, 50)),
                "op_p99_us": float(np.percentile(lat_us, 99)),
                "latency_samples": len(lat_us), "mean_unit_cpu_s": total,
                "cpu_ops_per_s": self.rows / total, "host_scale": host_scale,
                "cal_samples": len(self.cal), "cal_median_s": statistics.median(self.cal)}

    def check(self) -> tuple[list[str], dict]:
        """(problems, quality figures); an empty problem list means correct."""
        raise NotImplementedError


class Identify(Workload):
    def __init__(self, inputs, work, models=None):
        super().__init__(inputs, work, models)
        tel = inputs / "telemetry"
        self.csvs = sorted(tel.glob("*.csv"))
        logs, out = work / "logs", work / "models"
        logs.mkdir(parents=True, exist_ok=True)
        out.mkdir(parents=True, exist_ok=True)
        self.report = work / "report.json"
        cfg = str(inputs / "pipeline.json")
        self.log_of = {p.stem: str(logs / f"{p.stem}.json") for p in self.csvs}
        self.model_of = {k: str(out / f"{k}.json") for k in MODEL_KINDS}
        self.rows = sum(_csv_rows(p) for p in self.csvs)
        stages = []
        for p in self.csvs:
            gear = "neutral" if p.stem == "coast_down" else "drive"
            stages.append(["ingest", str(p), "--units", "speed_kmh", "--gear", gear,
                           "--out", self.log_of[p.stem]])
        throttle = [self.log_of[p.stem] for p in self.csvs if p.stem.startswith("throttle_")]
        brake = [self.log_of[p.stem] for p in self.csvs if p.stem.startswith("brake_")]
        m = self.model_of
        stages += [
            ["fit-friction", self.log_of["coast_down"], "--config", cfg, "--out", m["friction"]],
            ["fit-propulsion", *throttle, "--friction", m["friction"], "--config", cfg,
             "--out", m["propulsion"]],
            ["fit-brake", *brake, "--friction", m["friction"], "--propulsion",
             m["propulsion"], "--config", cfg, "--out", m["braking"]],
            ["validate", "--friction", m["friction"], "--propulsion", m["propulsion"],
             "--braking", m["braking"], "--params", str(inputs / "zoe_params.json"),
             "--log", self.log_of["validation_drive"],
             "--window", str(ESTIMATOR["window"]), "--cutoff", str(ESTIMATOR["cutoff_hz"]),
             "--out", str(self.report)],
        ]
        self.stages = stages
        self.exit_codes = []

    def unit(self, tracer=None) -> None:
        codes, times = [], []
        with quiet():
            for argv in self.stages:
                self.tick()
                self.attempted += 1
                span = contextlib.nullcontext()
                if tracer:
                    tracer.op += 1
                    span = tracer.span("cli." + argv[0].replace("-", "_"))
                start = CLOCK()
                try:
                    with span:
                        code = lf.cli.main(argv)
                except Exception:  # a crash is a failed operation, counted not fatal
                    code = -1
                times.append((CLOCK() - start,))
                codes.append(code)
                if code != 0:
                    self.failed += 1
        self.units.append(times)
        self.exit_codes = codes

    def check(self):
        problems = []
        bad = [f"{argv[0]} exited {c}" for argv, c in zip(self.stages, self.exit_codes) if c]
        if bad:
            return bad, {}
        truth = lf.reference_model_set()
        fitted = {}
        for kind in MODEL_KINDS:
            _, fitted[kind], _ = lf.load_model(self.model_of[kind])
        pipeline = json.loads((self.inputs / "pipeline.json").read_text(encoding="utf-8"))
        ratio = fit_err_ratio(self.csvs, fitted, truth, pipeline["bins"])
        if not ratio <= 1.0:
            problems.append(f"fit_err_ratio {ratio:.3f} > 1")
        rejected = 0
        for p in self.csvs:
            rejected += _csv_rows(p) - len(lf.cli.load_drive_log(self.log_of[p.stem]))
        if rejected:
            problems.append(f"{rejected} telemetry rows rejected at ingest")
        report = json.loads(self.report.read_text(encoding="utf-8"))
        drive = read_csv_log(self.inputs / "telemetry" / "validation_drive.csv")
        valid = int(lf.estimate_acceleration(drive, ESTIMATOR["window"],
                                             ESTIMATOR["cutoff_hz"]).valid.sum())
        if report["count"] != valid:
            problems.append(f"validate compared {report['count']} samples, "
                            f"the estimator has {valid} valid")
        std = float(report["std_dev_mps2"])
        if not math.isfinite(std):
            problems.append("validate std_dev is not finite")
        quality = {"fit_err_ratio": {"value": ratio, "unit": "ratio"},
                   "validate_std_mps2": {"value": std, "unit": "m/s2"},
                   "validate_count": {"value": report["count"], "unit": "count"},
                   "ingest_rejected": {"value": rejected, "unit": "count"}}
        return problems, quality


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def read_csv_log(path: Path):
    """A walkthrough CSV as a DriveLog in SI units, parsed by the benchmark itself."""
    cols = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return lf.DriveLog(cols[:, 0], cols[:, 1] / 3.6, cols[:, 2].astype(np.int64),
                       cols[:, 3].astype(np.int64), cols[:, 4])


def binned_centers(speeds: np.ndarray, edges: np.ndarray):
    """(median speed, count) per non-empty bin; the top edge is inclusive."""
    idx = np.digitize(speeds, edges)
    idx[speeds == edges[-1]] = len(edges) - 1
    out = []
    for b in range(1, len(edges)):
        members = speeds[idx == b]
        if len(members):
            out.append((float(np.median(members)), len(members)))
    return out


def fit_err_ratio(csvs, fitted: dict, truth, bins: dict) -> float:
    """Worst |fitted - truth| / max(5 %, 50 N) over every bin with >= 20 samples
    of the run that identifies the curve, between 0.1 and 36 m/s (criterion 2)."""
    edges = np.geomspace(float(bins["lo_mps"]), float(bins["hi_mps"]), int(bins["count"]) + 1)
    worst = 0.0
    compared = 0
    for path in csvs:
        stem = path.stem
        if stem == "coast_down":
            got, want = fitted["friction"].eval, truth.friction.eval
        elif stem.startswith(("throttle_", "brake_")):
            kind = "propulsion" if stem.startswith("throttle_") else "braking"
            level = int(stem.split("_")[1])
            surface, ref = fitted[kind], getattr(truth, kind)
            got = lambda v, s=surface, lv=level: s.eval(v, lv)
            want = lambda v, s=ref, lv=level: s.eval(v, lv)
        else:
            continue
        speeds = read_csv_log(path).speed
        for center, count in binned_centers(speeds, edges):
            if count < FIT_MIN_BIN_COUNT or not 0.1 <= center <= 36.0:
                continue
            g, w = got(center), want(center)
            worst = max(worst, abs(g - w) / max(0.05 * abs(w), 50.0))
            compared += 1
    return worst if compared else math.inf


class Simulate(Workload):
    def __init__(self, inputs, work, models=None):
        super().__init__(inputs, work, models)
        specs = json.loads((inputs / "scenarios.json").read_text(encoding="utf-8"))
        neutral = lf.neutral_model_set(models)
        self.scenarios = [(s["name"], neutral if s["neutral"] else models,
                           StepHold(s["phases"], s["slope_amp"], s["slope_period"],
                                    s["slope_phase"]), float(s["v0"]), float(s["duration"]))
                          for s in specs]
        steps = [int(round(s[4] / DT)) for s in self.scenarios]
        self.rows = sum(steps)
        # each scenario splits into CHUNK_S slices, the last one possibly shorter
        per_chunk = int(round(CHUNK_S / DT))
        self.chunk_steps = [[per_chunk] * (math.ceil(n / per_chunk) - 1)
                            + [n - per_chunk * (math.ceil(n / per_chunk) - 1)] for n in steps]
        self.latency_scale = 1.0 / np.concatenate(self.chunk_steps)  # seconds per RK4 step
        self.last = {}

    def unit(self, tracer=None) -> None:
        times = []
        for (name, models, schedule, v0, duration), chunks in zip(self.scenarios,
                                                                self.chunk_steps):
            self.tick()
            self.attempted += 1
            if tracer:
                tracer.op += 1
            schedule.arm(duration)
            try:
                traj = lf.simulate(models, schedule, v0, DT, duration)
            except Exception:  # a crash is a failed operation, counted not fatal
                self.failed += 1
                traj = None
            schedule.stamps.append(CLOCK())
            slices = np.diff(schedule.stamps)
            if len(slices) != len(chunks):   # only after a crash: spread it evenly
                slices = np.full(len(chunks), (schedule.stamps[-1] - schedule.stamps[0])
                                 / len(chunks))
            times += [(x,) for x in slices.tolist()]
            self.last[name] = traj
        self.units.append(times)

    def check(self):
        problems = []
        for name, traj in self.last.items():
            if traj is None:
                problems.append(f"{name}: simulate raised")
                continue
            speed = np.asarray(traj.speed)
            if not (np.all(np.isfinite(speed)) and speed.min() >= 0.0):
                problems.append(f"{name}: speeds not finite and >= 0")
        name, models, schedule, v0, duration = self.scenarios[0]
        if self.last.get(name) is None:
            return problems, {}
        fine = lf.simulate(models, schedule, v0, DT / 2, duration)
        coarse = np.asarray(self.last[name].speed)
        err = float(np.max(np.abs(coarse - np.asarray(fine.speed)[::2][:len(coarse)])))
        if not err <= SIM_TOL_MPS:
            problems.append(f"sim_err_mps {err:.3g} > {SIM_TOL_MPS}")
        quality = {"sim_err_mps": {"value": err, "unit": "m/s"},
                   "sim_tol_mps": {"value": SIM_TOL_MPS, "unit": "m/s"}}
        return problems, quality


class Control(Workload):
    def __init__(self, inputs, work, models=None):
        super().__init__(inputs, work, models)
        queries = np.load(inputs / "queries.npy")
        self.queries = [tuple(q) for q in queries.tolist()]
        self.rows = len(self.queries)
        self.commands = [None] * len(self.queries)

    def unit(self, tracer=None) -> None:
        models, commands = self.models, self.commands
        lat = np.empty(len(self.queries))
        clock = CLOCK
        inverse = lf.inverse_actuation
        for i, (v, slope, a_des) in enumerate(self.queries):
            if i % CONTROL_SLICE == 0:
                self.tick()
            if tracer:
                tracer.op += 1
            start = clock()
            try:
                commands[i] = inverse(models, v, slope, a_des)
            except Exception:  # a crash is a failed operation, counted not fatal
                commands[i] = None
                self.failed += 1
            lat[i] = clock() - start
        self.attempted += len(self.queries)
        self.units.append([lat[i:i + CONTROL_SLICE]
                           for i in range(0, len(lat), CONTROL_SLICE)])

    def check(self):
        worst, problems, counts = inverse_identity(self.models, self.queries, self.commands)
        if counts["raised"]:
            problems.insert(0, f"{counts['raised']} queries raised")
        quality = {"inverse_err_mps2": {"value": worst, "unit": "m/s2"},
                   **{f"queries_{k}": {"value": n, "unit": "count"} for k, n in counts.items()}}
        return problems, quality


def inverse_identity(models, queries, commands):
    """Worst |a(direct(inverse(a_des))) - a_des| over the unflagged queries."""
    worst = 0.0
    bad = 0
    counts = {"checked": 0, "saturated": 0, "underflow": 0, "brake_branch": 0, "raised": 0}
    for (v, slope, a_des), cmd in zip(queries, commands):
        if cmd is None:
            counts["raised"] += 1
            continue
        if cmd.throttle == 0.0:
            counts["brake_branch"] += 1
        if cmd.saturated or cmd.underflow:
            counts["saturated" if cmd.saturated else "underflow"] += 1
            continue
        a, _ = lf.direct_acceleration(models, v, cmd.throttle, cmd.brake, slope)
        err = abs(a - a_des)
        worst = max(worst, err)
        bad += not err <= INVERSE_TOL_MPS2
        counts["checked"] += 1
    problems = [f"{bad} unflagged queries miss a_des by more than {INVERSE_TOL_MPS2} m/s2 "
                f"(worst {worst:.3g})"] if bad else []
    return worst, problems, counts


CLASSES = {"identify": Identify, "simulate": Simulate, "control": Control}
