"""Domain types, vehicle parameter handling, drive-log files and CSV ingest.

Everything downstream works in strict SI units: m/s for speed, N for force,
kg for mass, rad for slope angles, s for time. Logs recorded in km/h are
converted exactly once, at ingestion. Throttle and brake are dimensionless
integer signals; a force surface clamps a command outside its defining
levels to its end levels.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import FitError, InvalidParameterError, SchemaError

KMH_PER_MPS = 3.6

#: Gap (s) above which a log is treated as separate segments.
MAX_SAMPLE_GAP_S = 0.5


def kmh_to_mps(v_kmh: float) -> float:
    return v_kmh / KMH_PER_MPS


class Gear(Enum):
    NEUTRAL = "neutral"
    DRIVE = "drive"


@dataclass(frozen=True)
class Wheel:
    """One wheel's rotating-body properties."""

    inertia_kgm2: float
    radius_m: float

    def __post_init__(self):
        if not 0 < self.radius_m < math.inf:
            raise InvalidParameterError(
                f"wheel radius must be finite and > 0, got {self.radius_m}")
        if not 0 <= self.inertia_kgm2 < math.inf:
            raise InvalidParameterError(
                f"wheel inertia must be finite and >= 0, got {self.inertia_kgm2}")


@dataclass(frozen=True)
class VehicleParams:
    """Masses, gravity and wheel inertias.

    ``base_mass_kg`` is the curb mass; ``payload_mass_kg`` covers equipment
    and occupants during the recorded tests. The wheel list feeds the
    equivalent mass: each wheel in pure rolling adds J/R^2 on top of the
    translational mass (base plus payload), so the kinetic energy of the
    rotating bodies is accounted for; an empty list means rotating bodies are
    neglected. Parameters whose weight or equivalent mass is not a finite
    float, such as masses near 1e308 or a wheel radius whose square leaves
    the float range, raise :class:`~longforce.errors.InvalidParameterError`.
    """

    base_mass_kg: float
    payload_mass_kg: float = 0.0
    gravity_mps2: float = 9.81
    wheels: tuple[Wheel, ...] = ()
    #: The weight m*g in N, computed once for :func:`grade_force` and
    #: :func:`grade_force_many`.
    weight_n: float = field(init=False, repr=False, compare=False)
    #: The equivalent mass in kg, computed once for the force balance.
    m_eq_kg: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.base_mass_kg < math.inf:
            raise InvalidParameterError(
                f"base mass must be finite and > 0, got {self.base_mass_kg}")
        if not 0 <= self.payload_mass_kg < math.inf:
            raise InvalidParameterError(
                f"payload mass must be finite and >= 0, got {self.payload_mass_kg}")
        if not 0 < self.gravity_mps2 < math.inf:
            raise InvalidParameterError(
                f"gravity must be finite and > 0, got {self.gravity_mps2}")
        object.__setattr__(self, "wheels", tuple(self.wheels))
        m_eq = mass = self.base_mass_kg + self.payload_mass_kg
        try:
            for wheel in self.wheels:
                m_eq += wheel.inertia_kgm2 / wheel.radius_m**2
        except (OverflowError, ZeroDivisionError):  # radius_m**2 overflows, or rounds to 0
            raise InvalidParameterError(
                "equivalent mass is not finite: the square of a wheel radius in "
                f"{[w.radius_m for w in self.wheels]} m is out of the float range") from None
        weight = mass * self.gravity_mps2
        for name, value, unit in (("weight", weight, "N"), ("equivalent mass", m_eq, "kg")):
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value} {unit}")
        object.__setattr__(self, "weight_n", weight)
        object.__setattr__(self, "m_eq_kg", m_eq)


@dataclass(frozen=True)
class DriveLog:
    """Time-ordered telemetry, stored column-wise as read-only arrays.

    The sample rate is nominally 100 Hz; gaps larger than
    ``MAX_SAMPLE_GAP_S`` split the log into segments during processing
    (see :meth:`segments`). Only forward motion is modeled, so speeds are
    non-negative, as are throttle and brake. Time, speed and slope must be
    finite: a single NaN would spread through the acceleration filter into
    every fitted force.
    """

    t: np.ndarray
    speed: np.ndarray
    throttle: np.ndarray
    brake: np.ndarray
    slope: np.ndarray
    gear: Gear = Gear.DRIVE
    description: str = ""

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        speed = np.asarray(self.speed, dtype=float)
        throttle = np.asarray(self.throttle, dtype=np.int64)
        brake = np.asarray(self.brake, dtype=np.int64)
        slope = np.asarray(self.slope, dtype=float)
        n = len(t)
        for name, col in (("speed", speed), ("throttle", throttle),
                          ("brake", brake), ("slope", slope)):
            if len(col) != n:
                raise SchemaError(f"column '{name}' has {len(col)} rows, expected {n}")
        for name, col in (("t", t), ("speed", speed), ("slope", slope)):
            finite = np.isfinite(col)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise SchemaError(f"column '{name}' is non-finite at row {bad}: {col[bad]}")
        # A comparison, not np.diff: the difference of two finite stamps can
        # overflow to inf.
        increasing = t[1:] > t[:-1]
        if not increasing.all():
            bad = int(np.argmin(increasing)) + 1
            raise SchemaError(f"time must be strictly increasing; violated at row {bad}")
        for name, col in (("speed", speed), ("throttle", throttle), ("brake", brake)):
            if n and col.min() < 0:
                bad = int(np.argmax(col < 0))
                raise SchemaError(f"{name} must be >= 0; violated at row {bad}")
        for col in (t, speed, throttle, brake, slope):
            col.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "throttle", throttle)
        object.__setattr__(self, "brake", brake)
        object.__setattr__(self, "slope", slope)

    def __len__(self) -> int:
        return len(self.t)

    def segments(self) -> list[slice]:
        """Index ranges of contiguous recording, split at gaps > ``MAX_SAMPLE_GAP_S``."""
        n = len(self)
        if n == 0:
            return []
        with np.errstate(over="ignore"):  # an inf gap is a gap
            gaps = np.diff(self.t)
        breaks = np.flatnonzero(gaps > MAX_SAMPLE_GAP_S) + 1
        starts = [0, *breaks.tolist()]
        ends = [*breaks.tolist(), n]
        return [slice(a, b) for a, b in zip(starts, ends)]

    def slice(self, sl: slice) -> "DriveLog":
        """A new log holding the given sample range."""
        return DriveLog(self.t[sl], self.speed[sl], self.throttle[sl],
                        self.brake[sl], self.slope[sl], self.gear, self.description)


def read_json(path: str | Path) -> dict:
    """The JSON object stored in the file at ``path``.

    Raises :class:`SchemaError` naming the path when the file is not valid
    UTF-8 JSON or holds any top-level value other than an object; a missing
    or unreadable file raises ``OSError``.
    """
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


@contextmanager
def file_values(path: str | Path, what: str):
    """Turn the error a value read from the file at ``path`` raises into
    ``SchemaError("<path>: <what>: <reason>")``; every file loader checks its values here."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, FitError, SchemaError) as exc:
        raise SchemaError(f"{path}: {what}: {exc}") from exc


def json_object(obj: dict, key: str) -> dict:
    """The JSON object ``obj[key]``, or ``{}`` when ``key`` is absent.

    Raises ``TypeError`` naming the key when the value is anything else; the
    file readers turn it into a :class:`SchemaError` naming the file.
    """
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise TypeError(f"{key!r} must be a JSON object, got {type(value).__name__}")
    return value


def json_numbers(obj: dict, key: str, default=None):
    """``obj[key]`` (or ``default`` when given and ``key`` is absent), which
    must be a JSON number or a list of JSON numbers.

    Raises ``TypeError`` naming the key for anything else, booleans and
    numeric strings included: ``float()`` would read ``true`` as 1.0 and
    ``"0.29"`` as 0.29.
    """
    value = obj[key] if default is None else obj.get(key, default)
    _number_types(key, value)
    return value


def json_integers(obj: dict, key: str, default=None):
    """:func:`json_numbers`, each of which must be a whole number.

    Raises ``ValueError`` naming the key, and the row in a list, for a
    number with a fraction, which ``int()`` and an int64 cast would drop
    silently.
    """
    value = obj[key] if default is None else obj.get(key, default)
    if float in _number_types(key, value):
        for row, number in enumerate(value if isinstance(value, list) else [value]):
            if isinstance(number, float) and not number.is_integer():
                where = f" at row {row}" if isinstance(value, list) else ""
                raise ValueError(f"{key!r} must hold whole numbers, got {number}{where}")
    return value


def _number_types(key: str, value) -> set[type]:
    types = set(map(type, value)) if isinstance(value, list) else {type(value)}
    if not types <= {int, float}:
        odd = min(t.__name__ for t in types - {int, float})
        raise TypeError(f"{key!r} must hold JSON numbers, got {odd}")
    return types


# --- drive log files ----------------------------------------------------------

DRIVELOG_FORMAT = "longforce-drivelog-v1"
#: Rows that CSV ingest and the drive-log writer hold as Python objects at a time.
_BLOCK_ROWS = 4096


def save_drive_log(path: str | Path, log: DriveLog, extra_meta: dict | None = None) -> None:
    """Write ``log`` as a ``longforce-drivelog-v1`` JSON file.

    The bytes are exactly ``json.dumps(obj, indent=2, sort_keys=True) + "\n"``
    of the object with keys ``brake``, ``format``, ``metadata``,
    ``slope_rad``, ``speed_mps``, ``t_s`` and ``throttle``, so the format
    does not depend on how it is written. The file is written member by
    member in that key order, and each data column ``_BLOCK_ROWS`` values at
    a time, so that only one block is held as text. The data columns are
    joined from ``repr`` of each value, which is JSON's spelling of an int
    and of a finite float; this needs every float to be finite, and
    :class:`DriveLog` refuses non-finite time, speed and slope. Only the
    metadata goes through ``json.dumps``.
    """
    meta = {"gear": log.gear.value, "description": log.description, **(extra_meta or {})}
    # The metadata is spelled before the file is opened, so that a value
    # json.dumps refuses leaves no partial file.
    members = {"brake": log.brake, "format": json.dumps(DRIVELOG_FORMAT),
               "metadata": json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  "),
               "slope_rad": log.slope, "speed_mps": log.speed, "t_s": log.t,
               "throttle": log.throttle}
    with open(path, "w", encoding="utf-8") as fh:
        separator = "{\n  "
        for name, value in sorted(members.items()):
            fh.write(f'{separator}"{name}": ')
            if isinstance(value, str):
                fh.write(value)
            else:
                _write_json_array(fh, value)
            separator = ",\n  "
        fh.write("\n}\n")


def _write_json_array(fh, column: np.ndarray) -> None:
    """Write ``column`` as ``json.dumps`` spells a list nested one level deep, indent 2."""
    if not len(column):
        fh.write("[]")
        return
    separator = "[\n    "
    for lo in range(0, len(column), _BLOCK_ROWS):
        fh.write(separator + ",\n    ".join(map(repr, column[lo:lo + _BLOCK_ROWS].tolist())))
        separator = ",\n    "
    fh.write("\n  ]")


def load_drive_log(path: str | Path) -> DriveLog:
    """The drive log stored at ``path`` by :func:`save_drive_log`.

    The file must be a JSON object whose ``format`` is ``longforce-drivelog-v1``.
    Any other file, and any bad value in one, raises :class:`SchemaError`
    naming the path; a non-finite time, speed or slope is named by its column
    and row. A missing or unreadable file raises ``OSError``.
    """
    obj = read_json(path)
    if obj.get("format") != DRIVELOG_FORMAT:
        raise SchemaError(f"{path}: not a {DRIVELOG_FORMAT} file")
    with file_values(path, "malformed drive log"):
        meta = json_object(obj, "metadata")
        return DriveLog(
            t=np.array(json_numbers(obj, "t_s"), dtype=float),
            speed=np.array(json_numbers(obj, "speed_mps"), dtype=float),
            throttle=np.array(json_integers(obj, "throttle"), dtype=np.int64),
            brake=np.array(json_integers(obj, "brake"), dtype=np.int64),
            slope=np.array(json_numbers(obj, "slope_rad"), dtype=float),
            gear=Gear(meta.get("gear", "drive")),
            description=meta.get("description", ""),
        )


# --- CSV ingestion ------------------------------------------------------------

INGEST_COLUMNS = ("t", "speed", "throttle", "brake", "slope")
UNIT_SPECS = ("speed_kmh", "speed_mps")
_REJECT_REASONS = ("", "unparseable number", "non-finite value", "negative speed",
                   "non-integer command signal", "command signal out of range",
                   "negative command signal")
_INT64_SPAN = 2.0**63
#: Bytes on which ``csv.reader`` and ``np.loadtxt`` can read a data line
#: differently: a quote (``csv.reader`` joins a quoted cell across delimiters
#: and lines), NUL (``csv.reader`` refuses it before Python 3.11) and the
#: separators 0x1c-0x1f, which ``loadtxt`` strips around a number and
#: ``float()`` does not.
_LOADTXT_UNSAFE = b'"\x00\x1c\x1d\x1e\x1f'


def ingest_csv(csv_path: str | Path, units: str, gear: Gear = Gear.DRIVE,
               description: str = "") -> tuple[DriveLog, dict]:
    """Parse a telemetry CSV into a normalized SI DriveLog.

    Rows with unparseable or non-finite values, negative speeds, or command
    signals that are not non-negative integers in the int64 range are
    rejected (counted, not fatal); non-monotone time stamps are a hard error
    naming the offending row. Rows are numbered among the CSV data rows, rejected ones
    included; blank lines are skipped and not numbered, fields past
    the header are ignored, and a header name given twice names its last
    column.

    The data rows of a file that holds no quote, NUL or 0x1c-0x1f byte and
    no line of more bytes than ``csv.field_size_limit()`` are parsed in one
    ``np.loadtxt`` call, whose values are ``float()``'s bit for bit. Where
    ``loadtxt`` refuses a line (a cell ``float()`` refuses, a short or
    whitespace-only row, a cell only ``float()`` takes such as ``1_0``,
    invalid UTF-8), or the file fails that scan, the rows are read again
    from the top and parsed ``_BLOCK_ROWS`` (4096) at a time, so only one
    block is held as Python strings. Such a file also pays for the
    ``loadtxt`` pass up to the refused line. Both paths give the same log,
    report and errors; a cell longer than ``csv.field_size_limit()`` raises
    :class:`~longforce.errors.SchemaError` naming the file and line.
    """
    if units not in UNIT_SPECS:
        raise SchemaError(f"unknown unit spec {units!r}; expected one of {UNIT_SPECS}")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [c for c in INGEST_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"{csv_path}: missing column(s) {', '.join(missing)}")
            last = {name: i for i, name in enumerate(header)}
            indices = [last[c] for c in INGEST_COLUMNS]
            parsed = _loadtxt_columns(csv_path, fh, indices)
            if parsed is None:
                fh.seek(0)
                reader = csv.reader(fh)  # counts lines from the top again
                next(reader)
                parsed = _parse_records(filter(None, reader), indices)
        except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
            raise SchemaError(f"{csv_path}: line {reader.line_num}: {exc}") from None
    values, unparseable = parsed
    t, speed, throttle, brake, slope = values
    non_finite = ~np.isfinite(values).all(axis=0)
    if units == "speed_kmh":
        speed = kmh_to_mps(speed)
    signals = values[2:4]
    fractional = (signals != np.trunc(signals)).any(axis=0)
    out_of_range = ((signals < -_INT64_SPAN) | (signals >= _INT64_SPAN)).any(axis=0)
    # The first reason that applies, in this order, is the one reported.
    negative = (signals < 0).any(axis=0)
    reasons = np.select([unparseable, non_finite, speed < 0, fractional, out_of_range, negative],
                        [1, 2, 3, 4, 5, 6], 0)
    rejected_at = np.flatnonzero(reasons)
    keep = reasons == 0
    t = t[keep]
    late = np.flatnonzero(t[1:] <= t[:-1])
    if len(late):
        k = int(late[0]) + 1
        raise SchemaError(
            f"{csv_path}: time not strictly increasing at data row "
            f"{int(np.flatnonzero(keep)[k]) + 1} (t={float(t[k])} after t={float(t[k - 1])})")
    log = DriveLog(
        t=t,
        speed=speed[keep],
        throttle=throttle[keep].astype(np.int64),
        brake=brake[keep].astype(np.int64),
        slope=slope[keep],
        gear=gear,
        description=description,
    )
    report = {
        "rows": len(log),
        "rejected": len(rejected_at),
        "rejected_rows": [(int(k) + 1, _REJECT_REASONS[reasons[k]])
                          for k in rejected_at[:20]],
        "segments": len(log.segments()),
    }
    return log, report


def _loadtxt_columns(csv_path: str | Path, fh, indices: list[int]):
    """The ``indices`` columns of the rest of ``fh`` as :func:`_parse_records`
    returns them, parsed by ``np.loadtxt``; None where the two could differ.

    A line of no more bytes than ``csv.field_size_limit()`` holds no cell
    that ``csv.reader`` refuses. Chunks are read no longer than the limit,
    so only the lines that cross chunks need measuring.
    """
    limit = csv.field_size_limit()
    with open(csv_path, "rb") as raw:
        line = 0  # bytes read since the last newline
        while chunk := raw.read(max(1, min(1 << 16, limit))):
            if any(byte in chunk for byte in _LOADTXT_UNSAFE):
                return None
            chunk = chunk.replace(b"\r", b"\n")  # csv.reader ends a line at either
            end = chunk.find(b"\n")
            if line + (len(chunk) if end < 0 else end) > limit:
                return None
            line = line + len(chunk) if end < 0 else len(chunk) - 1 - chunk.rfind(b"\n")
    try:
        with warnings.catch_warnings():
            # A file without data rows gives an empty log, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", comments=None, usecols=indices, dtype=float,
                              ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    return rows.T, np.zeros(len(rows), dtype=bool)


def _parse_records(records, indices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_parse_block` over ``records``, ``_BLOCK_ROWS`` at a time, the blocks joined."""
    blocks = [_parse_block([], indices)]
    while block := list(islice(records, _BLOCK_ROWS)):
        blocks.append(_parse_block(block, indices))
    return (np.concatenate([columns for columns, _ in blocks], axis=1),
            np.concatenate([bad for _, bad in blocks]))


def _parse_block(records: list[list[str]], indices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The ``indices`` columns of ``records`` as a float array of one row per
    column, and a mask of the records holding a cell ``float()`` refuses."""
    # Pad short rows so that a missing field parses as None, which float()
    # refuses like any other unparseable value.
    width = max(indices) + 1
    for k in np.flatnonzero(np.fromiter(map(len, records), np.intp, len(records)) < width):
        records[k] = records[k] + [None] * (width - len(records[k]))
    parsed = [_parse_floats(list(map(itemgetter(i), records))) for i in indices]
    return (np.array([values for values, _ in parsed]),
            np.logical_or.reduce([bad for _, bad in parsed]))


def _parse_floats(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """``float()`` of every cell, and a mask of the cells it refuses (read as NaN)."""
    try:
        return np.array(list(map(float, cells))), np.zeros(len(cells), dtype=bool)
    except (TypeError, ValueError):
        values = np.full(len(cells), np.nan)
        bad = np.zeros(len(cells), dtype=bool)
        for k, cell in enumerate(cells):
            try:
                values[k] = float(cell)
            except (TypeError, ValueError):
                bad[k] = True
        return values, bad


def load_vehicle_params(path: str | Path) -> VehicleParams:
    """Load vehicle parameters from a JSON file.

    Keys it does not read are ignored, among them the ``throttle_range`` and
    ``brake_range`` that earlier versions wrote.
    """
    obj = read_json(path)
    with file_values(path, "invalid vehicle parameter config"):
        wheels = obj.get("wheels", [])
        if not isinstance(wheels, list):
            raise TypeError(f"'wheels' must be a JSON list, got {type(wheels).__name__}")
        wheels = tuple(Wheel(float(json_numbers(w, "inertia_kgm2")),
                             float(json_numbers(w, "radius_m"))) for w in wheels)
        return VehicleParams(
            base_mass_kg=float(json_numbers(obj, "base_mass_kg")),
            payload_mass_kg=float(json_numbers(obj, "payload_mass_kg", 0.0)),
            gravity_mps2=float(json_numbers(obj, "gravity_mps2", 9.81)),
            wheels=wheels,
        )


def grade_force(params: VehicleParams, slope_rad: float) -> float:
    """Ground-tangent weight component m*g*sin(slope), in N, at one slope.

    The direct and inverse models call it once per operating point; arrays
    go through :func:`grade_force_many`.
    """
    return params.weight_n * math.sin(slope_rad)


def grade_force_many(params: VehicleParams, slope_rad: np.ndarray) -> np.ndarray:
    """Array form of :func:`grade_force`, one value per element of ``slope_rad``.

    It takes ``math.sin`` per element, because ``np.sin`` may use a SIMD
    routine that differs from the C library in the last bit on some CPUs;
    each element then equals the scalar result bit for bit.
    """
    sin = np.fromiter(map(math.sin, slope_rad.ravel().tolist()), dtype=float,
                      count=slope_rad.size).reshape(slope_rad.shape)
    return params.weight_n * sin
