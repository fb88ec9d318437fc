"""Drive-log I/O and the acceleration estimator against their loop oracles.

``save_drive_log``, ``ingest_csv``, ``_lowpass_zero_phase`` and
``_window_slopes`` work column-wise. Each must equal the straightforward
per-element implementation kept here as an oracle: the same file bytes, the
same arrays bit for bit (so 0.0 and -0.0 differ), the same report and the
same error text. ``ingest_csv`` is held to its oracle on both of its
paths, ``np.loadtxt`` and the block parser. ``_window_slopes`` must also
match scipy's Savitzky-Golay first derivative on uniform grids, to a
tolerance.
"""

import csv
import json
import math
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from longforce import core  # noqa: E402
from longforce.cli import main  # noqa: E402
from longforce.core import (UNIT_SPECS, DriveLog, Gear, ingest_csv,  # noqa: E402
                            kmh_to_mps, load_drive_log, save_drive_log)
from longforce.errors import SchemaError  # noqa: E402
from longforce.estimation import (_SLOPE_BLOCK_ROWS, _lowpass_zero_phase,  # noqa: E402
                                  _window_slopes)

IO = settings(max_examples=150, deadline=None)
#: Block sizes to run the block-wise kernels with: tiny ones put block
#: boundaries everywhere, the default keeps its own path covered.
BLOCKS = st.sampled_from([1, 2, 3, core._BLOCK_ROWS])


# --- oracles ------------------------------------------------------------------

def save_drive_log_oracle(path, log, extra_meta=None):
    obj = {
        "format": "longforce-drivelog-v1",
        "metadata": {"gear": log.gear.value, "description": log.description,
                     **(extra_meta or {})},
        "t_s": log.t.tolist(),
        "speed_mps": log.speed.tolist(),
        "throttle": log.throttle.tolist(),
        "brake": log.brake.tolist(),
        "slope_rad": log.slope.tolist(),
    }
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def ingest_csv_oracle(csv_path, units, gear=Gear.DRIVE, description=""):
    """The row-by-row ``csv.DictReader`` loop, plus the int64 range and
    negative command rules."""
    rows, row_numbers, rejected = [], [], []
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("t", "speed", "throttle", "brake", "slope") if c not in header]
        if missing:
            raise SchemaError(f"{csv_path}: missing column(s) {', '.join(missing)}")
        for i, row in enumerate(reader, start=1):
            try:
                t = float(row["t"])
                speed = float(row["speed"])
                throttle = float(row["throttle"])
                brake = float(row["brake"])
                slope = float(row["slope"])
            except (TypeError, ValueError):
                rejected.append((i, "unparseable number"))
                continue
            if not all(math.isfinite(x) for x in (t, speed, throttle, brake, slope)):
                rejected.append((i, "non-finite value"))
                continue
            if units == "speed_kmh":
                speed = kmh_to_mps(speed)
            if speed < 0:
                rejected.append((i, "negative speed"))
                continue
            if throttle != int(throttle) or brake != int(brake):
                rejected.append((i, "non-integer command signal"))
                continue
            if not all(-2**63 <= int(x) < 2**63 for x in (throttle, brake)):
                rejected.append((i, "command signal out of range"))
                continue
            if throttle < 0 or brake < 0:
                rejected.append((i, "negative command signal"))
                continue
            rows.append((t, speed, int(throttle), int(brake), slope))
            row_numbers.append(i)
    for k in range(1, len(rows)):
        if rows[k][0] <= rows[k - 1][0]:
            raise SchemaError(
                f"{csv_path}: time not strictly increasing at data row {row_numbers[k]} "
                f"(t={rows[k][0]} after t={rows[k - 1][0]})")
    cols = list(zip(*rows)) if rows else [[], [], [], [], []]
    log = DriveLog(np.array(cols[0], dtype=float), np.array(cols[1], dtype=float),
                   np.array(cols[2], dtype=np.int64), np.array(cols[3], dtype=np.int64),
                   np.array(cols[4], dtype=float), gear=gear, description=description)
    report = {"rows": len(rows), "rejected": len(rejected),
              "rejected_rows": rejected[:20], "segments": len(log.segments())}
    return log, report


def window_slopes_oracle(t, v, window):
    tw = sliding_window_view(t, window)
    vw = sliding_window_view(v, window)
    tc = tw - tw.mean(axis=1, keepdims=True)
    vc = vw - vw.mean(axis=1, keepdims=True)
    return np.einsum("ij,ij->i", tc, vc) / np.einsum("ij,ij->i", tc, tc)


def lowpass_oracle(x, dt, cutoff_hz):
    rc = 1.0 / (2.0 * math.pi * cutoff_hz)
    alpha = dt / (rc + dt)

    def forward(sig):
        out = np.empty_like(sig)
        acc = sig[0]
        out[0] = acc
        for i in range(1, len(sig)):
            acc = acc + alpha * (sig[i] - acc)
            out[i] = acc
        return out

    def backward(sig):
        return forward(sig[::-1])[::-1]

    return 0.5 * (backward(forward(x)) + forward(backward(x)))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- save_drive_log -------------------------------------------------------------

# Finite floats of every magnitude, plus the values whose spelling is most
# likely to differ: -0.0, subnormals and the largest exponents.
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                                    1.7976931348623157e308, 1e16, 1e-7, 0.1]))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
TEXT = st.one_of(st.text(), st.sampled_from(['"quoted"', "back\\slash", "Zoé ✓ 車", "\n\t"]))


@st.composite
def drive_logs(draw):
    times = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([-0.0, 5e-324, 1e-7, -1.7976931348623157e308]))
    t = np.unique(np.array(draw(st.lists(times, max_size=25)), dtype=float))
    n = len(t)
    speed = draw(st.lists(st.one_of(st.just(-0.0), st.floats(0.0, allow_infinity=False)),
                          min_size=n, max_size=n))
    ints = st.integers(0, 2**63 - 1)  # DriveLog refuses a negative command
    return DriveLog(t, np.array(speed, dtype=float),
                    np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64),
                    np.array(draw(st.lists(ints, min_size=n, max_size=n)), dtype=np.int64),
                    np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=float),
                    gear=draw(st.sampled_from(list(Gear))), description=draw(TEXT))


class TestSaveDriveLog:
    @IO
    @given(log=drive_logs(),
           extra=st.one_of(st.none(), st.dictionaries(TEXT, JSON_VALUES, max_size=4)),
           block=BLOCKS)
    def test_bytes_equal_json_dumps(self, tmp_path_factory, log, extra, block):
        out = tmp_path_factory.mktemp("save")
        with patch.object(core, "_BLOCK_ROWS", block):
            save_drive_log(out / "new.json", log, extra)
        save_drive_log_oracle(out / "old.json", log, extra)
        assert (out / "new.json").read_bytes() == (out / "old.json").read_bytes()

    def test_empty_log(self, tmp_path):
        empty = np.array([])
        log = DriveLog(empty, empty, empty.astype(np.int64), empty.astype(np.int64), empty)
        save_drive_log(tmp_path / "new.json", log)
        save_drive_log_oracle(tmp_path / "old.json", log)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert len(load_drive_log(tmp_path / "new.json")) == 0


# --- ingest_csv -----------------------------------------------------------------

#: Cells that np.loadtxt and float() both read, to the same value.
PLAIN_CELLS = st.sampled_from([
    "0", "1", "7", "-3", "186", "0.0", "-0.0", " 12 ", "0.5", "-2.25", "1e3",
    "1e20", "-1e19", "9223372036854775807", "9.223372036854775e18", "-9.223372036854776e18",
    "nan", "inf", "-inf", "Infinity", "1e-320", "-5e-324", "\t12\t", "\xa012\xa0"])
CELLS = st.one_of(PLAIN_CELLS, st.sampled_from([
    "1_0", "", "abc", '"4"',
    # Where np.loadtxt and float() part ways: float() alone takes the first,
    # neither the next three, and loadtxt alone the separator-padded one.
    "\uff11", "0x10", "nan(1)", "1d3", "7\x1c",
    # A quoted delimiter or line end, which csv.reader keeps inside the cell.
    '"0,1"', '"2\n3"']))


@st.composite
def telemetry_csvs(draw):
    names = ["t", "speed", "throttle", "brake", "slope"]
    header = draw(st.permutations(names))
    header += draw(st.lists(st.sampled_from(names + ["note", "gps"]), max_size=3))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), draw(st.sampled_from(names)))
    if draw(st.integers(0, 19)) == 0:
        header.remove(draw(st.sampled_from(names)))
    t_cols = [i for i, name in enumerate(header) if name == "t"]
    lines = [",".join(header)]
    if draw(st.integers(0, 19)) == 0:
        lines.insert(0, "")
    # Half the files hold only lines that np.loadtxt reads, so that its path
    # is checked as often as the block path.
    plain = draw(st.booleans())
    t = 0.0
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:  # blank or whitespace-only
            lines.append(draw(st.sampled_from([""] if plain else ["", "", " ", "\t"])))
            continue
        width = len(header) + draw(st.sampled_from([0, 0, 1, 2] if plain
                                                   else [0, 0, 0, 0, -1, -3, 1, 2]))
        cells = draw(st.lists(PLAIN_CELLS if plain else CELLS, min_size=max(width, 0),
                              max_size=max(width, 0)))
        # Mostly increasing time stamps, so that most examples get past the
        # time-order check; the CELLS pool breaks it now and then.
        t += draw(st.sampled_from([0.01, 0.01, 0.01, 0.7, 0.0, -0.01]))
        for i in t_cols:
            if i < len(cells) and draw(st.integers(0, 5)):
                cells[i] = repr(round(t, 2))
        lines.append(",".join(cells) + ("," if draw(st.integers(0, 9)) == 0 else ""))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, "", end * 2]))


def ingest_outcome(fn, path, units):
    try:
        return fn(path, units, Gear.NEUTRAL, "demo")
    except SchemaError as exc:
        return str(exc)


class TestIngestCsv:
    @IO
    @given(text=telemetry_csvs(), units=st.sampled_from(UNIT_SPECS), block=BLOCKS)
    def test_matches_dictreader_loop(self, tmp_path_factory, text, units, block):
        path = tmp_path_factory.mktemp("ingest") / "log.csv"
        path.write_text(text, encoding="utf-8")
        self.assert_matches_oracle(path, units, block)

    @staticmethod
    def assert_matches_oracle(path, units, block):
        """Both paths, ``loadtxt`` where the file takes it and the block path
        always, give the oracle's outcome."""
        old = ingest_outcome(ingest_csv_oracle, path, units)
        for loadtxt in (core._loadtxt_columns, lambda *args: None):
            with patch.object(core, "_BLOCK_ROWS", block), \
                    patch.object(core, "_loadtxt_columns", loadtxt):
                new = ingest_outcome(ingest_csv, path, units)
            if isinstance(old, str):
                assert new == old
                continue
            (log, report), (log_old, report_old) = new, old
            assert report == report_old
            for col in ("t", "speed", "throttle", "brake", "slope"):
                assert same_bits(getattr(log, col), getattr(log_old, col)), col
            assert (log.gear, log.description) == (log_old.gear, log_old.description)

    # Each case below puts the rows of one kind at a block boundary of two rows.
    def ingest_in_blocks_of_2(self, tmp_path, lines):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(["t,speed,throttle,brake,slope", *lines]) + "\n")
        self.assert_matches_oracle(path, "speed_mps", 2)
        with patch.object(core, "_BLOCK_ROWS", 2):
            return ingest_csv(path, "speed_mps")

    def test_header_only(self, tmp_path):
        log, report = self.ingest_in_blocks_of_2(tmp_path, [])
        assert len(log) == 0
        assert report == {"rows": 0, "rejected": 0, "rejected_rows": [], "segments": 0}

    def test_blank_block_does_not_end_the_read(self, tmp_path):
        log, report = self.ingest_in_blocks_of_2(
            tmp_path, ["0.00,10,0,0,0", "0.01,10,0,0,0", "", "", "", "", "",
                       "0.02,10,0,0,0", "abc,10,0,0,0"])
        assert log.t.tolist() == [0.0, 0.01, 0.02]
        assert report["rejected_rows"] == [(4, "unparseable number")]

    def test_time_reversal_on_a_blocks_first_row_names_the_data_row(self, tmp_path):
        with pytest.raises(SchemaError, match=r"at data row 3 \(t=0\.005 after t=0\.01\)"):
            self.ingest_in_blocks_of_2(tmp_path, ["0.00,10,0,0,0", "0.01,10,0,0,0",
                                                  "0.005,10,0,0,0", "0.02,10,0,0,0"])

    def test_rejected_rows_across_a_block_boundary_keep_data_row_numbers(self, tmp_path):
        log, report = self.ingest_in_blocks_of_2(
            tmp_path, ["0.00,10,0,0,0", "0.01,-1,0,0,0", "0.02,10,0.5,0,0", "0.03,10,0,0,0",
                       "0.04,nan,0,0,0"])
        assert log.t.tolist() == [0.0, 0.03]
        assert report["rejected_rows"] == [(2, "negative speed"),
                                           (3, "non-integer command signal"),
                                           (5, "non-finite value")]

    def test_a_clean_csv_is_parsed_by_loadtxt_alone(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("gps,t,speed,throttle,brake,slope,note\r\n"
                        "1,0.00, 10 ,0,0,0,x\r\n\r\n2,0.01,\t11,3,0,-0.0,y\r\n")
        with patch.object(core, "_parse_block", side_effect=AssertionError("block path")):
            log, report = ingest_csv(path, "speed_mps")
        assert log.speed.tolist() == [10.0, 11.0] and report["rejected"] == 0
        self.assert_matches_oracle(path, "speed_mps", 2)

    @pytest.mark.parametrize("bad_row", [1, 2, 5000], ids=["first", "second", "last"])
    def test_one_unparseable_row_anywhere_matches_the_oracle(self, tmp_path, bad_row):
        rows = [f"{0.01 * k:.2f},{k % 977 / 100:.4f},{k % 187},0,0" for k in range(5000)]
        rows[bad_row - 1] = rows[bad_row - 1].replace(",0,0", ",0,0x10", 1)
        log, report = self.ingest_in_blocks_of_2(tmp_path, rows)
        assert report["rejected_rows"] == [(bad_row, "unparseable number")]
        assert len(log) == 4999

    @pytest.mark.parametrize("rows, rejected", [
        # Split at every comma, the quoted cell would shift the columns
        # after it and parse; csv.reader keeps "x,1" as one note.
        (['"x,1",0.0,10,0,0,0,0'], []),
        # loadtxt strips the separator and reads 10; float() refuses it.
        (["n,0,0.0,10\x1c,0,0,0", "n,0,0.01,10,0,0,0"], [(1, "unparseable number")]),
    ], ids=["quoted-delimiter", "separator-padded"])
    def test_cells_loadtxt_would_read_otherwise_take_the_block_path(self, tmp_path, rows,
                                                                    rejected):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(["note,extra,t,speed,throttle,brake,slope", *rows]) + "\n")
        _, report = ingest_csv(path, "speed_mps")
        assert report["rejected_rows"] == rejected
        self.assert_matches_oracle(path, "speed_mps", core._BLOCK_ROWS)

    @pytest.mark.parametrize("lines", [[], ["", "\r\n"]], ids=["header-only", "blank-lines"])
    def test_no_data_rows_give_an_empty_log_and_no_warning(self, tmp_path, lines):
        path = tmp_path / "log.csv"
        path.write_text("\n".join(["t,speed,throttle,brake,slope", *lines]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log, report = ingest_csv(path, "speed_mps")
        assert len(log) == 0
        assert report == {"rows": 0, "rejected": 0, "rejected_rows": [], "segments": 0}

    @pytest.mark.parametrize("rows", [1, 5000], ids=["first-chunk", "later-chunk"])
    def test_invalid_utf8_in_a_data_row_raises_as_the_oracle(self, tmp_path, rows):
        path = tmp_path / "log.csv"
        path.write_bytes(b"t,speed,throttle,brake,slope\n"
                         + b"".join(b"%d,10,0,0,0\n" % k for k in range(rows))
                         + b"1e9,10,0,0,\xff\n")
        with pytest.raises(UnicodeDecodeError) as new:
            ingest_csv(path, "speed_mps")
        with pytest.raises(UnicodeDecodeError) as old:
            ingest_csv_oracle(path, "speed_mps")
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("other_bad_row", [False, True], ids=["alone", "with-abc-row"])
    def test_cell_past_the_field_limit_raises_whatever_the_other_rows(self, tmp_path,
                                                                       other_bad_row):
        # The answer may not depend on whether another row sends the file to
        # the block path.
        rows = [f"0.{k:02d},10,0,0,0" for k in range(10)]
        rows[3] = "0.03," + "1" * 200_001 + ",0,0,0"
        if other_bad_row:
            rows.append("abc,10,0,0,0")
        path = tmp_path / "log.csv"
        path.write_text("\n".join(["t,speed,throttle,brake,slope", *rows]) + "\n")
        with pytest.raises(SchemaError) as exc_info:
            ingest_csv(path, "speed_mps")
        assert str(exc_info.value) == (
            f"{path}: line 5: field larger than field limit ({csv.field_size_limit()})")

    @pytest.mark.parametrize("note, error", [
        ("a" * 80, "line 3: field larger than field limit (64)"),
        (",".join(["a" * 20] * 6), None)], ids=["long-cell", "long-line-short-cells"])
    def test_a_field_limit_below_the_chunk_size_is_kept(self, tmp_path, note, error):
        # Each line lies inside the first 64 KiB of the file, so the scan must
        # measure lines, not only the chunks they cross.
        path = tmp_path / "log.csv"
        path.write_text("t,speed,throttle,brake,slope,note\n0.00,10,0,0,0,a\n"
                        f"0.01,11,0,0,0,{note}\n0.02,12,0,0,0,b\n")
        old_limit = csv.field_size_limit(64)
        try:
            if error:
                with pytest.raises(SchemaError) as exc_info:
                    ingest_csv(path, "speed_mps")
                assert str(exc_info.value) == f"{path}: {error}"
            else:
                log, report = ingest_csv(path, "speed_mps")
                assert log.speed.tolist() == [10.0, 11.0, 12.0] and report["rejected"] == 0
                self.assert_matches_oracle(path, "speed_mps", core._BLOCK_ROWS)
        finally:
            csv.field_size_limit(old_limit)

    def test_lines_ended_by_a_carriage_return_alone_are_measured_one_by_one(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"t,speed,throttle,brake,slope\r"
                         + b"".join(b"%d,10,0,0,0\r" % k for k in range(20)))
        old_limit = csv.field_size_limit(64)
        try:
            with patch.object(core, "_parse_block", side_effect=AssertionError("block path")):
                log, _ = ingest_csv(path, "speed_mps")
        finally:
            csv.field_size_limit(old_limit)
        assert log.t.tolist() == list(range(20))

    def test_out_of_range_signal_is_rejected_row(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text("t,speed,throttle,brake,slope\n0.00,10,0,0,0\n0.01,10,1e20,0,0\n"
                        "0.02,10,0,-1e19,0\n0.03,10,0,0,0\n")
        log, report = ingest_csv(path, "speed_mps")
        assert report["rows"] == 2
        assert report["rejected_rows"] == [(2, "command signal out of range"),
                                           (3, "command signal out of range")]
        assert main(["ingest", str(path), "--units", "speed_mps",
                     "--out", str(tmp_path / "log.json")]) == 0
        assert "rejected row 2: command signal out of range" in capsys.readouterr().out


# --- estimator kernels ------------------------------------------------------------

class TestEstimatorKernels:
    @IO
    @given(rows=st.sampled_from([1, 2, 7, _SLOPE_BLOCK_ROWS - 1, _SLOPE_BLOCK_ROWS,
                                 _SLOPE_BLOCK_ROWS + 1, 2 * _SLOPE_BLOCK_ROWS + 1]),
           window=st.sampled_from([3, 21, 51]),
           t0=st.sampled_from([0.0, 1e3, 1.7e9]),
           seed=st.integers(0, 2**32 - 1))
    def test_window_slopes_bit_equal(self, rows, window, t0, seed):
        rng = np.random.default_rng(seed)
        n = rows + window - 1
        t = t0 + np.cumsum(rng.uniform(0.005, 0.015, n))
        v = np.abs(np.cumsum(rng.normal(0.0, 0.05, n)))
        slopes = _window_slopes(t, v, window)
        assert len(slopes) == rows
        assert same_bits(slopes, window_slopes_oracle(t, v, window))

    @IO
    @given(rows=st.sampled_from([1, 7, _SLOPE_BLOCK_ROWS + 1]),
           window=st.sampled_from([3, 21, 51]),
           t0=st.sampled_from([0.0, 1e3]),
           dt=st.sampled_from([0.01, 0.002, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_window_slopes_match_savgol(self, rows, window, t0, dt, seed):
        # Savitzky-Golay with polyorder 1 and deriv 1 is the least-squares line
        # slope over each centered window of a uniform grid (Savitzky & Golay 1964).
        savgol_filter = pytest.importorskip("scipy.signal").savgol_filter
        rng = np.random.default_rng(seed)
        n = rows + window - 1
        t = t0 + dt * np.arange(n)
        v = np.abs(np.cumsum(rng.normal(0.0, 0.05, n)))
        half = (window - 1) // 2
        expected = savgol_filter(v, window, polyorder=1, deriv=1, delta=dt)[half:n - half]
        np.testing.assert_allclose(_window_slopes(t, v, window), expected,
                                   rtol=1e-9, atol=1e-9 * float(v.max()) / dt)

    @IO
    @given(x=st.lists(st.one_of(st.floats(-1e6, 1e6), st.just(-0.0)), min_size=1, max_size=60),
           dt=st.sampled_from([0.01, 0.002, 0.1]), cutoff=st.sampled_from([0.5, 2.0, 5.0]))
    def test_lowpass_bit_equal(self, x, dt, cutoff):
        x = np.array(x, dtype=float)
        assert same_bits(_lowpass_zero_phase(x, dt, cutoff), lowpass_oracle(x, dt, cutoff))

    def test_lowpass_bit_equal_long(self):
        x = np.cumsum(np.random.default_rng(7).normal(size=3 * _SLOPE_BLOCK_ROWS))
        assert same_bits(_lowpass_zero_phase(x, 0.01, 2.0), lowpass_oracle(x, 0.01, 2.0))
