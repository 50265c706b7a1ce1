"""File formats, the command-line front end, and sweeps."""

import contextlib
import io
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import write_golden
from calibkit import calibrate, cli, sweep
from calibkit import io as kio
from calibkit.cli import main
from calibkit.calibrate import FitConfig, fit_cts, fit_ts, model_from_dict
from calibkit.core import Identity, LogitDataset, predict, softmax
from calibkit.errors import ConfigError, FileFormatError
from calibkit.io import read_logit_csv, write_logit_csv, write_table_csv
from calibkit.metrics import compute_report
from calibkit.sweep import SweepRow, run_sweep
from calibkit.synthetic import HeteroLogitSpec, gen_hetero_logits


# Tokens that neither float() nor int() accepts, including the empty field.
BAD_TOKENS = st.text(alphabet="bcdghjkmopqrsuvwxz?! \u00e9", max_size=6)
# Any JSON value. Half the draws are edge cases: non-finite, beyond float64, huge.
EDGE_VALUES = st.sampled_from([math.inf, -math.inf, math.nan, 1e308, 10**400, -(10**400), 0, -1, 3, "inf"])
JSON_VALUES = EDGE_VALUES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
MODEL_FIELDS = ("method", "alpha", "alpha0", "alphas", "gamma", "a", "b", "num_classes")
K4_MODELS = [
    {"method": "none", "num_classes": 4},
    {"method": "ts", "alpha": 1.5, "num_classes": 4},
    {"method": "cts", "alpha0": 1.0, "alphas": [1.0, 1.2, 0.8, 1.0], "gamma": "inf", "num_classes": 4},
    {"method": "vs", "a": [1.0, 1.0, 1.0, 1.0], "b": [0.0, 0.0, 0.0, 0.0], "num_classes": 4},
]


# Logit tokens float() reads ("1_0", "+3", Arabic-Indic three, " 1.5") and
# tokens the reader rejects: "\x1c" is a separator float() does not strip,
# then non-finite values, the empty field and a letter.
LOGIT_TOKENS = st.sampled_from([" 1.5", "1_0", "+3", "\u0663", "-0.0", "5e-324", "1.5 "]) | st.floats(
    allow_nan=False, allow_infinity=False
).map(repr)
BAD_LOGIT_TOKENS = st.sampled_from(["1.5\x1c", "nan", "-inf", "1e999", "", "x"])
LABEL_TOKENS = st.sampled_from(["0", "1", "+1", " 1", "0_1", "\u0661"])
BAD_LABEL_TOKENS = st.sampled_from(["3.0", "-1", "9", "99999999999999999999", "", "1.5\x1c", "\u0663"])
# Stand-ins for bytes that are not UTF-8, swapped in after encoding: a lone
# continuation byte, a byte no UTF-8 text holds, and a 3-byte sequence cut short.
UNDECODABLE = {"\ue000": b"\x80", "\ue001": b"\xff", "\ue002": b"\xe2\x82"}


def reference_read_logit_csv(path: str) -> LogitDataset:
    """A line-by-line reader that decodes each line's bytes on its own, so it names the first bad line."""
    with open(path, "rb") as fh:
        raw_lines = fh.read().splitlines(keepends=True) or [b""]  # splits at \r\n, \r and \n only
    values = []
    labels = []
    for lineno, raw in enumerate(raw_lines, start=1):
        try:
            line = raw.decode("utf-8").rstrip("\r\n")
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"not UTF-8: {exc.reason}", line=lineno) from None
        if lineno == 1:
            if not line:
                raise FileFormatError("empty file, expected a header row", line=1)
            columns = line.split(",")
            k = len(columns) - 1
            if k < 1 or columns != [f"logit_{i}" for i in range(k)] + ["label"]:
                raise FileFormatError("bad header, expected logit_0,...,logit_{K-1},label", line=1)
            if k < 2:
                raise FileFormatError("logit files need at least 2 classes", line=1)
            continue
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise FileFormatError(f"expected {k + 1} columns, found {len(parts)}", line=lineno)
        try:
            row = [float(p) for p in parts[:k]]
            label = int(parts[k])
        except ValueError as exc:
            raise FileFormatError(str(exc), line=lineno) from None
        if not all(math.isfinite(v) for v in row):
            raise FileFormatError("non-finite value", line=lineno)
        if label < 0:
            raise FileFormatError(f"negative label {label}", line=lineno)
        if label >= k:
            raise FileFormatError(f"label {label} out of range [0, {k})", line=lineno)
        values.append(row)
        labels.append(label)
    logits = np.asarray(values, dtype=np.float64).reshape(len(values), k)
    return LogitDataset(logits=logits, labels=np.asarray(labels, dtype=np.int64))


def read_outcome(read, path):
    """(logits bytes, shape, labels) of an accepted file, or the text of its FileFormatError."""
    try:
        ds = read(path)
    except FileFormatError as exc:
        return str(exc)
    return ds.logits.tobytes(), ds.logits.shape, ds.labels.tolist()


def run_main(argv) -> tuple[int, str]:
    """main(argv) and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def wellspec_files(tmp_path, rng, n=4000, k=4, scale=1.0):
    """Validation/test CSV pair whose population-optimal temperature is 1/scale."""
    paths = []
    for name in ("val", "test"):
        p = rng.dirichlet(np.full(k, 2.0), size=n)
        u = rng.random(n)
        labels = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
        ds = LogitDataset(scale * np.log(p), labels)
        path = tmp_path / f"{name}.csv"
        write_logit_csv(ds, str(path))
        paths.append(str(path))
    return paths


class TestLogitCsv:
    def test_round_trip_preserves_metrics(self, tmp_path):
        rng = np.random.default_rng(60)
        ds = LogitDataset(rng.normal(size=(500, 6)) * 3, rng.integers(0, 6, 500))
        path = tmp_path / "d.csv"
        write_logit_csv(ds, str(path))
        back = read_logit_csv(str(path))
        np.testing.assert_array_equal(back.logits, ds.logits)
        np.testing.assert_array_equal(back.labels, ds.labels)
        a = compute_report(ds)
        b = compute_report(back)
        for name in ("accuracy", "ece", "max_ece", "avg_ece", "nll"):
            assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(FileFormatError) as err:
            read_logit_csv(str(path))
        assert err.value.line == 1

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(FileFormatError) as err:
            read_logit_csv(str(path))
        assert err.value.line == 3

    def test_nan_token_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\nnan,2.0,0\n")
        with pytest.raises(FileFormatError) as err:
            read_logit_csv(str(path))
        assert err.value.line == 2

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n1.0,2.0,0\n1.0,0\n")
        with pytest.raises(FileFormatError) as err:
            read_logit_csv(str(path))
        assert err.value.line == 3

    def test_out_of_range_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n1.0,2.0,0\n1.0,2.0,2\n")
        with pytest.raises(FileFormatError) as err:
            read_logit_csv(str(path))
        assert err.value.line == 3

    def test_huge_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n1.0,2.0,0\n1.0,2.0,99999999999999999999\n")
        with pytest.raises(FileFormatError, match="label 99999999999999999999 out of range") as err:
            read_logit_csv(str(path))
        assert err.value.line == 3

    def test_first_bad_line_is_reported(self, tmp_path):
        # The out-of-range label on line 3 comes before the bad float on line 5.
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n1.0,2.0,0\n1.0,2.0,2\n1.0,2.0,1\n1.0,oops,0\n")
        with pytest.raises(FileFormatError, match="out of range") as err:
            read_logit_csv(str(path))
        assert err.value.line == 3

    def test_single_class_header_rejected_before_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,label\n1.0,oops\n")
        with pytest.raises(FileFormatError, match="at least 2 classes") as err:
            read_logit_csv(str(path))
        assert err.value.line == 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("records, bad", [(2, 1), (3000, 2000)])  # 2000: past the first 8 KB
    def test_invalid_utf8_reports_line(self, tmp_path, newline, records, bad):
        rows = [f"{i}.5,-{i}.25,{i % 2}" for i in range(records)]
        rows[bad] = "1.0,@,0"
        text = newline.join(["logit_0,logit_1,label"] + rows) + newline
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode().replace(b"@", b"\xff\xfe"))
        with pytest.raises(FileFormatError, match="not UTF-8") as err:
            read_logit_csv(str(path))
        assert err.value.line == bad + 2

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.integers(2, 6)),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7e308, -1.7e308]),
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_lossless_for_any_finite_float(self, tmp_path_factory, logits, data):
        n, k = logits.shape
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), dtype=np.int64)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        write_logit_csv(LogitDataset(logits, labels), str(path))
        back = read_logit_csv(str(path))
        assert back.logits.tobytes() == logits.tobytes()  # bitwise: keeps -0.0 and subnormals
        np.testing.assert_array_equal(back.labels, labels)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_parse_matches_the_line_reader(self, tmp_path_factory, data):
        k = data.draw(st.integers(2, 4), label="k")
        record = st.tuples(*[LOGIT_TOKENS] * k, LABEL_TOKENS).map(",".join)
        lines = data.draw(st.lists(record, max_size=40), label="records")
        for _ in range(data.draw(st.integers(0, 6), label="blank lines")):
            lines.insert(data.draw(st.integers(0, len(lines))), "")
        bad_lines = 0 if data.draw(st.booleans(), label="clean") else data.draw(st.integers(1, 3))
        for _ in range(bad_lines):
            row = data.draw(record).split(",")
            kind = data.draw(st.sampled_from(["logit", "label", "columns", "spaces", "bytes"]))
            if kind == "logit":
                row[data.draw(st.integers(0, k - 1))] = data.draw(BAD_LOGIT_TOKENS)
            elif kind == "label":
                row[k] = data.draw(BAD_LABEL_TOKENS)
            elif kind == "columns":
                row = (row + ["0"] * 3)[: data.draw(st.integers(1, k + 3).filter(lambda w: w != k + 1))]
            elif kind == "spaces":
                row = [data.draw(st.sampled_from([" ", "\t", "  "]))]
            else:  # mid-line or just before the line ending (or the end of the file)
                line = ",".join(row)
                at = data.draw(st.integers(0, len(line)) | st.just(len(line)))
                row = [line[:at] + data.draw(st.sampled_from(sorted(UNDECODABLE))) + line[at:]]
            lines.insert(data.draw(st.integers(0, len(lines))), ",".join(row))
        ends = data.draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]), label="ends")
        header = ",".join([f"logit_{i}" for i in range(k)] + ["label"])
        text = "".join(
            line + (data.draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
            for line in [header] + lines
        )
        if not data.draw(st.booleans(), label="final newline"):
            text = text.rstrip("\r\n")
        raw = text.encode()
        for stand_in, bad in UNDECODABLE.items():
            raw = raw.replace(stand_in.encode(), bad)
        path = tmp_path_factory.mktemp("blocks") / "d.csv"
        path.write_bytes(raw)
        block = data.draw(st.integers(100, 400), label="block")  # several blocks per file
        with mock.patch.object(kio, "_BLOCK_BYTES", block):
            got = read_outcome(read_logit_csv, str(path))
        assert got == read_outcome(reference_read_logit_csv, str(path))

    def test_bad_line_past_the_first_block_exits_2_naming_it(self, tmp_path):
        rng = np.random.default_rng(64)
        rows = [",".join(map(repr, rng.normal(size=10).tolist())) + f",{i % 10}" for i in range(5000)]
        bad = 4000
        rows[bad] = "oops" + rows[bad]
        val = tmp_path / "val.csv"
        val.write_text("\n".join([",".join(f"logit_{i}" for i in range(10)) + ",label"] + rows) + "\n")
        assert sum(len(r) + 1 for r in rows[:bad]) > 2 * kio._BLOCK_BYTES
        code, err = run_main(["calibrate", "--val", str(val), "--test", str(val), "--method", "ts",
                              "--out-report", str(tmp_path / "r.json")])
        assert code == 2
        assert err == f"error: {read_outcome(reference_read_logit_csv, str(val))}\n"
        assert err.startswith(f"error: line {bad + 2}: could not convert string to float: 'oops")

    def test_crlf_file_across_blocks_reads_as_its_lf_twin(self, tmp_path):
        rng = np.random.default_rng(65)
        header = "logit_0,logit_1,logit_2,label"
        rows = [",".join(map(repr, rng.normal(size=3).tolist())) + f",{i % 3}" for i in range(4000)]
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes("\r\n".join([header] + rows).encode() + b"\r\n")
        with open(crlf, newline="") as fh:
            fh.readline()
            first = len(fh.readlines(kio._BLOCK_BYTES))
        rows.insert(first, "")  # the first line of the second block is blank
        crlf.write_bytes("\r\n".join([header] + rows).encode() + b"\r\n")
        with open(crlf, newline="") as fh:
            fh.readline()
            assert len(fh.readlines(kio._BLOCK_BYTES)) == first
            assert fh.readline() == "\r\n"
        assert crlf.stat().st_size > 3 * kio._BLOCK_BYTES
        lf = tmp_path / "lf.csv"
        lf.write_bytes("\n".join([header] + rows).encode() + b"\n")
        a, b = read_logit_csv(str(crlf)), read_logit_csv(str(lf))
        assert a.logits.tobytes() == b.logits.tobytes() and a.logits.shape == (4000, 3)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_bad_line_before_a_later_undecodable_byte_is_reported(self, tmp_path):
        # The bad float and the bad byte share a block but not an 8 KB decoding
        # chunk, so a line-by-line read meets the bad float first.
        rows = [f"{i}.5,-{i}.25,{i % 2}" for i in range(2000)]
        rows[3] = "1.0,oops,0"
        rows[1500] = "1.0,@,0"
        path = tmp_path / "bad.csv"
        path.write_bytes("\n".join(["logit_0,logit_1,label"] + rows).encode().replace(b"@", b"\xff") + b"\n")
        assert 8192 < path.stat().st_size < kio._BLOCK_BYTES
        with pytest.raises(FileFormatError, match="could not convert") as err:
            read_logit_csv(str(path))
        assert err.value.line == 5
        assert read_outcome(reference_read_logit_csv, str(path)) == str(err.value)

    def test_bad_token_before_an_undecodable_byte_in_the_same_8_kb_is_reported(self, tmp_path):
        rows = [f"{i}.5,-{i}.25,{i % 2}" for i in range(200)]
        rows[3] = "1.0,oops,0"
        rows[50] = "1.0,@,0"
        path = tmp_path / "bad.csv"
        path.write_bytes("\n".join(["logit_0,logit_1,label"] + rows).encode().replace(b"@", b"\xff") + b"\n")
        assert path.stat().st_size < 8192
        with pytest.raises(FileFormatError) as err:
            read_logit_csv(str(path))
        assert str(err.value) == "line 5: could not convert string to float: 'oops'"

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("fault", ["none", "token", "header", "first block", "last line"])
    def test_each_read_opens_the_file_once(self, tmp_path, monkeypatch, newline, fault):
        header = b"logit_0,logit_1,label"
        rows = [f"{i}.5,-{i}.25,{i % 2}".encode() for i in range(8000)]  # two blocks
        if fault == "token":
            rows[6000] = b"1.0,oops,0"
        elif fault == "header":
            header = b"logit_0,logit\xff_1,label"
        elif fault == "first block":
            rows[10] = b"1.0,\xff,0"
        elif fault == "last line":
            rows[-1] = b"1.0,\xe2\x82,0"
        path = tmp_path / "d.csv"
        path.write_bytes(newline.join([header] + rows) + newline)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(kio, "open", counting_open, raising=False)
        got = read_outcome(read_logit_csv, str(path))
        assert opened == [str(path)]
        assert got == read_outcome(reference_read_logit_csv, str(path))
        assert isinstance(got, tuple) == (fault == "none")

    def test_rows_whose_column_counts_cancel_are_rejected(self, tmp_path):
        # Joined, the two rows split into two records' worth of integer tokens.
        path = tmp_path / "bad.csv"
        path.write_text("logit_0,logit_1,label\n1,2,0,0\n1,0\n")
        with pytest.raises(FileFormatError, match="expected 3 columns, found 4") as err:
            read_logit_csv(str(path))
        assert err.value.line == 2

    def test_read_hands_its_arrays_to_the_dataset(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(66)
        path = tmp_path / "d.csv"
        write_logit_csv(LogitDataset(rng.normal(size=(5000, 10)), rng.integers(0, 10, 5000)), str(path))
        monkeypatch.setattr(kio, "_BLOCK_BYTES", 4096)  # keeps one block's strings small next to the arrays
        tracemalloc.start()
        try:
            ds = read_logit_csv(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # At most the blocks' arrays and their concatenation are alive at once.
        assert peak < 2.5 * (ds.logits.nbytes + ds.labels.nbytes)
        assert not ds.logits.flags.writeable and not ds.labels.flags.writeable

        def checked_again(self):
            raise AssertionError("read_logit_csv copied or re-checked its records")

        monkeypatch.setattr(LogitDataset, "__post_init__", checked_again)
        assert read_logit_csv(str(path)).logits.tobytes() == ds.logits.tobytes()

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("logit_0,logit_1,label\n")
        ds = read_logit_csv(str(path))
        assert ds.num_records == 0 and ds.num_classes == 2


class TestTableCsv:
    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        row = (1 / 3, None, True, False, 7, "cts", np.float64(2.5e-10), 2.0)
        write_table_csv([row], ("a", "b", "c", "d", "e", "f", "g", "h"), str(path))
        assert path.read_text() == "a,b,c,d,e,f,g,h\n0.333333333,,1,0,7,cts,2.5e-10,2\n"


class TestOutputPaths:
    """An output path that names an input or another output exits 2 before any file is read or written."""

    @pytest.fixture
    def triple(self, tmp_path):
        assert main(["synth", "--kind", "hetero", "--seed", "1", "--classes", "3", "--sizes", "30",
                     "--out", str(tmp_path / "s.csv")]) == 0
        return tmp_path

    def _exits_2_touching_nothing(self, tmp_path, monkeypatch, argv, flags):
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def no_read(*args, **kwargs):
            raise AssertionError("read a file before checking the output paths")

        monkeypatch.setattr(kio, "read_logit_csv", no_read)
        monkeypatch.setattr(kio, "read_json", no_read)
        code, err = run_main(argv)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert all(flag in err for flag in flags)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_report_and_model_at_one_path(self, triple, monkeypatch):
        argv = ["calibrate", "--val", str(triple / "s.val.csv"), "--test", str(triple / "s.test.csv"),
                "--method", "cts", "--out-report", str(triple / "r.json"), "--out-model", str(triple / "r.json")]
        self._exits_2_touching_nothing(triple, monkeypatch, argv, ("--out-model", "--out-report"))
        assert not (triple / "r.json").exists()

    def test_report_over_the_test_file(self, triple, monkeypatch):
        # Another spelling of the same path is caught too.
        argv = ["calibrate", "--val", str(triple / "s.val.csv"), "--test", str(triple / "s.test.csv"),
                "--method", "ts", "--out-report", str(triple / "." / "s.test.csv")]
        self._exits_2_touching_nothing(triple, monkeypatch, argv, ("--out-report", "--test"))

    @pytest.mark.parametrize("flag", ["--file", "--model"])
    def test_reliability_over_its_input(self, triple, monkeypatch, flag):
        (triple / "m.json").write_text('{"method": "none", "num_classes": 3}')
        argv = ["reliability", "--file", str(triple / "s.val.csv"), "--model", str(triple / "m.json"),
                "--out", str(triple / ("s.val.csv" if flag == "--file" else "m.json"))]
        self._exits_2_touching_nothing(triple, monkeypatch, argv, ("--out", flag))

    def test_distinct_paths_still_write_both(self, triple):
        argv = ["calibrate", "--val", str(triple / "s.val.csv"), "--test", str(triple / "s.test.csv"),
                "--method", "cts", "--out-report", str(triple / "r.json"), "--out-model", str(triple / "m.json")]
        assert main(argv) == 0
        report = json.loads((triple / "r.json").read_text())
        assert json.loads((triple / "m.json").read_text()) == report["model"]


class TestCalibrateCommand:
    def test_ts_on_wellspec_fixture(self, tmp_path):
        rng = np.random.default_rng(61)
        val, test = wellspec_files(tmp_path, rng)
        report_path = tmp_path / "report.json"
        model_path = tmp_path / "model.json"
        code = main([
            "calibrate", "--val", val, "--test", test, "--method", "ts",
            "--out-report", str(report_path), "--out-model", str(model_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert abs(report["model"]["alpha"] - 1.0) <= 0.05
        assert report["ece_after"] <= report["ece_before"] + 0.005
        assert report["accuracy_after"] == report["accuracy_before"]
        model = json.loads(model_path.read_text())
        assert model["method"] == "ts"
        assert model["num_classes"] == 4
        per_class = report["per_class"]
        assert len(per_class) == 4
        assert sum(row["count"] for row in per_class) == 4000

    def test_cts_gamma_zero_matches_ts(self, tmp_path):
        rng = np.random.default_rng(62)
        val, test = wellspec_files(tmp_path, rng, n=1500, scale=2.0)
        out_ts = tmp_path / "ts.json"
        out_cts = tmp_path / "cts.json"
        assert main(["calibrate", "--val", val, "--test", test, "--method", "ts",
                     "--out-report", str(out_ts)]) == 0
        assert main(["calibrate", "--val", val, "--test", test, "--method", "cts",
                     "--gamma", "0", "--out-report", str(out_cts)]) == 0
        ts = json.loads(out_ts.read_text())
        cts = json.loads(out_cts.read_text())
        alpha = ts["model"]["alpha"]
        for a in cts["model"]["alphas"]:
            assert abs(a - alpha) <= 1e-6
        assert abs(ts["model"]["alpha"] - 0.5) <= 0.1  # logits were doubled

    def test_method_none_is_identity(self, tmp_path):
        rng = np.random.default_rng(63)
        val, test = wellspec_files(tmp_path, rng, n=800)
        out = tmp_path / "none.json"
        assert main(["calibrate", "--val", val, "--test", test, "--method", "none",
                     "--out-report", str(out)]) == 0
        report = json.loads(out.read_text())
        for name in ("accuracy", "ece", "max_ece", "avg_ece", "nll"):
            assert report[f"{name}_before"] == report[f"{name}_after"]
        assert report["changed_records"] == 0

    def test_method_none_evaluates_the_test_set_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(63)
        val, test = wellspec_files(tmp_path, rng, n=800)
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return compute_report(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_report", counting)
        for method, expected in (("none", 1), ("ts", 2)):
            calls.clear()
            out = tmp_path / f"{method}.json"
            assert main(["calibrate", "--val", val, "--test", test, "--method", method,
                         "--out-report", str(out)]) == 0
            assert len(calls) == expected
        report = json.loads((tmp_path / "none.json").read_text())
        identity = compute_report(read_logit_csv(test))
        for name in ("accuracy", "ece", "max_ece", "avg_ece", "nll"):
            assert report[f"{name}_before"] == report[f"{name}_after"] == getattr(identity, name)
        for row, stats in zip(report["per_class"], identity.per_class, strict=True):
            assert row == {"class": stats.class_index, "count": stats.count, "ece_before": stats.ece,
                           "ece_after": stats.ece, "mean_confidence": stats.mean_confidence,
                           "accuracy": stats.accuracy}
        assert report["warnings"] == identity.warnings
        assert report["changed_records"] == 0

    def test_ts_keeps_predictions_that_exp_would_tie(self, tmp_path):
        # At alpha <= 0.02 the gap of 1e-15 between the top two logits of the
        # last 20 records rounds away in exp; the raw top class is still kept.
        rng = np.random.default_rng(65)
        logits = np.vstack([rng.normal(size=(180, 3)), np.tile([0.0, 1e-15, -1.0], (20, 1))])
        labels = np.concatenate([rng.integers(0, 3, 180), np.ones(20, dtype=int)])
        path, out = tmp_path / "ties.csv", tmp_path / "ts.json"
        write_logit_csv(LogitDataset(logits, labels), str(path))
        assert main(["calibrate", "--val", str(path), "--test", str(path), "--method", "ts",
                     "--alpha-hi", "0.02", "--out-report", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["model"]["alpha"] <= 0.02
        assert report["changed_records"] == 0
        assert report["accuracy_after"] == report["accuracy_before"]

    def test_vs_runs_and_reports_changes(self, tmp_path):
        rng = np.random.default_rng(64)
        val, test = wellspec_files(tmp_path, rng, n=1200)
        out = tmp_path / "vs.json"
        assert main(["calibrate", "--val", val, "--test", test, "--method", "vs",
                     "--out-report", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["model"]["method"] == "vs"
        assert isinstance(report["changed_records"], int)

    def test_changed_records_and_accuracy_match_predictions(self, tmp_path):
        rng = np.random.default_rng(64)
        val, test = wellspec_files(tmp_path, rng, n=1200)
        out, model_path = tmp_path / "vs.json", tmp_path / "vs.model.json"
        assert main(["calibrate", "--val", val, "--test", test, "--method", "vs",
                     "--out-report", str(out), "--out-model", str(model_path)]) == 0
        report = json.loads(out.read_text())
        model, _ = model_from_dict(json.loads(model_path.read_text()))
        dataset = read_logit_csv(test)
        before, after = predict(dataset, Identity()), predict(dataset, model)
        assert report["changed_records"] == int(np.sum(before.predicted != after.predicted))
        assert report["accuracy_before"] == before.accuracy
        assert report["accuracy_after"] == after.accuracy

    def test_vs_without_finite_minimizer_exits_4(self, tmp_path, capsys):
        # 20 records against 24 VS parameters: the NLL keeps falling as the
        # parameters grow, so the solve reaches its iteration cap.
        rng = np.random.default_rng(3)
        z = rng.normal(size=(20, 12))
        labels = (rng.random(20)[:, None] > np.cumsum(softmax(z), axis=1)).sum(axis=1)
        path = tmp_path / "tiny.csv"
        write_logit_csv(LogitDataset(8 * z, np.minimum(labels, 11)), str(path))
        argv = ["calibrate", "--val", str(path), "--test", str(path), "--out-report", str(tmp_path / "r.json")]
        assert main(argv + ["--method", "ts"]) == 0
        assert main(argv + ["--method", "vs"]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["calibrate", "--val", str(tmp_path / "nope.csv"),
                     "--test", str(tmp_path / "nope.csv"), "--method", "ts",
                     "--out-report", str(tmp_path / "r.json")]) == 2

    def test_class_count_mismatch_exits_3(self, tmp_path):
        rng = np.random.default_rng(65)
        val, _ = wellspec_files(tmp_path, rng, n=50, k=3)
        test3 = tmp_path / "test5.csv"
        ds = LogitDataset(rng.normal(size=(50, 5)), rng.integers(0, 5, 50))
        write_logit_csv(ds, str(test3))
        assert main(["calibrate", "--val", val, "--test", str(test3), "--method", "ts",
                     "--out-report", str(tmp_path / "r.json")]) == 3

    def test_negative_min_class_samples_exits_2(self, tmp_path):
        val, test = wellspec_files(tmp_path, np.random.default_rng(67), n=200)
        code, err = run_main(["calibrate", "--val", val, "--test", test, "--method", "cts",
                              "--min-class-samples", "-4", "--out-report", str(tmp_path / "r.json")])
        assert code == 2 and err == "error: --min-class-samples must be an integer in [0, inf), got -4\n"
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--alpha-lo", "1", "--alpha-hi", "1"], "--alpha-hi must be a real number in (1.0, inf), got 1.0"),
            (["--alpha-hi", "inf"], "--alpha-hi must be a real number in (0, inf), got inf"),
            (["--alpha-lo", "nan"], "--alpha-lo must be a real number in (0, inf), got nan"),
            (["--bins", "0"], "--bins must be an integer in [1, 9007199254740992], got 0"),
        ],
    )
    def test_bad_fit_settings_exit_2_before_reading(self, tmp_path, flags, message):
        # The files do not exist: the settings are checked before any read.
        code, err = run_main(["calibrate", "--val", str(tmp_path / "v.csv"), "--test", str(tmp_path / "t.csv"),
                              "--method", "ts", *flags, "--out-report", str(tmp_path / "r.json")])
        assert (code, err) == (2, f"error: {message}\n")
        assert not list(tmp_path.iterdir())

    def test_bad_gamma_exits_2(self, tmp_path):
        code, err = run_main(["calibrate", "--val", "v.csv", "--test", "t.csv", "--method", "cts",
                              "--gamma", "abc", "--out-report", str(tmp_path / "r.json")])
        assert (code, err) == (2, "error: --gamma must be a real number in [0, inf], got 'abc'\n")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_one_corrupt_line_exits_2_naming_it(self, tmp_path_factory, data):
        k = 3
        rows = [[repr(0.5 * i), repr(-0.25 * i), "1.0", str(i % k)] for i in range(6)]
        index = data.draw(st.integers(0, len(rows) - 1), label="index")
        kind = data.draw(st.sampled_from(["token", "columns", "nonfinite", "label", "utf8"]), label="kind")
        row = list(rows[index])
        if kind == "token":
            row[data.draw(st.integers(0, k))] = data.draw(BAD_TOKENS)
        elif kind == "columns":
            row = (row + ["0"] * 4)[: data.draw(st.integers(1, k + 4).filter(lambda w: w != k + 1))]
        elif kind == "nonfinite":
            row[data.draw(st.integers(0, k - 1))] = data.draw(
                st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
            )
        elif kind == "label":
            row[k] = str(data.draw(st.integers(max_value=-1) | st.integers(min_value=k)))
        line = ",".join(row).encode()
        if kind == "utf8":
            at = data.draw(st.integers(0, len(line)))
            line = line[:at] + bytes([data.draw(st.integers(0x80, 0xFF))]) + line[at:]
        newline = data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
        header = b"logit_0,logit_1,logit_2,label"
        lines = [header] + [",".join(r).encode() for r in rows]
        bad = b"".join(x + newline for x in lines[: index + 1] + [line] + lines[index + 2 :])
        good = b"".join(x + newline for x in lines)
        folder = tmp_path_factory.mktemp("fuzz")
        corrupt = data.draw(st.sampled_from(["val", "test"]))
        for name in ("val", "test"):
            (folder / f"{name}.csv").write_bytes(bad if name == corrupt else good)
        code, err = run_main(["calibrate", "--val", str(folder / "val.csv"), "--test", str(folder / "test.csv"),
                              "--method", "ts", "--out-report", str(folder / "r.json")])
        assert code == 2
        assert err.startswith(f"error: line {index + 2}: ")

    def test_parse_error_exits_2_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("logit_0,logit_1,label\n1.0,x,0\n")
        assert main(["calibrate", "--val", str(bad), "--test", str(bad), "--method", "ts",
                     "--out-report", str(tmp_path / "r.json")]) == 2
        assert "line 2" in capsys.readouterr().err


class TestReliabilityCommand:
    def test_zero_bins_exit_2_before_reading(self, tmp_path):
        code, err = run_main(["reliability", "--file", str(tmp_path / "v.csv"), "--bins", "0",
                              "--out", str(tmp_path / "rel.csv")])
        assert (code, err) == (2, "error: --bins must be an integer in [1, 9007199254740992], got 0\n")
        assert not list(tmp_path.iterdir())

    def test_bins_too_many_to_allocate_exit_2(self, tmp_path):
        val, _ = wellspec_files(tmp_path, np.random.default_rng(71), n=20)
        out = tmp_path / "rel.csv"
        # The bin counts would take 64 PiB, past any address space, so the allocation fails at once.
        code, err = run_main(["reliability", "--file", val, "--bins", "9007199254740992", "--out", str(out)])
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_row_count_equals_bins(self, tmp_path):
        rng = np.random.default_rng(66)
        val, _ = wellspec_files(tmp_path, rng, n=600)
        out = tmp_path / "rel.csv"
        assert main(["reliability", "--file", val, "--bins", "10", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "bin_low,bin_high,count,mean_confidence,mean_accuracy"
        assert len(lines) == 11

    def test_single_bin_aggregates_everything(self, tmp_path):
        rng = np.random.default_rng(67)
        val, _ = wellspec_files(tmp_path, rng, n=300)
        out = tmp_path / "rel1.csv"
        assert main(["reliability", "--file", val, "--bins", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[2] == "300"

    def test_wellspec_fixture_rows_are_calibrated(self, tmp_path):
        rng = np.random.default_rng(68)
        val, _ = wellspec_files(tmp_path, rng, n=60_000)
        out = tmp_path / "rel.csv"
        assert main(["reliability", "--file", val, "--bins", "10", "--out", str(out)]) == 0
        for line in out.read_text().strip().splitlines()[1:]:
            _, _, count, conf, acc = line.split(",")
            if int(count) == 0:
                continue
            # population rows agree exactly; sparse bins carry binomial noise
            bound = max(0.02, 3.0 / np.sqrt(int(count)))
            assert abs(float(conf) - float(acc)) <= bound

    def test_applies_model_file(self, tmp_path):
        rng = np.random.default_rng(69)
        val, _ = wellspec_files(tmp_path, rng, n=200)
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps({
            "method": "ts", "alpha": 0.5, "alpha0": None, "alphas": None,
            "gamma": None, "a": None, "b": None, "num_classes": 4,
        }))
        out = tmp_path / "rel.csv"
        assert main(["reliability", "--file", val, "--model", str(model_path),
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("row, alpha, code", [([1e307, 0.99e307], 100.0, 0), ([1e308, -1e308], 0.01, 2)])
    def test_finiteness_check_sees_the_shifted_scaled_logits(self, tmp_path, row, alpha, code):
        # (z - top) * alpha is finite for the first row, though alpha * z is
        # not; for the second, z - top overflows, though alpha * z does not.
        path, model_path, out = tmp_path / "edge.csv", tmp_path / "m.json", tmp_path / "rel.csv"
        write_logit_csv(LogitDataset(np.array([row, [0.0, 1.0]]), np.array([0, 1])), str(path))
        model_path.write_text(json.dumps({"method": "ts", "alpha": alpha, "num_classes": 2}))
        with np.errstate(over="ignore"):
            got, err = run_main(["reliability", "--file", str(path), "--model", str(model_path), "--out", str(out)])
        assert got == code and "Traceback" not in err
        assert out.exists() == (code == 0)
        if code:
            assert err == "error: calibrated logits contain NaN or Inf\n"

    def _bad_model_exits_2(self, tmp_path, capsys, text):
        rng = np.random.default_rng(70)
        val, _ = wellspec_files(tmp_path, rng, n=50)
        model_path = tmp_path / "m.json"
        model_path.write_text(text)
        assert main(["reliability", "--file", val, "--model", str(model_path),
                     "--out", str(tmp_path / "rel.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    def test_model_alpha_null_exits_2(self, tmp_path, capsys):
        self._bad_model_exits_2(tmp_path, capsys, '{"method": "ts", "alpha": null, "num_classes": 4}')

    def test_model_alpha_missing_exits_2(self, tmp_path, capsys):
        self._bad_model_exits_2(tmp_path, capsys, '{"method": "ts", "num_classes": 4}')

    def test_model_scale_not_numeric_exits_2(self, tmp_path, capsys):
        self._bad_model_exits_2(
            tmp_path, capsys, '{"method": "vs", "a": "x", "b": [0, 0, 0, 0], "num_classes": 4}'
        )

    def test_model_invalid_json_exits_2(self, tmp_path, capsys):
        err = self._bad_model_exits_2(tmp_path, capsys, '{"method": "ts",\n "alpha": }')
        assert "line 2" in err

    @pytest.mark.parametrize("literal", ["Infinity", "1e400", "4.0", '"4"', "-3", "0", "1"])
    def test_model_num_classes_not_an_integer_exits_2(self, tmp_path, capsys, literal):
        err = self._bad_model_exits_2(tmp_path, capsys, '{"method": "none", "num_classes": %s}' % literal)
        assert "num_classes must be an integer in [2, inf), got" in err

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_model_fields_exit_2_or_3(self, tmp_path_factory, data):
        doc = dict(data.draw(st.sampled_from(K4_MODELS)))
        doc.update(data.draw(st.dictionaries(st.sampled_from(MODEL_FIELDS), JSON_VALUES, min_size=1)))
        for name in data.draw(st.sets(st.sampled_from(MODEL_FIELDS))):
            doc.pop(name, None)
        doc = data.draw(st.just(doc) | JSON_VALUES)
        # The dataset has 3 classes, so only a document claiming 3 could apply.
        assume(not (isinstance(doc, dict) and type(doc.get("num_classes")) is int and doc["num_classes"] == 3))
        folder = tmp_path_factory.mktemp("model")
        rng = np.random.default_rng(71)
        write_logit_csv(LogitDataset(rng.normal(size=(20, 3)), rng.integers(0, 3, 20)), str(folder / "d.csv"))
        (folder / "m.json").write_text(json.dumps(doc))
        code, err = run_main(["reliability", "--file", str(folder / "d.csv"), "--model", str(folder / "m.json"),
                              "--out", str(folder / "rel.csv")])
        assert code in (2, 3)
        assert err.startswith("error: ")
        assert not (folder / "rel.csv").exists()


class TestSynthCommand:
    def test_dnoisy_noiseless(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--kind", "dnoisy", "--n", "100", "--p-plus", "0",
                     "--p-minus", "0", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "x_0,x_1,label"
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        x, y = table[:, :-1], table[:, -1]
        assert x.shape[0] == 100
        plus = x[:, 0] > 0
        assert np.all(y[plus] == 1) and np.all(y[~plus] == 0)
        sidecar = json.loads((tmp_path / "d.json").read_text())
        assert sidecar["kind"] == "dnoisy" and sidecar["seed"] == 3

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["synth", "--kind", "dnoisy", "--n", "500", "--p-plus", "0.2",
                "--p-minus", "0.1", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_hetero_writes_three_splits_with_k_plus_one_columns(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["synth", "--kind", "hetero", "--classes", "10", "--sizes", "20",
                     "--seed", "5", "--out", str(out)]) == 0
        for split in ("train", "val", "test"):
            lines = (tmp_path / f"h.{split}.csv").read_text().strip().splitlines()
            assert len(lines[0].split(",")) == 11
            assert len(lines) == 201
        files = json.loads((tmp_path / "h.json").read_text())["files"]
        assert len(files) == 3

    def test_theorem1_writes_trial_table(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["synth", "--kind", "theorem1", "--n", "10", "--epsilon", "0.01",
                     "--trials", "3", "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "trial,scenario,rare_present,balanced,min_confidence,accuracy"
        assert len(lines) == 7  # 3 trials x 2 scenarios

    def test_invalid_spec_exits_2(self, tmp_path):
        assert main(["synth", "--kind", "dnoisy", "--p-plus", "0.7", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_nan_noise_rate_exits_2(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        assert main(["synth", "--kind", "hetero", "--noise", "0.1,nan", "--seed", "13",
                     "--classes", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --noise must be real numbers in [0, 1), got nan\n"
        assert not (tmp_path / "h.json").exists()

    def test_sizes_too_large_to_allocate_exit_2(self, tmp_path):
        # Each split would take about 64 PiB, past any address space, so the allocation fails at once.
        code, err = run_main(["synth", "--kind", "hetero", "--seed", "1", "--classes", "3",
                              "--sizes", "1000000000000000", "--out", str(tmp_path / "big.csv")])
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_theorem1_needs_a_trial(self, tmp_path, trials):
        code, err = run_main(["synth", "--kind", "theorem1", "--n", "10", "--trials", trials,
                              "--seed", "1", "--out", str(tmp_path / "t.csv")])
        assert code == 2 and f"got {trials}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("kind", ["theorem1", "dnoisy", "hetero"])
    def test_out_that_is_its_own_sidecar_exits_2(self, tmp_path, kind):
        code, err = run_main(["synth", "--kind", kind, "--seed", "1", "--n", "20", "--classes", "2",
                              "--sizes", "5", "--out", str(tmp_path / "t.json")])
        assert code == 2 and err.startswith("error: --out ") and err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, shown",
        [("--margin", "inf", "margin"), ("--scales", "inf", "scales"), ("--scales", "1,inf", "scales")],
    )
    def test_infinite_margin_or_scale_exits_2(self, tmp_path, flag, value, shown):
        code, err = run_main(["synth", "--kind", "hetero", flag, value, "--seed", "13",
                              "--classes", "2", "--out", str(tmp_path / "h.csv")])
        assert code == 2 and shown in err and "got inf" in err
        assert "RuntimeWarning" not in err
        assert not list(tmp_path.iterdir())


class TestIntegerFlags:
    @pytest.mark.parametrize(
        "command",
        [
            ["synth", "--kind", "hetero"],
            ["synth", "--kind", "dnoisy"],
            ["synth", "--kind", "theorem1"],
            ["sweep", "--axis", "noise", "--values", "0"],
        ],
    )
    def test_negative_seed_exits_2(self, tmp_path, command):
        code, err = run_main(command + ["--seed", "-1", "--out", str(tmp_path / "x.csv")])
        assert (code, err) == (2, "error: --seed must be an integer in [0, inf), got -1\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["synth", "--kind", "dnoisy"], "--dim", "0"),
            (["synth", "--kind", "dnoisy"], "--dim", "-2"),
            (["synth", "--kind", "hetero"], "--classes", "-3"),
            (["sweep", "--axis", "noise", "--values", "0"], "--classes", "-3"),
        ],
    )
    def test_out_of_range_size_exits_2(self, tmp_path, command, flag, value):
        code, err = run_main(command + [flag, value, "--seed", "1", "--out", str(tmp_path / "x.csv")])
        low = {"--dim": 1, "--classes": 2}[flag]
        assert (code, err) == (2, f"error: {flag} must be an integer in [{low}, inf), got {value}\n")
        assert not list(tmp_path.iterdir())


class TestSweep:
    def base_spec(self, sizes=300):
        return HeteroLogitSpec(
            num_classes=4,
            class_sizes=np.full(4, sizes),
            scales=np.array([2.0, 2.0, 0.5, 0.5]),
            noise_rates=np.zeros(4),
            margin=2.0,
            seed=13,
        )

    def test_noise_axis_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--axis", "noise", "--values", "0,0.2,0.4", "--seed", "13",
                     "--classes", "4", "--sizes", "200", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis_value,method,ece,max_ece,avg_ece,nll,accuracy,val_nll,nll_gap"
        assert len(lines) == 7  # 2 methods x 3 points

    def test_gamma_axis_zero_matches_ts(self):
        rows = run_sweep("gamma", [0.0, math.inf], self.base_spec())
        ts = {r.axis_value: r for r in rows if r.method == "ts"}
        cts = {r.axis_value: r for r in rows if r.method == "cts"}
        assert replace(cts[0.0], method="ts") == ts[0.0]

    @staticmethod
    def reference_rows(val, test, axis_value, gamma=math.inf):
        """The (cts, ts) rows of one point, from `fit_cts` and a standalone `fit_ts` on `val`; TS ignores `gamma`."""
        rows = []
        for method, fit in (("cts", fit_cts(val, FitConfig(gamma=gamma))), ("ts", fit_ts(val))):
            report = compute_report(test, fit.model)
            rows.append(SweepRow(axis_value, method, report.ece, report.max_ece, report.avg_ece, report.nll,
                                 report.accuracy, fit.val_nll, abs(fit.val_nll - report.nll)))
        return rows

    @staticmethod
    def class_solves(val, cfg):
        """Class searches `fit_cts(val, cfg)` runs: one per non-empty predicted class at gamma > 0, less the fallbacks."""
        if cfg.gamma == 0:
            return 0
        counts = np.bincount(np.argmax(val.logits, axis=1), minlength=val.num_classes)
        floor = cfg.min_class_samples if math.isinf(cfg.gamma) else 0
        return int(np.sum((counts > 0) & (counts >= floor)))

    @staticmethod
    def spy(monkeypatch, module, names):
        spies = {name: mock.Mock(wraps=getattr(module, name)) for name in names}
        for name, spy in spies.items():
            monkeypatch.setattr(module, name, spy)
        return spies

    def test_gamma_axis_rows_equal_direct_fits_on_one_draw(self):
        base = self.base_spec(sizes=80)
        values = [math.inf, 0.3, 0.0, 0.05]
        splits = gen_hetero_logits(base)
        expected = [row for v in sorted(values) for row in self.reference_rows(splits.val, splits.test, v, gamma=v)]
        assert run_sweep("gamma", values, base) == expected

    def test_noise_axis_rows_equal_direct_fits(self):
        base = self.base_spec(sizes=80)
        values = [0.3, 0.0, 0.1]
        expected = []
        for v in sorted(values):
            splits = gen_hetero_logits(sweep._spec_for_noise(base, v))
            expected += self.reference_rows(splits.val, splits.test, v)
        assert run_sweep("noise", values, base) == expected

    def test_nval_axis_one_trial_rows_equal_direct_fits(self):
        # One trial: the validation sets are per-class prefixes of one pooled
        # draw of ceil(max size / K) records per class, and the test split is
        # one draw of test_records // K per class with its own seed.
        base = self.base_spec()
        sizes, pool, test_records = [100, 40], 25, 803
        val_pool = gen_hetero_logits(replace(base, class_sizes=np.full(4, pool))).val
        test = gen_hetero_logits(replace(base, class_sizes=np.full(4, 200), seed=base.seed + 104729)).test
        expected = []
        for n in sorted(sizes):
            idx = np.concatenate([np.arange(c * pool, c * pool + n // 4) for c in range(4)])
            expected += self.reference_rows(val_pool.subset(idx), test, float(n))
        assert run_sweep("n_val", sizes, base, trials=1, test_records=test_records) == expected

    def test_gamma_axis_draws_once_and_never_calls_fit_ts(self, monkeypatch):
        spies = self.spy(monkeypatch, sweep, ("gen_hetero_logits", "fit_ts", "fit_cts"))
        solves = self.spy(monkeypatch, calibrate, ("minimize_scalar",))["minimize_scalar"]
        rows = run_sweep("gamma", [0.0, 0.05, 0.2, 0.5, math.inf], self.base_spec(sizes=50))
        assert {name: spy.call_count for name, spy in spies.items()} == {
            "gen_hetero_logits": 1, "fit_ts": 0, "fit_cts": 5
        }
        assert solves.call_count == 5 + sum(self.class_solves(*c.args) for c in spies["fit_cts"].call_args_list)
        assert len(rows) == 10

    @pytest.mark.parametrize(
        "axis, values, kwargs, validation_sets",
        [
            ("noise", [0.4, 0.0, 0.2], {}, 3),
            ("size", [0.2, 1.0, 0.6], {}, 3),
            ("n_val", [40, 80], {"trials": 2, "test_records": 400}, 4),
        ],
    )
    def test_one_shared_solve_per_validation_set(self, monkeypatch, axis, values, kwargs, validation_sets):
        spies = self.spy(monkeypatch, sweep, ("fit_ts", "fit_cts"))
        solves = self.spy(monkeypatch, calibrate, ("minimize_scalar",))["minimize_scalar"]
        rows = run_sweep(axis, values, self.base_spec(sizes=50), **kwargs)
        fits = spies["fit_cts"].call_args_list
        assert (spies["fit_ts"].call_count, len(fits)) == (0, validation_sets)
        assert solves.call_count - sum(self.class_solves(*c.args) for c in fits) == validation_sets
        assert len(rows) == 2 * len(values)

    def test_size_axis_runs(self):
        rows = run_sweep("size", [0.1, 1.0], self.base_spec())
        assert len(rows) == 4
        assert all(0 <= r.ece <= 1 for r in rows)

    def test_size_axis_keeps_an_empty_class_empty(self):
        base = replace(self.base_spec(), class_sizes=np.array([0, 50, 50, 50]), seed=3)
        assert sweep._spec_for_size(base, 1.0).class_sizes.tolist() == [0, 50, 50, 50]
        assert sweep._spec_for_size(base, 0.01).class_sizes.tolist() == [0, 1, 50, 50]
        splits = gen_hetero_logits(base)
        assert run_sweep("size", [1.0], base) == self.reference_rows(splits.val, splits.test, 1.0)

    def test_rows_sorted_by_value_then_method(self):
        rows = run_sweep("noise", [0.4, 0.0, 0.2], self.base_spec(sizes=150))
        assert [(r.axis_value, r.method) for r in rows] == [
            (v, m) for v in (0.0, 0.2, 0.4) for m in ("cts", "ts")
        ]

    def test_nval_axis_trial_averaging(self):
        rows = run_sweep(
            "n_val", [100, 400], self.base_spec(), trials=3, test_records=4000
        )
        ts_rows = {r.axis_value: r for r in rows if r.method == "ts"}
        assert set(ts_rows) == {100.0, 400.0}
        for r in rows:
            assert r.nll_gap >= 0.0

    def test_nval_sizes_must_be_multiples_of_classes(self, tmp_path):
        # Truncating 22 and 23 to 20 would give three identical rows.
        with pytest.raises(ConfigError):
            run_sweep("n_val", [20, 22, 23], self.base_spec(), trials=1, test_records=400)
        assert main(["sweep", "--axis", "n_val", "--values", "20,22,23", "--seed", "13",
                     "--classes", "4", "--sizes", "200", "--trials", "1",
                     "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--axis", "noise", "--values", "0,abc"],
            ["sweep", "--axis", "noise", "--values", "0", "--sizes", "200,x"],
            ["synth", "--kind", "hetero", "--scales", "1,x"],
            ["synth", "--kind", "hetero", "--noise", "0.1,x"],
        ],
    )
    def test_non_numeric_list_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert main(argv + ["--seed", "13", "--classes", "2", "--out", str(out)]) == 2
        assert repr(argv[-1].split(",")[1]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["synth", "--kind", "hetero"], ["sweep", "--axis", "noise", "--values", "0"]]
    )
    @pytest.mark.parametrize("size, shown", [("2.7", "2.7"), ("nan", "nan"), ("1e30", "1e+30")])
    def test_non_integral_sizes_exit_2(self, tmp_path, capsys, command, size, shown):
        out = tmp_path / "s.csv"
        assert main(command + ["--sizes", size, "--seed", "13", "--classes", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --sizes must be integers in [0, inf), got {shown}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("test_records", [-5, 0, 3])
    def test_nval_axis_needs_a_test_record_per_class(self, tmp_path, test_records):
        with pytest.raises(ConfigError, match=f"got {test_records}"):
            run_sweep("n_val", [100, 200], self.base_spec(), trials=1, test_records=test_records)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--axis", "n_val", "--values", "100,200", "--seed", "13",
                     "--classes", "4", "--trials", "1", "--test-records", str(test_records),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_too_few_test_records_names_the_flag(self, tmp_path):
        code, err = run_main(["sweep", "--axis", "noise", "--values", "0", "--seed", "1", "--classes", "3",
                              "--test-records", "2", "--out", str(tmp_path / "s.csv")])
        assert (code, err) == (2, "error: --test-records must be an integer in [3, inf), got 2\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("trials", [0, -2])
    def test_nval_axis_needs_a_trial(self, tmp_path, trials):
        with pytest.raises(ConfigError):
            run_sweep("n_val", [100, 200], self.base_spec(), trials=trials, test_records=400)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--axis", "n_val", "--values", "100,200", "--seed", "13",
                     "--classes", "4", "--trials", str(trials), "--out", str(out)]) == 2
        assert not out.exists()


class TestGoldenSweeps:
    """Seeded sweep CSVs stay byte-identical; `tests/write_golden.py` rewrites them."""

    @pytest.mark.parametrize("axis", list(write_golden.SWEEPS))
    def test_sweep_csv_matches_golden(self, tmp_path, axis):
        out = tmp_path / f"sweep_{axis}.csv"
        write_golden.write_sweep(axis, out)
        assert out.read_bytes() == (write_golden.GOLDEN / f"sweep_{axis}.csv").read_bytes()


class TestGoldenCli:
    """Seeded `synth`, `calibrate` and `reliability` files stay byte-identical; `tests/write_golden.py` rewrites them."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli")
        write_golden.write_cli(out)
        return out

    def test_writes_exactly_the_golden_files(self, written):
        assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in write_golden.GOLDEN_CLI.iterdir())

    @pytest.mark.parametrize("name", sorted(p.name for p in write_golden.GOLDEN_CLI.iterdir()))
    def test_file_matches_golden(self, written, name):
        assert (written / name).read_bytes() == (write_golden.GOLDEN_CLI / name).read_bytes()
