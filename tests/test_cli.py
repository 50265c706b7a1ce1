"""File formats, the command-line front end, and sweeps."""

import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from calibkit import cli, sweep
from calibkit.cli import main
from calibkit.calibrate import model_from_dict
from calibkit.core import Identity, LogitDataset, predict, softmax
from calibkit.errors import ConfigError, FileFormatError
from calibkit.io import read_logit_csv, write_logit_csv
from calibkit.metrics import compute_report
from calibkit.sweep import run_sweep
from calibkit.synthetic import HeteroLogitSpec


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

    def test_header_only_file_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("logit_0,logit_1,label\n")
        ds = read_logit_csv(str(path))
        assert ds.num_records == 0 and ds.num_classes == 2


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

    def test_parse_error_exits_2_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("logit_0,logit_1,label\n1.0,x,0\n")
        assert main(["calibrate", "--val", str(bad), "--test", str(bad), "--method", "ts",
                     "--out-report", str(tmp_path / "r.json")]) == 2
        assert "line 2" in capsys.readouterr().err


class TestReliabilityCommand:
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
        assert "noise rates" in capsys.readouterr().err
        assert not (tmp_path / "h.json").exists()


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
        assert lines[0] == "axis_value,method,ece,max_ece,avg_ece,nll,accuracy"
        assert len(lines) == 7  # 2 methods x 3 points

    def test_gamma_axis_zero_matches_ts(self):
        rows = run_sweep("gamma", [0.0, math.inf], self.base_spec())
        ts = {r.axis_value: r for r in rows if r.method == "ts"}
        cts = {r.axis_value: r for r in rows if r.method == "cts"}
        for name in ("ece", "max_ece", "avg_ece", "nll", "accuracy"):
            assert abs(getattr(cts[0.0], name) - getattr(ts[0.0], name)) <= 1e-9

    def test_size_axis_runs(self):
        rows = run_sweep("size", [0.1, 1.0], self.base_spec())
        assert len(rows) == 4
        assert all(0 <= r.ece <= 1 for r in rows)

    def test_rows_sorted_regardless_of_thread_count(self, monkeypatch):
        spec = self.base_spec(sizes=150)
        rows1 = run_sweep("noise", [0.4, 0.0, 0.2], spec)
        monkeypatch.setenv("CALIBKIT_THREADS", "3")
        rows2 = run_sweep("noise", [0.4, 0.0, 0.2], spec)
        assert [(r.axis_value, r.method) for r in rows1] == [
            (r.axis_value, r.method) for r in rows2
        ]
        for a, b in zip(rows1, rows2):
            assert a.ece == b.ece and a.nll == b.nll

    def test_nval_axis_trial_averaging(self):
        rows = run_sweep(
            "n_val", [100, 400], self.base_spec(), trials=3, test_records=4000
        )
        ts_rows = {r.axis_value: r for r in rows if r.method == "ts"}
        assert set(ts_rows) == {100.0, 400.0}
        for r in rows:
            assert r.nll_gap >= 0.0

    def test_nval_axis_identical_on_two_threads(self, monkeypatch):
        threads = set()
        fit_ts = sweep.fit_ts

        def recording_fit_ts(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return fit_ts(*args, **kwargs)

        monkeypatch.setattr(sweep, "fit_ts", recording_fit_ts)
        args = ("n_val", [40, 100], self.base_spec())
        monkeypatch.setenv("CALIBKIT_THREADS", "1")
        rows1 = run_sweep(*args, trials=4, test_records=800)
        assert threads == {"MainThread"}
        threads.clear()
        monkeypatch.setenv("CALIBKIT_THREADS", "2")
        rows2 = run_sweep(*args, trials=4, test_records=800)
        assert "MainThread" not in threads and len(threads) == 2
        assert rows1 == rows2

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_thread_count_warns_and_uses_one_worker(self, monkeypatch, value):
        monkeypatch.setenv("CALIBKIT_THREADS", value)
        with pytest.warns(UserWarning, match=repr(value)):
            assert sweep._worker_count(4) == 1

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
        assert "class sizes" in err and f"got {shown}" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("trials", [0, -2])
    def test_nval_axis_needs_a_trial(self, tmp_path, trials):
        with pytest.raises(ConfigError):
            run_sweep("n_val", [100, 200], self.base_spec(), trials=trials, test_records=400)
        out = tmp_path / "s.csv"
        assert main(["sweep", "--axis", "n_val", "--values", "100,200", "--seed", "13",
                     "--classes", "4", "--trials", str(trials), "--out", str(out)]) == 2
        assert not out.exists()
