"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a PASS line with the measured quantities (visible with
``pytest -s`` or on failure) and enforces its runtime budget.
"""

import json
import math
import time

import numpy as np
from scipy.optimize import brentq

from calibkit.calibrate import FitConfig, fit_cts, fit_ts
from calibkit.cli import main
from calibkit.core import (
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    Temperature,
    predict,
)
from calibkit.io import read_logit_csv, write_logit_csv
from calibkit.metrics import BinningConfig, compute_report
from calibkit.optim import (
    TemperatureProblem,
    nll_grad_vector,
    temperature_nll,
    vector_nll,
)
from calibkit.sweep import run_sweep
from calibkit.synthetic import (
    BinaryDataset,
    HeteroLogitSpec,
    NoisyBinarySpec,
    fit_constrained_logistic,
    gen_hetero_logits,
    optimal_noisy_classifier,
    population_confidence_accuracy,
    rare_atom_experiment,
    sample_dnoisy,
)
from test_top_logit import label_nlls


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def dataset_from_probs(prob_rows, labels):
    return LogitDataset(np.log(np.asarray(prob_rows, dtype=np.float64)), np.asarray(labels))


def two_class_fixture(conf_a, conf_b):
    """200 records, two predicted classes, confidences (conf_a, conf_b), accuracies (0.52, 0.48)."""
    rest_a, rest_b = 1.0 - conf_a, 1.0 - conf_b
    probs = [[conf_a, rest_a * 0.6, rest_a * 0.4]] * 100 + [[rest_b * 0.6, conf_b, rest_b * 0.4]] * 100
    labels = [0] * 52 + [2] * 48 + [1] * 48 + [2] * 52
    return dataset_from_probs(probs, labels)


def test_criterion_1_two_atom_closed_form_exact():
    start = time.monotonic()
    clf = optimal_noisy_classifier(0.3, 0.1)
    f_plus = float(clf.prob(np.array([1.0])))
    f_minus = float(clf.prob(np.array([-1.0])))
    assert abs(f_plus - 0.7) <= 1e-12
    assert abs(f_minus - 0.1) <= 1e-12

    # Numerical minimization of the explicit two-atom population NLL: it
    # decouples in (weight+intercept, weight-intercept), each solved to
    # machine precision via its stationarity condition.
    alpha = brentq(lambda a: 0.7 * sigmoid(-a) - 0.3 * sigmoid(a), -30, 30, xtol=1e-13)
    beta = brentq(lambda b: 0.9 * sigmoid(-b) - 0.1 * sigmoid(b), -30, 30, xtol=1e-13)
    assert abs(0.5 * (alpha + beta) - clf.weight[0]) <= 1e-8
    assert abs(0.5 * (alpha - beta) - clf.intercept) <= 1e-8

    spec = NoisyBinarySpec(0.3, 0.1, p_test=0.2, direction=[1.0])
    conf_plus, conf_minus, acc = population_confidence_accuracy(clf, spec)
    assert abs(conf_plus - 0.7) <= 1e-15
    assert abs(conf_minus - 0.9) <= 1e-15
    assert acc == 0.8

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: closed form exact, numerical match <= 1e-8, "
          f"tuple ({conf_plus}, {conf_minus}, {acc}), {elapsed:.2f}s")


def test_criterion_2_two_atom_sampled_fit():
    start = time.monotonic()
    spec = NoisyBinarySpec(0.3, 0.1, p_test=0.2, direction=[1.0, 0.0])
    train = sample_dnoisy(spec, 200_000, seed=2024)
    rows, counts = np.unique(np.column_stack([train.x, train.y]), axis=0, return_counts=True)
    clf = fit_constrained_logistic(BinaryDataset(rows[:, :-1], rows[:, -1]), counts, radius=1000.0)

    conf_plus = float(clf.prob(spec.direction))
    conf_minus = 1.0 - float(clf.prob(-spec.direction))
    assert abs(conf_plus - 0.70) <= 0.01
    assert abs(conf_minus - 0.90) <= 0.01

    test_spec = NoisyBinarySpec(0.2, 0.2, direction=[1.0, 0.0])
    test = sample_dnoisy(test_spec, 200_000, seed=2025)
    acc = float(np.mean((clf.logit(test.x) >= 0) == test.y))
    assert abs(acc - 0.80) <= 0.01

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 2 PASS: sampled confidences ({conf_plus:.4f}, {conf_minus:.4f}), "
          f"empirical accuracy {acc:.4f}, {elapsed:.1f}s")


def test_criterion_3_rare_atom_statistics():
    start = time.monotonic()
    records = rare_atom_experiment(n=50, epsilon=0.01, trials=200, seed=5000)
    bound = 1 - 1 / (20 * 50)

    s1_absent = [r for r in records if r.scenario == "s1" and not r.rare_present]
    s1_pass = sum(
        1 for r in s1_absent if r.min_confidence >= 0.99 and r.accuracy <= bound
    )
    assert len(s1_absent) > 0
    s1_rate = s1_pass / len(s1_absent)
    assert s1_rate >= 0.95

    s2 = [r for r in records if r.scenario == "s2"]
    s2_pass = sum(1 for r in s2 if r.accuracy == 1.0 and r.min_confidence >= 0.99)
    s2_rate = s2_pass / len(s2)
    assert s2_rate >= 0.80

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 3 PASS: small-sample rate {s1_pass}/{len(s1_absent)} ({s1_rate:.3f}), "
          f"large-sample rate {s2_pass}/200 ({s2_rate:.3f}), {elapsed:.0f}s")


def test_criterion_4_merged_bin_worked_example_exact():
    one_bin = BinningConfig(1)

    report = compute_report(two_class_fixture(0.6, 0.4), Identity(), one_bin)
    eces = {row.class_index: row.ece for row in report.per_class}
    assert abs(eces[0] - 0.08) <= 1e-12
    assert abs(eces[1] - 0.08) <= 1e-12
    merged_shared = report.ece
    assert abs(merged_shared - 0.0) <= 1e-12

    report = compute_report(two_class_fixture(0.54, 0.5), Identity(), one_bin)
    eces = {row.class_index: row.ece for row in report.per_class}
    assert abs(eces[0] - 0.02) <= 1e-12
    assert abs(eces[1] - 0.02) <= 1e-12
    merged_classwise = report.ece
    assert abs(merged_classwise - 0.02) <= 1e-12

    print(f"ACCEPTANCE 4 PASS: per-class 0.08/0.08 and 0.02/0.02, "
          f"merged {merged_shared:.1e} and {merged_classwise:.6f}, all to 1e-12")


def test_criterion_5_collapse_and_consistency():
    rng = np.random.default_rng(500)

    # CTS at gamma 0 equals TS on five random datasets.
    for _ in range(5):
        n = int(rng.integers(200, 800))
        k = int(rng.integers(2, 7))
        ds = LogitDataset(rng.normal(size=(n, k)) * 2, rng.integers(0, k, n))
        ts = fit_ts(ds)
        cts = fit_cts(ds, FitConfig(gamma=0.0))
        assert np.max(np.abs(cts.model.alphas - ts.model.alpha)) <= 1e-6

    # Temperature and class-wise temperature never change predictions.
    ds = LogitDataset(rng.normal(size=(10_000, 6)) * 3, rng.integers(0, 6, 10_000))
    before = predict(ds, Identity())
    for _ in range(10):
        alpha = float(rng.uniform(1e-6, 100))
        after = predict(ds, Temperature(alpha))
        assert np.array_equal(after.predicted, before.predicted)
        assert after.accuracy - before.accuracy == 0.0
        alphas = rng.uniform(1e-3, 100, 6)
        after = predict(ds, ClassWiseTemperature(1.0, alphas, math.inf))
        assert np.array_equal(after.predicted, before.predicted)
        assert after.accuracy - before.accuracy == 0.0

    # Unit temperature is bitwise identical to no calibration.
    unit = predict(ds, Temperature(1.0))
    np.testing.assert_array_equal(label_nlls(ds, Temperature(1.0)), label_nlls(ds, Identity()))
    np.testing.assert_array_equal(unit.predicted, before.predicted)
    np.testing.assert_array_equal(unit.confidence, before.confidence)
    np.testing.assert_array_equal(unit.correct, before.correct)

    print("ACCEPTANCE 5 PASS: gamma-0 collapse <= 1e-6 on 5 datasets, "
          "zero accuracy delta on 10k records, unit temperature bit-identical")


def test_criterion_6_optimizer_oracles():
    rng = np.random.default_rng(600)

    # Scalar fits land within one step of a dense grid argmin.
    lo, hi = 0.01, 100.0
    grid = np.linspace(lo, hi, 10_001)
    step = grid[1] - grid[0]
    for _ in range(5):
        n = int(rng.integers(150, 500))
        k = int(rng.integers(2, 8))
        ds = LogitDataset(rng.normal(size=(n, k)) * 2, rng.integers(0, k, n))
        fitted = fit_ts(ds, FitConfig(alpha_lo=lo, alpha_hi=hi)).model.alpha
        problem = TemperatureProblem.of(ds)
        vals = np.array([temperature_nll(problem, a)[0] for a in grid])
        assert abs(fitted - grid[int(np.argmin(vals))]) <= step

    # Analytic gradients match central finite differences, 100 trials.
    h = 1e-5
    for trial in range(100):
        k = int(rng.integers(2, 6))
        ds = LogitDataset(rng.normal(size=(60, k)), rng.integers(0, k, 60))
        if trial % 2 == 0:
            alpha = float(rng.uniform(0.1, 10))
            problem = TemperatureProblem.of(ds)
            grad = temperature_nll(problem, alpha)[1]
            fd = (temperature_nll(problem, alpha + h)[0] - temperature_nll(problem, alpha - h)[0]) / (2 * h)
            assert abs(grad - fd) / max(abs(fd), 1e-8) <= 1e-5
        else:
            a = rng.uniform(0.5, 2.0, k)
            b = rng.normal(scale=0.5, size=k)
            _, ga, gb = nll_grad_vector(ds, a, b)
            j = int(rng.integers(0, k))
            e = np.zeros(k)
            e[j] = h
            fd_a = (vector_nll(ds, a + e, b) - vector_nll(ds, a - e, b)) / (2 * h)
            fd_b = (vector_nll(ds, a, b + e) - vector_nll(ds, a, b - e)) / (2 * h)
            assert abs(ga[j] - fd_a) / max(abs(fd_a), 1e-8) <= 1e-5
            assert abs(gb[j] - fd_b) / max(abs(fd_b), 1e-8) <= 1e-5

    print("ACCEPTANCE 6 PASS: grid-oracle agreement on 5 fixtures, "
          "100 finite-difference gradient checks at rel err <= 1e-5")


def test_criterion_7_heterogeneity_phenomenon():
    start = time.monotonic()
    scales = np.where(np.arange(10) < 5, 3.0, 1.0 / 3.0)
    spec = HeteroLogitSpec(
        num_classes=10,
        class_sizes=np.full(10, 10_000),
        scales=scales,
        noise_rates=np.zeros(10),
        margin=9.0,
        seed=20260810,
    )
    splits = gen_hetero_logits(spec)

    preds = predict(splits.test, Identity())
    over = splits.test.labels < 5
    gap_over = float(preds.confidence[over].mean() - preds.correct[over].mean())
    gap_under = float(preds.confidence[~over].mean() - preds.correct[~over].mean())
    assert gap_over > 0.02
    assert gap_under < -0.02

    ts = fit_ts(splits.val)
    cts = fit_cts(splits.val, FitConfig(gamma=math.inf))
    r_uncal = compute_report(splits.test)
    r_ts = compute_report(splits.test, ts.model)
    r_cts = compute_report(splits.test, cts.model)
    assert r_cts.max_ece < r_ts.max_ece
    assert r_cts.avg_ece < r_ts.avg_ece
    assert r_cts.max_ece < r_uncal.max_ece
    assert r_cts.avg_ece < r_uncal.avg_ece

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 PASS: gaps ({gap_over:+.3f}, {gap_under:+.3f}); "
          f"max-ECE uncal/ts/cts = {r_uncal.max_ece:.4f}/{r_ts.max_ece:.4f}/{r_cts.max_ece:.4f}; "
          f"Avg-ECE = {r_uncal.avg_ece:.4f}/{r_ts.avg_ece:.4f}/{r_cts.avg_ece:.4f}; {elapsed:.0f}s")


def test_criterion_8_nll_gap_decreases_with_validation_size():
    start = time.monotonic()
    base = HeteroLogitSpec(
        num_classes=10,
        class_sizes=np.full(10, 100),
        scales=np.ones(10),
        noise_rates=np.zeros(10),
        margin=2.0,
        seed=101,
    )
    sizes = [500, 1000, 2000, 4000, 8000]
    rows = run_sweep("n_val", sizes, base, trials=30, test_records=50_000)
    gaps = [r.nll_gap for r in rows if r.method == "ts"]
    assert len(gaps) == len(sizes)
    for bigger_n_gap, smaller_n_gap in zip(gaps[1:], gaps[:-1]):
        assert bigger_n_gap < smaller_n_gap

    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8 PASS: trial-averaged |val NLL - test NLL| = "
          f"{[round(g, 5) for g in gaps]} strictly decreasing, {elapsed:.0f}s")


def test_criterion_9_round_trip_and_determinism(tmp_path):
    # Metric-preserving round trip of a generated dataset.
    spec = HeteroLogitSpec(
        num_classes=6,
        class_sizes=np.full(6, 2000),
        scales=np.array([2.0, 2.0, 2.0, 0.5, 0.5, 0.5]),
        noise_rates=np.full(6, 0.1),
        margin=2.0,
        seed=909,
    )
    ds = gen_hetero_logits(spec).val
    path = tmp_path / "round.csv"
    write_logit_csv(ds, str(path))
    back = read_logit_csv(str(path))
    a = compute_report(ds)
    b = compute_report(back)
    for name in ("accuracy", "ece", "max_ece", "avg_ece", "nll"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12

    # Identical seeds give byte-identical synth outputs.
    for kind, flags in (
        ("dnoisy", ["--n", "400", "--p-plus", "0.3", "--p-minus", "0.1"]),
        ("hetero", ["--classes", "4", "--sizes", "50"]),
    ):
        out1 = tmp_path / f"{kind}_1.csv"
        out2 = tmp_path / f"{kind}_2.csv"
        base = ["synth", "--kind", kind, "--seed", "7", *flags]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        if kind == "hetero":
            for split in ("train", "val", "test"):
                f1 = tmp_path / f"{kind}_1.{split}.csv"
                f2 = tmp_path / f"{kind}_2.{split}.csv"
                assert f1.read_bytes() == f2.read_bytes()
        else:
            assert out1.read_bytes() == out2.read_bytes()

    # Identical inputs give byte-identical reports.
    val = tmp_path / "hetero_1.val.csv"
    test = tmp_path / "hetero_1.test.csv"
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["calibrate", "--val", str(val), "--test", str(test), "--method", "cts",
            "--gamma", "inf", "--min-class-samples", "5"]
    assert main(args + ["--out-report", str(r1)]) == 0
    assert main(args + ["--out-report", str(r2)]) == 0
    body1 = json.loads(r1.read_text())
    body2 = json.loads(r2.read_text())
    body1["config"].pop("val_file"), body2["config"].pop("val_file")
    body1["config"].pop("test_file"), body2["config"].pop("test_file")
    assert body1 == body2

    print("ACCEPTANCE 9 PASS: lossless round trip (metrics to 1e-12), "
          "byte-identical synth outputs and reports for fixed seeds")
