"""Binning, ECE variants, NLL, and reliability aggregates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit.core import (
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    Temperature,
    Vector,
    class_order,
    predict,
)
from calibkit.calibrate import fit_cts, fit_ts, fit_vs
from calibkit.errors import ConfigError, EmptyDatasetError, InvalidInputError
from calibkit.optim import TemperatureProblem, temperature_nll
from calibkit.metrics import (
    BinningConfig,
    bin_stats,
    compute_report,
    nll,
    reliability_rows,
)

LOG_4 = 1.3862943611198906
NLL_LOGIT_2 = 0.1269280110429725


def preds_from_probs(prob_rows, labels):
    """Route exact probability rows through the real pipeline via log-probs."""
    ds = LogitDataset(np.log(np.asarray(prob_rows, dtype=np.float64)), np.asarray(labels))
    return ds, predict(ds, Identity())


def two_class_fixture(conf_a: float, conf_b: float):
    """200 records in two predicted classes with fixed confidences.

    100 records at confidence conf_a predicted class 0 with 52 correct, and
    100 at conf_b predicted class 1 with 48 correct. Mis-labeled records use
    a third class so per-class accuracies stay exact.
    """
    rest_a = 1.0 - conf_a
    rest_b = 1.0 - conf_b
    row_a = [conf_a, rest_a * 0.6, rest_a * 0.4]
    row_b = [rest_b * 0.6, conf_b, rest_b * 0.4]
    probs = [row_a] * 100 + [row_b] * 100
    labels = [0] * 52 + [2] * 48 + [1] * 48 + [2] * 52
    return preds_from_probs(probs, labels)


class TestBinning:
    def test_zero_bins_rejected(self):
        with pytest.raises(ConfigError):
            BinningConfig(0)

    @pytest.mark.parametrize("num_bins", [2.5, 15.0, True, float("nan"), "15", None])
    def test_bins_that_are_not_integers_rejected(self, num_bins):
        with pytest.raises(ConfigError, match="must be an integer"):
            BinningConfig(num_bins)

    def test_numpy_integer_bins_accepted(self):
        assert BinningConfig(np.int64(15)).num_bins == 15

    def test_edge_inclusion_confidence_one(self):
        # Saturated softmax puts confidence exactly 1.0 into the last bin.
        ds = LogitDataset(np.array([[800.0, 0.0]]), np.array([0]))
        stats = bin_stats(predict(ds, Identity()), BinningConfig(10))
        assert stats.counts[9] == 1
        assert stats.counts[:9].sum() == 0
        assert stats.mean_confidence[9] == 1.0
        assert stats.mean_accuracy[9] == 1.0

    def test_direct_averaging_in_one_bin(self):
        ds, preds = preds_from_probs([[0.55, 0.45], [0.58, 0.42]], [0, 0])
        stats = bin_stats(preds, BinningConfig(10))
        assert stats.counts[5] == 2  # bin 6 covers (0.5, 0.6]
        np.testing.assert_allclose(stats.mean_confidence[5], 0.565, atol=1e-12)
        assert stats.mean_accuracy[5] == 1.0

    def test_empty_prediction_set_gives_zero_bins(self):
        ds = LogitDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        stats = bin_stats(predict(ds, Identity()), BinningConfig(5))
        assert stats.num_bins == 5
        np.testing.assert_array_equal(stats.counts, np.zeros(5, dtype=int))

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(20)
        ds = LogitDataset(rng.normal(size=(10_000, 6)), rng.integers(0, 6, 10_000))
        stats = bin_stats(predict(ds, Identity()), BinningConfig(15))
        assert stats.counts.sum() == 10_000

    def test_mean_confidence_lies_in_bin(self):
        rng = np.random.default_rng(21)
        ds = LogitDataset(rng.normal(size=(5000, 4)), rng.integers(0, 4, 5000))
        binning = BinningConfig(15)
        stats = bin_stats(predict(ds, Identity()), binning)
        for i in range(15):
            if stats.counts[i] == 0:
                continue
            low, high = binning.edges(i)
            assert low - 1e-12 <= stats.mean_confidence[i] <= high + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        ds = LogitDataset(rng.normal(size=(2000, 5)), rng.integers(0, 5, 2000))
        perm = rng.permutation(2000)
        shuffled = LogitDataset(ds.logits[perm], ds.labels[perm])
        a = bin_stats(predict(ds, Identity()), BinningConfig(15))
        b = bin_stats(predict(shuffled, Identity()), BinningConfig(15))
        np.testing.assert_array_equal(a.counts, b.counts)
        mask = a.counts > 0
        np.testing.assert_allclose(
            a.mean_confidence[mask], b.mean_confidence[mask], atol=1e-12
        )


def reference_ece(preds, num_bins):
    """(counts, mean confidence, mean accuracy, ECE) of a prediction pass, binned here in record order.

    Bin i >= 1 holds confidences in ((i-1)/M, i/M]; the means are NaN on
    empty bins, and the ECE sums (n_i/N) |acc_i - conf_i| over the occupied
    bins in bin order.
    """
    conf = preds.confidence
    bins = np.clip(np.ceil(conf * num_bins).astype(np.int64), 1, num_bins) - 1
    counts = np.bincount(bins, minlength=num_bins)
    conf_sums = np.bincount(bins, weights=conf, minlength=num_bins)
    acc_sums = np.bincount(bins, weights=preds.correct.astype(np.float64), minlength=num_bins)
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sums / np.maximum(counts, 1), np.nan)
        mean_acc = np.where(counts > 0, acc_sums / np.maximum(counts, 1), np.nan)
    occupied = counts > 0
    gaps = np.abs(mean_acc[occupied] - mean_conf[occupied])
    return counts, mean_conf, mean_acc, float(np.sum(counts[occupied] / conf.size * gaps))


def report_of(ds, num_bins):
    """`compute_report` of the raw logits with `num_bins` bins."""
    return compute_report(ds, Identity(), BinningConfig(num_bins))


class TestEce:
    def test_empty_dataset_rejected(self):
        ds = LogitDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDatasetError):
            compute_report(ds)

    def test_perfectly_calibrated_bins_give_zero(self):
        probs = [[0.75, 0.25]] * 100
        labels = [0] * 75 + [1] * 25
        ds, _ = preds_from_probs(probs, labels)
        assert report_of(ds, 10).ece <= 1e-12

    def test_merged_bin_worked_example(self):
        # Two classes at confidences 0.6/0.4 vs 0.54/0.50, accuracies
        # 0.52/0.48. One shared bin: the first variant cancels exactly, the
        # second is over-confident by 0.02.
        ds_shared, _ = two_class_fixture(0.6, 0.4)
        ds_classwise, _ = two_class_fixture(0.54, 0.5)
        assert abs(report_of(ds_shared, 1).ece) <= 1e-12
        assert abs(report_of(ds_classwise, 1).ece - 0.02) <= 1e-12

    def test_bounded_on_random_data(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(2, 6))
            ds = LogitDataset(rng.normal(size=(n, k)) * 3, rng.integers(0, k, n))
            value = report_of(ds, 15).ece
            assert 0.0 <= value <= 1.0


def class_eces(ds, binning):
    """Per-class ECE of the raw logits by class index, as `compute_report` reports it."""
    return {row.class_index: row.ece for row in compute_report(ds, Identity(), binning).per_class}


class TestClassEce:
    def test_worked_example_per_class(self):
        ds, _ = two_class_fixture(0.6, 0.4)
        eces = class_eces(ds, BinningConfig(1))
        assert set(eces) == {0, 1}
        assert abs(eces[0] - 0.08) <= 1e-12
        assert abs(eces[1] - 0.08) <= 1e-12

        ds, _ = two_class_fixture(0.54, 0.5)
        eces = class_eces(ds, BinningConfig(1))
        assert abs(eces[0] - 0.02) <= 1e-12
        assert abs(eces[1] - 0.02) <= 1e-12

    def test_single_predicted_class_equals_global(self):
        rng = np.random.default_rng(24)
        logits = rng.normal(size=(300, 4))
        logits[:, 2] += 30  # force every prediction to class 2
        ds = LogitDataset(logits, rng.integers(0, 4, 300))
        report = report_of(ds, 15)
        assert [row.class_index for row in report.per_class] == [2]
        assert abs(report.per_class[0].ece - report.ece) <= 1e-15

    def test_empty_classes_absent_not_zero(self):
        ds, _ = two_class_fixture(0.6, 0.4)
        eces = class_eces(ds, BinningConfig(1))
        assert 2 not in eces  # class 2 never predicted


def saturated(counts_correct):
    """Records at confidence exactly 1, one (predicted class, records, correct) triple per class.

    A logit gap of 800 saturates the softmax, so every ECE is exactly
    1 - accuracy. Mis-labeled records use the last class, never predicted.
    """
    k = len(counts_correct) + 1
    logits, labels = [], []
    for c, (n, right) in enumerate(counts_correct):
        row = np.zeros(k)
        row[c] = 800.0
        logits += [row] * n
        labels += [c] * right + [k - 1] * (n - right)
    return LogitDataset(np.array(logits), np.array(labels))


class TestMaxAvgEce:
    def test_worked_example_max(self):
        ds, _ = two_class_fixture(0.6, 0.4)
        assert abs(report_of(ds, 1).max_ece - 0.08) <= 1e-12

    def test_equal_values(self):
        # 48/50 and 24/25 are one double, so both classes have one ECE.
        report = report_of(saturated([(50, 48), (25, 24)]), 15)
        assert [row.ece for row in report.per_class] == [1.0 - 24 / 25] * 2
        assert report.max_ece == report.avg_ece == 1.0 - 24 / 25

    def test_avg_arithmetic_mean(self):
        # Class ECEs 0 and 0.04.
        report = report_of(saturated([(40, 40), (25, 24)]), 15)
        assert abs(report.avg_ece - 0.02) <= 1e-15

    def test_max_matches_bruteforce_recomputation(self):
        rng = np.random.default_rng(25)
        ds = LogitDataset(rng.normal(size=(2000, 10)) * 2, rng.integers(0, 10, 2000))
        preds = predict(ds, Identity())
        brute = -1.0
        for k in range(ds.num_classes):
            idx = np.flatnonzero(preds.predicted == k)
            if idx.size == 0:
                continue
            sub = LogitDataset(ds.logits[idx], ds.labels[idx])
            brute = max(brute, reference_ece(predict(sub, Identity()), 15)[3])
        assert abs(report_of(ds, 15).max_ece - brute) <= 1e-12

    def test_avg_never_exceeds_max(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            k = int(rng.integers(2, 8))
            ds = LogitDataset(rng.normal(size=(300, k)) * 3, rng.integers(0, k, 300))
            report = report_of(ds, 15)
            assert report.avg_ece <= report.max_ece + 1e-15


class TestNll:
    def test_uniform_probabilities(self):
        ds = LogitDataset(np.zeros((10, 4)), np.arange(10) % 4)
        assert abs(nll(ds) - LOG_4) <= 1e-12

    def test_perfect_fit_is_zero(self):
        ds = LogitDataset(np.array([[800.0, 0.0], [0.0, 800.0]]), np.array([0, 1]))
        assert nll(ds) == 0.0

    def test_reference_value(self):
        ds = LogitDataset(np.array([[2.0, 0.0]]), np.array([0]))
        assert abs(nll(ds) - NLL_LOGIT_2) <= 1e-12

    def test_finite_on_extreme_logits(self):
        ds = LogitDataset(np.array([[2000.0, -2000.0]]), np.array([1]))
        value = nll(ds)
        assert np.isfinite(value)
        # Exact: the label's log-probability is -4000, with no floor.
        assert value == 4000.0

    def test_empty_rejected(self):
        ds = LogitDataset(np.zeros((0, 3)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDatasetError):
            nll(ds)

    def test_overflowing_calibrated_logits_rejected(self):
        ds = LogitDataset(np.array([[10.0, 1.0]]), np.array([0]))
        with pytest.raises(InvalidInputError), np.errstate(over="ignore", invalid="ignore"):
            nll(ds, Vector(np.full(2, 1e308), np.zeros(2)))
        # Finite calibrated logits whose max-shift overflows to -inf.
        ds = LogitDataset(np.array([[1.0, -1.0]]), np.array([1]))
        with pytest.raises(InvalidInputError), np.errstate(over="ignore", invalid="ignore"):
            nll(ds, Vector(np.full(2, 1.7e308), np.zeros(2)))

    def test_temperature_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(27)
        ds = LogitDataset(rng.normal(size=(200, 5)), rng.integers(0, 5, 200))
        problem = TemperatureProblem.of(ds)
        h = 1e-5
        for alpha in rng.uniform(0.1, 10, 20):
            fd = (nll(ds, Temperature(alpha + h)) - nll(ds, Temperature(alpha - h))) / (2 * h)
            grad = temperature_nll(problem, alpha)[1]
            assert abs(grad - fd) / max(abs(fd), 1e-8) <= 1e-5


class TestReliabilityRows:
    def test_empty_bin_has_null_means(self):
        ds, preds = preds_from_probs([[0.9, 0.1]], [0])
        binning = BinningConfig(10)
        rows = reliability_rows(bin_stats(preds, binning), binning)
        assert len(rows) == 10
        assert rows[0] == (0.0, 0.1, 0, None, None)
        low, high, count, conf, acc = rows[8]
        assert (low, high, count) == (0.8, 0.9, 1)
        assert abs(conf - 0.9) < 1e-12

    def test_worked_example_single_populated_row(self):
        _, preds = two_class_fixture(0.6, 0.4)
        binning = BinningConfig(1)
        rows = reliability_rows(bin_stats(preds, binning), binning)
        assert len(rows) == 1
        low, high, count, conf, acc = rows[0]
        assert (low, high, count) == (0.0, 1.0, 200)
        assert abs(conf - 0.5) <= 1e-12
        assert abs(acc - 0.5) <= 1e-12

    def test_row_count_and_coverage(self):
        rng = np.random.default_rng(28)
        ds = LogitDataset(rng.normal(size=(500, 3)), rng.integers(0, 3, 500))
        binning = BinningConfig(10)
        rows = reliability_rows(bin_stats(predict(ds, Identity()), binning), binning)
        assert len(rows) == 10
        assert sum(r[2] for r in rows) == 500


class TestReport:
    def test_report_ranges_and_ordering(self):
        rng = np.random.default_rng(29)
        ds = LogitDataset(rng.normal(size=(3000, 8)) * 2, rng.integers(0, 8, 3000))
        report = compute_report(ds)
        for value in (report.ece, report.max_ece, report.avg_ece):
            assert 0.0 <= value <= 1.0
        assert report.nll >= 0.0
        assert report.max_ece >= report.avg_ece

    def test_never_predicted_class_warned(self):
        logits = np.zeros((50, 3))
        logits[:, 0] = 5.0
        ds = LogitDataset(logits, np.zeros(50, dtype=int))
        report = compute_report(ds)
        assert any("never predicted" in w for w in report.warnings)
        assert {row.class_index for row in report.per_class} == {0}


class TestOnePass:
    """Every NLL a report gives is the mean of one `predict` pass.

    TS and VS report as `val_nll` exactly that mean on the validation set.
    CTS reports its class-ordered objective, which `predict`'s record-order
    mean matches to rounding.
    """

    def test_report_nll_metric_and_fit_agree_exactly(self):
        rng = np.random.default_rng(31)
        k = 4
        logits = rng.normal(size=(4000, k)) * 2
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        labels = np.minimum((rng.random(4000)[:, None] > np.cumsum(p, axis=1)).sum(axis=1), k - 1)
        val = LogitDataset(logits[:2000] * 1.5, labels[:2000])
        test = LogitDataset(logits[2000:] * 1.5, labels[2000:])
        cts = fit_cts(val)
        for fit in (fit_ts(val), cts, fit_vs(val)):
            value = nll(test, fit.model)
            assert compute_report(test, fit.model).nll == value
            assert float(np.mean(predict(test, fit.model).nll)) == value
            if fit is not cts:
                assert fit.val_nll == nll(val, fit.model)
        order, starts = class_order(val.top[0], val.num_classes)
        temperatures = np.repeat(cts.model.alphas, np.diff(starts))[:, None]
        assert cts.val_nll == temperature_nll(TemperatureProblem.of(val, order), temperatures)[0]
        assert abs(cts.val_nll - nll(val, cts.model)) <= 4 * np.finfo(float).eps * cts.val_nll

    def test_report_predicted_is_the_prediction_pass(self):
        rng = np.random.default_rng(32)
        ds = LogitDataset(rng.normal(size=(500, 3)), rng.integers(0, 3, 500))
        model = Vector(np.array([1.0, 0.5, 2.0]), np.array([0.3, 0.0, -0.3]))
        report = compute_report(ds, model)
        np.testing.assert_array_equal(report.predicted, predict(ds, model).predicted)
        assert not report.predicted.flags.writeable


def reference_per_class(preds, num_classes, num_bins):
    """(class, count, ece, accuracy, mean confidence) per predicted class, one gather each.

    Each class's records are taken with `np.flatnonzero` and binned here:
    bin i >= 1 holds confidences in ((i-1)/M, i/M], and the ECE sums the
    weighted gaps of the occupied bins in bin order.
    """
    rows = []
    for k in range(num_classes):
        idx = np.flatnonzero(preds.predicted == k)
        if idx.size == 0:
            continue
        conf, correct = preds.confidence[idx], preds.correct[idx]
        bins = np.clip(np.ceil(conf * num_bins).astype(np.int64), 1, num_bins) - 1
        counts = np.bincount(bins, minlength=num_bins)
        conf_sums = np.bincount(bins, weights=conf, minlength=num_bins)
        acc_sums = np.bincount(bins, weights=correct.astype(np.float64), minlength=num_bins)
        occupied = counts > 0
        n = counts[occupied]
        gaps = np.abs(acc_sums[occupied] / n - conf_sums[occupied] / n)
        rows.append((k, idx.size, float(np.sum(n / idx.size * gaps)), float(np.mean(correct)), float(np.mean(conf))))
    return rows


def same_float(a, b) -> bool:
    return type(a) is type(b) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


class TestPerClassReport:
    """`compute_report`'s per-class statistics, bit for bit against a gather per class."""

    @given(
        k=st.sampled_from([2, 3, 10, 100, 257]),
        n=st.integers(1, 600),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        dead=st.floats(0.0, 0.9),
        kind=st.sampled_from(["none", "ts", "cts", "vs"]),
        num_bins=st.sampled_from([1, 2, 15, 100, 5000]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_a_gather_per_class(self, k, n, seed, ties, dead, kind, num_bins):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, k)) * 3
        if ties:
            logits = np.round(logits)  # many exact ties in the raw logits
        # The last classes are never the raw argmax.
        logits[:, k - int(dead * k) :] -= 100
        ds = LogitDataset(logits, rng.integers(0, k, n))
        if kind == "ts":
            model = Temperature(rng.uniform(0.1, 5))
        elif kind == "cts":
            model = ClassWiseTemperature(1.0, rng.uniform(0.1, 5, k), np.inf)
        elif kind == "vs":
            # A bias far above any logit gap moves record 0 to another class.
            bias = np.zeros(k)
            bias[(ds.top[0][0] + 1) % k] = 1000
            model = Vector(rng.uniform(0.5, 2, k), bias)
        else:
            model = Identity()
        preds = predict(ds, model)
        if kind == "vs":
            assert preds.predicted[0] != ds.top[0][0]

        report = compute_report(ds, model, BinningConfig(num_bins))
        want = reference_per_class(preds, k, num_bins)
        got = [(r.class_index, r.count, r.ece, r.accuracy, r.mean_confidence) for r in report.per_class]
        assert [row[:2] for row in got] == [row[:2] for row in want]
        assert all(type(row[1]) is int for row in got)
        for g, w in zip(got, want):
            assert all(same_float(a, b) for a, b in zip(g[2:], w[2:])), (g, w)
        eces = [row[2] for row in want]
        assert same_float(report.max_ece, float(max(eces)))
        assert same_float(report.avg_ece, float(np.mean(eces)))
        counts, mean_conf, mean_acc, overall = reference_ece(preds, num_bins)
        assert same_float(report.ece, overall)
        stats = bin_stats(preds, BinningConfig(num_bins))
        for g, w in ((stats.counts, counts), (stats.mean_confidence, mean_conf), (stats.mean_accuracy, mean_acc)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        never = sorted(set(range(k)) - {row[0] for row in want})
        assert report.warnings == [f"class {c} was never predicted; excluded from max/Avg-ECE" for c in never]

        # The split at the edges of the uint8, uint16 and uint32 sort keys.
        for big in (256, 257, 65_537):
            labels = np.minimum(preds.predicted, big - 1)
            labels[labels == labels.max()] = big - 1
            order, bounds = class_order(labels, big)
            assert len(bounds) == big + 1 and bounds[0] == 0 and bounds[-1] == n
            for c in np.unique(labels):  # every other class's run is empty, by the bounds above
                np.testing.assert_array_equal(order[bounds[c] : bounds[c + 1]], np.flatnonzero(labels == c), strict=True)
