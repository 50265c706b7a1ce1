"""Binning, ECE variants, NLL, and reliability aggregates."""

import numpy as np
import pytest

from calibkit.core import Identity, LogitDataset, Temperature, Vector, predict, split_by_predicted
from calibkit.calibrate import fit_cts, fit_ts, fit_vs
from calibkit.errors import ConfigError, EmptyDatasetError, InvalidInputError
from calibkit.metrics import (
    BinnedStats,
    BinningConfig,
    avg_ece,
    bin_stats,
    class_ece,
    compute_report,
    ece,
    max_ece,
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
        assert stats.total == 0
        np.testing.assert_array_equal(stats.counts, np.zeros(5, dtype=int))

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(20)
        ds = LogitDataset(rng.normal(size=(10_000, 6)), rng.integers(0, 6, 10_000))
        stats = bin_stats(predict(ds, Identity()), BinningConfig(15))
        assert stats.counts.sum() == 10_000 == stats.total

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


class TestEce:
    def test_empty_dataset_rejected(self):
        stats = BinnedStats(np.zeros(5, dtype=int), np.full(5, np.nan), np.full(5, np.nan), 0)
        with pytest.raises(EmptyDatasetError):
            ece(stats)

    def test_perfectly_calibrated_bins_give_zero(self):
        probs = [[0.75, 0.25]] * 100
        labels = [0] * 75 + [1] * 25
        _, preds = preds_from_probs(probs, labels)
        assert ece(bin_stats(preds, BinningConfig(10))) <= 1e-12

    def test_merged_bin_worked_example(self):
        # Two classes at confidences 0.6/0.4 vs 0.54/0.50, accuracies
        # 0.52/0.48. One shared bin: the first variant cancels exactly, the
        # second is over-confident by 0.02.
        _, preds_shared = two_class_fixture(0.6, 0.4)
        _, preds_classwise = two_class_fixture(0.54, 0.5)
        one_bin = BinningConfig(1)
        assert abs(ece(bin_stats(preds_shared, one_bin))) <= 1e-12
        assert abs(ece(bin_stats(preds_classwise, one_bin)) - 0.02) <= 1e-12

    def test_bounded_on_random_data(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 500))
            k = int(rng.integers(2, 6))
            ds = LogitDataset(rng.normal(size=(n, k)) * 3, rng.integers(0, k, n))
            value = ece(bin_stats(predict(ds, Identity()), BinningConfig(15)))
            assert 0.0 <= value <= 1.0


class TestClassEce:
    def test_worked_example_per_class(self):
        _, preds = two_class_fixture(0.6, 0.4)
        eces = class_ece(preds, split_by_predicted(preds), BinningConfig(1))
        assert set(eces) == {0, 1}
        assert abs(eces[0] - 0.08) <= 1e-12
        assert abs(eces[1] - 0.08) <= 1e-12

        _, preds = two_class_fixture(0.54, 0.5)
        eces = class_ece(preds, split_by_predicted(preds), BinningConfig(1))
        assert abs(eces[0] - 0.02) <= 1e-12
        assert abs(eces[1] - 0.02) <= 1e-12

    def test_single_predicted_class_equals_global(self):
        rng = np.random.default_rng(24)
        logits = rng.normal(size=(300, 4))
        logits[:, 2] += 30  # force every prediction to class 2
        ds = LogitDataset(logits, rng.integers(0, 4, 300))
        preds = predict(ds, Identity())
        binning = BinningConfig(15)
        eces = class_ece(preds, split_by_predicted(preds), binning)
        assert set(eces) == {2}
        assert abs(eces[2] - ece(bin_stats(preds, binning))) <= 1e-15

    def test_empty_classes_absent_not_zero(self):
        _, preds = two_class_fixture(0.6, 0.4)
        eces = class_ece(preds, split_by_predicted(preds), BinningConfig(1))
        assert 2 not in eces  # class 2 never predicted


class TestMaxAvgEce:
    def test_worked_example_max(self):
        _, preds = two_class_fixture(0.6, 0.4)
        eces = class_ece(preds, split_by_predicted(preds), BinningConfig(1))
        assert abs(max_ece(eces) - 0.08) <= 1e-12

    def test_equal_values(self):
        assert max_ece({0: 0.02, 1: 0.02}) == 0.02
        assert avg_ece({0: 0.08, 1: 0.08}) == 0.08

    def test_avg_arithmetic_mean(self):
        assert abs(avg_ece({0: 0.0, 1: 0.04}) - 0.02) <= 1e-15

    def test_max_matches_bruteforce_recomputation(self):
        rng = np.random.default_rng(25)
        ds = LogitDataset(rng.normal(size=(2000, 10)) * 2, rng.integers(0, 10, 2000))
        preds = predict(ds, Identity())
        binning = BinningConfig(15)
        slices = split_by_predicted(preds)
        eces = class_ece(preds, slices, binning)
        brute = -1.0
        for s in slices:
            if s.count == 0:
                continue
            sub = LogitDataset(ds.logits[s.indices], ds.labels[s.indices])
            brute = max(brute, ece(bin_stats(predict(sub, Identity()), binning)))
        assert abs(max_ece(eces) - brute) <= 1e-12

    def test_avg_never_exceeds_max(self):
        rng = np.random.default_rng(26)
        for _ in range(30):
            eces = {i: float(v) for i, v in enumerate(rng.random(rng.integers(1, 8)))}
            assert avg_ece(eces) <= max_ece(eces) + 1e-15

    def test_empty_rejected(self):
        with pytest.raises(EmptyDatasetError):
            max_ece({})
        with pytest.raises(EmptyDatasetError):
            avg_ece({})


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
        from calibkit.optim import temperature_nll

        rng = np.random.default_rng(27)
        ds = LogitDataset(rng.normal(size=(200, 5)), rng.integers(0, 5, 200))
        h = 1e-5
        for alpha in rng.uniform(0.1, 10, 20):
            fd = (nll(ds, Temperature(alpha + h)) - nll(ds, Temperature(alpha - h))) / (2 * h)
            grad = temperature_nll(ds, alpha)[1]
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
    """Every NLL the library reports is the mean of one `predict` pass."""

    def test_report_nll_metric_and_fit_agree_exactly(self):
        rng = np.random.default_rng(31)
        k = 4
        logits = rng.normal(size=(4000, k)) * 2
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        labels = np.minimum((rng.random(4000)[:, None] > np.cumsum(p, axis=1)).sum(axis=1), k - 1)
        val = LogitDataset(logits[:2000] * 1.5, labels[:2000])
        test = LogitDataset(logits[2000:] * 1.5, labels[2000:])
        for fit in (fit_ts(val), fit_cts(val), fit_vs(val)):
            value = nll(test, fit.model)
            assert compute_report(test, fit.model).nll == value
            assert float(np.mean(predict(test, fit.model).nll)) == value
            assert fit.val_nll == nll(val, fit.model)

    def test_report_predicted_is_the_prediction_pass(self):
        rng = np.random.default_rng(32)
        ds = LogitDataset(rng.normal(size=(500, 3)), rng.integers(0, 3, 500))
        model = Vector(np.array([1.0, 0.5, 2.0]), np.array([0.3, 0.0, -0.3]))
        report = compute_report(ds, model)
        np.testing.assert_array_equal(report.predicted, predict(ds, model).predicted)
        assert not report.predicted.flags.writeable
