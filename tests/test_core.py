"""Domain types, softmax, prediction, and class splitting."""

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
    predict,
    softmax,
    split_by_predicted,
)
from calibkit.errors import (
    ClassCountMismatchError,
    InvalidInputError,
    InvalidModelError,
)

# softmax([1, 2, 3]) evaluated at 50 decimal digits, rounded to float64.
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
SIGMOID_2 = 0.8807970779778824


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        np.testing.assert_array_equal(softmax([0.0, 0.0, 0.0, 0.0]), [0.25] * 4)

    def test_single_entry_normalizes_to_one(self):
        np.testing.assert_array_equal(softmax([3.7]), [1.0])

    def test_reference_values(self):
        np.testing.assert_allclose(softmax([1.0, 2.0, 3.0]), SOFTMAX_123, rtol=1e-14)

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        z = rng.normal(scale=10, size=(200, 7))
        p = softmax(z)
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            softmax([1.0, np.inf])

    def test_stable_at_large_magnitudes(self):
        p = softmax([47.0, -47.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, logits, shift):
        base = softmax(logits)
        shifted = softmax(np.asarray(logits) + shift)
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def predicted_label(logits, model=Identity()) -> int:
    ds = LogitDataset(np.asarray([logits], dtype=np.float64), np.array([0]))
    return int(predict(ds, model).predicted[0])


class TestArgmaxTiebreak:
    """`predict` breaks every tie toward the lowest class index."""

    def test_two_way_tie_goes_low(self):
        assert predicted_label([0.0, 0.0]) == 0

    def test_unique_max(self):
        assert predicted_label(np.log([0.1, 0.7, 0.2])) == 1

    def test_full_tie_goes_low(self):
        assert predicted_label([0.0, 0.0, 0.0]) == 0

    def test_tied_calibrated_probabilities_predict_lowest_class(self):
        # Raw argmax is class 2; the bias ties classes 1 and 2 exactly.
        model = Vector(np.ones(3), np.array([0.0, 1.0, 0.0]))
        assert predicted_label([0.0, 1.0, 2.0], model) == 1

    def test_tied_raw_logits_route_to_lowest_class(self):
        z = np.array([[1.0, 1.0, 0.0]])
        ds = LogitDataset(z, np.array([0]))
        cw = ClassWiseTemperature(1.0, np.array([2.0, 0.5, 1.0]), np.inf)
        preds = predict(ds, cw)
        np.testing.assert_array_equal(preds.probs, predict(ds, Temperature(2.0)).probs)
        assert preds.predicted[0] == 0


class TestLogitDataset:
    def test_rejects_single_class(self):
        with pytest.raises(InvalidInputError):
            LogitDataset(np.zeros((3, 1)), np.zeros(3, dtype=int))

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidInputError):
            LogitDataset(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(InvalidInputError):
            LogitDataset(np.zeros((2, 3)), np.array([-1, 0]))

    def test_rejects_non_finite_logits(self):
        with pytest.raises(InvalidInputError):
            LogitDataset(np.array([[0.0, np.inf]]), np.array([0]))

    def test_arrays_are_read_only(self):
        ds = LogitDataset(np.zeros((2, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            ds.logits[0, 0] = 1.0

    def test_empty_dataset_allowed(self):
        ds = LogitDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert ds.num_records == 0 and ds.num_classes == 4


class TestModels:
    def test_temperature_must_be_positive(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidModelError):
                Temperature(bad)

    def test_classwise_requires_positive_alphas(self):
        with pytest.raises(InvalidModelError):
            ClassWiseTemperature(1.0, [1.0, 0.0], np.inf)

    def test_classwise_enforces_gamma_band(self):
        with pytest.raises(InvalidModelError):
            ClassWiseTemperature(1.0, [1.0, 2.0], 0.5)
        ClassWiseTemperature(1.0, [1.0, 1.5], 0.5)  # boundary ok

    def test_vector_shape_mismatch(self):
        with pytest.raises(InvalidModelError):
            Vector(np.ones(3), np.zeros(2))


class TestPredict:
    def test_identity_on_known_logits(self):
        ds = LogitDataset(np.array([[2.0, 0.0]]), np.array([0]))
        preds = predict(ds, Identity())
        assert preds.predicted[0] == 0
        np.testing.assert_allclose(preds.confidence[0], SIGMOID_2, rtol=1e-14)
        assert bool(preds.correct[0])

    def test_temperature_one_is_bitwise_identity(self):
        rng = np.random.default_rng(1)
        ds = LogitDataset(rng.normal(size=(500, 6)), rng.integers(0, 6, 500))
        a = predict(ds, Identity())
        b = predict(ds, Temperature(1.0))
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.predicted, b.predicted)
        np.testing.assert_array_equal(a.confidence, b.confidence)

    def test_large_temperature_confidence_approaches_one(self):
        ds = LogitDataset(np.array([[1.0, 0.5, 0.0]]), np.array([0]))
        conf = predict(ds, Temperature(1e4)).confidence[0]
        assert conf > 1 - 1e-12

    def test_dimension_mismatch_is_config_error(self):
        ds = LogitDataset(np.zeros((2, 3)), np.zeros(2, dtype=int))
        with pytest.raises(ClassCountMismatchError):
            predict(ds, Vector(np.ones(4), np.zeros(4)))
        with pytest.raises(ClassCountMismatchError):
            predict(ds, ClassWiseTemperature(1.0, np.ones(2), np.inf))

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(2)
        ds = LogitDataset(rng.normal(size=(300, 5)), rng.integers(0, 5, 300))
        model = Vector(np.full(5, 1.3), np.linspace(-1, 1, 5))
        a = predict(ds, model)
        b = predict(ds, model)
        np.testing.assert_array_equal(a.probs, b.probs)
        np.testing.assert_array_equal(a.predicted, b.predicted)

    def test_confidence_never_below_uniform(self):
        rng = np.random.default_rng(6)
        k = 7
        ds = LogitDataset(rng.normal(size=(2000, k)) * 0.05, rng.integers(0, k, 2000))
        preds = predict(ds, Temperature(0.01))
        assert np.all(preds.confidence >= 1.0 / k - 1e-12)

    def test_identity_accuracy_matches_raw_argmax(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(1000, 4))
        labels = rng.integers(0, 4, 1000)
        ds = LogitDataset(logits, labels)
        expected = np.mean(np.argmax(logits, axis=1) == labels)
        assert predict(ds, Identity()).accuracy == expected

    def test_classwise_routes_by_raw_prediction(self):
        # Second record is predicted class 1 by the raw logits, so the
        # class-1 temperature must be the one applied to it.
        ds = LogitDataset(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 1]))
        model = ClassWiseTemperature(1.0, np.array([1.0, 3.0]), np.inf)
        preds = predict(ds, model)
        np.testing.assert_allclose(preds.probs[0], softmax([2.0, 0.0]), rtol=1e-15)
        np.testing.assert_allclose(preds.probs[1], softmax([0.0, 6.0]), rtol=1e-15)


class TestSplitByPredicted:
    def test_direct_grouping(self):
        ds = LogitDataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]), np.array([0, 1, 0]))
        slices = split_by_predicted(predict(ds, Identity()))
        np.testing.assert_array_equal(slices[0].indices, [0, 2])
        np.testing.assert_array_equal(slices[1].indices, [1])

    def test_degenerate_partition(self):
        logits = np.zeros((7, 5))
        logits[:, 3] = 4.0
        slices = split_by_predicted(predict(LogitDataset(logits, np.full(7, 3)), Identity()))
        assert slices[3].count == 7
        assert all(slices[k].count == 0 for k in range(5) if k != 3)

    def test_sizes_sum_to_total(self):
        rng = np.random.default_rng(4)
        ds = LogitDataset(rng.normal(size=(1000, 10)), rng.integers(0, 10, 1000))
        slices = split_by_predicted(predict(ds, Identity()))
        assert sum(s.count for s in slices) == 1000

    @given(st.integers(0, 400), st.integers(2, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        ds = LogitDataset(rng.normal(size=(n, k)), rng.integers(0, k, n))
        slices = split_by_predicted(predict(ds, Identity()))
        merged = np.concatenate([s.indices for s in slices]) if slices else np.array([])
        assert merged.size == n
        assert np.array_equal(np.sort(merged), np.arange(n))

    def test_per_record_nll_is_minus_log_probability_of_label(self):
        rng = np.random.default_rng(7)
        ds = LogitDataset(rng.normal(size=(400, 5)) * 3, rng.integers(0, 5, 400))
        for model in (Identity(), Temperature(0.4), Vector(np.linspace(0.5, 2, 5), np.linspace(-1, 1, 5))):
            preds = predict(ds, model)
            expected = -np.log(preds.probs[np.arange(400), ds.labels])
            np.testing.assert_allclose(preds.nll, expected, rtol=1e-12, atol=1e-15)
            assert not preds.nll.flags.writeable

    def test_non_finite_calibrated_logits_rejected(self):
        ds = LogitDataset(np.array([[10.0, 1.0]]), np.array([0]))
        with pytest.raises(InvalidInputError), np.errstate(over="ignore"):
            predict(ds, Vector(np.full(2, 1e308), np.zeros(2)))
