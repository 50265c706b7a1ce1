"""Domain types, softmax, the NLL kernel, prediction, and class splitting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit.core import (
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    PredictionSet,
    Temperature,
    Vector,
    class_order,
    predict,
    softmax,
    softmax_nll,
)
from calibkit.errors import (
    ClassCountMismatchError,
    InvalidInputError,
    InvalidModelError,
)
from calibkit.optim import nll_grad_vector
from calibkit.synthetic import BinaryDataset, HeteroLogitSpec, gen_hetero_logits
from test_top_logit import label_nlls

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


class TestSoftmaxNll:
    def test_hand_computed_values(self):
        # Both rows sum to exp(0) + exp(-ln 3) = 4/3. Label 1 is the -ln 3
        # entry of row 0, NLL ln(4/3) + ln 3 = ln 4, and the 0 entry of row 1,
        # NLL ln(4/3).
        u = np.array([[0.0, -math.log(3.0)], [-math.log(3.0), 0.0]])
        e, total, nll = softmax_nll(u, np.array([1, 1]))
        np.testing.assert_allclose(e, [[1.0, 1 / 3], [1 / 3, 1.0]], rtol=1e-15)
        np.testing.assert_allclose(total, [4 / 3, 4 / 3], rtol=1e-15)
        np.testing.assert_allclose(nll, [math.log(4.0), math.log(4 / 3)], rtol=1e-15)

    def test_exponentiates_in_place(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(40, 5))
        u = z - z.max(axis=1, keepdims=True)
        e, _, _ = softmax_nll(u, rng.integers(0, 5, 40))
        assert e is u
        np.testing.assert_array_equal(u, np.exp(z - z.max(axis=1, keepdims=True)))

    def test_vs_minimized_value_is_reported_nll_bit_for_bit(self):
        k = 100
        spec = HeteroLogitSpec(k, np.full(k, 20), np.linspace(0.4, 2.5, k), np.full(k, 0.1), margin=9.0, seed=16)
        ds = gen_hetero_logits(spec).val
        rng = np.random.default_rng(16)
        scale, bias = rng.uniform(0.3, 3.0, k), rng.normal(size=k)
        assert nll_grad_vector(ds, scale, bias)[0] == predict(ds, Vector(scale, bias)).mean_nll


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

    def test_identity_vector_predicts_its_calibrated_argmax(self):
        # exp(-1e-16) and exp(0) give probabilities that round to one value,
        # but the logits differ: the identity vector model predicts class 1,
        # the top logit, as Identity does.
        ds = LogitDataset(np.array([[-1e-16, 0.0, -2.999]]), np.array([1]))
        vector, identity = predict(ds, Vector(np.ones(3), np.zeros(3))), predict(ds, Identity())
        assert vector.predicted.tolist() == identity.predicted.tolist() == [1]
        np.testing.assert_array_equal(vector.confidence, identity.confidence)
        np.testing.assert_array_equal(vector.correct, identity.correct)

    def test_tied_raw_logits_route_to_lowest_class(self):
        z = np.array([[1.0, 1.0, 0.0]])
        ds = LogitDataset(z, np.array([0]))
        cw = ClassWiseTemperature(1.0, np.array([2.0, 0.5, 1.0]), np.inf)
        preds = predict(ds, cw)
        np.testing.assert_array_equal(preds.confidence, predict(ds, Temperature(2.0)).confidence)
        np.testing.assert_array_equal(label_nlls(ds, cw), label_nlls(ds, Temperature(2.0)))
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

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([0.5, 1.9]),
            np.array([0.0, np.nan]),
            np.array([np.inf, 0.0]),
            np.array([True, False]),
            np.array(["1", "0"]),
            np.array([1 + 0j, 0j]),
            np.array([1, 0], dtype=object),
        ],
    )
    def test_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(InvalidInputError):
            LogitDataset(np.zeros((2, 3)), labels)

    def test_whole_float_labels_are_accepted(self):
        for labels in (np.array([2.0, 0.0]), [1.0, 0.0], np.array([1.0, 2.0], dtype=np.float32)):
            ds = LogitDataset(np.zeros((2, 3)), labels)
            assert ds.labels.dtype == np.int64
            assert ds.labels.tolist() == [int(v) for v in labels]
        with pytest.raises(InvalidInputError):
            LogitDataset(np.zeros((2, 3)), np.array([1e300, 0.0]))

    def test_rejects_complex_and_non_numeric_logits(self):
        for logits in (np.zeros((2, 2), dtype=complex), np.array([["1", "2"], ["3", "4"]])):
            with pytest.raises(InvalidInputError):
                LogitDataset(logits, np.array([0, 1]))

    def test_arrays_are_read_only(self):
        ds = LogitDataset(np.zeros((2, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            ds.logits[0, 0] = 1.0

    def test_equal_valued_datasets_compare_and_hash_by_identity(self):
        a = LogitDataset(np.zeros((2, 2)), [0, 1])
        b = LogitDataset(np.zeros((2, 2)), [0, 1])
        assert (a == b) is False and a == a
        assert {a: "a", b: "b"}[a] == "a"
        pa, pb = predict(a, Identity()), predict(b, Identity())
        assert (pa == pb) is False and {pa: 1, pb: 2}[pb] == 2
        xa, xb = BinaryDataset(np.ones((2, 1)), [0, 1]), BinaryDataset(np.ones((2, 1)), [0, 1])
        assert (xa == xb) is False and {xa: 1, xb: 2}[xa] == 1

    def test_empty_dataset_allowed(self):
        ds = LogitDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert ds.num_records == 0 and ds.num_classes == 4

    def test_constructor_copies_caller_arrays(self):
        logits, labels = np.zeros((3, 2)), np.array([0, 1, 0])
        ds = LogitDataset(logits, labels)
        logits[0, 0], labels[0] = 5.0, 1
        assert ds.logits[0, 0] == 0.0 and ds.labels[0] == 0
        assert logits.flags.writeable and labels.flags.writeable
        assert not np.shares_memory(ds.logits, logits) and not np.shares_memory(ds.labels, labels)

    def test_subset_holds_its_gathers_without_a_second_copy(self):
        rng = np.random.default_rng(9)
        ds = LogitDataset(rng.normal(size=(20000, 10)), rng.integers(0, 10, 20000))
        idx = np.flatnonzero(ds.labels < 5)
        tracemalloc.start()
        try:
            part = ds.subset(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One gather of each array; a copy of it would double the peak.
        assert peak < 1.5 * (part.logits.nbytes + part.labels.nbytes)
        np.testing.assert_array_equal(part.logits, ds.logits[idx])
        np.testing.assert_array_equal(part.labels, ds.labels[idx])
        assert not part.logits.flags.writeable and not part.labels.flags.writeable
        assert not np.shares_memory(part.logits, ds.logits)

    def test_subset_does_not_check_its_records_again(self, monkeypatch):
        ds = LogitDataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([1, 0]))

        def checked_again(self):
            raise AssertionError("subset copied or re-checked its records")

        monkeypatch.setattr(LogitDataset, "__post_init__", checked_again)
        part = ds.subset(np.array([1]))
        assert part.logits.tolist() == [[2.0, 3.0]] and part.labels.tolist() == [0]

    def test_subset_rejects_indices_that_are_not_1d(self):
        ds = LogitDataset(np.zeros((3, 2)), np.array([0, 1, 0]))
        with pytest.raises(InvalidInputError):
            ds.subset(np.int64(1))
        with pytest.raises(InvalidInputError):
            ds.subset(np.zeros((2, 1), dtype=int))


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
        np.testing.assert_array_equal(label_nlls(ds, Identity()), label_nlls(ds, Temperature(1.0)))
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
        np.testing.assert_array_equal(label_nlls(ds, model), label_nlls(ds, model))
        np.testing.assert_array_equal(a.confidence, b.confidence)
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
        # class-1 temperature must be the one applied to it. Each label is the
        # unpredicted class, so with the confidence it pins both probabilities.
        ds = LogitDataset(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([1, 0]))
        model = ClassWiseTemperature(1.0, np.array([1.0, 3.0]), np.inf)
        preds = predict(ds, model)
        p0, p1 = softmax([2.0, 0.0]), softmax([0.0, 6.0])
        np.testing.assert_allclose(preds.confidence, [p0[0], p1[1]], rtol=1e-15)
        np.testing.assert_allclose(preds.nll, -np.log([p0[1], p1[0]]), rtol=1e-15)

    def test_fields_are_read_only_views_not_copies(self):
        rng = np.random.default_rng(8)
        ds = LogitDataset(rng.normal(size=(50, 3)), rng.integers(0, 3, 50))
        preds = predict(ds, Temperature(1.3))
        for name in ("predicted", "confidence", "correct", "nll"):
            field = getattr(preds, name)
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0] = field[0]
        confidence = np.array([0.75])
        given = PredictionSet(np.array([0]), confidence, np.array([True]), np.array([0.3]))
        assert confidence.flags.writeable
        assert not given.confidence.flags.writeable
        assert np.shares_memory(given.confidence, confidence)


def class_runs(labels, num_classes):
    """Each class's run of `class_order`: the indices of its records."""
    order, bounds = class_order(labels, num_classes)
    return [order[a:b] for a, b in zip(bounds, bounds[1:])]


class TestSplitByPredicted:
    def test_direct_grouping(self):
        ds = LogitDataset(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]), np.array([0, 1, 0]))
        slices = class_runs(predict(ds, Identity()).predicted, 2)
        np.testing.assert_array_equal(slices[0], [0, 2])
        np.testing.assert_array_equal(slices[1], [1])

    def test_degenerate_partition(self):
        logits = np.zeros((7, 5))
        logits[:, 3] = 4.0
        slices = class_runs(predict(LogitDataset(logits, np.full(7, 3)), Identity()).predicted, 5)
        assert len(slices) == 5
        assert slices[3].size == 7
        assert all(slices[k].size == 0 for k in range(5) if k != 3)

    def test_sizes_sum_to_total(self):
        rng = np.random.default_rng(4)
        ds = LogitDataset(rng.normal(size=(1000, 10)), rng.integers(0, 10, 1000))
        slices = class_runs(predict(ds, Identity()).predicted, 10)
        assert sum(s.size for s in slices) == 1000

    @given(st.integers(0, 400), st.integers(2, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        rng = np.random.default_rng(seed)
        ds = LogitDataset(rng.normal(size=(n, k)), rng.integers(0, k, n))
        slices = class_runs(predict(ds, Identity()).predicted, k)
        merged = np.concatenate(slices) if slices else np.array([])
        assert all(np.all(np.diff(s) > 0) for s in slices)  # each slice ascending
        assert merged.size == n
        assert np.array_equal(np.sort(merged), np.arange(n))

    def test_per_record_nll_is_minus_log_probability_of_label(self):
        rng = np.random.default_rng(7)
        ds = LogitDataset(rng.normal(size=(400, 5)) * 3, rng.integers(0, 5, 400))
        scale, bias = np.linspace(0.5, 2, 5), np.linspace(-1, 1, 5)
        z = ds.logits
        for model, calibrated in ((Identity(), z), (Temperature(0.4), 0.4 * z), (Vector(scale, bias), scale * z + bias)):
            preds = predict(ds, model)
            expected = -np.log(softmax(calibrated)[np.arange(400), ds.labels])
            np.testing.assert_allclose(preds.nll, expected, rtol=1e-12, atol=1e-15)
            assert not preds.nll.flags.writeable

    def test_non_finite_calibrated_logits_rejected(self):
        ds = LogitDataset(np.array([[10.0, 1.0]]), np.array([0]))
        with pytest.raises(InvalidInputError), np.errstate(over="ignore"):
            predict(ds, Vector(np.full(2, 1e308), np.zeros(2)))
