"""The cached top pair of a dataset, and the predict/temperature_nll paths that read it.

Each path is checked bit for bit against a reference that subtracts each
row's maximum from the raw logits, then scales, and predicts the raw argmax.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit.core import (
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    Temperature,
    predict,
    softmax_nll,
)
from calibkit.errors import InvalidInputError
from calibkit.optim import TemperatureProblem, temperature_nll


def reference_scale(logits, model):
    if isinstance(model, Temperature):
        return model.alpha
    if isinstance(model, ClassWiseTemperature):
        return model.alphas[np.argmax(logits, axis=1)][:, None]
    return 1.0


def reference_predict(ds, model):
    """(probs, predicted, confidence, correct, nll) by row-max shift, scale and raw argmax."""
    z = ds.logits
    u = (z - z.max(axis=1, keepdims=True)) * reference_scale(z, model)
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("calibrated logits contain NaN or Inf")
    probs, total, nll = softmax_nll(u, ds.labels)
    probs /= total[:, None]
    pred = np.argmax(z, axis=1)
    return probs, pred, probs[np.arange(ds.num_records), pred], pred == ds.labels, nll


def label_nlls(ds, model):
    """`predict`'s NLL of every class as each record's label, (N, K): minus its log-probabilities."""
    n, k = ds.logits.shape
    return np.stack([predict(LogitDataset(ds.logits, np.full(n, c)), model).nll for c in range(k)], axis=1)


def reference_label_nlls(ds, model):
    n, k = ds.logits.shape
    return np.stack([reference_predict(LogitDataset(ds.logits, np.full(n, c)), model)[4] for c in range(k)], axis=1)


def reference_temperature_nll(ds, alpha):
    z, y = ds.logits, ds.labels
    u = z - z.max(axis=1, keepdims=True)
    e, s, nll = softmax_nll(alpha * u, y)
    mean_u = np.einsum("ij,ij->i", e, u) / s
    e *= u
    var_u = np.einsum("ij,ij->i", e, u) / s - mean_u * mean_u
    return (
        float(np.mean(nll)),
        float(np.mean(mean_u - u[np.arange(y.shape[0]), y])),
        float(np.mean(var_u)),
    )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcome(fn):
    """fn()'s value, or the type of the calibkit error it raised."""
    with np.errstate(all="ignore"):
        try:
            return fn()
        except InvalidInputError as exc:
            return type(exc)


# Exact ties, signed zeros, gaps of about 1e-17 that `exp` rounds away,
# and logits large enough to overflow once shifted or scaled.
SPECIAL = [0.0, -0.0, 1e-17, -1e-17, 5e-17, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, -1.0, 3.5,
           700.0, -745.0, 1e300, -1e300, 1.7e308, -1.7e308]
ELEMENTS = st.one_of(st.sampled_from(SPECIAL), st.floats(-60, 60))
ALPHAS = st.one_of(st.sampled_from([1.0, 0.5, 2.0, 1e-3, 100.0, 3.0]),
                   st.floats(1e-3, 100.0, allow_subnormal=False))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(2, 6))
    logits = np.array(draw(st.lists(ELEMENTS, min_size=n * k, max_size=n * k)), dtype=np.float64)
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return LogitDataset(logits.reshape(n, k), np.array(labels))


@st.composite
def models(draw, k):
    kind = draw(st.sampled_from(["identity", "ts", "cts"]))
    if kind == "identity":
        return Identity()
    if kind == "ts":
        return Temperature(draw(ALPHAS))
    alphas = np.array(draw(st.lists(ALPHAS, min_size=k, max_size=k)))
    return ClassWiseTemperature(draw(ALPHAS), alphas, np.inf)


class TestPredictMatchesReference:
    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_bit_identical_to_shift_scale_raw_argmax(self, data):
        ds = data.draw(datasets(), label="dataset")
        model = data.draw(models(ds.num_classes), label="model")
        want = outcome(lambda: reference_predict(ds, model))
        got = outcome(lambda: predict(ds, model))
        if isinstance(want, type):
            assert got is want
            return
        assert not isinstance(got, type), got
        fields = (got.predicted, got.confidence, got.correct, got.nll)
        for name, a, b in zip(("predicted", "confidence", "correct", "nll"), fields, want[1:]):
            assert same_bits(a, b), name
        # Every class's log-probability, one label at a time.
        with np.errstate(all="ignore"):
            assert same_bits(label_nlls(ds, model), reference_label_nlls(ds, model))
        want_mean = outcome(lambda: float(np.mean(want[4])))
        got_mean = outcome(lambda: got.mean_nll)
        if np.isfinite(want_mean):
            assert same_bits(got_mean, want_mean)
        else:
            assert got_mean is InvalidInputError

    def test_tie_made_by_exp_keeps_the_raw_top_class(self):
        # The raw top class is 1, and exp(-1e-17) rounds to 1: both classes
        # get the same probability, and the prediction stays at class 1. The
        # raw tie in the last row goes to the lower index.
        ds = LogitDataset(np.array([[-1e-17, 0.0], [0.0, 2.0], [3.0, 3.0]]), np.array([0, 1, 1]))
        assert ds.top[0].tolist() == [1, 1, 0]
        for model in (Identity(), Temperature(0.7), ClassWiseTemperature(1.0, np.array([0.5, 3.0]), np.inf)):
            preds = predict(ds, model)
            assert preds.predicted.tolist() == [1, 1, 0]
            probs = reference_predict(ds, model)[0]
            assert probs[0, 0] == probs[0, 1] == preds.confidence[0]

    def test_scaled_overflow_is_rejected_like_the_reference(self):
        # (z - top) * 100 overflows in the first row. In the second, 0.01 * z
        # is finite, but z - top = [0, -inf] whatever the scale.
        for row, model in (([1e307, 0.0], Temperature(100.0)), ([1e308, -1e308], Identity()),
                           ([1e308, -1e308], Temperature(0.01))):
            ds = LogitDataset(np.array([row]), np.array([0]))
            with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
                predict(ds, model)

    def test_scaling_the_shifted_logits_keeps_them_finite(self):
        # 100 * z overflows, but (z - top) * 100 = [0, -1e307] does not. The
        # label is the other class, whose probability exp(-1e307) is 0.
        ds = LogitDataset(np.array([[1e307, 0.99e307]]), np.array([1]))
        preds = predict(ds, Temperature(100.0))
        assert preds.predicted.tolist() == [0] and preds.confidence.tolist() == [1.0]
        assert preds.nll.tolist() == [(1e307 - 0.99e307) * 100.0]


class TestTemperatureNllMatchesReference:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_row_max_shift(self, data):
        ds = data.draw(datasets(), label="dataset")
        alpha = data.draw(ALPHAS, label="alpha")
        want = outcome(lambda: reference_temperature_nll(ds, alpha))
        got = outcome(lambda: temperature_nll(TemperatureProblem.of(ds), alpha))
        assert len(got) == 3
        for a, b in zip(got, want):
            assert same_bits(a, b)


class TestTopPair:
    def test_computed_on_first_use_only(self):
        rng = np.random.default_rng(3)
        ds = LogitDataset(rng.normal(size=(50, 4)), rng.integers(0, 4, 50))
        assert "top" not in vars(ds)
        top_class, top_logit = ds.top
        assert ds.top[0] is top_class
        np.testing.assert_array_equal(top_class, np.argmax(ds.logits, axis=1))
        np.testing.assert_array_equal(top_logit, ds.logits.max(axis=1))
        assert not top_class.flags.writeable and not top_logit.flags.writeable

    def test_ties_go_to_the_lowest_class(self):
        ds = LogitDataset(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]]), np.array([0, 0]))
        assert ds.top[0].tolist() == [0, 1]

    def test_empty_dataset(self):
        top_class, top_logit = LogitDataset(np.zeros((0, 3)), np.zeros(0, dtype=int)).top
        assert top_class.shape == top_logit.shape == (0,)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_subset_finds_its_own_top(self, data):
        ds = data.draw(datasets(), label="dataset")
        idx = np.array(data.draw(st.lists(st.integers(0, ds.num_records - 1), max_size=20)), dtype=np.int64)
        ds.top
        part = ds.subset(idx)
        assert "top" not in vars(part)  # computed on first use, even when the parent has its own
        fresh = LogitDataset(part.logits, part.labels).top
        for a, b in zip(part.top, fresh):
            assert same_bits(a, b)
            assert not a.flags.writeable

    def test_threads_sharing_a_fresh_dataset_see_one_consistent_pair(self):
        # The first use of `top` may race (cached_property takes no lock from
        # Python 3.12); every racing thread must still see a correct pair.
        rng = np.random.default_rng(17)
        logits, labels = rng.normal(size=(2000, 10)), rng.integers(0, 10, 2000)
        want = reference_predict(LogitDataset(logits, labels), Temperature(1.7))
        ds = LogitDataset(logits, labels)
        idx = np.arange(0, 2000, 3)
        results, errors = [None] * 8, []
        barrier = threading.Barrier(8, timeout=30)

        def work(i):
            try:
                barrier.wait()
                results[i] = (predict(ds, Temperature(1.7)), ds.subset(idx).top)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        for preds, (top_class, top_logit) in results:
            fields = (preds.predicted, preds.confidence, preds.correct, preds.nll)
            assert all(same_bits(a, b) for a, b in zip(fields, want[1:]))
            assert same_bits(top_class, np.argmax(logits[idx], axis=1))
            assert same_bits(top_logit, logits[idx].max(axis=1))
