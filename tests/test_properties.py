"""Hypothesis properties of the calibration models, their fits and their solvers."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit.calibrate import FitConfig, fit_cts, fit_ts, fit_vs
from calibkit.core import ClassWiseTemperature, Identity, LogitDataset, Temperature, predict, softmax
from calibkit.optim import SCALAR_TOL, TemperatureProblem, temperature_nll

CFG = FitConfig()
TOL = SCALAR_TOL

seeds = st.integers(0, 2**32 - 1)


def informative_dataset(seed, n=300, k=None):
    """Logits whose labels are drawn from softmax(logits / spread).

    The NLL optimum is then near alpha = 1 / spread, inside the bounds.
    """
    rng = np.random.default_rng(seed)
    k = k or int(rng.integers(2, 7))
    spread = float(rng.uniform(0.3, 3.0))
    z = spread * rng.normal(size=(n, k))
    p = softmax(z / spread)
    labels = (rng.random(n)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    return LogitDataset(z, np.minimum(labels, k - 1))


def kkt_holds(ds, alpha, lo, hi):
    """Stationary to within a Newton step of TOL, or on a bound with f' pointing outward."""
    _, g, h = temperature_nll(TemperatureProblem.of(ds), alpha)
    if alpha == lo and g >= 0:
        return True
    if alpha == hi and g <= 0:
        return True
    return lo <= alpha <= hi and abs(g) <= TOL * h


def slices(ds):
    pred = np.argmax(ds.logits, axis=1)
    return [(k, np.flatnonzero(pred == k)) for k in range(ds.num_classes)]


@given(seeds, st.floats(0.25, 4.0))
@settings(max_examples=40, deadline=None)
def test_ts_scaling_equivariance(seed, c):
    ds = informative_dataset(seed)
    alpha = fit_ts(ds).model.alpha
    alpha_c = fit_ts(LogitDataset(c * ds.logits, ds.labels)).model.alpha
    if CFG.alpha_lo < alpha / c < CFG.alpha_hi:
        assert abs(alpha_c - alpha / c) <= 10 * TOL * (1 + 1 / c)


@given(seeds, st.floats(-50.0, 50.0))
@settings(max_examples=40, deadline=None)
def test_logit_shift_changes_nothing(seed, shift):
    ds = informative_dataset(seed)
    rng = np.random.default_rng(seed)
    row_shift = shift + rng.uniform(-5, 5, size=(ds.num_records, 1))
    shifted = LogitDataset(ds.logits + row_shift, ds.labels)
    assert abs(fit_ts(shifted).model.alpha - fit_ts(ds).model.alpha) <= 10 * TOL
    cfg = FitConfig(gamma=math.inf, min_class_samples=1)
    a = fit_cts(ds, cfg).model.alphas
    b = fit_cts(shifted, cfg).model.alphas
    np.testing.assert_allclose(b, a, rtol=0, atol=10 * TOL)


@given(seeds, st.sampled_from([0.0, 0.1, 0.5, 2.0, math.inf]))
@settings(max_examples=40, deadline=None)
def test_every_fitted_temperature_satisfies_kkt(seed, gamma):
    ds = informative_dataset(seed)
    cfg = FitConfig(gamma=gamma, min_class_samples=1)
    ts = fit_ts(ds, cfg)
    assert kkt_holds(ds, ts.model.alpha, cfg.alpha_lo, cfg.alpha_hi)
    fit = fit_cts(ds, cfg)
    alpha0 = fit.model.alpha0
    assert alpha0 == ts.model.alpha
    if math.isinf(gamma):
        lo, hi = cfg.alpha_lo, cfg.alpha_hi
    else:
        lo, hi = max(alpha0 - gamma, cfg.alpha_lo), alpha0 + gamma
    for k, idx in slices(ds):
        if idx.size and gamma > 0:
            assert kkt_holds(ds.subset(idx), fit.model.alphas[k], lo, hi)
        else:
            assert fit.model.alphas[k] == alpha0
    assert fit.val_nll <= ts.val_nll + 1e-12


@given(seeds, st.floats(0.01, 3.0))
@settings(max_examples=40, deadline=None)
def test_finite_gamma_is_clipped_per_class_optimum(seed, gamma):
    ds = informative_dataset(seed)
    free = fit_cts(ds, FitConfig(gamma=math.inf, min_class_samples=1)).model
    tied = fit_cts(ds, FitConfig(gamma=gamma)).model
    assert tied.alpha0 == free.alpha0
    lo, hi = max(free.alpha0 - gamma, CFG.alpha_lo), free.alpha0 + gamma
    np.testing.assert_allclose(tied.alphas, np.clip(free.alphas, lo, hi), rtol=0, atol=10 * TOL)


@given(seeds, st.integers(2, 12), st.floats(0.0, 5.0) | st.sampled_from([0.0, 1e-300, 1e3]))
@settings(max_examples=40, deadline=None)
def test_finite_gamma_is_the_decoupled_fit_clipped_exactly(seed, k, gamma):
    ds = informative_dataset(seed, k=k)
    free = fit_cts(ds, FitConfig(gamma=math.inf, min_class_samples=0)).model
    tied = fit_cts(ds, FitConfig(gamma=gamma)).model
    clipped = np.clip(free.alphas, free.alpha0 - gamma, free.alpha0 + gamma)
    assert tied.alpha0 == free.alpha0
    assert tied.alphas.tobytes() == clipped.tobytes()


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_vs_never_worse_than_ts(seed):
    ds = informative_dataset(seed)
    assert fit_vs(ds).val_nll <= fit_ts(ds).val_nll + 1e-12


# Exactly tied logits and gaps of 1e-17 to 1e-13, which `exp` may round
# away once they are scaled.
GAPS = st.just(0.0) | st.floats(1e-17, 1e-13) | st.floats(-1e-13, -1e-17)
NEAR_TIES = st.builds(lambda base, gap: base + gap, st.sampled_from([0.0, 1.0, -3.0]), GAPS)
TEMPERATURES = st.floats(0.01, 100.0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_temperature_models_never_change_a_prediction(data):
    n, k = data.draw(st.integers(1, 10)), data.draw(st.integers(2, 5))
    logits = np.array(data.draw(st.lists(NEAR_TIES, min_size=n * k, max_size=n * k))).reshape(n, k)
    ds = LogitDataset(logits, np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))))
    alphas = np.array(data.draw(st.lists(TEMPERATURES, min_size=k, max_size=k)))
    models = [Identity(), Temperature(data.draw(TEMPERATURES)),
              ClassWiseTemperature(data.draw(TEMPERATURES), alphas, math.inf)]
    correct = predict(ds, Identity()).correct
    for model in models:
        preds = predict(ds, model)
        assert preds.predicted.tobytes() == np.argmax(logits, axis=1).tobytes()
        assert preds.correct.tobytes() == correct.tobytes()
