"""Fitting TS, CTS, and VS; applying models with `predict`; serialization."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from calibkit import calibrate, optim
from calibkit.calibrate import (
    FitConfig,
    fit_cts,
    fit_ts,
    fit_vs,
    model_from_dict,
    model_to_dict,
)
from calibkit.core import (
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    Temperature,
    Vector,
    predict,
    softmax,
)
from calibkit.errors import ConfigError, EmptyDatasetError, InvalidModelError, OptimizationError
from calibkit.metrics import compute_report, nll
from calibkit.optim import (
    SCALAR_TOL,
    ScalarProblem,
    TemperatureProblem,
    minimize_scalar,
    nll_grad_vector,
    temperature_nll,
)
from calibkit.synthetic import HeteroLogitSpec, gen_hetero_logits


def wellspec_dataset(rng, n, k):
    """Logits equal to log class-posteriors with labels sampled from them.

    By construction the population-optimal temperature is exactly 1.
    """
    p = rng.dirichlet(np.full(k, 2.0), size=n)
    u = rng.random(n)
    labels = (u[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
    return LogitDataset(np.log(p), labels)


def hetero_dataset(rng, n, scale_a=3.0, scale_b=0.3):
    """Well-specified K=2 logits scaled by predicted class: A x3, B x0.3."""
    base = wellspec_dataset(rng, n, 2)
    pred = np.argmax(base.logits, axis=1)
    scales = np.where(pred == 0, scale_a, scale_b)
    return LogitDataset(scales[:, None] * base.logits, base.labels)


def grid_argmin(dataset, lo=0.01, hi=100.0, points=10_001):
    grid = np.linspace(lo, hi, points)
    problem = TemperatureProblem.of(dataset)
    vals = np.array([temperature_nll(problem, a)[0] for a in grid])
    return grid[int(np.argmin(vals))], grid[1] - grid[0]


def k100_dataset():
    """Validation split of a K=100 heterogeneous draw with four tiny classes (seed 16)."""
    k = 100
    sizes = np.full(k, 20)
    sizes[-4:] = 2
    scales = np.concatenate([np.linspace(1.5, 2.5, 50), np.linspace(0.4, 0.8, 50)])
    noise = np.where(np.arange(k) % 4 == 0, 0.1, 0.0)
    return gen_hetero_logits(HeteroLogitSpec(k, sizes, scales, noise, margin=9.0, seed=16)).val


def lbfgsb_nll(val, cfg=FitConfig()):
    """Reference VS fit: SciPy's L-BFGS-B with default options, from the TS solution.

    The start is the one `fit_vs` uses (scale alpha_TS * 1, bias 0), with no
    bounds. Returns the validation NLL of the solution's model.
    """
    k = val.num_classes

    def objective(x):
        loss, ga, gb = nll_grad_vector(val, x[:k], x[k:])
        return loss, np.concatenate([ga, gb])

    alpha = fit_ts(val, cfg).model.alpha
    x = minimize(objective, np.r_[np.full(k, alpha), np.zeros(k)], method="L-BFGS-B", jac=True).x
    return nll(val, Vector(x[:k], x[k:]))


def one_record(z) -> LogitDataset:
    return LogitDataset(np.asarray([z], dtype=np.float64), np.array([0]))


class TestApply:
    """Applying a model to one record is `predict` on a one-row dataset."""

    def test_temperature_one_is_softmax(self):
        z = np.array([1.5, -0.5, 0.25])
        np.testing.assert_array_equal(predict(one_record(z), Temperature(1.0)).probs[0], softmax(z))

    def test_classwise_with_equal_alphas_collapses(self):
        z = np.array([0.3, 2.0, -1.0])
        cw = ClassWiseTemperature(0.7, np.full(3, 0.7), 0.0)
        # Rolling z routes the record through each class in turn.
        for shift in range(3):
            ds = one_record(np.roll(z, shift))
            assert predict(ds, Identity()).predicted[0] == (1 + shift) % 3
            np.testing.assert_array_equal(
                predict(ds, cw).probs, predict(ds, Temperature(0.7)).probs
            )

    def test_identity_vector_scaling(self):
        z = np.array([0.2, -0.4])
        np.testing.assert_array_equal(
            predict(one_record(z), Vector(np.ones(2), np.zeros(2))).probs[0], softmax(z)
        )

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(InvalidModelError):
            Temperature(-0.5)


class TestFitConfig:
    def test_negative_min_class_samples_is_rejected(self):
        with pytest.raises(ConfigError) as info:
            FitConfig(min_class_samples=-4)
        assert str(info.value) == "min_class_samples must be an integer in [0, inf), got -4"
        assert FitConfig(min_class_samples=0).min_class_samples == 0

    @pytest.mark.parametrize("value", [2.5, float("nan"), True, "3"])
    def test_min_class_samples_that_are_not_integers_rejected(self, value):
        with pytest.raises(ConfigError, match="min_class_samples must be an integer"):
            FitConfig(min_class_samples=value)
        assert FitConfig(min_class_samples=np.int64(3)).min_class_samples == 3

    @pytest.mark.parametrize(
        "lo, hi",
        [(1.0, 1.0), (2.0, 1.0), (0.01, math.inf), (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (0.01, math.nan)],
    )
    def test_bounds_need_a_finite_positive_interval(self, lo, hi):
        with pytest.raises(ConfigError) as info:
            FitConfig(alpha_lo=lo, alpha_hi=hi)
        if 0 < lo < math.inf:
            assert str(info.value) == f"alpha_hi must be a real number in ({lo}, inf), got {hi}"
        else:
            assert str(info.value) == f"alpha_lo must be a real number in (0, inf), got {lo}"


class TestFitTS:
    def test_wellspec_recovers_alpha_one(self):
        rng = np.random.default_rng(40)
        val = wellspec_dataset(rng, 20_000, 4)
        fit = fit_ts(val)
        assert abs(fit.model.alpha - 1.0) <= 0.05

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(41)
        val = wellspec_dataset(rng, 20_000, 4)
        alpha = fit_ts(val).model.alpha
        scaled = LogitDataset(3.0 * val.logits, val.labels)
        alpha_scaled = fit_ts(scaled).model.alpha
        assert abs(alpha_scaled - alpha / 3.0) <= 0.02
        # Same calibrated probabilities either way, up to optimizer tolerance.
        p1 = predict(val, Temperature(alpha)).probs
        p2 = predict(scaled, Temperature(alpha_scaled)).probs
        np.testing.assert_allclose(p1, p2, atol=1e-4)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for _ in range(2):
            ds = LogitDataset(rng.normal(size=(400, 5)) * 2, rng.integers(0, 5, 400))
            fit = fit_ts(ds)
            best, step = grid_argmin(ds)
            assert abs(fit.model.alpha - best) <= step

    def test_val_nll_is_the_minimized_value(self):
        # 5000 records with a tiny margin keep the NLL falling past
        # alpha = 100, so the fit stops on the bound; there the one wrong
        # record, with margin 8, has log-probability -800.
        logits = np.vstack([np.tile([0.01, 0.0], (5000, 1)), [[8.0, 0.0]]])
        val = LogitDataset(logits, np.r_[np.zeros(5000, dtype=int), 1])
        fit = fit_ts(val)
        assert fit.model.alpha == 100.0
        assert abs(fit.val_nll - temperature_nll(TemperatureProblem.of(val), 100.0)[0]) <= 1e-12

    def test_accuracy_preserved_exactly(self):
        rng = np.random.default_rng(43)
        ds = LogitDataset(rng.normal(size=(2000, 6)), rng.integers(0, 6, 2000))
        fit = fit_ts(ds)
        assert predict(ds, fit.model).accuracy == predict(ds, Identity()).accuracy

    def test_empty_validation_rejected(self):
        with pytest.raises(EmptyDatasetError):
            fit_ts(LogitDataset(np.zeros((0, 3)), np.zeros(0, dtype=int)))


class TestFitCTS:
    def test_gamma_zero_collapses_to_ts(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            ds = LogitDataset(rng.normal(size=(500, 4)) * 2, rng.integers(0, 4, 500))
            ts = fit_ts(ds)
            cts = fit_cts(ds, FitConfig(gamma=0.0))
            assert isinstance(cts.model, ClassWiseTemperature)
            np.testing.assert_allclose(cts.model.alphas, ts.model.alpha, atol=1e-6)
            assert cts.model.alpha0 == ts.model.alpha

    def test_hetero_fixture_recovers_inverse_scales(self):
        rng = np.random.default_rng(45)
        val = hetero_dataset(rng, 150_000)
        fit = fit_cts(val, FitConfig(gamma=math.inf))
        alpha_a, alpha_b = fit.model.alphas
        assert alpha_a < 1.0 < alpha_b
        assert abs(alpha_a - 1 / 3.0) <= 0.1
        assert abs(alpha_b - 1 / 0.3) <= 0.1

    def test_gamma_inf_matches_per_slice_grid(self):
        rng = np.random.default_rng(46)
        ds = LogitDataset(rng.normal(size=(600, 3)) * 2, rng.integers(0, 3, 600))
        fit = fit_cts(ds, FitConfig(gamma=math.inf))
        raw = np.argmax(ds.logits, axis=1)
        for k in range(3):
            idx = np.flatnonzero(raw == k)
            if k in fit.fallback_classes or idx.size == 0:
                continue
            best, step = grid_argmin(ds.subset(idx))
            assert abs(fit.model.alphas[k] - best) <= step

    def test_gamma_inf_nll_never_worse_than_ts(self):
        rng = np.random.default_rng(47)
        ds = LogitDataset(rng.normal(size=(1500, 5)) * 1.5, rng.integers(0, 5, 1500))
        ts = fit_ts(ds)
        cts = fit_cts(ds, FitConfig(gamma=math.inf))
        assert cts.val_nll <= ts.val_nll + 1e-9

    def test_small_slices_fall_back_to_shared(self):
        rng = np.random.default_rng(48)
        logits = rng.normal(size=(200, 3))
        logits[:, 2] -= 50  # class 2 effectively never predicted
        logits[:5, 2] += 100  # except five records
        ds = LogitDataset(logits, rng.integers(0, 3, 200))
        fit = fit_cts(ds, FitConfig(gamma=math.inf, min_class_samples=10))
        assert 2 in fit.fallback_classes
        assert fit.model.alphas[2] == fit.model.alpha0

    def test_finite_gamma_feasible_and_improves(self):
        rng = np.random.default_rng(49)
        val = hetero_dataset(rng, 8000)
        cfg = FitConfig(gamma=0.5)
        fit = fit_cts(val, cfg)
        model = fit.model
        assert cfg.alpha_lo <= model.alpha0 <= cfg.alpha_hi
        assert np.all(model.alphas >= model.alpha0 - cfg.gamma)
        assert np.all(model.alphas <= model.alpha0 + cfg.gamma)
        # Never worse than the gamma = 0 solution it starts from.
        ts = fit_ts(val)
        assert fit.val_nll <= ts.val_nll + 1e-9
        # The radius binds on this fixture: classes want 1/3 and 10/3.
        assert np.any(np.abs(model.alphas - model.alpha0) > 0.49)

    def test_per_class_fit_independent_of_other_classes(self):
        rng = np.random.default_rng(50)
        ds = LogitDataset(rng.normal(size=(400, 3)) * 2, rng.integers(0, 3, 400))
        preds = predict(ds, Identity())
        keep = preds.predicted == 0
        others = np.flatnonzero(~keep)
        perm = np.arange(ds.num_records)
        perm[others] = others[::-1]  # shuffle other classes in place
        permuted = LogitDataset(ds.logits[perm], ds.labels[perm])
        cfg = FitConfig(gamma=math.inf, min_class_samples=1)
        a = fit_cts(ds, cfg).model.alphas[0]
        b = fit_cts(permuted, cfg).model.alphas[0]
        assert a == b

    def test_slices_and_fallbacks_follow_raw_argmax(self):
        # The last ten records tie once exponentiated (exp(-1e-17) == 1.0), but
        # `predict` and the class slices both follow the raw argmax, class 1.
        rng = np.random.default_rng(0)
        logits = np.vstack([rng.normal(size=(40, 2)), np.tile([-1e-17, 0.0], (10, 1))])
        val = LogitDataset(logits, np.concatenate([rng.integers(0, 2, 40), np.ones(10, dtype=int)]))
        raw = np.argmax(val.logits, axis=1)
        sizes = np.bincount(raw, minlength=2)
        assert sizes.tolist() == [17, 33]
        assert np.bincount(predict(val, Identity()).predicted, minlength=2).tolist() == [17, 33]
        slice_fit = fit_ts(val.subset(np.flatnonzero(raw == 1)))
        for min_samples in (10, 20, 30, 40):
            fit = fit_cts(val, FitConfig(gamma=math.inf, min_class_samples=min_samples))
            assert fit.fallback_classes == [k for k in range(2) if sizes[k] < min_samples]
            if 1 not in fit.fallback_classes:
                assert fit.model.alphas[1] == slice_fit.model.alpha

    def test_large_finite_gamma_stays_inside_the_bounds(self):
        # Class 0 is always right, so its NLL falls as its temperature grows;
        # class 1 has random labels. alpha0 + 1000 lies far past alpha_hi.
        rng = np.random.default_rng(52)
        logits = np.vstack([np.tile([2.0, 0.0], (100, 1)), np.tile([0.0, 2.0], (100, 1))])
        val = LogitDataset(logits, np.concatenate([np.zeros(100, dtype=int), rng.integers(0, 2, 100)]))
        cfg = FitConfig(gamma=1000.0)
        fit = fit_cts(val, cfg)
        assert np.all(fit.model.alphas <= cfg.alpha_hi)
        assert fit.model.alphas[0] >= cfg.alpha_hi - 10 * SCALAR_TOL
        assert any(w.startswith("CTS class 0 temperature") for w in fit.warnings)
        for w in fit.warnings:
            alpha = float(w.split(" temperature ")[1].split()[0])
            assert cfg.alpha_lo <= alpha <= cfg.alpha_hi, w
        # Both radii reach past [alpha_lo, alpha_hi], so both search exactly that interval.
        inf = fit_cts(val, FitConfig(gamma=math.inf))
        assert fit.model.alphas.tobytes() == inf.model.alphas.tobytes()
        assert fit.warnings == inf.warnings

    def test_accuracy_preserved_exactly(self):
        rng = np.random.default_rng(51)
        ds = LogitDataset(rng.normal(size=(3000, 4)) * 2, rng.integers(0, 4, 3000))
        fit = fit_cts(ds, FitConfig(gamma=math.inf, min_class_samples=1))
        assert predict(ds, fit.model).accuracy == predict(ds, Identity()).accuracy


class TestFitVS:
    def test_wellspec_stays_near_identity(self):
        rng = np.random.default_rng(52)
        val = wellspec_dataset(rng, 20_000, 4)
        before = nll(val)
        fit = fit_vs(val)
        assert before - fit.val_nll <= 1e-3
        np.testing.assert_allclose(fit.model.scale, 1.0, atol=0.2)
        np.testing.assert_allclose(fit.model.bias, 0.0, atol=0.2)

    def test_dominates_ts(self):
        rng = np.random.default_rng(53)
        val = hetero_dataset(rng, 5000)
        ts = fit_ts(val)
        vs = fit_vs(val)
        assert vs.val_nll <= ts.val_nll + 1e-9

    @pytest.mark.parametrize(
        "make_val",
        [
            lambda: wellspec_dataset(np.random.default_rng(52), 20_000, 4),
            lambda: hetero_dataset(np.random.default_rng(53), 5000),
            lambda: hetero_dataset(np.random.default_rng(54), 5000),
            k100_dataset,
        ],
        ids=["wellspec-52", "hetero-53", "hetero-54", "k100-seed16"],
    )
    def test_not_worse_than_gradient_descent_restarts(self, make_val):
        val = make_val()
        assert fit_vs(val).val_nll <= lbfgsb_nll(val)

    def test_stationary_on_wellspec(self):
        rng = np.random.default_rng(52)
        val = wellspec_dataset(rng, 20_000, 4)
        model = fit_vs(val).model
        _, ga, gb = nll_grad_vector(val, model.scale, model.bias)
        assert max(np.max(np.abs(ga)), np.max(np.abs(gb))) < 1e-5

    def test_iteration_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(53)
        val = hetero_dataset(rng, 5000)
        monkeypatch.setattr(optim, "LBFGS_MAX_ITERS", 2)
        with pytest.raises(OptimizationError):
            fit_vs(val)

    def test_reports_accuracy_change(self):
        rng = np.random.default_rng(54)
        val = hetero_dataset(rng, 5000)
        fit = fit_vs(val)
        before, after = predict(val, Identity()).accuracy, predict(val, fit.model).accuracy
        assert math.isfinite(after)
        # accuracy may legitimately differ; both must be valid fractions
        assert 0.0 <= before <= 1.0
        assert 0.0 <= after <= 1.0


class TestAccuracyDelta:
    """The accuracy change and changed-record count, read off two reports."""

    def test_identical_sets(self):
        rng = np.random.default_rng(55)
        ds = LogitDataset(rng.normal(size=(100, 3)), rng.integers(0, 3, 100))
        report = compute_report(ds, Identity())
        np.testing.assert_array_equal(report.predicted, predict(ds, Identity()).predicted)
        assert report.accuracy - compute_report(ds, Identity()).accuracy == 0.0

    def test_temperature_never_changes_predictions(self):
        rng = np.random.default_rng(56)
        ds = LogitDataset(rng.normal(size=(10_000, 5)), rng.integers(0, 5, 10_000))
        before = compute_report(ds, Identity())
        for alpha in rng.uniform(1e-3, 100, 10):
            after = compute_report(ds, Temperature(float(alpha)))
            assert np.array_equal(before.predicted, after.predicted)
            assert after.accuracy - before.accuracy == 0.0

    def test_single_flip_counting(self):
        logits = np.tile(np.log([0.6, 0.4]), (100, 1))
        logits[0] = [0.05, 0.0]  # the only record a bias of 0.1 flips
        labels = np.zeros(100, dtype=int)
        labels[0] = 1  # record 0 is wrong before
        ds = LogitDataset(logits, labels)
        before = compute_report(ds, Identity())
        after = compute_report(ds, Vector(np.ones(2), np.array([0.0, 0.1])))
        assert int(np.sum(before.predicted != after.predicted)) == 1
        assert after.predicted[0] == 1  # flipped to correct
        assert abs((after.accuracy - before.accuracy) - 0.01) <= 1e-15


class TestSerialization:
    def test_round_trips(self):
        models = [
            (Identity(), 4),
            (Temperature(0.37), 4),
            (ClassWiseTemperature(1.2, np.array([1.0, 1.4, 1.2]), 0.25), 3),
            (ClassWiseTemperature(1.2, np.array([0.5, 9.0, 1.2]), math.inf), 3),
            (Vector(np.array([1.0, 2.0]), np.array([-0.5, 0.5])), 2),
        ]
        for model, k in models:
            doc = model_to_dict(model, k)
            restored, k2 = model_from_dict(doc)
            assert k2 == k
            assert type(restored) is type(model)
            assert model_to_dict(restored, k2) == doc

    def test_gamma_inf_serializes_as_string(self):
        doc = model_to_dict(ClassWiseTemperature(1.0, np.ones(2), math.inf), 2)
        assert doc["gamma"] == "inf"

    def test_invalid_documents_rejected(self):
        with pytest.raises(InvalidModelError):
            model_from_dict({"method": "warp", "num_classes": 3})
        with pytest.raises(InvalidModelError):
            model_from_dict({"method": "ts"})
        with pytest.raises(InvalidModelError):
            model_from_dict({"method": "ts", "alpha": -1.0, "num_classes": 2})
        for alpha in ("1.5", True):
            with pytest.raises(InvalidModelError) as info:
                model_from_dict({"method": "ts", "alpha": alpha, "num_classes": 2})
            assert str(info.value) == f"alpha must be a real number in (0, inf), got {alpha!r}"
        with pytest.raises(InvalidModelError):
            model_from_dict({"method": "vs", "a": ["1", "1"], "b": [0, 0], "num_classes": 2})
        with pytest.raises(InvalidModelError):
            model_from_dict(
                {"method": "cts", "alpha0": 1.0, "alphas": [1.0], "gamma": 0.0, "num_classes": 2}
            )


def reference_fit_cts(val, cfg):
    """(alpha0, alphas, evaluations, fallbacks): `fit_ts` on each class's `val.subset(idx)`, clipped to alpha0 +/- gamma."""
    ts = fit_ts(val, cfg)
    alpha0, evals = ts.model.alpha, ts.iterations
    alphas, fallbacks = np.full(val.num_classes, alpha0), []
    if cfg.gamma > 0:
        for k in range(val.num_classes):
            idx = np.flatnonzero(np.argmax(val.logits, axis=1) == k)
            if math.isinf(cfg.gamma) and idx.size < cfg.min_class_samples:
                fallbacks.append(k)
            elif idx.size:
                fit = fit_ts(val.subset(idx), cfg)
                alphas[k] = np.clip(fit.model.alpha, alpha0 - cfg.gamma, alpha0 + cfg.gamma)
                evals += fit.iterations
    return alpha0, alphas, evals, fallbacks


def twelve_class_dataset(seed):
    """K=12 validation records with class sizes from 0 to about 120, in random order."""
    rng = np.random.default_rng(seed)
    k = 12
    # Some classes fall below min_class_samples and one is empty.
    sizes = np.concatenate([[0, 1, 5], rng.integers(8, 120, k - 3)])
    top = np.repeat(np.arange(k), sizes)
    logits = rng.normal(size=(top.size, k)) * rng.uniform(0.5, 3, k)[top][:, None]
    logits[np.arange(top.size), top] = logits.max(axis=1) + rng.exponential(1.0, top.size)
    perm = rng.permutation(top.size)
    return LogitDataset(logits[perm], rng.integers(0, k, top.size))


class TestCtsAgainstSubsets:
    """`fit_cts` on one class-ordered gather equals a fit of each class's subset on its own."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, math.inf])
    @pytest.mark.parametrize("min_class_samples", [0, 10, 40])
    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_alphas_iterations_and_fallbacks(self, gamma, min_class_samples, seed):
        val = twelve_class_dataset(seed)
        cfg = FitConfig(gamma=gamma, min_class_samples=min_class_samples)
        fit = fit_cts(val, cfg)
        alpha0, alphas, evals, fallbacks = reference_fit_cts(val, cfg)
        assert fit.model.alpha0 == alpha0
        assert fit.model.alphas.tobytes() == alphas.tobytes()
        assert fit.iterations == evals
        assert fit.fallback_classes == fallbacks

    @pytest.mark.parametrize("gamma", [0.05, 0.5, 3.0])
    @pytest.mark.parametrize("seed", [1, 7, 11])
    def test_clip_matches_a_search_on_the_radius(self, gamma, seed):
        # A search of each class on [alpha0 - gamma, alpha0 + gamma] within the
        # bounds lands where the clipped full-interval search does.
        val = twelve_class_dataset(seed)
        cfg = FitConfig(gamma=gamma)
        fit = fit_cts(val, cfg)
        alpha0 = fit.model.alpha0
        lo, hi = max(alpha0 - gamma, cfg.alpha_lo), min(alpha0 + gamma, cfg.alpha_hi)
        alphas = np.full(val.num_classes, alpha0)
        for k in range(val.num_classes):
            idx = np.flatnonzero(np.argmax(val.logits, axis=1) == k)
            if idx.size:
                problem = TemperatureProblem.of(val.subset(idx))
                alphas[k] = minimize_scalar(ScalarProblem(lambda a: temperature_nll(problem, a), lo, hi))[0]
        assert np.all(np.abs(fit.model.alphas - alphas) <= 2 * SCALAR_TOL)
        searched = predict(val, ClassWiseTemperature(alpha0, alphas, gamma)).mean_nll
        assert abs(fit.val_nll - searched) <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.05, 0.5, 3.0, 1000.0, math.inf])
    def test_every_search_spans_the_full_bounds(self, monkeypatch, gamma):
        cfg = FitConfig(alpha_lo=0.05, alpha_hi=20.0, gamma=gamma, min_class_samples=0)
        intervals = []

        def recording(problem):
            intervals.append((problem.lo, problem.hi))
            return minimize_scalar(problem)

        monkeypatch.setattr(calibrate, "minimize_scalar", recording)
        val = twelve_class_dataset(7)
        fit_cts(val, cfg)
        classes = np.unique(np.argmax(val.logits, axis=1)).size
        assert len(intervals) == 1 + (classes if gamma > 0 else 0)
        assert set(intervals) == {(cfg.alpha_lo, cfg.alpha_hi)}


class TestObjectiveIsTheReportedNll:
    """The NLL a fit minimizes against the `val_nll` it reports, bit for bit.

    The TS loss and `predict` both scale the shifted logits, (z - top) * alpha.
    """

    DRAWS = [(k, seed) for k in (3, 10, 30) for seed in range(8)]

    @staticmethod
    def val_set(k, seed):
        spec = HeteroLogitSpec(num_classes=k, class_sizes=np.full(k, 30), scales=np.linspace(0.4, 2.0, k),
                               noise_rates=np.full(k, 0.1), margin=2.0, seed=seed)
        return gen_hetero_logits(spec).val

    @pytest.mark.parametrize("k, seed", DRAWS)
    def test_ts_within_4_eps(self, k, seed):
        val = self.val_set(k, seed)
        fit = fit_ts(val)
        assert temperature_nll(TemperatureProblem.of(val), fit.model.alpha)[0] == fit.val_nll

    @pytest.mark.parametrize("k, seed", DRAWS)
    def test_vs_exact(self, k, seed):
        val = self.val_set(k, seed)
        fit = fit_vs(val)
        assert nll_grad_vector(val, fit.model.scale, fit.model.bias)[0] == fit.val_nll
