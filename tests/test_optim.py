"""Scalar search, L-BFGS, projected gradient descent, and analytic gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibkit.core import LogitDataset
from calibkit.errors import ConfigError, OptimizationError
from calibkit import optim
from calibkit.optim import (
    GradientProblem,
    ScalarProblem,
    TemperatureProblem,
    minimize_lbfgs,
    minimize_scalar,
    nll_grad_vector,
    projected_gd,
    temperature_nll,
    vector_nll,
)
from test_top_logit import reference_temperature_nll, same_bits

FD_STEP = 1e-5
REL_FLOOR = 1e-8


def rel_err(a, b):
    return abs(a - b) / max(abs(b), REL_FLOOR)


def random_dataset(rng, n=200, k=5):
    return LogitDataset(rng.normal(size=(n, k)), rng.integers(0, k, n))


def grid_nll(ds, alphas, chunk=500):
    """Mean NLL of softmax(alpha * logits) at each alpha, by log-sum-exp over chunks of alphas.

    Written here, apart from calibkit's kernel, so a grid search against it
    checks the solver and the kernel together.
    """
    u = ds.logits - ds.logits.max(axis=1, keepdims=True)
    u_y = u[np.arange(ds.num_records), ds.labels]
    out = []
    for start in range(0, alphas.size, chunk):
        a = alphas[start : start + chunk, None]
        scaled = a[:, :, None] * u  # (alphas, records, classes); each row's maximum is 0
        log_total = np.log(np.exp(scaled).sum(axis=2))
        out.append((log_total - a * u_y).mean(axis=1))
    return np.concatenate(out)


def quadratic(c):
    return lambda x: ((x - c) ** 2, 2.0 * (x - c), 2.0)


def kink(c):
    # |x - c|: no curvature anywhere, so every step is a bisection.
    return lambda x: (abs(x - c), float(np.sign(x - c)), 0.0)


class TestMinimizeScalar:
    def test_quadratic(self):
        x, fx = minimize_scalar(ScalarProblem(quadratic(2.0), 0, 10))
        assert abs(x - 2) <= 1e-6
        assert fx <= 1e-11

    def test_kink_at_optimum(self):
        x, _ = minimize_scalar(ScalarProblem(kink(0.3), 0, 1))
        assert abs(x - 0.3) <= 1e-6

    def test_matches_dense_grid_on_nll(self):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, n=500)
        lo, hi = 0.01, 100.0
        problem = TemperatureProblem.of(ds)
        x, _ = minimize_scalar(ScalarProblem(lambda a: temperature_nll(problem, a), lo, hi))
        grid = np.linspace(lo, hi, 100_001)
        vals = grid_nll(ds, grid)
        step = grid[1] - grid[0]
        assert abs(x - grid[np.argmin(vals)]) <= step

    def test_lower_bound_when_increasing(self):
        # The search starts at 1, clipped into [lo, hi]: inside, at hi and at lo.
        for lo, hi in ((0.0, 5.0), (0.0, 1.0), (0.0, 0.5), (2.0, 5.0)):
            x, fx = minimize_scalar(ScalarProblem(quadratic(-1.0), lo, hi))
            assert (x, fx) == (lo, (lo + 1.0) ** 2)

    def test_upper_bound_when_decreasing(self):
        for lo, hi in ((0.0, 5.0), (0.0, 1.0), (2.0, 5.0), (0.0, 0.5)):
            x, fx = minimize_scalar(ScalarProblem(quadratic(10.0), lo, hi))
            assert (x, fx) == (hi, (hi - 10.0) ** 2)
        # Separable records: the NLL keeps falling as alpha grows.
        problem = TemperatureProblem.of(LogitDataset(np.array([[3.0, 0.0], [0.0, 2.0]]), np.array([0, 1])))
        x, _ = minimize_scalar(ScalarProblem(lambda a: temperature_nll(problem, a), 0.01, 100.0))
        assert x == 100.0

    def test_stationary_start_is_returned(self):
        x, fx = minimize_scalar(ScalarProblem(quadratic(1.0), 0.0, 5.0))
        assert (x, fx) == (1.0, 0.0)

    def test_few_evaluations_on_nll(self):
        rng = np.random.default_rng(19)
        problem = TemperatureProblem.of(random_dataset(rng, n=1000))
        calls = []

        def objective(a):
            calls.append(a)
            return temperature_nll(problem, a)

        minimize_scalar(ScalarProblem(objective, 0.01, 100.0))
        assert len(calls) <= 12

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            minimize_scalar(ScalarProblem(quadratic(0.0), 1.0, 1.0))

    def test_non_finite_objective(self):
        with pytest.raises(OptimizationError):
            minimize_scalar(ScalarProblem(lambda x: (np.inf, 0.0, 1.0), 0.0, 1.0))
        with pytest.raises(OptimizationError):
            minimize_scalar(ScalarProblem(lambda x: (0.0, np.nan, 1.0), 0.0, 1.0))

    def test_iteration_bound_raises(self, monkeypatch):
        # Bisection needs about 20 steps here; past the bound the search
        # raises instead of returning an unconverged point.
        monkeypatch.setattr(optim, "_MAX_SCALAR_ITERS", 5)
        with pytest.raises(OptimizationError):
            minimize_scalar(ScalarProblem(kink(0.3), 0.0, 1.0))


class TestTemperatureGradient:
    def test_zero_on_symmetric_logits(self):
        problem = TemperatureProblem.of(LogitDataset(np.full((50, 4), 1.7), np.zeros(50, dtype=int)))
        for alpha in (0.1, 1.0, 10.0):
            assert abs(temperature_nll(problem, alpha)[1]) < 1e-12

    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            problem = TemperatureProblem.of(random_dataset(rng, n=100, k=int(rng.integers(2, 8))))
            alpha = float(rng.uniform(0.1, 10))
            grad = temperature_nll(problem, alpha)[1]
            fd = (temperature_nll(problem, alpha + FD_STEP)[0] - temperature_nll(problem, alpha - FD_STEP)[0]) / (
                2 * FD_STEP
            )
            assert rel_err(grad, fd) <= 1e-5

    def test_curvature_matches_central_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            problem = TemperatureProblem.of(random_dataset(rng, n=100, k=int(rng.integers(2, 8))))
            alpha = float(rng.uniform(0.1, 10))
            curv = temperature_nll(problem, alpha)[2]
            fd = (temperature_nll(problem, alpha + FD_STEP)[1] - temperature_nll(problem, alpha - FD_STEP)[1]) / (
                2 * FD_STEP
            )
            assert curv >= 0.0
            assert rel_err(curv, fd) <= 1e-5

    def test_first_order_optimality_at_fitted_temperature(self):
        # Labels must carry signal so the optimum is interior: sample them
        # from the softmax of the (rescaled) logits.
        from calibkit.calibrate import fit_ts
        from calibkit.core import softmax

        rng = np.random.default_rng(18)
        for scale in (0.5, 1.0, 3.0):
            z = scale * rng.normal(size=(400, 5))
            p = softmax(z / scale)
            labels = (rng.random(400)[:, None] > np.cumsum(p, axis=1)).sum(axis=1)
            ds = LogitDataset(z, labels)
            alpha = fit_ts(ds).model.alpha
            assert 0.01 < alpha < 100.0
            assert abs(temperature_nll(TemperatureProblem.of(ds), alpha)[1]) <= 1e-4

    def test_matches_central_differences_on_slice(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, n=200)
        part = TemperatureProblem.of(ds.subset(np.flatnonzero(np.argmax(ds.logits, axis=1) == 2)))
        alpha = 1.7
        grad = temperature_nll(part, alpha)[1]
        fd = (temperature_nll(part, alpha + FD_STEP)[0] - temperature_nll(part, alpha - FD_STEP)[0]) / (
            2 * FD_STEP
        )
        assert rel_err(grad, fd) <= 1e-5


class TestVectorGradient:
    def test_perfect_fit_record_contributes_zero(self):
        # A record whose softmax already sits on its label has residual ~0.
        z = np.array([[40.0, 0.0, 0.0]])
        ds = LogitDataset(z, np.array([0]))
        _, ga, gb = nll_grad_vector(ds, np.ones(3), np.zeros(3))
        assert np.max(np.abs(ga)) < 1e-12
        assert np.max(np.abs(gb)) < 1e-12

    def test_matches_central_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            ds = random_dataset(rng, n=80, k=k)
            a = rng.uniform(0.5, 2.0, k)
            b = rng.normal(scale=0.5, size=k)
            _, ga, gb = nll_grad_vector(ds, a, b)
            for j in range(k):
                ea = np.zeros(k)
                ea[j] = FD_STEP
                fd_a = (vector_nll(ds, a + ea, b) - vector_nll(ds, a - ea, b)) / (2 * FD_STEP)
                fd_b = (vector_nll(ds, a, b + ea) - vector_nll(ds, a, b - ea)) / (2 * FD_STEP)
                assert rel_err(ga[j], fd_a) <= 1e-5
                assert rel_err(gb[j], fd_b) <= 1e-5

    def test_balanced_symmetric_data_has_zero_bias_gradient(self):
        # Every permutation of one logit pattern with matching labels: the
        # average residual per class cancels by symmetry.
        k = 3
        base = np.array([2.0, 0.0, 0.0])
        logits = np.vstack([np.roll(base, i) for i in range(k)])
        ds = LogitDataset(logits, np.arange(k))
        _, _, gb = nll_grad_vector(ds, np.ones(k), np.zeros(k))
        explicit = np.zeros(k)
        for i in range(k):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            p[ds.labels[i]] -= 1
            explicit += p / k
        np.testing.assert_allclose(gb, explicit, atol=1e-15)
        np.testing.assert_allclose(gb, 0.0, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, n=10, k=4)
        with pytest.raises(ConfigError):
            nll_grad_vector(ds, np.ones(3), np.zeros(3))


class TestLBFGS:
    def test_ill_conditioned_quadratic_exact_minimizer(self, monkeypatch):
        # Condition number 1e4, with the eigenbasis rotated away from the axes.
        monkeypatch.setattr(optim, "LBFGS_IMPROVEMENT_TOL", 0.0)
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        h = q @ np.diag(np.logspace(0, 4, 6)) @ q.T
        c = rng.normal(size=6)

        def objective(x):
            r = x - c
            return 0.5 * float(r @ h @ r), h @ r

        result = minimize_lbfgs(objective, np.zeros(6))
        np.testing.assert_allclose(result.x, c, rtol=0, atol=1e-8)
        assert result.loss <= 1e-16

    def test_accepted_losses_strictly_decrease(self, monkeypatch):
        # Record each line search: the loss it starts from and the loss it
        # accepts. Each accepted loss is below its start, and the next line
        # search starts from it.
        searches = []
        backtrack = optim._backtrack

        def recording(evaluate, x, loss, d, slope):
            step = backtrack(evaluate, x, loss, d, slope)
            searches.append((loss, None if step is None else step[1]))
            return step

        monkeypatch.setattr(optim, "_backtrack", recording)
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, n=300, k=4)

        def objective(x):
            loss, ga, gb = nll_grad_vector(ds, x[:4], x[4:])
            return loss, np.concatenate([ga, gb])

        result = minimize_lbfgs(objective, np.r_[np.ones(4), np.zeros(4)])
        accepted = [after for _, after in searches if after is not None]
        assert len(accepted) > 3
        assert all(after < before for before, after in searches if after is not None)
        assert [before for before, _ in searches[1:]] == accepted[: len(searches) - 1]
        assert result.loss == accepted[-1]

    def test_unbounded_below_raises_at_cap(self, monkeypatch):
        monkeypatch.setattr(optim, "LBFGS_MAX_ITERS", 5)
        with pytest.raises(OptimizationError) as info:
            minimize_lbfgs(lambda x: (-float(x.sum()), -np.ones_like(x)), np.zeros(3))
        assert info.value.iterations == 5

    def test_non_finite_loss_raises(self):
        with pytest.raises(OptimizationError):
            minimize_lbfgs(lambda x: (float("nan"), x), np.ones(2))
        # A finite start whose first trial step overflows.
        with pytest.raises(OptimizationError), np.errstate(over="ignore"):
            minimize_lbfgs(lambda x: (float(np.exp(x @ x)), 2 * x * np.exp(x @ x)), np.full(2, 2.0))

    def test_line_search_stops_once_the_step_rounds_away(self):
        # x is the minimizer, so no step lowers the loss. From t = 2**-45 on,
        # t * d is below half the spacing of floats under 1, so every
        # candidate is x itself: 45 evaluations instead of 51.
        calls = []

        def evaluate(point):
            calls.append(point.copy())
            return float((point[0] - 1.0) ** 2), 2 * (point - 1.0)

        x = np.ones(1)
        assert optim._backtrack(evaluate, x, 0.0, np.full(1, -1e-3), -1e-6) is None
        assert len(calls) == 45 < optim._MAX_HALVINGS + 1
        assert all(point[0] != 1.0 for point in calls)

    def test_zero_gradient_start_returns_at_once(self):
        calls = []

        def objective(x):
            calls.append(x)
            return float(x @ x), 2 * x

        result = minimize_lbfgs(objective, np.zeros(3))
        assert result.loss == 0.0 and len(calls) == 1


class TestProjectedGD:
    def test_unconstrained_quadratic(self):
        c = np.array([1.0, -2.0, 0.5])
        result = projected_gd(
            GradientProblem(
                objective=lambda x: float(np.sum((x - c) ** 2)),
                gradient=lambda x: 2 * (x - c),
                project=lambda x: x,
                x0=np.zeros(3),
                improvement_tol=1e-14,
            )
        )
        np.testing.assert_allclose(result.x, c, atol=1e-6)

    def test_box_projection_clamps_optimum(self):
        c = np.array([2.0, -1.0, 0.3])
        result = projected_gd(
            GradientProblem(
                objective=lambda x: float(np.sum((x - c) ** 2)),
                gradient=lambda x: 2 * (x - c),
                project=lambda x: np.clip(x, 0.0, 1.0),
                x0=np.full(3, 0.5),
                improvement_tol=1e-14,
            )
        )
        np.testing.assert_allclose(result.x, [1.0, 0.0, 0.3], atol=1e-6)

    def test_every_evaluated_point_is_feasible(self):
        # Candidates are projected before evaluation, so the solver never
        # looks at an infeasible point, not just at convergence.
        rng = np.random.default_rng(16)
        c = rng.normal(size=4) + 3.0
        evaluated = []

        def objective(x):
            evaluated.append(x.copy())
            return float(np.sum((x - c) ** 2))

        result = projected_gd(
            GradientProblem(
                objective=objective,
                gradient=lambda x: 2 * (x - c),
                project=lambda x: np.clip(x, -0.5, 0.5),
                x0=np.zeros(4),
            )
        )
        for x in evaluated:
            np.testing.assert_array_equal(x, np.clip(x, -0.5, 0.5))
        assert result.loss <= float(np.sum((np.zeros(4) - c) ** 2))

    def test_accepted_losses_strictly_decrease(self):
        rng = np.random.default_rng(17)
        c = rng.normal(size=3)
        losses_by_iter = []

        def objective(x):
            return float(np.sum((x - c) ** 2) + 0.1 * np.sum(np.abs(x)))

        # Track accepted losses by re-running with growing iteration caps:
        # each prefix ends at the best-so-far loss, which must be monotone.
        prev = None
        for cap in (1, 2, 4, 8, 16, 32):
            r = projected_gd(
                GradientProblem(
                    objective=objective,
                    gradient=lambda x: 2 * (x - c) + 0.1 * np.sign(x),
                    project=lambda x: x,
                    x0=np.zeros(3),
                    max_iters=cap,
                    improvement_tol=0.0,
                )
            )
            losses_by_iter.append(r.loss)
            if prev is not None:
                assert r.loss <= prev
            prev = r.loss

    def test_nan_loss_raises(self):
        with pytest.raises(OptimizationError):
            projected_gd(
                GradientProblem(
                    objective=lambda x: float("nan"),
                    gradient=lambda x: x,
                    project=lambda x: x,
                    x0=np.zeros(2),
                )
            )


class TestTemperatureProblem:
    """A prepared problem gives every evaluation the bits of a fresh one."""

    @given(
        k=st.integers(2, 12),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
        alphas=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluations_match_a_fresh_dataset(self, k, n, seed, ties, alphas, data):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, k)) * 3
        if ties:
            logits = np.round(logits)
        ds = LogitDataset(logits, rng.integers(0, k, n))
        # 0.01 and 100 are the search bounds; repeats check that no evaluation leaves state behind.
        sequence = [0.01, 100.0, *alphas, *alphas[:2], 0.01]
        sequence = data.draw(st.permutations(sequence))

        top_class = ds.top[0]
        order = np.argsort(top_class, kind="stable")
        c = data.draw(st.sampled_from(sorted(set(top_class.tolist()))))
        start, stop = np.searchsorted(top_class[order], [c, c + 1])
        cases = [
            (TemperatureProblem.of(ds), ds),
            (TemperatureProblem.of(ds, order).rows(start, stop), ds.subset(np.flatnonzero(top_class == c))),
        ]
        for problem, fresh in cases:
            assert (problem.num_records, problem.num_classes) == (fresh.num_records, k)
            for alpha in sequence:
                got = temperature_nll(problem, alpha)
                for want in (temperature_nll(TemperatureProblem.of(fresh), alpha), reference_temperature_nll(fresh, alpha)):
                    assert all(same_bits(a, b) for a, b in zip(got, want)), (alpha, got, want)
