"""Synthetic constructions: two-atom noisy data, rare-atom fits, hetero logits."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from calibkit import synthetic
from calibkit.core import Identity, predict
from calibkit.errors import ConfigError, DegenerateNoiseError
from calibkit.metrics import BinningConfig, compute_report
from calibkit.optim import GradientProblem, minimize_lbfgs, projected_gd
from calibkit.synthetic import (
    BinaryDataset,
    HeteroLogitSpec,
    NoisyBinarySpec,
    RareAtomSpec,
    fit_constrained_logistic,
    gen_hetero_logits,
    optimal_noisy_classifier,
    population_confidence_accuracy,
    rare_atom_experiment,
    sample_dnoisy,
)

# Closed-form weight/intercept at noise (0.3, 0.1), evaluated at 50 digits.
A_03_01 = 1.5222612188617115
B_03_01 = -0.6749633584745078
RADIUS_N50_EPS001 = 47.17960034405744


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestSampleDnoisy:
    def test_noiseless_labels_are_deterministic(self):
        spec = NoisyBinarySpec(0.0, 0.0, direction=[0.0, 1.0])
        data = sample_dnoisy(spec, 500, seed=7)
        plus = data.x[:, 1] > 0
        assert np.all(data.y[plus] == 1)
        assert np.all(data.y[~plus] == 0)

    def test_flip_rate_within_binomial_bound(self):
        spec = NoisyBinarySpec(0.3, 0.1, direction=[1.0])
        data = sample_dnoisy(spec, 1_000_000, seed=8)
        plus = data.x[:, 0] > 0
        assert abs(np.mean(plus) - 0.5) <= 0.002
        assert abs(np.mean(data.y[plus] == 0) - 0.3) <= 0.002
        assert abs(np.mean(data.y[~plus] == 1) - 0.1) <= 0.002

    def test_deterministic_given_seed(self):
        spec = NoisyBinarySpec(0.2, 0.2, direction=[1.0])
        a = sample_dnoisy(spec, 1000, seed=9)
        b = sample_dnoisy(spec, 1000, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            NoisyBinarySpec(0.5, 0.1)
        with pytest.raises(ConfigError):
            NoisyBinarySpec(0.1, 0.1, direction=[1.0, 1.0])


class TestOptimalNoisyClassifier:
    def test_symmetric_noise_kills_intercept(self):
        for p in (0.1, 0.25, 0.4):
            clf = optimal_noisy_classifier(p, p)
            assert clf.intercept == 0.0
            assert abs(clf.weight[0] - math.log((1 - p) / p)) <= 1e-15

    def test_reference_values(self):
        clf = optimal_noisy_classifier(0.3, 0.1)
        assert abs(clf.weight[0] - A_03_01) <= 1e-14
        assert abs(clf.intercept - B_03_01) <= 1e-14
        assert abs(float(clf.prob(np.array([1.0]))) - 0.7) <= 1e-12
        assert abs(float(clf.prob(np.array([-1.0]))) - 0.1) <= 1e-12

    def test_matches_numerical_minimization_of_population_nll(self):
        # Independent route: the population NLL decouples into two scalar
        # logistic losses; solve each stationarity condition by bisection
        # bracketing (Brent) and compare.
        from scipy.optimize import brentq

        for pp, pm in ((0.3, 0.1), (0.45, 0.05), (0.2, 0.2)):
            alpha = brentq(lambda a: (1 - pp) * sigmoid(-a) - pp * sigmoid(a), -30, 30, xtol=1e-13)
            beta = brentq(lambda b: (1 - pm) * sigmoid(-b) - pm * sigmoid(b), -30, 30, xtol=1e-13)
            clf = optimal_noisy_classifier(pp, pm)
            assert abs(0.5 * (alpha + beta) - clf.weight[0]) <= 1e-8
            assert abs(0.5 * (alpha - beta) - clf.intercept) <= 1e-8

    def test_stationarity_of_explicit_population_loss(self):
        clf = optimal_noisy_classifier(0.3, 0.1)
        alpha = clf.weight[0] + clf.intercept
        beta = clf.weight[0] - clf.intercept
        d_alpha = (1 - 0.3) * sigmoid(-alpha) - 0.3 * sigmoid(alpha)
        d_beta = (1 - 0.1) * sigmoid(-beta) - 0.1 * sigmoid(beta)
        assert abs(d_alpha) <= 1e-10
        assert abs(d_beta) <= 1e-10

    def test_zero_noise_rejected(self):
        with pytest.raises(DegenerateNoiseError):
            optimal_noisy_classifier(0.0, 0.1)
        with pytest.raises(DegenerateNoiseError):
            optimal_noisy_classifier(0.1, 0.0)


class TestPopulationConfidenceAccuracy:
    def test_reference_tuple(self):
        spec = NoisyBinarySpec(0.3, 0.1, p_test=0.2, direction=[1.0])
        clf = optimal_noisy_classifier(0.3, 0.1)
        conf_plus, conf_minus, acc = population_confidence_accuracy(clf, spec)
        assert abs(conf_plus - 0.7) <= 1e-15
        assert abs(conf_minus - 0.9) <= 1e-15
        assert acc == 0.8

    def test_symmetric_case(self):
        spec = NoisyBinarySpec(0.25, 0.25, p_test=0.25, direction=[1.0])
        clf = optimal_noisy_classifier(0.25, 0.25)
        conf_plus, conf_minus, acc = population_confidence_accuracy(clf, spec)
        assert abs(conf_plus - 0.75) <= 1e-15
        assert abs(conf_minus - 0.75) <= 1e-15
        assert acc == 0.75

    def test_flipped_classifier_misclassifies_both_atoms(self):
        # Exhaustive two-atom oracle: a negative weight decides 0 on v and
        # 1 on -v, so each atom contributes p_test.
        spec = NoisyBinarySpec(0.3, 0.1, p_test=0.2, direction=[1.0])
        from calibkit.synthetic import LinearBinaryClassifier

        flipped = LinearBinaryClassifier(weight=np.array([-2.0]), intercept=0.0)
        expected = 0.5 * 0.2 + 0.5 * 0.2
        _, _, acc = population_confidence_accuracy(flipped, spec)
        assert abs(acc - expected) <= 1e-15


class TestFitConstrainedLogistic:
    def test_separable_data_saturates_small_radius(self):
        v = np.array([0.0, 1.0])
        clf = fit_constrained_logistic(BinaryDataset(np.vstack([v, -v]), [1, 0]), [25, 25], radius=1.0)
        assert abs(np.linalg.norm(clf.weight) - 1.0) <= 1e-9

    def test_two_atom_separable_aligns_with_direction(self):
        spec = RareAtomSpec(n=50, epsilon=0.01)
        v = np.array([0.0, 1.0])
        clf = fit_constrained_logistic(BinaryDataset(np.vstack([v, -v]), [1, 0]), [30, 20], spec.radius)
        norm = np.linalg.norm(clf.weight)
        assert abs(norm - spec.radius) <= 1e-3
        assert clf.weight @ v / norm >= 0.999
        assert abs(clf.intercept) <= math.log(6)

    def test_sampled_noisy_fit_recovers_population_confidences(self):
        spec = NoisyBinarySpec(0.3, 0.1, direction=[1.0, 0.0])
        atoms, counts = atom_counts(sample_dnoisy(spec, 200_000, seed=11))
        clf = fit_constrained_logistic(atoms, counts, radius=1000.0)
        f_plus = float(clf.prob(spec.direction))
        f_minus = float(clf.prob(-spec.direction))
        assert abs(f_plus - 0.70) <= 0.01
        assert abs(f_minus - 0.10) <= 0.01

    def test_radius_must_be_positive(self):
        with pytest.raises(ConfigError):
            fit_constrained_logistic(BinaryDataset(np.ones((2, 1)), np.array([0, 1])), [1, 1], 0.0)

    def test_atoms_with_count_zero_are_left_out(self):
        spec = RareAtomSpec(n=50, epsilon=0.01)
        a = fit_constrained_logistic(BinaryDataset(spec.atoms, spec.atom_labels), [26, 0, 24], spec.radius)
        b = fit_constrained_logistic(BinaryDataset(spec.atoms[[0, 2]], [1, 0]), [26, 24], spec.radius)
        assert a.weight.tobytes() == b.weight.tobytes()
        assert np.float64(a.intercept).tobytes() == np.float64(b.intercept).tobytes()

    def test_equal_label_means_give_the_best_constant_classifier(self):
        # The mean +1 and the mean -1 atom are both v / 2, so F's gradient at
        # weight 0 and intercept log(n+ / n-) vanishes there.
        v = np.array([0.6, 0.8])
        atoms = BinaryDataset(np.vstack([v, v, -v, -v]), [1, 0, 1, 0])
        clf = fit_constrained_logistic(atoms, [3, 6, 1, 2], radius=5.0)
        assert clf.weight.tolist() == [0.0, 0.0]
        assert clf.intercept == math.log(4 / 8)


class TestOneLabelSamples:
    """A sample with one label gets weight 0 and +-ONE_LABEL_INTERCEPT, with no solve."""

    @pytest.fixture
    def no_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-label sample ran a solver")

        monkeypatch.setattr(synthetic, "minimize_lbfgs", refuse)

    @pytest.mark.parametrize("counts, sign", [([10, 0, 0], 1.0), ([0, 3, 7], -1.0), ([0, 0, 1], -1.0)])
    def test_every_present_atom_has_loss_exactly_zero(self, no_solver, counts, sign):
        spec = RareAtomSpec(10, 0.01)
        clf = fit_constrained_logistic(BinaryDataset(spec.atoms, spec.atom_labels), counts, spec.radius)
        assert clf.weight.tolist() == [0.0, 0.0]
        assert clf.intercept == sign * synthetic.ONE_LABEL_INTERCEPT
        ys = 2.0 * spec.atom_labels - 1.0
        losses = np.logaddexp(0.0, -ys * clf.logit(spec.atoms))
        assert losses[np.array(counts) > 0].tolist() == [0.0] * np.count_nonzero(counts)

    @pytest.mark.parametrize("seed, sign", [(415, -1.0), (1064, 1.0)])
    def test_rare_atom_experiment_records_a_one_label_draw(self, seed, sign):
        # Seed 415 draws ten -v atoms for its small sample, seed 1064 ten v atoms.
        small = rare_atom_experiment(10, 0.01, trials=1, seed=seed)[0]
        assert (small.scenario, small.rare_present, small.balanced) == ("s1", False, False)
        assert small.weight.tolist() == [0.0, 0.0]
        assert small.intercept == sign * synthetic.ONE_LABEL_INTERCEPT
        assert (small.min_confidence, small.accuracy) == (1.0, 0.5)


def fit_loss_and_gradient(atoms, counts, clf):
    """F at the fit, and the gradient of log F in the weight and in the intercept, in the log domain."""
    keep = np.asarray(counts) > 0
    x, ys, c = atoms.x[keep], 2.0 * atoms.y[keep] - 1.0, np.asarray(counts, dtype=np.float64)[keep]
    t = -ys * clf.logit(x)
    loss = float(c @ np.logaddexp(0.0, t) / c.sum())
    log_terms = np.log(c) + np.where(t < -40.0, t, np.log(np.logaddexp(0.0, np.maximum(t, -40.0))))
    r = -ys * np.exp(np.log(c) - np.logaddexp(0.0, -t) - logsumexp(log_terms))
    return loss, x.T @ r, r.sum()


def gd_loss(atoms, counts, radius):
    """F at the projected-gradient-descent fit the solve replaced: from (0, 0), relative tolerance 1e-10."""
    keep = np.asarray(counts) > 0
    x, ys, c = atoms.x[keep], 2.0 * atoms.y[keep] - 1.0, np.asarray(counts)[keep]
    d = x.shape[1]

    def objective(p):
        return float(c @ np.logaddexp(0.0, -ys * (x @ p[:d] + p[d])) / c.sum())

    def gradient(p):
        s = -ys * sigmoid(-ys * (x @ p[:d] + p[d])) * c / c.sum()
        return np.append(x.T @ s, s.sum())

    def project(p):
        norm = np.linalg.norm(p[:d])
        return p if norm <= radius else np.append(p[:d] * (radius / norm), p[d])

    return projected_gd(GradientProblem(objective, gradient, project, np.zeros(d + 1), max_iters=5000,
                                        improvement_tol=0.0, relative_improvement_tol=1e-10)).loss


def dnoisy_atoms(direction):
    v = np.asarray(direction, dtype=np.float64)
    return BinaryDataset(np.vstack([v, v, -v, -v]), [1, 0, 1, 0])


RARE_SPEC = RareAtomSpec(10, 0.01)
ATOM_SETS = {
    "rare": BinaryDataset(RARE_SPEC.atoms, RARE_SPEC.atom_labels),
    "dnoisy-1d": dnoisy_atoms([1.0]),
    "dnoisy-2d": dnoisy_atoms([0.6, 0.8]),
}


class TestConstrainedOptimum:
    """The fit meets the KKT conditions of min F over ||weight|| <= radius, and beats projected GD.

    Gradients are of log F, so they are scale-free even where F is far
    below 1e-300. On the sphere the tangential gradient and the intercept
    derivative vanish and the outward derivative is <= 0; inside, the whole
    gradient vanishes. F's float value carries relative rounding up to about
    |margin| * eps, and margins here reach about 1000, hence the 1e-12 on
    the comparison with projected GD.
    """

    @given(
        atoms=st.sampled_from(list(ATOM_SETS)),
        counts=st.lists(st.integers(0, 3000), min_size=4, max_size=4),
        radius=st.floats(0.5, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_kkt_conditions_and_no_worse_than_projected_gd(self, atoms, counts, radius):
        atoms = ATOM_SETS[atoms]
        counts = counts[:atoms.num_records]
        assume(len(set(np.asarray(atoms.y)[np.asarray(counts) > 0].tolist())) == 2)
        clf = fit_constrained_logistic(atoms, counts, radius)
        loss, grad_w, grad_b = fit_loss_and_gradient(atoms, counts, clf)
        norm = np.linalg.norm(clf.weight)
        assert norm <= radius * (1 + 1e-12)
        if norm >= radius * (1 - 1e-9):
            u = clf.weight / norm
            assert np.linalg.norm(grad_w - (u @ grad_w) * u) <= 1e-8
            assert u @ grad_w <= 1e-12
        else:
            assert np.linalg.norm(grad_w) <= 1e-7
        assert abs(grad_b) <= 1e-7
        assert loss <= gd_loss(atoms, counts, radius) * (1 + 1e-12)


def atom_counts(dataset):
    """The distinct (x, y) records of a dataset, in sorted order, and how often each occurs."""
    rows, counts = np.unique(np.column_stack([dataset.x, dataset.y]), axis=0, return_counts=True)
    return BinaryDataset(rows[:, :-1], rows[:, -1]), counts


def rowwise_constrained_logistic(atoms, counts, radius):
    """The constrained logistic fit's solves, with log F and its derivatives summed over every sampled row.

    For samples with both labels: L-BFGS on log F over the sphere (weight
    radius * v / ||v||, intercept radius * beta) from v along the
    difference of the two labels' mean rows; if the outward derivative
    there, after one Newton step along the sphere, is positive, L-BFGS over
    the ball's interior from (0, 0) and one Newton step.
    """
    x, y = np.repeat(atoms.x, counts, axis=0), np.repeat(atoms.y, counts)
    d = x.shape[1]
    ys = 2.0 * y - 1.0
    a = np.column_stack([x, np.ones(len(x))])

    def log_loss(w, b):
        """log(sum of row losses), its gradient in (w, b) and its Hessian."""
        t = -ys * (x @ w + b)
        value = logsumexp(np.where(t < -40.0, t, np.log(np.logaddexp(0.0, np.maximum(t, -40.0)))))
        log_sigmoid = -np.logaddexp(0.0, -t)
        r = -ys * np.exp(log_sigmoid - value)  # d value / d (x . w + b)
        grad = a.T @ r
        return value, grad, (a.T * (-ys * r * (1.0 - np.exp(log_sigmoid)))) @ a - np.outer(grad, grad)

    def on_sphere(p):
        norm = np.linalg.norm(p[:d])
        u = p[:d] / norm
        value, grad, _ = log_loss(radius * u, radius * p[d])
        return value, np.append((radius / norm) * (grad[:d] - (u @ grad[:d]) * u), radius * grad[d])

    def newton(p, sphere):
        _, grad, hess = log_loss(p[:d], p[d])
        if sphere:
            u = np.append(p[:d] / radius, 0.0)
            proj = np.eye(d + 1) - np.outer(u, u)
            hess = proj @ (hess - (u @ grad / radius) * np.diag(np.append(np.ones(d), 0.0))) @ proj + np.outer(u, u)
            grad = proj @ grad
        p = p + np.linalg.lstsq(hess, -grad, rcond=None)[0]
        return np.append(p[:d] * (radius / np.linalg.norm(p[:d])), p[d]) if sphere else p

    direction = x[y == 1].mean(axis=0) - x[y == 0].mean(axis=0)
    p = minimize_lbfgs(on_sphere, np.append(direction / np.linalg.norm(direction), 0.0)).x
    p = newton(np.append(radius * p[:d] / np.linalg.norm(p[:d]), radius * p[d]), sphere=True)
    if p[:d] @ log_loss(p[:d], p[d])[1][:d] > 0:
        p = newton(minimize_lbfgs(lambda q: log_loss(q[:d], q[d])[:2], np.zeros(d + 1)).x, sphere=False)
    return synthetic.LinearBinaryClassifier(weight=p[:d], intercept=p[d])


def row_path_rare_atom_experiment(n, epsilon, trials, seed):
    """The experiment as it ran on rows: each sample a dataset of rows, its atoms and counts found by np.unique."""
    spec = RareAtomSpec(n=n, epsilon=epsilon)
    records = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        for scenario, count in (("s1", spec.n), ("s2", synthetic.LARGE_FACTOR * spec.n)):
            idx = rng.choice(3, size=count, p=spec.atom_probs)
            atoms, counts = atom_counts(BinaryDataset(spec.atoms[idx], spec.atom_labels[idx]))
            clf = fit_constrained_logistic(atoms, counts, spec.radius)
            min_conf, accuracy = synthetic._evaluate_on_atoms(clf, spec)
            balanced = bool(np.sum(idx == 0) >= count / 3 and np.sum(idx == 2) >= count / 3)
            records.append(synthetic.RareAtomTrial(t, scenario, bool(np.any(idx == 1)), balanced, min_conf, accuracy,
                                                   clf.weight, clf.intercept))
    return records


class TestCountWeightedFit:
    @pytest.mark.parametrize("args", [(100, 0.01, 10, 1000), (100, 0.01, 10, 5000), (100, 0.01, 10, 9000),
                                      (50, 0.01, 20, 123), (10, 0.2, 20, 7)])
    def test_matches_the_row_path_bit_for_bit(self, args):
        counted = rare_atom_experiment(*args)
        rows = row_path_rare_atom_experiment(*args)
        assert len(counted) == len(rows) == 2 * args[2]
        for a, b in zip(counted, rows):
            assert (a.trial, a.scenario, a.rare_present, a.balanced) == (b.trial, b.scenario, b.rare_present, b.balanced)
            assert type(a.rare_present) is type(a.balanced) is bool
            assert (a.min_confidence, a.accuracy) == (b.min_confidence, b.accuracy)
            assert a.weight.tobytes() == b.weight.tobytes()
            assert np.float64(a.intercept).tobytes() == np.float64(b.intercept).tobytes()

    @pytest.mark.parametrize("seed", [123, 2024])
    def test_matches_the_rowwise_fit_on_rare_atom_trials(self, monkeypatch, seed):
        fast = rare_atom_experiment(50, 0.01, trials=20, seed=seed)
        monkeypatch.setattr(synthetic, "fit_constrained_logistic", rowwise_constrained_logistic)
        slow = rare_atom_experiment(50, 0.01, trials=20, seed=seed)
        assert len(fast) == len(slow) == 40
        for a, b in zip(fast, slow):
            assert (a.min_confidence, a.accuracy) == (b.min_confidence, b.accuracy)
            np.testing.assert_allclose(a.weight, b.weight, rtol=0, atol=1e-9)
            assert abs(a.intercept - b.intercept) <= 1e-9


class TestRareAtomExperiment:
    def test_radius_formula(self):
        spec = RareAtomSpec(n=50, epsilon=0.01)
        assert abs(spec.radius - RADIUS_N50_EPS001) <= 1e-10
        assert spec.rare_denominator == 1000
        np.testing.assert_allclose(np.linalg.norm(spec.atoms, axis=1), 1.0, atol=1e-15)
        assert abs(spec.atom_probs.sum() - 1.0) <= 1e-15

    def test_small_sample_without_rare_atom_is_confidently_wrong(self):
        records = rare_atom_experiment(50, 0.01, trials=20, seed=123)
        absent = [r for r in records if r.scenario == "s1" and not r.rare_present]
        assert absent, "expected some small samples to miss the rare atom"
        bound = 1 - 1 / (20 * 50)
        for r in absent:
            assert r.accuracy <= bound
            assert r.min_confidence >= 0.99

    def test_large_sample_with_rare_atom_is_perfect(self):
        records = rare_atom_experiment(50, 0.01, trials=20, seed=123)
        present = [r for r in records if r.scenario == "s2" and r.rare_present]
        assert present
        for r in present:
            assert r.accuracy == 1.0
            assert r.min_confidence >= 0.99

    def test_balanced_absent_fits_sit_on_the_sphere_along_v(self):
        spec = RareAtomSpec(n=50, epsilon=0.01)
        v = spec.atoms[0]
        records = rare_atom_experiment(50, 0.01, trials=20, seed=123)
        checked = 0
        for r in records:
            if r.scenario != "s1" or r.rare_present or not r.balanced:
                continue
            norm = np.linalg.norm(r.weight)
            assert abs(norm - spec.radius) <= 1e-3
            assert r.weight @ v / norm >= 0.999
            checked += 1
        assert checked > 0

    def test_deterministic_given_seed(self):
        a = rare_atom_experiment(50, 0.01, trials=5, seed=77)
        b = rare_atom_experiment(50, 0.01, trials=5, seed=77)
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.min_confidence == rb.min_confidence
            np.testing.assert_array_equal(ra.weight, rb.weight)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            RareAtomSpec(n=5, epsilon=0.01)
        with pytest.raises(ConfigError):
            RareAtomSpec(n=50, epsilon=0.7)
        for trials in (0, -1):
            with pytest.raises(ConfigError, match=f"got {trials}"):
                rare_atom_experiment(50, 0.01, trials=trials, seed=1)


def hetero_spec(**overrides):
    base = dict(
        num_classes=10,
        class_sizes=np.full(10, 1000),
        scales=np.ones(10),
        noise_rates=np.zeros(10),
        margin=2.0,
        seed=99,
    )
    base.update(overrides)
    return HeteroLogitSpec(**base)


class TestGenHeteroLogits:
    def test_shapes_and_labels(self):
        splits = gen_hetero_logits(hetero_spec(class_sizes=np.arange(1, 11) * 10))
        for ds in (splits.train, splits.val, splits.test):
            assert ds.num_records == sum(range(1, 11)) * 10
            assert ds.num_classes == 10

    def test_deterministic_bit_identical(self):
        a = gen_hetero_logits(hetero_spec())
        b = gen_hetero_logits(hetero_spec())
        np.testing.assert_array_equal(a.val.logits, b.val.logits)
        np.testing.assert_array_equal(a.val.labels, b.val.labels)
        np.testing.assert_array_equal(a.test.logits, b.test.logits)

    def test_splits_differ_from_each_other(self):
        splits = gen_hetero_logits(hetero_spec())
        assert not np.array_equal(splits.val.logits, splits.test.logits)

    def test_noiseless_unit_scale_is_calibrated(self):
        # At unit scales the softmax of the emitted logits is the exact
        # class posterior of the generative model, so the identity model's
        # ECE is pure binning/sampling residue.
        spec = hetero_spec(class_sizes=np.full(10, 10_000))
        ds = gen_hetero_logits(spec).val
        preds = predict(ds, Identity())
        assert compute_report(ds, Identity(), BinningConfig(15)).ece <= 0.02
        # Bayes-posterior oracle: within each bin the mean posterior of the
        # predicted class tracks both the mean confidence (construction) and
        # the empirical accuracy (sampling noise).
        posterior = predict(ds, Identity()).probs  # scales are 1
        pred = preds.predicted
        true_p = posterior[np.arange(ds.num_records), pred]
        binning = BinningConfig(15)
        idx = binning.bin_indices(preds.confidence)
        for i in range(15):
            sel = idx == i
            n = int(sel.sum())
            if n < 200:
                continue
            theoretical = float(true_p[sel].mean())
            assert abs(theoretical - preds.confidence[sel].mean()) <= 1e-12
            noise = 3.0 / math.sqrt(n)
            assert abs(preds.correct[sel].mean() - theoretical) <= noise

    def test_scale_groups_push_confidence_in_opposite_directions(self):
        scales = np.where(np.arange(10) < 5, 3.0, 1.0 / 3.0)
        spec = hetero_spec(scales=scales, class_sizes=np.full(10, 3000))
        ds = gen_hetero_logits(spec).val
        preds = predict(ds, Identity())
        over = ds.labels < 5
        gap_over = preds.confidence[over].mean() - preds.correct[over].mean()
        gap_under = preds.confidence[~over].mean() - preds.correct[~over].mean()
        assert gap_over > 0.02
        assert gap_under < -0.02

    def test_label_noise_flip_fraction(self):
        spec = hetero_spec(noise_rates=np.full(10, 0.4), class_sizes=np.full(10, 5000))
        ds = gen_hetero_logits(spec).val
        gen_class = np.repeat(np.arange(10), 5000)
        flipped = np.mean(ds.labels != gen_class)
        # a flip relabels uniformly over all classes, so it lands back on the
        # generating class 1/K of the time
        expected = 0.4 * (1 - 1 / 10)
        assert abs(flipped - expected) <= 0.01

    def test_zero_noise_means_no_flips(self):
        spec = hetero_spec()
        ds = gen_hetero_logits(spec).val
        np.testing.assert_array_equal(ds.labels, np.repeat(np.arange(10), 1000))

    def test_extreme_noise_rate_allowed(self):
        gen_hetero_logits(hetero_spec(noise_rates=np.full(10, 0.99), class_sizes=np.full(10, 50)))

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            hetero_spec(scales=np.zeros(10))
        with pytest.raises(ConfigError):
            hetero_spec(noise_rates=np.full(10, 1.0))
        with pytest.raises(ConfigError):
            hetero_spec(noise_rates=np.full(10, np.nan))
        with pytest.raises(ConfigError):
            hetero_spec(class_sizes=np.zeros(10, dtype=int))
        for bad in (2.7, np.nan, np.inf, 1e30):
            with pytest.raises(ConfigError) as info:
                hetero_spec(class_sizes=np.full(10, bad))
            assert str(info.value) == f"class_sizes must be integers in [0, inf), got {bad!r}"
        assert hetero_spec(class_sizes=np.full(10, 20.0)).class_sizes.dtype == np.int64
        with pytest.raises(ConfigError):
            hetero_spec(margin=0.0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ConfigError) as info:
                hetero_spec(margin=bad)
            assert str(info.value) == f"margin must be a real number in (0, inf), got {bad!r}"
            scales = np.ones(10)
            scales[3] = bad
            with pytest.raises(ConfigError) as info:
                hetero_spec(scales=scales)
            assert str(info.value) == f"scales must be real numbers in (0, inf), got {bad!r}"
