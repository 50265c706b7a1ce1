"""Synthetic constructions: two-atom noisy data, rare-atom fits, hetero logits."""

import math

import numpy as np
import pytest

from calibkit.core import Identity, predict
from calibkit.errors import ConfigError, DegenerateNoiseError
from calibkit.metrics import BinningConfig, bin_stats, ece
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
        x = np.vstack([np.tile(v, (25, 1)), np.tile(-v, (25, 1))])
        y = np.array([1] * 25 + [0] * 25)
        clf = fit_constrained_logistic(BinaryDataset(x, y), radius=1.0)
        assert abs(np.linalg.norm(clf.weight) - 1.0) <= 1e-9

    def test_two_atom_separable_aligns_with_direction(self):
        spec = RareAtomSpec(n=50, epsilon=0.01)
        v = np.array([0.0, 1.0])
        x = np.vstack([np.tile(v, (30, 1)), np.tile(-v, (20, 1))])
        y = np.array([1] * 30 + [0] * 20)
        clf = fit_constrained_logistic(BinaryDataset(x, y), spec.radius)
        norm = np.linalg.norm(clf.weight)
        assert abs(norm - spec.radius) <= 1e-3
        assert clf.weight @ v / norm >= 0.999
        assert abs(clf.intercept) <= math.log(6)

    def test_sampled_noisy_fit_recovers_population_confidences(self):
        spec = NoisyBinarySpec(0.3, 0.1, direction=[1.0, 0.0])
        data = sample_dnoisy(spec, 200_000, seed=11)
        clf = fit_constrained_logistic(data, radius=1000.0)
        f_plus = float(clf.prob(spec.direction))
        f_minus = float(clf.prob(-spec.direction))
        assert abs(f_plus - 0.70) <= 0.01
        assert abs(f_minus - 0.10) <= 0.01

    def test_radius_must_be_positive(self):
        with pytest.raises(ConfigError):
            fit_constrained_logistic(BinaryDataset(np.ones((2, 1)), np.array([0, 1])), 0.0)


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
        assert ece(bin_stats(preds, BinningConfig(15))) <= 0.02
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
        with pytest.raises(ConfigError):
            hetero_spec(margin=0.0)
