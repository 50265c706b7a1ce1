"""Generators and exact solvers for the synthetic constructions.

Three constructions drive the numerical theory checks:

* a two-atom binary distribution over {v, -v} with class-conditional
  label-flip rates, together with the closed-form population-optimal linear
  classifier on it (confidence 1 - p_plus on v, 1 - p_minus on -v);
* a three-atom distribution with one rare atom, fit under a norm budget on
  the weight vector: small samples miss the rare atom and yield a maximally
  confident but provably less accurate classifier, large samples recover it;
* a heterogeneous logit generator standing in for deep-network experiments:
  per-class logit scales make classes over-confident (scale > 1) or
  under-confident (scale < 1) while leaving accuracy untouched.

All sampling flows through explicit integer seeds (PCG64); identical seeds
give bit-identical datasets within this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LogitDataset
from .errors import ConfigError, DegenerateNoiseError, InvalidInputError
from .optim import GradientProblem, projected_gd

__all__ = [
    "NoisyBinarySpec",
    "BinaryDataset",
    "LinearBinaryClassifier",
    "RareAtomSpec",
    "RareAtomTrial",
    "HeteroLogitSpec",
    "HeteroSplits",
    "sample_dnoisy",
    "optimal_noisy_classifier",
    "population_confidence_accuracy",
    "fit_constrained_logistic",
    "rare_atom_experiment",
    "gen_hetero_logits",
]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class NoisyBinarySpec:
    """Two-atom binary distribution over {v, -v} with label-flip rates below 1/2.

    P(X = v) = 1/2; the label is 1 on v and 0 on -v, each flipped with its
    atom's noise rate. `p_test` is the symmetric rate of the test
    distribution used in exact accuracy statements.
    """

    p_plus: float
    p_minus: float
    p_test: float = 0.0
    direction: np.ndarray = None

    def __post_init__(self):
        for name in ("p_plus", "p_minus", "p_test"):
            p = getattr(self, name)
            if not (0 <= p < 0.5):
                raise ConfigError(f"{name} must lie in [0, 0.5), got {p}")
        v = np.asarray(
            self.direction if self.direction is not None else [1.0], dtype=np.float64
        ).copy()
        if v.ndim != 1 or v.size < 1:
            raise ConfigError("direction must be a 1-D vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ConfigError("direction must have unit norm")
        v.flags.writeable = False
        object.__setattr__(self, "direction", v)

    @property
    def dim(self) -> int:
        return self.direction.shape[0]


@dataclass(frozen=True)
class BinaryDataset:
    """Feature vectors with binary labels in {0, 1}."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64).copy()
        y = np.asarray(self.y, dtype=np.int64).copy()
        if x.ndim != 2 or y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise InvalidInputError("need a 2-D feature matrix and matching 1-D labels")
        if y.size and not np.all((y == 0) | (y == 1)):
            raise InvalidInputError("binary labels must be 0 or 1")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def num_records(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class LinearBinaryClassifier:
    """sigmoid(weight . x + intercept); decides 1 exactly when the logit is >= 0."""

    weight: np.ndarray
    intercept: float

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64).copy()
        if w.ndim != 1 or not np.all(np.isfinite(w)) or not np.isfinite(self.intercept):
            raise InvalidInputError("weight and intercept must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "intercept", float(self.intercept))

    def logit(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weight + self.intercept

    def prob(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logit(x))

    def decide(self, x: np.ndarray) -> np.ndarray:
        return (self.logit(x) >= 0).astype(np.int64)

    def accuracy(self, dataset: BinaryDataset) -> float:
        return float(np.mean(self.decide(dataset.x) == dataset.y))


def sample_dnoisy(spec: NoisyBinarySpec, n: int, seed: int) -> BinaryDataset:
    """Draw n records: X = v or -v with probability 1/2 each, labels flipped per atom."""
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    plus = rng.random(n) < 0.5
    u = rng.random(n)
    y = np.where(plus, u >= spec.p_plus, u < spec.p_minus).astype(np.int64)
    x = np.where(plus[:, None], spec.direction, -spec.direction)
    return BinaryDataset(x=x, y=y)


def optimal_noisy_classifier(
    p_plus: float, p_minus: float, direction: np.ndarray | None = None
) -> LinearBinaryClassifier:
    """Population-NLL-optimal linear classifier on the two-atom noisy distribution.

    Writing alpha = log((1-p_plus)/p_plus) and beta = log((1-p_minus)/p_minus),
    the optimum along the atom direction is weight (alpha+beta)/2 with
    intercept (alpha-beta)/2, which outputs exactly 1 - p_plus on v and
    p_minus on -v. Zero noise rates are rejected: they need infinite logits.
    """
    for name, p in (("p_plus", p_plus), ("p_minus", p_minus)):
        if not (0 < p < 0.5):
            raise DegenerateNoiseError(f"{name} must lie strictly in (0, 0.5), got {p}")
    alpha = math.log((1 - p_plus) / p_plus)
    beta = math.log((1 - p_minus) / p_minus)
    v = np.asarray([1.0] if direction is None else direction, dtype=np.float64)
    return LinearBinaryClassifier(weight=0.5 * (alpha + beta) * v, intercept=0.5 * (alpha - beta))


def population_confidence_accuracy(
    clf: LinearBinaryClassifier, spec: NoisyBinarySpec
) -> tuple[float, float, float]:
    """Exact per-atom confidence and test accuracy of a linear classifier.

    Confidence follows the binary convention P-hat = max(f, 1 - f). Accuracy
    is computed in closed form against the symmetric test distribution with
    rate p_test: an atom decided the standard way (1 on v, 0 on -v)
    contributes 1 - p_test, a flipped decision contributes p_test.
    """
    f_plus = float(clf.prob(spec.direction))
    f_minus = float(clf.prob(-spec.direction))
    conf_plus = max(f_plus, 1 - f_plus)
    conf_minus = max(f_minus, 1 - f_minus)
    acc_plus = 1 - spec.p_test if f_plus >= 0.5 else spec.p_test
    acc_minus = 1 - spec.p_test if f_minus < 0.5 else spec.p_test
    return conf_plus, conf_minus, 0.5 * acc_plus + 0.5 * acc_minus


def fit_constrained_logistic(
    dataset: BinaryDataset,
    radius: float,
    tol: float = 1e-10,
    max_iters: int = 5000,
) -> LinearBinaryClassifier:
    """Minimize empirical binary NLL over ||weight|| <= radius with a free intercept.

    Projected gradient descent from (0, 0); the projection radially rescales
    the weight onto the ball and never touches the intercept. The stopping
    rule is relative (improvement below tol * |loss|) so the fit keeps
    refining the intercept even when separable data drives the loss
    exponentially close to zero.
    """
    if radius <= 0:
        raise ConfigError(f"radius must be positive, got {radius}")
    x, y = dataset.x, dataset.y
    n, d = x.shape
    ys = 2.0 * y - 1.0

    def objective(p: np.ndarray) -> float:
        z = x @ p[:d] + p[d]
        return float(np.mean(np.logaddexp(0.0, -ys * z)))

    def gradient(p: np.ndarray) -> np.ndarray:
        z = x @ p[:d] + p[d]
        s = -ys * _sigmoid(-ys * z)
        g = np.empty(d + 1)
        g[:d] = x.T @ s / n
        g[d] = s.mean()
        return g

    def project(p: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(p[:d])
        if norm <= radius:
            return p
        out = p.copy()
        out[:d] *= radius / norm
        return out

    result = projected_gd(
        GradientProblem(
            objective=objective,
            gradient=gradient,
            project=project,
            x0=np.zeros(d + 1),
            max_iters=max_iters,
            improvement_tol=0.0,
            relative_improvement_tol=tol,
        )
    )
    return LinearBinaryClassifier(weight=result.x[:d], intercept=result.x[d])


@dataclass(frozen=True)
class RareAtomSpec:
    """Three-atom binary distribution with one rare atom and deterministic labels.

    With orthonormal u, v and w = (u + v) / sqrt(2), the atoms are
    v (label 1, mass 1/2), w (label 0, mass 1/denominator) and
    -v (label 0, the rest), where denominator = 20 n. The weight-norm budget
    is 6 log(50 n + 1/epsilon), large enough that fitted classifiers are
    maximally confident everywhere.
    """

    n: int
    epsilon: float

    def __post_init__(self):
        if self.n < 10:
            raise ConfigError(f"need n >= 10, got {self.n}")
        if not (0 < self.epsilon < 0.5):
            raise ConfigError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")

    @property
    def rare_denominator(self) -> int:
        return 20 * self.n

    @property
    def radius(self) -> float:
        return 6.0 * math.log(50 * self.n + 1.0 / self.epsilon)

    @property
    def atoms(self) -> np.ndarray:
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        return np.vstack([v, (u + v) / math.sqrt(2.0), -v])

    @property
    def atom_probs(self) -> np.ndarray:
        q = 1.0 / self.rare_denominator
        return np.array([0.5, q, 0.5 - q])

    @property
    def atom_labels(self) -> np.ndarray:
        return np.array([1, 0, 0], dtype=np.int64)


@dataclass(frozen=True)
class RareAtomTrial:
    """Outcome of fitting one sampled dataset from a RareAtomSpec."""

    trial: int
    scenario: str
    rare_present: bool
    balanced: bool
    min_confidence: float
    accuracy: float
    weight: np.ndarray
    intercept: float


def _evaluate_on_atoms(clf: LinearBinaryClassifier, spec: RareAtomSpec) -> tuple[float, float]:
    """Exact (min atom confidence, population accuracy) from the atom masses."""
    f = clf.prob(spec.atoms)
    conf = np.maximum(f, 1 - f)
    decisions = (clf.logit(spec.atoms) >= 0).astype(np.int64)
    error_mass = float(spec.atom_probs[decisions != spec.atom_labels].sum())
    return float(conf.min()), 1.0 - error_mass


def rare_atom_experiment(
    n: int,
    epsilon: float,
    trials: int,
    seed: int,
    large_factor: int = 30,
) -> list[RareAtomTrial]:
    """Fit small (n) and large (large_factor * n) samples per trial and evaluate exactly.

    Each trial t uses the derived seed `seed + t` and draws the small sample
    first, then the large one, from the same stream. Confidence and accuracy
    are closed-form over the three atoms, never Monte-Carlo. The `balanced`
    flag records whether at least a third of the sample sat on each of the
    +/- v atoms.
    """
    spec = RareAtomSpec(n=n, epsilon=epsilon)
    records = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        for scenario, count in (("s1", n), ("s2", large_factor * n)):
            idx = rng.choice(3, size=count, p=spec.atom_probs)
            data = BinaryDataset(x=spec.atoms[idx], y=spec.atom_labels[idx])
            clf = fit_constrained_logistic(data, spec.radius)
            min_conf, accuracy = _evaluate_on_atoms(clf, spec)
            n_plus = int(np.sum(idx == 0))
            n_minus = int(np.sum(idx == 2))
            records.append(
                RareAtomTrial(
                    trial=t,
                    scenario=scenario,
                    rare_present=bool(np.any(idx == 1)),
                    balanced=(n_plus >= count / 3) and (n_minus >= count / 3),
                    min_confidence=min_conf,
                    accuracy=accuracy,
                    weight=clf.weight,
                    intercept=clf.intercept,
                )
            )
    return records


@dataclass(frozen=True)
class HeteroLogitSpec:
    """Per-class generator settings for the heterogeneous logit surrogate.

    Each class k contributes `class_sizes[k]` records per split. A record of
    class k draws a score vector whose true-class entry is centered at
    `margin` (noise variance equal to the margin, which makes the softmax of
    the unscaled scores the exact posterior of the generative model), flips
    its label to a uniformly random class with probability `noise_rates[k]`,
    and emits the scores multiplied by `scales[k]`.
    """

    num_classes: int
    class_sizes: np.ndarray
    scales: np.ndarray
    noise_rates: np.ndarray
    margin: float
    seed: int

    def __post_init__(self):
        k = self.num_classes
        if k < 2:
            raise ConfigError("need at least 2 classes")
        sizes = np.asarray(self.class_sizes, dtype=np.int64).copy()
        scales = np.asarray(self.scales, dtype=np.float64).copy()
        rates = np.asarray(self.noise_rates, dtype=np.float64).copy()
        for name, arr in (("class_sizes", sizes), ("scales", scales), ("noise_rates", rates)):
            if arr.shape != (k,):
                raise ConfigError(f"{name} must have length {k}")
        if np.any(sizes < 0) or sizes.sum() <= 0:
            raise ConfigError("class sizes must be nonnegative with a positive total")
        if not np.all(scales > 0):
            raise ConfigError("scales must be positive")
        if not np.all((rates >= 0) & (rates < 1)):
            raise ConfigError("noise rates must lie in [0, 1)")
        if not (self.margin > 0):
            raise ConfigError(f"margin must be positive, got {self.margin}")
        for name, arr in (("class_sizes", sizes), ("scales", scales), ("noise_rates", rates)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class HeteroSplits:
    train: LogitDataset
    val: LogitDataset
    test: LogitDataset


def _gen_split(spec: HeteroLogitSpec, rng: np.random.Generator) -> LogitDataset:
    k = spec.num_classes
    std = math.sqrt(spec.margin)
    logits = np.empty((int(spec.class_sizes.sum()), k))
    labels = np.repeat(np.arange(k), spec.class_sizes)
    ends = np.cumsum(spec.class_sizes)
    for c in range(k):
        n_c = int(spec.class_sizes[c])
        if n_c == 0:
            continue
        # Drawn and scaled in place, with the arithmetic of scale * (std * z + margin e_c).
        scores = logits[ends[c] - n_c:ends[c]]
        rng.standard_normal(out=scores)
        scores *= std
        scores[:, c] += spec.margin
        scores *= spec.scales[c]
        flip = rng.random(n_c) < spec.noise_rates[c]
        labels[ends[c] - n_c:ends[c]][flip] = rng.integers(0, k, size=int(flip.sum()))
    return LogitDataset(logits=logits, labels=labels)


def gen_hetero_logits(spec: HeteroLogitSpec) -> HeteroSplits:
    """Generate train/val/test splits, each with class_sizes[k] records per class.

    The three splits are drawn sequentially from one seeded stream, so a
    spec's seed pins all of them at once.
    """
    rng = np.random.default_rng(spec.seed)
    return HeteroSplits(
        train=_gen_split(spec, rng),
        val=_gen_split(spec, rng),
        test=_gen_split(spec, rng),
    )
