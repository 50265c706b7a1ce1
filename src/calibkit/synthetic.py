"""Generators and exact solvers for the synthetic constructions.

Three constructions drive the numerical theory checks:

* a two-atom binary distribution over {v, -v} with class-conditional
  label-flip rates, together with the closed-form population-optimal linear
  classifier on it (confidence 1 - p_plus on v, 1 - p_minus on -v);
* a three-atom distribution with one rare atom, fit under a norm budget on
  the weight vector: small samples miss the rare atom and yield a maximally
  confident but provably less accurate classifier, large samples recover it.
  The fit runs L-BFGS on the log of the loss, on the budget's sphere and, if
  the optimum is not there, inside it; a sample with one label gets weight 0
  and a large intercept of that label's sign;
* a heterogeneous logit generator standing in for deep-network experiments:
  per-class logit scales make classes over-confident (scale > 1) or
  under-confident (scale < 1) while leaving accuracy untouched. Its train,
  val and test splits each draw from their own child stream of the spec's
  seed, so a caller draws only the splits it reads.

All sampling flows through explicit integer seeds (PCG64); identical seeds
give bit-identical datasets within this package.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import LogitDataset
from .errors import (
    ConfigError,
    DegenerateNoiseError,
    InvalidInputError,
    OptimizationError,
    check_array,
    check_int,
    check_real,
)
from .optim import minimize_lbfgs
from .optim import projected_gd  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)

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

# The intercept, with the label's sign, of a constrained logistic fit to a
# sample with one label: log(1 + exp(-746)) rounds to 0 in float64, so every
# atom's loss is exactly 0.
ONE_LABEL_INTERCEPT = 746.0
# The large sample of each rare-atom trial is this many times the small one.
LARGE_FACTOR = 30


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp(-z) is inf below z = -709, and the quotient 0
        return 1.0 / (1.0 + np.exp(-z))


def _unit_direction(direction) -> np.ndarray:
    """The atom direction v, [1.0] by default: entries in [-1, 1] and unit norm within 1e-12."""
    v = check_array("direction", [1.0] if direction is None else direction, ge=-1, le=1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ConfigError("direction must have unit norm")
    return v


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
        rates = {name: check_real(name, getattr(self, name), ge=0, lt=0.5)
                 for name in ("p_plus", "p_minus", "p_test")}
        vars(self).update(rates, direction=_unit_direction(self.direction))


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """Finite feature vectors with binary labels in {0, 1}; compared and hashed by identity."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = check_array("x", self.x, ndim=2, error=InvalidInputError)
        y = check_array("y", self.y, integer=True, length=x.shape[0], ge=0, le=1, error=InvalidInputError)
        vars(self).update(x=x, y=y)

    @property
    def num_records(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class LinearBinaryClassifier:
    """sigmoid(weight . x + intercept); decides 1 exactly when the logit is >= 0."""

    weight: np.ndarray
    intercept: float

    def __post_init__(self):
        vars(self).update(
            weight=check_array("weight", self.weight, error=InvalidInputError),
            intercept=check_real("intercept", self.intercept, error=InvalidInputError),
        )

    def logit(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.weight + self.intercept

    def prob(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.logit(x))


def sample_dnoisy(spec: NoisyBinarySpec, n: int, seed: int) -> BinaryDataset:
    """Draw n records: X = v or -v with probability 1/2 each, labels flipped per atom."""
    n = check_int("n", n, ge=1)
    rng = np.random.default_rng(check_int("seed", seed, ge=0))
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
    p_plus = check_real("p_plus", p_plus, gt=0, lt=0.5, error=DegenerateNoiseError)
    p_minus = check_real("p_minus", p_minus, gt=0, lt=0.5, error=DegenerateNoiseError)
    alpha = math.log((1 - p_plus) / p_plus)
    beta = math.log((1 - p_minus) / p_minus)
    v = _unit_direction(direction)
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


def fit_constrained_logistic(atoms: BinaryDataset, counts, radius: float) -> LinearBinaryClassifier:
    """Minimize empirical binary NLL over ||weight|| <= radius with a free intercept.

    The sample is given by its histogram: `counts[i]` is how often record i
    of `atoms` occurs in it. The loss F is the count-weighted mean over the
    records, the same objective as the mean over every sampled row up to
    summation order, at the cost of the distinct records alone (two or three
    on the paper's atom distributions). Records with count 0 are left out,
    and the rest are summed in the order given. `counts` must be non-negative
    integers with a positive total.

    A sample with one label has no minimizer (the loss tends to 0 as the
    intercept grows), so its fit is weight 0 and intercept
    +-`ONE_LABEL_INTERCEPT`, with that label's sign, at which every atom's
    loss is exactly 0.

    Otherwise `optim.minimize_lbfgs` minimizes log F, computed in the log
    domain, so its absolute stopping rule acts as a relative one on F even
    when separable data drive F far below 1e-300. It first solves on the
    sphere: weight = radius * v / ||v|| and intercept = radius * beta, so a
    unit step moves the margins on their own scale. It starts from the unit
    v along the difference of the two labels' mean atoms (F's steepest
    descent at the best constant classifier) and beta = 0. F is convex, so
    the sphere point is the constrained optimum if its outward derivative
    weight . grad_w F is <= 0 (the KKT condition). Otherwise the optimum
    lies inside the ball: the fit minimizes over (weight, intercept) from
    (0, 0) and raises OptimizationError if the result lies outside. Where
    the infimum lies at infinity, the outward derivative underflows and its
    rounding may read > 0; the interior solve then stops early at a worse
    point, so the fit keeps whichever of the two points has the lower loss.
    If the two mean atoms coincide, the best constant classifier (weight 0)
    is the optimum.

    L-BFGS compares values of log F, whose rounding (about |margin| * eps)
    hides the last ~1e-7 of the optimum, while its derivatives are exact to
    rounding. So the fit ends with one Newton step on the KKT conditions,
    along the sphere for a sphere point, which makes it reproducible to
    about 1e-13 under any summation order.
    """
    radius = check_real("radius", radius, gt=0)
    counts = check_array("counts", counts, integer=True, length=atoms.num_records, ge=0)
    if not counts.any():
        raise ConfigError(f"counts must have a positive total, got {counts.tolist()}")
    keep = counts > 0
    x, ys, counts = atoms.x[keep], 2.0 * atoms.y[keep] - 1.0, counts[keep]
    d = x.shape[1]
    if (ys == ys[0]).all():
        return LinearBinaryClassifier(weight=np.zeros(d), intercept=ys[0] * ONE_LABEL_INTERCEPT)
    pos = ys > 0
    n_pos, n_neg = counts[pos].sum(), counts[~pos].sum()
    direction = counts[pos] @ x[pos] / n_pos - counts[~pos] @ x[~pos] / n_neg
    if not direction.any():
        return LinearBinaryClassifier(weight=np.zeros(d), intercept=math.log(n_pos / n_neg))
    log_counts, neg_ys, rows = np.log(counts), -ys, np.column_stack([x, np.ones(len(x))])

    def log_loss(w: np.ndarray, b: float) -> tuple[float, np.ndarray, np.ndarray]:
        """log(n F) at (w, b), its derivative r_i in each z_i = x_i . w + b, and sigmoid(t_i).

        With t = -margin = -y z, log(n F) is the log-sum-exp of
        log c + log softplus(t), and r = -y c sigmoid(t) / (n F). Below
        t = -40, softplus(t) and sigmoid(t) both equal exp(t) to rounding.
        """
        t = x @ w
        t += b
        t *= neg_ys
        clipped = np.maximum(t, -40.0)
        softplus = np.logaddexp(0.0, clipped)
        terms = np.log(softplus)
        terms += log_counts
        terms += t
        terms -= clipped
        top = terms.max()
        shares = np.exp(terms - top)
        total = shares.sum()
        sigmoid = np.exp(clipped - softplus)
        r = sigmoid / softplus
        r *= shares
        r *= neg_ys / total
        return top + math.log(total), r, sigmoid

    def on_sphere(p: np.ndarray) -> tuple[float, np.ndarray]:
        v = p[:d]
        norm = math.sqrt(v @ v)
        u = v / norm
        value, r, _ = log_loss(radius * u, radius * p[d])
        grad = rows.T @ r
        grad[:d] -= (u @ grad[:d]) * u
        grad[:d] *= radius / norm
        grad[d] *= radius
        return value, grad

    def in_ball(p: np.ndarray) -> tuple[float, np.ndarray]:
        value, r, _ = log_loss(p[:d], p[d])
        return value, rows.T @ r

    def newton(p: np.ndarray, sphere: bool) -> np.ndarray:
        """p after one Newton step on the KKT conditions, along the sphere if `sphere`.

        With a = (x, 1), the Hessian of log(n F) is
        sum(a a' * -y r (1 - sigmoid)) - grad grad'. On the sphere it gains
        the multiplier term -(u . grad_w / radius) on the weight block, and
        the step is kept in the tangent space: projected, with u u' added so
        it is invertible there.
        """
        _, r, sigmoid = log_loss(p[:d], p[d])
        grad = rows.T @ r
        hess = (rows.T * (neg_ys * r * (1.0 - sigmoid))) @ rows - np.outer(grad, grad)
        if sphere:
            u = np.append(p[:d] / radius, 0.0)
            proj = np.eye(d + 1) - np.outer(u, u)
            hess[:d, :d] -= (u @ grad / radius) * np.eye(d)
            hess = proj @ hess @ proj + np.outer(u, u)
            grad = proj @ grad
        p = p + np.linalg.lstsq(hess, -grad, rcond=None)[0]
        if sphere:
            p[:d] *= radius / math.sqrt(p[:d] @ p[:d])
        return p

    p = minimize_lbfgs(on_sphere, np.append(direction / math.sqrt(direction @ direction), 0.0)).x
    p = sphere = newton(np.append(radius * p[:d] / math.sqrt(p[:d] @ p[:d]), radius * p[d]), sphere=True)
    if p[:d] @ x.T @ log_loss(p[:d], p[d])[1] > 0:
        p = minimize_lbfgs(in_ball, np.zeros(d + 1)).x
        if p[:d] @ p[:d] > radius * radius:
            raise OptimizationError(
                f"the sphere point fails the KKT test, but the unconstrained fit has ||weight|| "
                f"{math.sqrt(p[:d] @ p[:d])} > radius {radius}"
            )
        p = newton(p, sphere=False)
        if log_loss(p[:d], p[d])[0] > log_loss(sphere[:d], sphere[d])[0]:
            p = sphere
    return LinearBinaryClassifier(weight=p[:d], intercept=p[d])


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
        vars(self).update(
            n=check_int("n", self.n, ge=10), epsilon=check_real("epsilon", self.epsilon, gt=0, lt=0.5)
        )

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


def rare_atom_experiment(n: int, epsilon: float, trials: int, seed: int) -> list[RareAtomTrial]:
    """Fit small (n) and large (`LARGE_FACTOR` * n) samples per trial and evaluate exactly.

    Each trial t uses the derived seed `seed + t` and draws the small sample
    first, then the large one, from the same stream. Each sample is fit on
    its atom counts. Confidence and accuracy are closed-form over the three
    atoms, never Monte-Carlo. The `balanced` flag records whether at least a
    third of the sample sat on each of the +/- v atoms.
    """
    trials = check_int("trials", trials, ge=1)
    seed = check_int("seed", seed, ge=0)
    spec = RareAtomSpec(n=n, epsilon=epsilon)
    # The atoms in the order the fit sums them, (-v, v, w); the weights' last bits depend on it.
    atoms = BinaryDataset(x=spec.atoms[[2, 0, 1]], y=spec.atom_labels[[2, 0, 1]])
    records = []
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        for scenario, count in (("s1", spec.n), ("s2", LARGE_FACTOR * spec.n)):
            idx = rng.choice(3, size=count, p=spec.atom_probs)
            n_plus, n_rare, n_minus = np.bincount(idx, minlength=3).tolist()
            clf = fit_constrained_logistic(atoms, [n_minus, n_plus, n_rare], spec.radius)
            min_conf, accuracy = _evaluate_on_atoms(clf, spec)
            balanced = n_plus >= count / 3 and n_minus >= count / 3
            records.append(RareAtomTrial(trial=t, scenario=scenario, rare_present=n_rare > 0, balanced=balanced,
                                         min_confidence=min_conf, accuracy=accuracy, weight=clf.weight,
                                         intercept=clf.intercept))
    return records


@dataclass(frozen=True)
class HeteroLogitSpec:
    """Per-class generator settings for the heterogeneous logit surrogate.

    Each class k contributes `class_sizes[k]` records per split. A record of
    class k draws a score vector whose true-class entry is centered at
    `margin` (noise variance equal to the margin, which makes the softmax of
    the unscaled scores the exact posterior of the generative model), flips
    its label to a uniformly random class with probability `noise_rates[k]`,
    and emits the scores multiplied by `scales[k]`. `seed` pins every split:
    each draws from its own child of `np.random.SeedSequence(seed)`.
    """

    num_classes: int
    class_sizes: np.ndarray
    scales: np.ndarray
    noise_rates: np.ndarray
    margin: float
    seed: int

    def __post_init__(self):
        k = check_int("num_classes", self.num_classes, ge=2)
        sizes = check_array("class_sizes", self.class_sizes, integer=True, length=k, ge=0)
        if not sizes.any():
            raise ConfigError(f"class_sizes must have a positive total, got {sizes.tolist()}")
        vars(self).update(
            num_classes=k,
            class_sizes=sizes,
            scales=check_array("scales", self.scales, length=k, gt=0),
            noise_rates=check_array("noise_rates", self.noise_rates, length=k, ge=0, lt=1),
            margin=check_real("margin", self.margin, gt=0),
            seed=check_int("seed", self.seed, ge=0),
        )


@dataclass(frozen=True)
class HeteroSplits:
    """The train, val and test splits of one spec; a split that was not asked for is empty, with K columns."""

    train: LogitDataset
    val: LogitDataset
    test: LogitDataset


# The split names in stream order: split i draws from child i of the spec's seed.
_SPLITS = ("train", "val", "test")


def _check_splits(splits) -> None:
    """Raise unless `splits` is a non-empty sequence of distinct names from `_SPLITS`."""
    if isinstance(splits, (str, bytes)) or not isinstance(splits, Sequence):
        raise ConfigError(f"splits must be a sequence of names from {_SPLITS}, got {splits!r}")
    if not splits:
        raise ConfigError(f"splits must name at least one split, got {splits!r}")
    unknown = [s for s in splits if not (isinstance(s, str) and s in _SPLITS)]
    if unknown:
        raise ConfigError(f"splits must be names from {_SPLITS}, got {unknown[0]!r}")
    repeated = [s for i, s in enumerate(splits) if s in splits[:i]]
    if repeated:
        raise ConfigError(f"splits must name each split at most once, got {repeated[0]!r} twice")


def _gen_split(spec: HeteroLogitSpec, seed: np.random.SeedSequence) -> LogitDataset:
    """One split, drawn class by class from its own stream.

    Each class draws its normals, then one flip uniform and one replacement
    label per record, so the number of draws never depends on the noise
    rates: specs that differ only in their rates share every logit.
    """
    rng = np.random.default_rng(seed)
    k = spec.num_classes
    std = math.sqrt(spec.margin)
    logits = np.empty((int(spec.class_sizes.sum()), k))
    labels = np.repeat(np.arange(k, dtype=np.int64), spec.class_sizes)
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
        replacements = rng.integers(0, k, size=n_c)
        labels[ends[c] - n_c:ends[c]][flip] = replacements[flip]
    # Large scales overflow; the extremes decide finiteness, with the constructor's message.
    check_array("logits", (logits.min(), logits.max()), error=InvalidInputError)
    return LogitDataset._adopt(logits, labels)


def gen_hetero_logits(spec: HeteroLogitSpec, splits=_SPLITS) -> HeteroSplits:
    """Draw the named splits of `spec`, each with class_sizes[k] records per class.

    Split i of ("train", "val", "test") draws from its own stream, child i
    of `np.random.SeedSequence(spec.seed)`, so a spec's seed pins every
    split, and a split's values do not depend on which other splits are
    drawn. `splits` is a non-empty sequence of distinct split names; the
    splits it leaves out come back empty, with K columns.
    """
    _check_splits(splits)
    streams = np.random.SeedSequence(spec.seed).spawn(len(_SPLITS))
    empty = np.empty((0, spec.num_classes))
    return HeteroSplits(*(
        _gen_split(spec, stream) if name in splits else LogitDataset._adopt(empty, np.empty(0, dtype=np.int64))
        for name, stream in zip(_SPLITS, streams)
    ))
