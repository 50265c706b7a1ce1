"""Generic numerical machinery.

Bounded convex scalar minimization (safeguarded Newton with a bisection
fallback), L-BFGS for smooth unconstrained problems, projected gradient
descent with backtracking, and the calibration loss under scalar-temperature
and vector scaling with its analytic derivatives. Both losses take their NLL
from `core.softmax_nll`, the kernel `predict` uses, on the logits `predict`
computes: (z - top) * alpha for a temperature. So the per-record NLLs a
fit minimizes are bit for bit those `predict` gives, and a fit reports the
mean its own solve reached. The temperature loss takes only a
`TemperatureProblem`, prepared once per solve: the shifted
logits, their label entries and one work array that every evaluation
computes into, so no evaluation allocates an array of the logits' size.
A per-class fit gathers its records once in class order and gives each
class a contiguous run of those rows.
Each solver owns its stopping rule as a constant of this module
(`SCALAR_TOL`; `LBFGS_MAX_ITERS` and `LBFGS_IMPROVEMENT_TOL`), and the
scalar search always starts at 1, so their callers pass only the problem.
L-BFGS also serves `synthetic.fit_constrained_logistic`, on the log of its
loss. Projected gradient descent takes its iteration cap and tolerances
from `GradientProblem`; no calibkit fit calls it any more. Everything here
is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LogitDataset, softmax_nll
from .core import softmax  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .errors import ConfigError, OptimizationError

__all__ = [
    "ScalarProblem",
    "GradientProblem",
    "GDResult",
    "minimize_scalar",
    "minimize_lbfgs",
    "projected_gd",
    "TemperatureProblem",
    "temperature_nll",
    "vector_nll",
    "nll_grad_vector",
]

# Scalar search: it stops once a Newton step or the bracket is shorter than
# SCALAR_TOL. Bisection alone shrinks [0.01, 100] below 1e-6 in 27 steps,
# and a Newton step is only taken while it halves the step before last, so
# a convex objective stays far below _MAX_SCALAR_ITERS.
SCALAR_TOL = 1e-6
_MAX_SCALAR_ITERS = 100
# L-BFGS: it returns once an accepted step improves the loss by less than
# LBFGS_IMPROVEMENT_TOL and raises past LBFGS_MAX_ITERS iterations. It keeps
# _LBFGS_HISTORY correction pairs; 3 to 20 is the usual range (Nocedal &
# Wright, ch. 7), and 10 is ample for the 2K vector-scaling parameters.
LBFGS_MAX_ITERS = 2000
LBFGS_IMPROVEMENT_TOL = 1e-10
_LBFGS_HISTORY = 10
# Halvings of the unit step before a line search gives up: 2**-50 of the
# step is below the rounding of any iterate it could move.
_MAX_HALVINGS = 50
_ARMIJO_C1 = 1e-4
# Projected gradient descent: first step, halvings of a step before the
# solver declares a stall, and the cap on step growth.
_GD_STEP = 0.1
_GD_MAX_HALVINGS = 40
_MAX_STEP = 1e30


@dataclass
class ScalarProblem:
    """A convex 1-D objective on [lo, hi], minimized to `SCALAR_TOL` on the argument.

    `objective(x)` returns (f(x), f'(x), f''(x)). The search starts at 1,
    clipped into [lo, hi].
    """

    objective: Callable[[float], tuple[float, float, float]]
    lo: float
    hi: float


def minimize_scalar(problem: ScalarProblem) -> tuple[float, float]:
    """Minimize a bounded convex scalar objective; returns (argmin, value).

    The search starts at 1, clipped into [lo, hi]. The sign of f' there
    says on which side of it the minimizer lies; the bound on that side is
    returned if f' has the same sign there (f'(lo) >= 0 or f'(hi) <= 0),
    and so is the start if it is that bound. Otherwise f' changes sign
    inside a bracket, and Newton steps x - f'/f'' are taken while they land
    inside it and are at most half the step before last; any other step
    bisects the bracket (Nocedal & Wright, *Numerical Optimization*, ch. 3).
    The search stops once a step or the bracket is below `SCALAR_TOL`, and
    raises OptimizationError on a non-finite evaluation or if it runs past a
    fixed iteration bound.
    """
    lo, hi = float(problem.lo), float(problem.hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ConfigError(f"invalid bounds [{lo}, {hi}]")

    def f(x: float) -> tuple[float, float, float]:
        val, d1, d2 = (float(v) for v in problem.objective(x))
        if not (np.isfinite(val) and np.isfinite(d1) and np.isfinite(d2)):
            raise OptimizationError(f"objective is not finite at x={x}: {(val, d1, d2)}")
        return val, d1, d2

    x = min(max(1.0, lo), hi)
    fx, g, h = f(x)
    bound = hi if g < 0 else lo
    if g == 0 or x == bound:
        return x, fx
    fb, gb, _ = f(bound)
    if (gb <= 0) if bound == hi else (gb >= 0):
        return bound, fb
    # Now f'(a) < 0 < f'(b), and x is a or b.
    a, b = (x, hi) if g < 0 else (lo, x)
    step = step_before = b - a
    for _ in range(_MAX_SCALAR_ITERS):
        if b - a < SCALAR_TOL:
            return x, fx
        d = g / h if h > 0 else np.inf
        if abs(d) < SCALAR_TOL:
            return x, fx
        if a < x - d < b and abs(d) <= 0.5 * abs(step_before):
            step_before, step = step, d
        else:
            step_before, step = step, x - 0.5 * (a + b)
        x -= step
        fx, g, h = f(x)
        if g == 0:
            return x, fx
        if g < 0:
            a = x
        else:
            b = x
    raise OptimizationError(
        f"scalar search did not converge in {_MAX_SCALAR_ITERS} iterations (bracket [{a}, {b}])",
        iterations=_MAX_SCALAR_ITERS,
    )


@dataclass
class GradientProblem:
    """Objective + gradient over a parameter vector with a projection map.

    The projection must be idempotent and the initial point feasible. A step
    is accepted only if it strictly decreases the loss; on increase the step
    size halves (from `_GD_STEP`, up to `_GD_MAX_HALVINGS` times) before the
    solver declares a stall. A step accepted without any halving doubles the
    step size, which is what lets the solver traverse exponentially
    flattening landscapes (e.g. separable logistic losses) in a bounded
    number of iterations.

    Convergence: accepted improvement below
    `improvement_tol + relative_improvement_tol * |loss|`.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    max_iters: int = 2000
    improvement_tol: float = 1e-10
    relative_improvement_tol: float = 0.0


@dataclass
class GDResult:
    x: np.ndarray
    loss: float
    iterations: int


def projected_gd(problem: GradientProblem) -> GDResult:
    """Projected gradient descent with backtracking halving and growth on success.

    Every iterate is feasible (projected), and the loss sequence over accepted
    steps is strictly decreasing. NaN loss raises OptimizationError with the
    iteration count.
    """
    x = problem.project(np.asarray(problem.x0, dtype=np.float64))
    loss = float(problem.objective(x))
    if np.isnan(loss):
        raise OptimizationError("initial loss is NaN", iterations=0)
    eta = _GD_STEP

    for iteration in range(1, problem.max_iters + 1):
        grad = np.asarray(problem.gradient(x), dtype=np.float64)
        accepted = False
        trial = eta
        for halving in range(_GD_MAX_HALVINGS + 1):
            cand = problem.project(x - trial * grad)
            cand_loss = float(problem.objective(cand))
            if np.isnan(cand_loss):
                raise OptimizationError("loss became NaN", iterations=iteration)
            if cand_loss < loss:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            return GDResult(x=x, loss=loss, iterations=iteration)
        improvement = loss - cand_loss
        x, loss = cand, cand_loss
        eta = min(trial * 2.0, _MAX_STEP) if halving == 0 else trial
        if improvement < problem.improvement_tol + problem.relative_improvement_tol * abs(loss):
            return GDResult(x=x, loss=loss, iterations=iteration)
    return GDResult(x=x, loss=loss, iterations=problem.max_iters)


def _backtrack(
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    loss: float,
    d: np.ndarray,
    slope: float,
) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Armijo backtracking along descent direction `d` from a unit step.

    Returns the first (point, loss, gradient) with a strictly lower loss
    that meets the sufficient-decrease condition, or None if no halving does.
    Rounding is monotone, so once a step rounds to `x` every shorter one
    does too, and the search returns None there without evaluating it.
    """
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        cand = x + t * d
        if np.array_equal(cand, x):
            return None
        cand_loss, cand_grad = evaluate(cand)
        if cand_loss < loss and cand_loss <= loss + _ARMIJO_C1 * t * slope:
            return cand, cand_loss, cand_grad
        t *= 0.5
    return None


def minimize_lbfgs(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]], x0: np.ndarray
) -> GDResult:
    """Limited-memory BFGS with Armijo backtracking from a unit step.

    `objective(x)` returns (f(x), grad f(x)) from one evaluation, and the
    search starts at `x0`. The direction comes from the two-loop recursion
    over the last `_LBFGS_HISTORY` (step, gradient change) pairs (Nocedal &
    Wright, *Numerical Optimization*, Alg. 7.4-7.5); a pair is kept only
    when its curvature s.y is positive. If that direction is not a descent direction
    the history is dropped and the step follows the negative gradient.
    Every accepted step strictly decreases the loss. The solver returns when
    the gradient is zero, when an accepted step improves the loss by less
    than `LBFGS_IMPROVEMENT_TOL`, or when no halving of the step lowers the
    loss (the iterate is optimal to rounding). A non-finite loss or
    gradient, or running past `LBFGS_MAX_ITERS`, raises OptimizationError.
    """
    iteration = 0

    def evaluate(point: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = objective(point)
        val, grad = float(val), np.asarray(grad, dtype=np.float64)
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            raise OptimizationError(f"objective is not finite at iteration {iteration}", iterations=iteration)
        return val, grad

    x = np.array(x0, dtype=np.float64)
    loss, grad = evaluate(x)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_LBFGS_HISTORY)
    for iteration in range(1, LBFGS_MAX_ITERS + 1):
        d = -grad
        coefs = []
        for s, y, rho in reversed(pairs):
            coefs.append(rho * (s @ d))
            d -= coefs[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        for (s, y, rho), c in zip(pairs, reversed(coefs)):
            d += (c - rho * (y @ d)) * s
        slope = grad @ d
        if not slope < 0:
            pairs.clear()
            d, slope = -grad, -(grad @ grad)
            if slope == 0:
                return GDResult(x=x, loss=loss, iterations=iteration)
        step = _backtrack(evaluate, x, loss, d, slope)
        if step is None:
            return GDResult(x=x, loss=loss, iterations=iteration)
        cand, cand_loss, cand_grad = step
        s, y = cand - x, cand_grad - grad
        sy = s @ y
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        improvement = loss - cand_loss
        x, loss, grad = cand, cand_loss, cand_grad
        if improvement < LBFGS_IMPROVEMENT_TOL:
            return GDResult(x=x, loss=loss, iterations=iteration)
    raise OptimizationError(
        f"L-BFGS did not converge in {LBFGS_MAX_ITERS} iterations (loss {loss})",
        iterations=LBFGS_MAX_ITERS,
    )


@dataclass(frozen=True, eq=False)
class TemperatureProblem:
    """The data of one temperature solve, prepared once for all its evaluations.

    `shifted` holds the logits u = z - top (each row's maximum is 0),
    `label_shifted` each record's entry u_y at its label, and `work` an
    array of u's shape that every evaluation overwrites. `of` prepares a
    dataset, optionally with its records reordered; `rows` is the problem
    of a contiguous run of records, sharing the arrays, so problems taken
    from one preparation are evaluated one at a time.
    """

    shifted: np.ndarray
    labels: np.ndarray
    label_shifted: np.ndarray
    work: np.ndarray

    @classmethod
    def of(cls, dataset: LogitDataset, order: np.ndarray | None = None) -> "TemperatureProblem":
        """The problem of every record of `dataset`, taken in `order` if given."""
        labels, top = dataset.labels, dataset.top[1]
        if order is None:
            u = dataset.logits - top[:, None]  # shift-invariant
        else:
            labels, u = labels[order], dataset.logits[order]
            u -= top[order][:, None]
        return cls(u, labels, u[np.arange(labels.shape[0]), labels], np.empty_like(u))

    def rows(self, start: int, stop: int) -> "TemperatureProblem":
        return TemperatureProblem(*(arr[start:stop] for arr in vars(self).values()))

    @property
    def num_records(self) -> int:
        return self.shifted.shape[0]

    @property
    def num_classes(self) -> int:
        return self.shifted.shape[1]


def temperature_nll(problem: TemperatureProblem, alpha: float | np.ndarray) -> tuple[float, float, float]:
    """Mean NLL of the true labels under softmax(alpha * logits) and its alpha-derivatives.

    `alpha` is one temperature, or a column holding one temperature per
    record (shape (N, 1)); the derivatives are taken along a shared alpha.
    Returns (mean NLL, mean(E_p[z] - z_y), mean(Var_p[z])) from one softmax
    pass over every record of the prepared `problem`. The second derivative
    is a variance, so the NLL is convex in alpha. The scaled logits go into
    the problem's work array, so an evaluation allocates nothing of the
    size of the logits.
    """
    u, n = problem.shifted, problem.num_records
    e, s, nll = softmax_nll(np.multiply(u, alpha, out=problem.work), problem.labels)
    mean_u = np.einsum("ij,ij->i", e, u)
    mean_u /= s
    e *= u
    var_u = np.einsum("ij,ij->i", e, u)
    var_u /= s
    var_u -= mean_u * mean_u
    mean_u -= problem.label_shifted
    # sum() / n is np.mean's arithmetic without its overhead.
    return float(nll.sum() / n), float(mean_u.sum() / n), float(var_u.sum() / n)


def _check_vector_dims(dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scale = np.asarray(scale, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if scale.shape != (dataset.num_classes,) or bias.shape != (dataset.num_classes,):
        raise ConfigError(
            f"scale/bias must have length {dataset.num_classes}, "
            f"got {scale.shape} and {bias.shape}"
        )
    return scale, bias


def nll_grad_vector(
    dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean NLL of the true labels under softmax(scale * logits + bias) and its gradients.

    Returns (mean NLL, grad_scale, grad_bias) from one softmax pass. With
    residuals r = softmax(scale * z + bias) - onehot(Y):
    grad_scale = mean(r * z), grad_bias = mean(r).
    """
    scale, bias = _check_vector_dims(dataset, scale, bias)
    z, y = dataset.logits, dataset.labels
    u = z * scale
    u += bias
    u -= u.max(axis=1, keepdims=True)  # shift-invariant; every row's max is 0
    r, s, nll = softmax_nll(u, y)
    r /= s[:, None]
    r[np.arange(z.shape[0]), y] -= 1.0
    return float(np.mean(nll)), np.einsum("ij,ij->j", r, z) / z.shape[0], r.mean(axis=0)


def vector_nll(dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray) -> float:
    """Mean NLL of the true labels under softmax(scale * logits + bias)."""
    return nll_grad_vector(dataset, scale, bias)[0]
