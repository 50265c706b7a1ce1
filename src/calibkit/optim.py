"""Generic numerical machinery.

Bounded convex scalar minimization (safeguarded Newton with a bisection
fallback), projected gradient descent with backtracking, and the calibration
loss under scalar-temperature and vector scaling with its analytic
derivatives. Everything here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LogitDataset, softmax
from .errors import ConfigError, OptimizationError

__all__ = [
    "ScalarProblem",
    "GradientProblem",
    "GDResult",
    "minimize_scalar",
    "projected_gd",
    "temperature_nll",
    "vector_nll",
    "nll_grad_vector",
]

_MAX_STEP = 1e30
# Bisection alone shrinks [0.01, 100] below 1e-6 in 27 steps, and a Newton
# step is only taken while it halves the step before last, so a convex
# objective stays far below this bound.
_MAX_SCALAR_ITERS = 100


@dataclass
class ScalarProblem:
    """A convex 1-D objective on [lo, hi], minimized to `tol` on the argument.

    `objective(x)` returns (f(x), f'(x), f''(x)). The search starts at `x0`,
    clipped into [lo, hi].
    """

    objective: Callable[[float], tuple[float, float, float]]
    lo: float
    hi: float
    tol: float = 1e-6
    x0: float = 1.0


def minimize_scalar(problem: ScalarProblem) -> tuple[float, float]:
    """Minimize a bounded convex scalar objective; returns (argmin, value).

    The sign of f' at the start says on which side of it the minimizer lies;
    the bound on that side is returned if f' has the same sign there
    (f'(lo) >= 0 or f'(hi) <= 0). Otherwise f' changes sign inside a
    bracket, and Newton steps x - f'/f'' are taken while they land inside it
    and are at most half the step before last; any other step bisects the
    bracket (Nocedal & Wright, *Numerical Optimization*, ch. 3). The search
    stops once a step or the bracket is below `tol`, and raises
    OptimizationError on a non-finite evaluation or if it runs past a fixed
    iteration bound.
    """
    lo, hi = float(problem.lo), float(problem.hi)
    if not (np.isfinite(lo) and np.isfinite(hi)) or lo >= hi:
        raise ConfigError(f"invalid bounds [{lo}, {hi}]")
    if problem.tol <= 0:
        raise ConfigError("tolerance must be positive")

    def f(x: float) -> tuple[float, float, float]:
        val, d1, d2 = (float(v) for v in problem.objective(x))
        if not (np.isfinite(val) and np.isfinite(d1) and np.isfinite(d2)):
            raise OptimizationError(f"objective is not finite at x={x}: {(val, d1, d2)}")
        return val, d1, d2

    x = min(max(float(problem.x0), lo), hi)
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
        if b - a < problem.tol:
            return x, fx
        d = g / h if h > 0 else np.inf
        if abs(d) < problem.tol:
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
    size halves (up to `max_halvings` times) before the solver declares a
    stall. A step accepted without any halving doubles the step size, which
    is what lets the solver traverse exponentially flattening landscapes
    (e.g. separable logistic losses) in a bounded number of iterations.

    Convergence: accepted improvement below
    `improvement_tol + relative_improvement_tol * |loss|`.
    """

    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    project: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    step_size: float = 0.1
    max_iters: int = 2000
    improvement_tol: float = 1e-10
    relative_improvement_tol: float = 0.0
    max_halvings: int = 40


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
    eta = float(problem.step_size)

    for iteration in range(1, problem.max_iters + 1):
        grad = np.asarray(problem.gradient(x), dtype=np.float64)
        accepted = False
        trial = eta
        for halving in range(problem.max_halvings + 1):
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


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=-1, keepdims=True)
    return np.log(np.exp(z - m).sum(axis=-1)) + m[..., 0]


def _select(dataset: LogitDataset, indices: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    if indices is None:
        return dataset.logits, dataset.labels
    idx = np.asarray(indices, dtype=np.int64)
    return dataset.logits[idx], dataset.labels[idx]


def temperature_nll(
    dataset: LogitDataset, alpha: float, indices: np.ndarray | None = None
) -> tuple[float, float, float]:
    """Mean NLL of the true labels under softmax(alpha * logits) and its alpha-derivatives.

    Returns (mean NLL, mean(E_p[z] - z_y), mean(Var_p[z])) from one softmax
    pass, optionally on a slice of the records. The second derivative is a
    variance, so the NLL is convex in alpha.
    """
    z, y = _select(dataset, indices)
    u = z - z.max(axis=1, keepdims=True)  # shift-invariant; every row's max is 0
    e = alpha * u
    np.exp(e, out=e)
    s = e.sum(axis=1)
    mean_u = np.einsum("ij,ij->i", e, u) / s
    e *= u
    var_u = np.einsum("ij,ij->i", e, u) / s - mean_u * mean_u
    u_y = u[np.arange(y.shape[0]), y]
    return (
        float(np.mean(np.log(s) - alpha * u_y)),
        float(np.mean(mean_u - u_y)),
        float(np.mean(var_u)),
    )


def _check_vector_dims(dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scale = np.asarray(scale, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if scale.shape != (dataset.num_classes,) or bias.shape != (dataset.num_classes,):
        raise ConfigError(
            f"scale/bias must have length {dataset.num_classes}, "
            f"got {scale.shape} and {bias.shape}"
        )
    return scale, bias


def vector_nll(dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray) -> float:
    """Mean NLL of the true labels under softmax(scale * logits + bias)."""
    scale, bias = _check_vector_dims(dataset, scale, bias)
    zs = scale * dataset.logits + bias
    return float(np.mean(_logsumexp(zs) - zs[np.arange(zs.shape[0]), dataset.labels]))


def nll_grad_vector(
    dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of `vector_nll` in (scale, bias).

    With residuals r = softmax(scale * z + bias) - onehot(Y):
    grad_scale = mean(r * z), grad_bias = mean(r).
    """
    scale, bias = _check_vector_dims(dataset, scale, bias)
    z = dataset.logits
    r = softmax(scale * z + bias)
    rows = np.arange(z.shape[0])
    r = r.copy()
    r[rows, dataset.labels] -= 1.0
    return (r * z).mean(axis=0), r.mean(axis=0)
