"""Generic numerical machinery.

Bounded convex scalar minimization (safeguarded Newton with a bisection
fallback), L-BFGS for smooth unconstrained problems, projected gradient
descent with backtracking, and the calibration loss under scalar-temperature
and vector scaling with its analytic derivatives. Everything here is
deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import LogitDataset
from .core import softmax  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .errors import ConfigError, OptimizationError

__all__ = [
    "ScalarProblem",
    "GradientProblem",
    "SmoothProblem",
    "GDResult",
    "minimize_scalar",
    "minimize_lbfgs",
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
# Correction pairs kept by L-BFGS; 3 to 20 is the usual range (Nocedal &
# Wright, ch. 7), and 10 is ample for the 2K vector-scaling parameters.
_LBFGS_HISTORY = 10
# Halvings of the unit step before a line search gives up: 2**-50 of the
# step is below the rounding of any iterate it could move.
_MAX_HALVINGS = 50
_ARMIJO_C1 = 1e-4


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


@dataclass
class SmoothProblem:
    """A smooth unconstrained objective for `minimize_lbfgs`.

    `objective(x)` returns (f(x), grad f(x)) from one evaluation. The solver
    stops once an accepted step improves f by less than `improvement_tol`,
    and raises OptimizationError past `max_iters` iterations.
    """

    objective: Callable[[np.ndarray], tuple[float, np.ndarray]]
    x0: np.ndarray
    max_iters: int = 2000
    improvement_tol: float = 1e-10


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
    """
    t = 1.0
    for _ in range(_MAX_HALVINGS + 1):
        cand = x + t * d
        cand_loss, cand_grad = evaluate(cand)
        if cand_loss < loss and cand_loss <= loss + _ARMIJO_C1 * t * slope:
            return cand, cand_loss, cand_grad
        t *= 0.5
    return None


def minimize_lbfgs(problem: SmoothProblem) -> GDResult:
    """Limited-memory BFGS with Armijo backtracking from a unit step.

    The direction comes from the two-loop recursion over the last
    `_LBFGS_HISTORY` (step, gradient change) pairs (Nocedal & Wright,
    *Numerical Optimization*, Alg. 7.4-7.5); a pair is kept only when its
    curvature s.y is positive. If that direction is not a descent direction
    the history is dropped and the step follows the negative gradient.
    Every accepted step strictly decreases the loss. The solver returns when
    the gradient is zero, when an accepted step improves the loss by less
    than `improvement_tol`, or when no halving of the step lowers the loss
    (the iterate is optimal to rounding). A non-finite loss or gradient, or
    running past `max_iters`, raises OptimizationError.
    """
    iteration = 0

    def evaluate(point: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = problem.objective(point)
        val, grad = float(val), np.asarray(grad, dtype=np.float64)
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            raise OptimizationError(f"objective is not finite at iteration {iteration}", iterations=iteration)
        return val, grad

    x = np.array(problem.x0, dtype=np.float64)
    loss, grad = evaluate(x)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_LBFGS_HISTORY)
    for iteration in range(1, problem.max_iters + 1):
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
        if improvement < problem.improvement_tol:
            return GDResult(x=x, loss=loss, iterations=iteration)
    raise OptimizationError(
        f"L-BFGS did not converge in {problem.max_iters} iterations (loss {loss})",
        iterations=problem.max_iters,
    )


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
    rows = np.arange(z.shape[0])
    u = z * scale
    u += bias
    u -= u.max(axis=1, keepdims=True)  # shift-invariant; every row's max is 0
    u_y = u[rows, y]
    np.exp(u, out=u)
    s = u.sum(axis=1)
    loss = float(np.mean(np.log(s) - u_y))
    u /= s[:, None]
    u[rows, y] -= 1.0
    return loss, np.einsum("ij,ij->j", u, z) / z.shape[0], u.mean(axis=0)


def vector_nll(dataset: LogitDataset, scale: np.ndarray, bias: np.ndarray) -> float:
    """Mean NLL of the true labels under softmax(scale * logits + bias)."""
    return nll_grad_vector(dataset, scale, bias)[0]
