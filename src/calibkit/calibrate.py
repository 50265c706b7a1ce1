"""Fitting the three calibration methods, and model documents.

Temperature scaling (TS) tunes one scalar by a bounded convex scalar search
on the validation NLL. Class-wise temperature scaling (CTS) ties one
temperature per predicted class to the shared TS temperature alpha0 within
radius gamma. With alpha0 fixed the CTS objective splits by predicted class,
so every gamma runs the same scalar search once per predicted-class slice on
[max(alpha0 - gamma, alpha_lo), alpha0 + gamma]: gamma = 0 collapses to TS
and gamma = inf searches the full bounds. Vector scaling (VS) fits a
per-class scale and bias by one L-BFGS solve from the TS solution and may
change predictions; temperature variants never do. Each fit ends with one
`predict` pass over the validation set, which gives the fitted model's
validation NLL and accuracy; applying a model to data is `core.predict`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CalibrationModel,
    ClassWiseTemperature,
    Identity,
    LogitDataset,
    Temperature,
    Vector,
    check_model_classes,
    predict,
    split_by_predicted,
)
from .core import softmax  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .errors import ConfigError, EmptyDatasetError, InvalidModelError
from .metrics import nll  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .optim import (
    ScalarProblem,
    SmoothProblem,
    minimize_lbfgs,
    minimize_scalar,
    nll_grad_vector,
    temperature_nll,
)
from .optim import projected_gd, vector_nll  # noqa: F401  (unused here; bench/tracer.py wraps them at this module)

__all__ = [
    "FitConfig",
    "FitResult",
    "fit_ts",
    "fit_cts",
    "fit_vs",
    "model_to_dict",
    "model_from_dict",
]


@dataclass(frozen=True)
class FitConfig:
    """Search bounds, the multi-task radius, and optimizer settings.

    `alpha_lo`/`alpha_hi` bound the shared temperature (and each per-class
    search). The defaults are wide enough that no sane fixture ends up on a
    boundary; boundary hits are reported as warnings, not errors.
    `max_iters` and `improvement_tol` configure the VS L-BFGS solve.
    """

    alpha_lo: float = 0.01
    alpha_hi: float = 100.0
    gamma: float = math.inf
    min_class_samples: int = 10
    scalar_tol: float = 1e-6
    max_iters: int = 2000
    improvement_tol: float = 1e-10

    def __post_init__(self):
        if not (0 < self.alpha_lo <= self.alpha_hi):
            raise ConfigError(f"need 0 < alpha_lo <= alpha_hi, got [{self.alpha_lo}, {self.alpha_hi}]")
        if math.isnan(self.gamma) or self.gamma < 0:
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.scalar_tol <= 0:
            raise ConfigError("scalar tolerance must be positive")


@dataclass(frozen=True)
class FitResult:
    """Fitted model plus fit diagnostics on the validation dataset.

    `iterations` counts objective evaluations: scalar-search evaluations for
    TS and CTS, and for VS the TS evaluations plus the L-BFGS evaluations.
    """

    model: CalibrationModel
    val_nll: float
    iterations: int
    fallback_classes: list[int] = field(default_factory=list)
    accuracy_before: float = 0.0
    accuracy_after: float = 0.0
    warnings: list[str] = field(default_factory=list)


def _boundary_warnings(name: str, alpha: float, cfg: FitConfig) -> list[str]:
    margin = 10 * cfg.scalar_tol
    if alpha - cfg.alpha_lo <= margin or cfg.alpha_hi - alpha <= margin:
        return [f"{name} temperature {alpha:.6g} is at a search boundary [{cfg.alpha_lo}, {cfg.alpha_hi}]"]
    return []


def _scalar_fit(
    val: LogitDataset,
    cfg: FitConfig,
    bounds: tuple[float, float] | None = None,
    indices: np.ndarray | None = None,
) -> tuple[float, int]:
    """Temperature minimizing (a slice of) the validation NLL, and the evaluations used.

    Every search starts at alpha = 1, so a slice's result depends only on
    that slice. `bounds` defaults to [alpha_lo, alpha_hi].
    """
    lo, hi = bounds if bounds is not None else (cfg.alpha_lo, cfg.alpha_hi)
    evals = 0

    def objective(alpha: float) -> tuple[float, float, float]:
        nonlocal evals
        evals += 1
        return temperature_nll(val, alpha, indices)

    alpha, _ = minimize_scalar(ScalarProblem(objective, lo, hi, tol=cfg.scalar_tol))
    return alpha, evals


def _finish(model, val, evals, fallbacks, warnings) -> FitResult:
    after = predict(val, model)
    return FitResult(
        model=model,
        val_nll=after.mean_nll,
        iterations=evals,
        fallback_classes=fallbacks,
        accuracy_before=float(np.mean(np.argmax(val.logits, axis=1) == val.labels)),
        accuracy_after=after.accuracy,
        warnings=warnings,
    )


def fit_ts(val: LogitDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit temperature scaling by minimizing validation NLL over [alpha_lo, alpha_hi]."""
    if val.num_records == 0:
        raise EmptyDatasetError("cannot fit on an empty validation set")
    alpha, evals = _scalar_fit(val, cfg)
    return _finish(Temperature(alpha), val, evals, [], _boundary_warnings("TS", alpha, cfg))


def fit_cts(val: LogitDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit class-wise temperature scaling under the configured gamma.

    alpha0 is the TS solution. Each non-empty predicted-class slice then gets
    its own temperature, minimizing that slice's NLL on
    [max(alpha0 - gamma, alpha_lo), alpha0 + gamma] (on [alpha_lo, alpha_hi]
    when gamma = inf); this is the joint optimum, because the objective is a
    sum of per-slice terms. Empty slices keep alpha0, and gamma = 0 copies
    alpha0 into every class. At gamma = inf a slice with fewer than
    `min_class_samples` records also keeps alpha0 and is flagged as a
    fallback.
    """
    if val.num_records == 0:
        raise EmptyDatasetError("cannot fit on an empty validation set")
    alpha0, evals = _scalar_fit(val, cfg)
    warnings = _boundary_warnings("CTS shared", alpha0, cfg)
    decoupled = math.isinf(cfg.gamma)
    if decoupled:
        bounds = (cfg.alpha_lo, cfg.alpha_hi)
    else:
        bounds = (max(alpha0 - cfg.gamma, cfg.alpha_lo), alpha0 + cfg.gamma)

    alphas = np.full(val.num_classes, alpha0)
    fallbacks = []
    if bounds[0] < bounds[1]:
        for s in split_by_predicted(predict(val, Identity())):
            if decoupled and s.count < cfg.min_class_samples:
                fallbacks.append(s.class_index)
                continue
            if s.count == 0:
                continue
            alphas[s.class_index], used = _scalar_fit(val, cfg, bounds, s.indices)
            evals += used
            warnings += _boundary_warnings(f"CTS class {s.class_index}", alphas[s.class_index], cfg)
    model = ClassWiseTemperature(alpha0, alphas, cfg.gamma)
    return _finish(model, val, evals, fallbacks, warnings)


def fit_vs(val: LogitDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit vector scaling by one L-BFGS solve on the validation NLL.

    The solve starts at the TS solution (scale alpha_TS * 1, bias 0). The
    NLL is jointly convex in (scale, bias) and every accepted step lowers
    it, so the fitted NLL is never worse than the TS solution's. It raises
    OptimizationError if it does not converge within `cfg.max_iters`
    iterations. Vector scaling can change predictions, so the result reports
    accuracy before and after.
    """
    if val.num_records == 0:
        raise EmptyDatasetError("cannot fit on an empty validation set")
    k = val.num_classes
    alpha_ts, evals = _scalar_fit(val, cfg)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        evals += 1
        loss, ga, gb = nll_grad_vector(val, x[:k], x[k:])
        return loss, np.concatenate([ga, gb])

    x0 = np.concatenate([np.full(k, alpha_ts), np.zeros(k)])
    result = minimize_lbfgs(
        SmoothProblem(objective, x0, max_iters=cfg.max_iters, improvement_tol=cfg.improvement_tol)
    )
    return _finish(Vector(result.x[:k], result.x[k:]), val, evals, [], [])


_METHOD_NAMES = {Identity: "none", Temperature: "ts", ClassWiseTemperature: "cts", Vector: "vs"}


def model_to_dict(model: CalibrationModel, num_classes: int) -> dict:
    """JSON-ready dict for a fitted model; unused fields are null.

    An infinite gamma is stored as the string "inf" to keep the document
    strict JSON.
    """
    check_model_classes(model, num_classes)
    doc = {
        "method": _METHOD_NAMES[type(model)],
        "alpha": None,
        "alpha0": None,
        "alphas": None,
        "gamma": None,
        "a": None,
        "b": None,
        "num_classes": num_classes,
    }
    if isinstance(model, Temperature):
        doc["alpha"] = model.alpha
    elif isinstance(model, ClassWiseTemperature):
        doc["alpha0"] = model.alpha0
        doc["alphas"] = model.alphas.tolist()
        doc["gamma"] = "inf" if math.isinf(model.gamma) else model.gamma
    elif isinstance(model, Vector):
        doc["a"] = model.scale.tolist()
        doc["b"] = model.bias.tolist()
    return doc


def model_from_dict(doc: dict) -> tuple[CalibrationModel, int]:
    """Parse a model document back into a (model, num_classes) pair.

    Model invariants are re-validated by the constructors. A missing field,
    or a field of the wrong type or shape, raises InvalidModelError.
    """
    try:
        method = doc["method"]
        num_classes = int(doc["num_classes"])
        if method == "none":
            return Identity(), num_classes
        if method == "ts":
            return Temperature(float(doc["alpha"])), num_classes
        if method == "cts":
            gamma = doc["gamma"]
            gamma = math.inf if gamma == "inf" else float(gamma)
            model = ClassWiseTemperature(
                float(doc["alpha0"]), np.asarray(doc["alphas"], dtype=np.float64), gamma
            )
        elif method == "vs":
            model = Vector(np.asarray(doc["a"], dtype=np.float64), np.asarray(doc["b"], dtype=np.float64))
        else:
            raise InvalidModelError(f"unknown method {method!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidModelError(f"malformed model document: {type(exc).__name__}: {exc}") from exc
    if model.num_classes != num_classes:
        raise InvalidModelError(f"{method} parameters disagree with num_classes {num_classes}")
    return model, num_classes
