"""Fitting the three calibration methods, and model documents.

Temperature scaling (TS) tunes one scalar by a bounded convex scalar search
on the validation NLL. Class-wise temperature scaling (CTS) ties one
temperature per predicted class to the shared TS temperature alpha0 within
radius gamma. With alpha0 fixed the CTS objective splits by predicted class,
and each class's NLL is convex in its temperature, so every gamma > 0 runs
one scalar search per predicted-class slice on [alpha_lo, alpha_hi] and
clips its result to alpha0 +/- gamma; gamma = 0 collapses to TS. One
TS solve and these class searches serve TS and CTS at any number of gammas
(`_temperature_fits`). Each search evaluates one `optim.TemperatureProblem`,
prepared before it starts; the class slices are contiguous runs of one
gather of the shifted logits in class order.
Vector scaling (VS) fits a per-class scale and bias by one L-BFGS solve
from the TS solution and may change predictions; temperature variants
never do. Each fit hands its solver only the problem; constants in
`optim` decide when a solve stops. Each fit reports as its validation NLL
the value of the objective its own solves minimized, at the fitted
parameters, with no second pass over the validation set; applying a model
to data, and so its accuracy before and after, is `core.predict`.
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
    class_order,
)
from .core import predict  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .core import softmax  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .errors import EmptyDatasetError, InvalidModelError, check_int, check_real
from .metrics import nll  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .optim import (
    SCALAR_TOL,
    ScalarProblem,
    TemperatureProblem,
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
    """Search bounds, the multi-task radius, and the per-class fallback size.

    `alpha_lo`/`alpha_hi` bound the shared temperature and each per-class
    search, with 0 < alpha_lo < alpha_hi < inf: the scalar search needs a
    finite interval of positive length. The defaults are wide enough that no
    sane fixture ends up on a boundary; boundary hits are reported as
    warnings, not errors. `gamma` lies in [0, inf] and `min_class_samples`
    is an integer >= 0.
    """

    alpha_lo: float = 0.01
    alpha_hi: float = 100.0
    gamma: float = math.inf
    min_class_samples: int = 10

    def __post_init__(self):
        lo = check_real("alpha_lo", self.alpha_lo, gt=0)
        vars(self).update(
            alpha_lo=lo,
            alpha_hi=check_real("alpha_hi", self.alpha_hi, gt=lo),
            gamma=check_real("gamma", self.gamma, ge=0, le=math.inf),
            min_class_samples=check_int("min_class_samples", self.min_class_samples, ge=0),
        )


@dataclass(frozen=True)
class FitResult:
    """Fitted model plus fit diagnostics on the validation dataset.

    `val_nll` is the mean validation NLL at the fitted parameters, the value
    of the objective the fit minimized: the scalar search's for TS, the
    L-BFGS solve's for VS, and for CTS the shared TS value at gamma = 0 or
    else one evaluation of the class-ordered problem its class solves use,
    each record scaled by its class's temperature. `predict` computes the
    same per-record NLLs, and its record-order mean agrees to rounding.
    `iterations` counts objective evaluations: for TS its scalar search's,
    for CTS the TS evaluations plus those of the class searches it uses (a
    fallback class uses none), and for VS the TS evaluations plus the
    L-BFGS evaluations. CTS's closing evaluation is not counted.
    """

    model: CalibrationModel
    val_nll: float
    iterations: int
    fallback_classes: list[int] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def _boundary_warnings(name: str, alpha: float, cfg: FitConfig) -> list[str]:
    margin = 10 * SCALAR_TOL
    if alpha - cfg.alpha_lo <= margin or cfg.alpha_hi - alpha <= margin:
        return [f"{name} temperature {alpha:.6g} is at a search boundary [{cfg.alpha_lo}, {cfg.alpha_hi}]"]
    return []


def _scalar_fit(problem: TemperatureProblem, cfg: FitConfig) -> tuple[float, float, int]:
    """Temperature minimizing the NLL of `problem`'s records on [alpha_lo, alpha_hi], that NLL, and the evaluations used.

    Every search starts at alpha = 1, so a predicted-class slice's result
    depends only on that slice.
    """
    evals = 0

    def objective(alpha: float) -> tuple[float, float, float]:
        nonlocal evals
        evals += 1
        return temperature_nll(problem, alpha)

    alpha, value = minimize_scalar(ScalarProblem(objective, cfg.alpha_lo, cfg.alpha_hi))
    return alpha, value, evals


def _temperature_fits(val: LogitDataset, cfg: FitConfig, gammas=()) -> tuple[FitResult, list[FitResult]]:
    """The TS fit of `val` and one CTS fit per radius in `gammas`, from one TS solve.

    Every temperature fit starts here: one empty-set check and one search
    for the shared temperature alpha0, which reads no gamma. Records are
    split by the argmax of their raw logits (`LogitDataset.top`), the rule
    `predict` routes class temperatures by. When some gamma is positive, the
    shifted logits are gathered once in class order and each non-empty
    slice, a contiguous run of those rows, is searched once on
    [alpha_lo, alpha_hi]; slices below `min_class_samples` are skipped when
    every positive gamma is inf, since none would use them. Each gamma then
    clips those optima to [alpha0 - gamma, alpha0 + gamma]. The NLL is
    convex in the temperature, so the clipped optimum is the slice's
    optimum on the intersection of the two intervals, and the objective is
    a sum of per-slice terms, so this is the joint optimum. Empty slices
    keep alpha0, and gamma = 0 copies alpha0 into every class. At gamma =
    inf a slice with fewer than `min_class_samples` records also keeps
    alpha0 and is flagged as a fallback. A CTS fit counts the TS
    evaluations plus those of the classes it uses; its reported NLL is one
    more evaluation of the class-ordered problem, each row at its class's
    temperature (alpha0's NLL at gamma = 0).
    """
    if val.num_records == 0:
        raise EmptyDatasetError("cannot fit on an empty validation set")
    alpha0, value, evals = _scalar_fit(TemperatureProblem.of(val), cfg)
    if any(g > 0 for g in gammas):
        order, starts = class_order(val.top[0], val.num_classes)
        problem, sizes = TemperatureProblem.of(val, order), np.diff(starts)
        floor = 1 if any(0 < g < math.inf for g in gammas) else max(1, cfg.min_class_samples)
        searches = {k: _scalar_fit(problem.rows(starts[k], starts[k + 1]), cfg)
                    for k in range(val.num_classes) if sizes[k] >= floor}
    # Only a gamma > 0 reads `sizes`, `problem` and `searches`, and then they exist.
    fits = []
    for gamma in gammas:
        fallbacks = [k for k in range(val.num_classes) if sizes[k] < cfg.min_class_samples] if math.isinf(gamma) else []
        alphas, used, warnings = np.full(val.num_classes, alpha0), evals, _boundary_warnings("CTS shared", alpha0, cfg)
        if gamma > 0:
            for k, (alpha, _, n) in searches.items():
                if k not in fallbacks:
                    alphas[k] = min(max(alpha, alpha0 - gamma), alpha0 + gamma)
                    used += n
                    warnings += _boundary_warnings(f"CTS class {k}", alphas[k], cfg)
        cts_value = value if gamma == 0 else temperature_nll(problem, np.repeat(alphas, sizes)[:, None])[0]
        fits.append(FitResult(ClassWiseTemperature(alpha0, alphas, gamma), cts_value, used, fallbacks, warnings))
    return FitResult(Temperature(alpha0), value, evals, warnings=_boundary_warnings("TS", alpha0, cfg)), fits


def fit_ts(val: LogitDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit temperature scaling by minimizing validation NLL over [alpha_lo, alpha_hi]."""
    return _temperature_fits(val, cfg)[0]


def fit_cts(val: LogitDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit class-wise temperature scaling under the configured gamma.

    alpha0 is the TS solution, and each predicted class gets its own
    temperature within [alpha0 - gamma, alpha0 + gamma]; `_temperature_fits`
    documents the split, the class searches, the fallbacks and the
    reported NLL.
    """
    return _temperature_fits(val, cfg, [cfg.gamma])[1][0]


def fit_vs(val: LogitDataset, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit vector scaling by one L-BFGS solve on the validation NLL.

    The solve starts at the TS solution (scale alpha_TS * 1, bias 0). The
    NLL is jointly convex in (scale, bias) and every accepted step lowers
    it, so the fitted NLL is never worse than the TS solution's. It raises
    OptimizationError if it does not converge within `optim.LBFGS_MAX_ITERS`
    iterations. Vector scaling can change predictions.
    """
    k = val.num_classes
    ts, _ = _temperature_fits(val, cfg)
    evals = ts.iterations

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evals
        evals += 1
        loss, ga, gb = nll_grad_vector(val, x[:k], x[k:])
        return loss, np.concatenate([ga, gb])

    x0 = np.concatenate([np.full(k, ts.model.alpha), np.zeros(k)])
    result = minimize_lbfgs(objective, x0)
    return FitResult(Vector(result.x[:k], result.x[k:]), result.loss, evals)


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

    The constructors check every field as they would any other input, so a
    number given as a string or a bool is rejected. A missing field, or a
    field of the wrong type or shape, raises InvalidModelError.
    """
    try:
        method = doc["method"]
        num_classes = check_int("num_classes", doc["num_classes"], ge=2, error=InvalidModelError)
        if method == "none":
            return Identity(), num_classes
        if method == "ts":
            return Temperature(doc["alpha"]), num_classes
        if method == "cts":
            gamma = math.inf if doc["gamma"] == "inf" else doc["gamma"]
            model = ClassWiseTemperature(doc["alpha0"], doc["alphas"], gamma)
        elif method == "vs":
            model = Vector(doc["a"], doc["b"])
        else:
            raise InvalidModelError(f"unknown method {method!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidModelError(f"malformed model document: {type(exc).__name__}: {exc}") from exc
    if model.num_classes != num_classes:
        raise InvalidModelError(f"{method} parameters disagree with num_classes {num_classes}")
    return model, num_classes
