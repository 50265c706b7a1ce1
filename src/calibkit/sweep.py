"""Generate-fit-evaluate sweeps over noise rate, class size, gamma, and validation size.

Each sweep point fits TS and CTS on a validation split and evaluates on a
test split. Rows carry the test-set calibration metrics (`nll` is the test
NLL) plus the fitted model's validation NLL and the gap |val_nll - nll|,
the generalization signal for the validation-size axis. Points (n_val
trials on that axis) may run on worker threads, capped by the
``CALIBKIT_THREADS`` environment variable; results are gathered in
submission order and rows are sorted by (axis_value, method), so results
do not depend on scheduling.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .calibrate import FitConfig, fit_cts, fit_ts
from .errors import ConfigError
from .metrics import BinningConfig, compute_report
from .metrics import nll  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .synthetic import HeteroLogitSpec, gen_hetero_logits

__all__ = ["SweepRow", "run_sweep", "SWEEP_AXES"]

SWEEP_AXES = ("noise", "size", "gamma", "n_val")


@dataclass(frozen=True)
class SweepRow:
    """One (axis point, method) result; trial-averaged on the n_val axis."""

    axis_value: float
    method: str
    ece: float
    max_ece: float
    avg_ece: float
    nll: float
    accuracy: float
    val_nll: float
    nll_gap: float


def _worker_count(num_points: int) -> int:
    raw = os.environ.get("CALIBKIT_THREADS", "1")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        warnings.warn(f"CALIBKIT_THREADS={raw!r} is not a positive integer; using 1 worker")
        cap = 1
    return min(cap, max(num_points, 1))


def _map_points(fn, items: list) -> list:
    """[fn(item) for item in items], on up to `_worker_count` threads, in item order."""
    workers = _worker_count(len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _fit_and_eval(method, val, test, cfg, binning, axis_value) -> SweepRow:
    fit = fit_ts(val, cfg) if method == "ts" else fit_cts(val, cfg)
    report = compute_report(test, fit.model, binning)
    return SweepRow(
        axis_value=axis_value,
        method=method,
        ece=report.ece,
        max_ece=report.max_ece,
        avg_ece=report.avg_ece,
        nll=report.nll,
        accuracy=report.accuracy,
        val_nll=fit.val_nll,
        nll_gap=abs(fit.val_nll - report.nll),
    )


def _half(k: int) -> int:
    return (k + 1) // 2


def _spec_for_noise(base: HeteroLogitSpec, rho: float) -> HeteroLogitSpec:
    rates = np.asarray(base.noise_rates).copy()
    rates[: _half(base.num_classes)] = rho
    return replace(base, noise_rates=rates)


def _spec_for_size(base: HeteroLogitSpec, fraction: float) -> HeteroLogitSpec:
    if not (0 < fraction <= 1):
        raise ConfigError(f"size fractions must lie in (0, 1], got {fraction}")
    sizes = np.asarray(base.class_sizes).copy()
    h = _half(base.num_classes)
    sizes[:h] = np.maximum(1, np.round(sizes[:h] * fraction)).astype(np.int64)
    return replace(base, class_sizes=sizes)


def _point_rows(axis, value, base, cfg, binning) -> list[SweepRow]:
    if axis == "noise":
        splits = gen_hetero_logits(_spec_for_noise(base, value))
    elif axis == "size":
        splits = gen_hetero_logits(_spec_for_size(base, value))
    elif axis == "gamma":
        splits = gen_hetero_logits(base)
        cfg = replace(cfg, gamma=value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    axis_value = float(value)
    return [
        _fit_and_eval("ts", splits.val, splits.test, cfg, binning, axis_value),
        _fit_and_eval("cts", splits.val, splits.test, cfg, binning, axis_value),
    ]


def _nval_rows(
    values, base: HeteroLogitSpec, cfg: FitConfig, binning: BinningConfig,
    trials: int, test_records: int,
) -> list[SweepRow]:
    """Trial-averaged rows per validation size.

    Within a trial, the validation sets across sizes are per-class prefixes
    of one pooled draw (common random numbers), which stabilizes the
    size-to-size comparison of the NLL gap; the test split is a single large
    independent draw per trial.
    """
    if trials < 1:
        raise ConfigError(f"the n_val axis needs at least 1 trial, got {trials}")
    k = base.num_classes
    bad = [v for v in values if float(v) % k != 0]
    if bad:
        raise ConfigError(f"validation sizes must be multiples of num_classes {k}, got {bad}")
    sizes = sorted(int(v) for v in values)
    if sizes[0] < k:
        raise ConfigError(f"validation sizes must be >= num_classes, got {sizes[0]}")
    pool_per_class = math.ceil(sizes[-1] / k)
    test_per_class = max(1, test_records // k)

    def trial_rows(t: int) -> list[SweepRow]:
        pool_spec = replace(
            base, class_sizes=np.full(k, pool_per_class), seed=base.seed + 7919 * t
        )
        val_pool = gen_hetero_logits(pool_spec).val
        test_spec = replace(
            base, class_sizes=np.full(k, test_per_class), seed=base.seed + 7919 * t + 104729
        )
        test = gen_hetero_logits(test_spec).test
        starts = np.arange(k) * pool_per_class
        rows = []
        for n_val in sizes:
            per_class = n_val // k
            idx = np.concatenate([np.arange(s, s + per_class) for s in starts])
            val = val_pool.subset(idx)
            for method in ("ts", "cts"):
                rows.append(_fit_and_eval(method, val, test, cfg, binning, float(n_val)))
        return rows

    # Every trial yields its rows in the same (size, method) order, so
    # zipping the trials groups each point's rows in trial order.
    per_trial = _map_points(trial_rows, list(range(trials)))
    rows = []
    for group in zip(*per_trial):
        rows.append(
            SweepRow(
                axis_value=group[0].axis_value,
                method=group[0].method,
                ece=float(np.mean([r.ece for r in group])),
                max_ece=float(np.mean([r.max_ece for r in group])),
                avg_ece=float(np.mean([r.avg_ece for r in group])),
                nll=float(np.mean([r.nll for r in group])),
                accuracy=float(np.mean([r.accuracy for r in group])),
                val_nll=float(np.mean([r.val_nll for r in group])),
                nll_gap=float(np.mean([r.nll_gap for r in group])),
            )
        )
    return rows


def run_sweep(
    axis: str,
    values,
    base: HeteroLogitSpec,
    cfg: FitConfig = FitConfig(),
    binning: BinningConfig = BinningConfig(),
    trials: int = 30,
    test_records: int = 50_000,
) -> list[SweepRow]:
    """Run one sweep; returns rows sorted by (axis_value, method).

    noise: label-noise rate on the first half of the classes.
    size: sampling fraction of the first half of the classes.
    gamma: CTS radius on a fixed dataset (TS rows are gamma-independent).
    n_val: validation-set size, a multiple of K, averaged over `trials`
    (at least 1) seeded trials.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError("need at least one sweep value")

    if axis == "n_val":
        rows = _nval_rows(values, base, cfg, binning, trials, test_records)
    else:
        chunks = _map_points(lambda v: _point_rows(axis, v, base, cfg, binning), values)
        rows = [row for chunk in chunks for row in chunk]
    return sorted(rows, key=lambda r: (r.axis_value, r.method))
