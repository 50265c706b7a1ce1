"""Generate-fit-evaluate sweeps over noise rate, class size, gamma, and validation size.

Each validation set gets one TS solve, and at most one search per predicted
class, however many gammas it is fitted at: `calibrate._temperature_fits`
returns its TS fit and one CTS fit per gamma. Every axis runs through one
loop: `_draws` yields a trial's (validation set, test set, points) one draw
at a time, and `run_sweep` fits and scores each and averages every point's
rows over the trials. The noise, size and n_val axes draw a validation set
per value and fit it at the configured gamma; the gamma axis draws one and
fits it at every value. Only the n_val axis runs more than one trial. The
TS row is scored once per validation set and repeated at each of its axis
values. Each draw generates only the validation and test splits it reads,
each from its own seeded stream (see `synthetic.gen_hetero_logits`). Rows
carry the test-set calibration metrics (`nll` is the test NLL) plus the
fitted model's validation NLL and the gap |val_nll - nll|, the
generalization signal for the validation-size axis. Trials and points run
in order, and rows are sorted by (axis_value, method).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .calibrate import FitConfig, _temperature_fits
from .calibrate import fit_cts, fit_ts  # noqa: F401  (unused here; bench/tracer.py wraps them at this module)
from .errors import ConfigError, check_array, check_int
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


# The SweepRow fields `run_sweep` averages over trials.
_METRICS = [f.name for f in fields(SweepRow) if f.name not in ("axis_value", "method")]


def _row(axis_value, method, model, val_nll, test, binning) -> SweepRow:
    r = compute_report(test, model, binning)
    return SweepRow(axis_value, method, r.ece, r.max_ece, r.avg_ece, r.nll, r.accuracy, val_nll, abs(val_nll - r.nll))


def _rows(val, test, cfg, points, binning) -> list[SweepRow]:
    """The ts and cts rows of one validation/test pair at each (axis value, gamma) in `points`.

    One `_temperature_fits` call fits TS and CTS at every gamma; the TS row
    takes the validation NLL its solve reached, is scored once and is
    repeated at every axis value.
    """
    ts, fits = _temperature_fits(val, cfg, [gamma for _, gamma in points])
    ts_row = _row(math.nan, "ts", ts.model, ts.val_nll, test, binning)
    return [row for (v, _), fit in zip(points, fits)
            for row in (replace(ts_row, axis_value=v), _row(v, "cts", fit.model, fit.val_nll, test, binning))]


def _half(k: int) -> int:
    return (k + 1) // 2


def _spec_for_noise(base: HeteroLogitSpec, rho: float) -> HeteroLogitSpec:
    rates = np.asarray(base.noise_rates).copy()
    rates[: _half(base.num_classes)] = rho
    return replace(base, noise_rates=rates)


def _spec_for_size(base: HeteroLogitSpec, fraction: float) -> HeteroLogitSpec:
    sizes = np.asarray(base.class_sizes).copy()
    h = _half(base.num_classes)
    # A non-empty class keeps at least one record; an empty one stays empty.
    sizes[:h] = np.minimum(sizes[:h], np.maximum(1, np.round(sizes[:h] * fraction))).astype(np.int64)
    return replace(base, class_sizes=sizes)


def _draws(axis, values, base, cfg, t, test_records):
    """Trial t's (val, test, points) triples, one draw at a time.

    Each draw asks the generator only for the splits it reads; no axis
    reads a train split. The gamma axis makes one draw of `base`, with a
    point per value; the noise and size axes make one draw per value, at
    `cfg.gamma`. Every split has its own stream, so the noise axis's draws
    share their logits (common random numbers) and differ only in the
    labels of the noisy classes. On the n_val axis, trial t's validation
    sets are per-class prefixes of one pooled validation draw at seed
    base.seed + 7919 t (common random numbers, which stabilize the
    size-to-size comparison of the NLL gap), and its test set is one large
    independent test draw.
    """
    if axis == "gamma":
        splits = gen_hetero_logits(base, splits=("val", "test"))
        yield splits.val, splits.test, [(float(v), v) for v in values]
    elif axis == "n_val":
        k = base.num_classes
        pool_per_class = math.ceil(max(values) / k)
        seed = base.seed + 7919 * t
        val_pool = gen_hetero_logits(replace(base, class_sizes=np.full(k, pool_per_class), seed=seed),
                                     splits=("val",)).val
        test = gen_hetero_logits(replace(base, class_sizes=np.full(k, test_records // k), seed=seed + 104729),
                                 splits=("test",)).test
        starts = np.arange(k) * pool_per_class
        for n_val in values:
            idx = np.concatenate([np.arange(start, start + n_val // k) for start in starts])
            yield val_pool.subset(idx), test, [(float(n_val), cfg.gamma)]
    else:
        spec_for = _spec_for_noise if axis == "noise" else _spec_for_size
        for v in values:
            splits = gen_hetero_logits(spec_for(base, v), splits=("val", "test"))
            yield splits.val, splits.test, [(float(v), cfg.gamma)]


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
    gamma: CTS radius on one draw of `base`, every value fitted from one
    TS solve and one set of class searches.
    n_val: validation-set size, a multiple of K, averaged over `trials`
    (at least 1) seeded trials, each scored on K * (`test_records` // K)
    test records (`test_records` is at least K).
    Every value, `trials` and `test_records` are checked before any point runs.
    Every axis runs one loop over `_draws`: one trial on noise, size and
    gamma, `trials` on n_val, with each point's rows averaged over the
    trials (the mean of one trial is its value, bit for bit). Each
    validation set gets one TS solve, shared by its TS row and all of its
    CTS fits, and its TS model is scored once.
    """
    if not (isinstance(axis, str) and axis in SWEEP_AXES):
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    k = base.num_classes
    trials = check_int("trials", trials, ge=1)
    test_records = check_int("test_records", test_records, ge=k)
    bounds = {"noise": {"ge": 0, "lt": 1}, "size": {"gt": 0, "le": 1}, "gamma": {"ge": 0, "le": math.inf}}
    values = check_array("values", values, axis == "n_val", **bounds.get(axis, {"ge": k})).tolist()
    if not values:
        raise ConfigError("need at least one sweep value")

    if axis == "n_val":
        bad = [v for v in values if v % k]
        if bad:
            raise ConfigError(f"validation sizes must be multiples of num_classes {k}, got {bad}")
    # Every trial yields its rows in the same (point, method) order, so
    # zipping the trials groups each point's rows in trial order.
    per_trial = [
        [row for val, test, points in _draws(axis, values, base, cfg, t, test_records)
         for row in _rows(val, test, cfg, points, binning)]
        for t in range(trials if axis == "n_val" else 1)
    ]
    rows = [
        replace(group[0], **{name: float(np.mean([getattr(r, name) for r in group])) for name in _METRICS})
        for group in zip(*per_trial)
    ]
    return sorted(rows, key=lambda r: (r.axis_value, r.method))
