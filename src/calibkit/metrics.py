"""Calibration-quality metrics.

Equal-width confidence binning, the binned expected calibration error (ECE),
its per-predicted-class variants max-ECE and Avg-ECE, negative log-likelihood,
and reliability-diagram aggregates. Every metric of a (dataset, model) pair
is read off one `core.predict` pass, which holds no probability matrix,
only each record's prediction, confidence, correctness and NLL: the binned
metrics read confidence against correctness, and the NLL is the mean of
the per-record `nll` from `core.softmax_nll`, the kernel the fits
minimize. Every binned number comes from one table and one formula:
`_bin_sums` counts records, confidence and correct predictions per (group,
bin) cell with one `np.bincount` triple, and `_eces` turns a table into
one ECE per group. The whole set is the one-group table; `compute_report`
bins the pass once and gathers its records in class order for the
per-class table, whose maximum and mean are max-ECE and Avg-ECE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CalibrationModel,
    Identity,
    LogitDataset,
    PredictionSet,
    class_order,
    predict,
)
from .core import softmax  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .errors import EmptyDatasetError, check_int

__all__ = [
    "BinningConfig",
    "BinnedStats",
    "PerClassStats",
    "MetricsReport",
    "bin_stats",
    "nll",
    "reliability_rows",
    "compute_report",
]

DEFAULT_NUM_BINS = 15
# Bins finer than the spacing of doubles near 1 cannot be told apart.
MAX_BINS = 2**53
# `compute_report` counts (class, bin) cells for a block of classes at a
# time, at most this many cells or one class's bins, so its memory does not
# grow with the number of classes.
_MAX_CELLS = 2**16


@dataclass(frozen=True)
class BinningConfig:
    """M equal-width confidence bins over [0, 1].

    Bin 1 covers [0, 1/M]; bin i >= 2 covers ((i-1)/M, i/M], so a confidence
    of exactly 1.0 lands in the last bin. M is an integer in [1, MAX_BINS].
    """

    num_bins: int = DEFAULT_NUM_BINS

    def __post_init__(self):
        vars(self).update(num_bins=check_int("num_bins", self.num_bins, ge=1, le=MAX_BINS))

    def bin_indices(self, confidence: np.ndarray) -> np.ndarray:
        """0-based bin index for each confidence value."""
        c = np.asarray(confidence, dtype=np.float64)
        return np.clip(np.ceil(c * self.num_bins).astype(np.int64), 1, self.num_bins) - 1

    def edges(self, i: int) -> tuple[float, float]:
        """(low, high) boundary of 0-based bin i."""
        return i / self.num_bins, (i + 1) / self.num_bins


@dataclass(frozen=True)
class BinnedStats:
    """Per-bin counts and empirical means; mean fields are NaN on empty bins."""

    counts: np.ndarray
    mean_confidence: np.ndarray
    mean_accuracy: np.ndarray

    @property
    def num_bins(self) -> int:
        return self.counts.shape[0]


def _bin_sums(
    cells: np.ndarray, confidence: np.ndarray, correct: np.ndarray, groups: int, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record counts, confidence sums and correct counts per cell, as (groups, m) arrays.

    `cells` holds each record's cell, group * m + bin. A cell adds its
    records in the order given.
    """
    return tuple(
        np.bincount(cells, weights=w, minlength=groups * m).reshape(groups, m)
        for w in (None, confidence, correct)
    )


def _eces(counts: np.ndarray, conf_sums: np.ndarray, acc_sums: np.ndarray, sizes: np.ndarray) -> list[float]:
    """Binned ECE of each group: sum over occupied bins of (n_i/n) |acc_i - conf_i|, in bin order.

    `sizes` holds each group's record count n. Empty bins contribute
    nothing, and an empty group's ECE is 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = counts / sizes[:, None] * np.abs(acc_sums / counts - conf_sums / counts)
    return [float(np.sum(row[n > 0])) for row, n in zip(terms, counts)]


def bin_stats(preds: PredictionSet, binning: BinningConfig) -> BinnedStats:
    """Assign each record to a confidence bin and aggregate counts and means."""
    confidence = preds.confidence
    counts, conf_sums, acc_sums = (
        a[0] for a in _bin_sums(binning.bin_indices(confidence), confidence, preds.correct, 1, binning.num_bins)
    )
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sums / np.maximum(counts, 1), np.nan)
        mean_acc = np.where(counts > 0, acc_sums / np.maximum(counts, 1), np.nan)
    return BinnedStats(counts=counts, mean_confidence=mean_conf, mean_accuracy=mean_acc)


def nll(dataset: LogitDataset, model: CalibrationModel = Identity()) -> float:
    """Mean negative log-likelihood of the true labels under the calibrated model.

    The mean of `predict(dataset, model).nll`: each record contributes
    log(sum_k exp(u_k)) - u_y, with the calibrated logits u shifted so the
    row maximum is 0, so extreme logits never produce log(0). It comes from
    `core.softmax_nll`, the kernel the TS, CTS and VS objectives call, with
    no floor on the log-probabilities. Raises EmptyDatasetError on an empty
    dataset and InvalidInputError if the value is not finite.
    """
    return predict(dataset, model).mean_nll


def reliability_rows(
    stats: BinnedStats, binning: BinningConfig
) -> list[tuple[float, float, int, float | None, float | None]]:
    """One (bin_low, bin_high, count, mean_confidence, mean_accuracy) row per bin.

    Mean fields are None on empty bins. Suitable for external plotting of
    reliability diagrams.
    """
    rows = []
    for i in range(stats.num_bins):
        low, high = binning.edges(i)
        n = int(stats.counts[i])
        if n > 0:
            rows.append((low, high, n, float(stats.mean_confidence[i]), float(stats.mean_accuracy[i])))
        else:
            rows.append((low, high, n, None, None))
    return rows


@dataclass(frozen=True)
class PerClassStats:
    """Slice summary for one predicted class."""

    class_index: int
    count: int
    ece: float
    accuracy: float
    mean_confidence: float


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate calibration report for one (dataset, model) pair.

    All values come from one `predict` pass. `predicted` is that pass's
    per-record predicted labels, kept so that two reports on one dataset
    can be compared record by record.
    """

    accuracy: float
    ece: float
    max_ece: float
    avg_ece: float
    nll: float
    per_class: list[PerClassStats]
    predicted: np.ndarray
    warnings: list[str] = field(default_factory=list)


def compute_report(
    dataset: LogitDataset,
    model: CalibrationModel = Identity(),
    binning: BinningConfig = BinningConfig(),
) -> MetricsReport:
    """Evaluate all calibration metrics of a model on a dataset from one `predict` pass.

    `per_class` has one entry per predicted class, in class order; classes
    never predicted are left out (with a warning) rather than reported as
    zero. The pass's records are binned once. The overall ECE is the
    one-group table in record order. The records are then gathered once in
    class order (`core.class_order`); one `_bin_sums` over (class, bin)
    cells per block of classes gives every class's table, and each class's
    accuracy and mean confidence come from its contiguous run.
    """
    if dataset.num_records == 0:
        raise EmptyDatasetError("cannot evaluate metrics on an empty dataset")
    preds = predict(dataset, model)
    num_classes, predicted, confidence, correct = dataset.num_classes, preds.predicted, preds.confidence, preds.correct
    m = binning.num_bins
    bins = binning.bin_indices(confidence)
    (overall_ece,) = _eces(*_bin_sums(bins, confidence, correct, 1, m), np.array([len(bins)]))

    order, bounds = class_order(predicted, num_classes)
    confidence, correct = confidence[order], correct[order]
    # (class, bin) cell of each record, in class order; a cell adds its records in
    # ascending order, as a table over one class's records would.
    cells = predicted[order] * m + bins[order]
    block = max(1, _MAX_CELLS // m)
    per_class = []
    warnings = []
    for first in range(0, num_classes, block):
        classes = range(first, min(first + block, num_classes))
        a, b = bounds[first], bounds[classes.stop]
        sizes = np.diff(bounds[first : classes.stop + 1])
        block_eces = _eces(*_bin_sums(cells[a:b] - first * m, confidence[a:b], correct[a:b], len(classes), m), sizes)
        for k, size, class_ece in zip(classes, sizes.tolist(), block_eces):
            if size == 0:
                warnings.append(f"class {k} was never predicted; excluded from max/Avg-ECE")
                continue
            run = slice(bounds[k], bounds[k + 1])
            per_class.append(
                PerClassStats(
                    class_index=k,
                    count=size,
                    ece=class_ece,
                    accuracy=float(np.count_nonzero(correct[run]) / size),
                    # sum() / n is np.mean's arithmetic.
                    mean_confidence=float(confidence[run].sum() / size),
                )
            )
    eces = [row.ece for row in per_class]

    return MetricsReport(
        accuracy=preds.accuracy,
        ece=overall_ece,
        max_ece=max(eces),
        avg_ece=float(np.mean(eces)),
        nll=preds.mean_nll,
        per_class=per_class,
        predicted=predicted,
        warnings=warnings,
    )
