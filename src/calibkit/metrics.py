"""Calibration-quality metrics.

Equal-width confidence binning, the binned expected calibration error (ECE),
its per-predicted-class variants max-ECE and Avg-ECE, negative log-likelihood,
and reliability-diagram aggregates. Every metric of a (dataset, model) pair
is read off one `core.predict` pass: the NLL is the mean of its per-record
`nll`, not a second pass over the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .core import (
    CalibrationModel,
    Identity,
    LogitDataset,
    PredictionSet,
    ClassSlice,
    predict,
    split_by_predicted,
)
from .core import softmax  # noqa: F401  (unused here; bench/tracer.py wraps it at this module)
from .errors import ConfigError, EmptyDatasetError

__all__ = [
    "BinningConfig",
    "BinnedStats",
    "PerClassStats",
    "MetricsReport",
    "bin_stats",
    "ece",
    "class_ece",
    "max_ece",
    "avg_ece",
    "nll",
    "reliability_rows",
    "compute_report",
]

DEFAULT_NUM_BINS = 15


@dataclass(frozen=True)
class BinningConfig:
    """M equal-width confidence bins over [0, 1].

    Bin 1 covers [0, 1/M]; bin i >= 2 covers ((i-1)/M, i/M], so a confidence
    of exactly 1.0 lands in the last bin.
    """

    num_bins: int = DEFAULT_NUM_BINS

    def __post_init__(self):
        if self.num_bins < 1:
            raise ConfigError(f"need at least 1 bin, got {self.num_bins}")

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
    total: int

    @property
    def num_bins(self) -> int:
        return self.counts.shape[0]


def _binned(confidence: np.ndarray, correct: np.ndarray, binning: BinningConfig) -> BinnedStats:
    m = binning.num_bins
    idx = binning.bin_indices(confidence)
    counts = np.bincount(idx, minlength=m)
    conf_sums = np.bincount(idx, weights=confidence, minlength=m)
    acc_sums = np.bincount(idx, weights=np.asarray(correct, dtype=np.float64), minlength=m)
    with np.errstate(invalid="ignore"):
        mean_conf = np.where(counts > 0, conf_sums / np.maximum(counts, 1), np.nan)
        mean_acc = np.where(counts > 0, acc_sums / np.maximum(counts, 1), np.nan)
    return BinnedStats(
        counts=counts,
        mean_confidence=mean_conf,
        mean_accuracy=mean_acc,
        total=int(confidence.shape[0]),
    )


def bin_stats(preds: PredictionSet, binning: BinningConfig) -> BinnedStats:
    """Assign each record to a confidence bin and aggregate counts and means."""
    return _binned(preds.confidence, preds.correct, binning)


def ece(stats: BinnedStats) -> float:
    """Binned expected calibration error: sum_i (n_i/N) |acc_i - conf_i|.

    Empty bins contribute nothing. Result lies in [0, 1].
    """
    if stats.total == 0:
        raise EmptyDatasetError("ECE is undefined on an empty dataset")
    mask = stats.counts > 0
    weights = stats.counts[mask] / stats.total
    gaps = np.abs(stats.mean_accuracy[mask] - stats.mean_confidence[mask])
    return float(np.sum(weights * gaps))


def class_ece(
    preds: PredictionSet, slices: list[ClassSlice], binning: BinningConfig
) -> dict[int, float]:
    """ECE restricted to each predicted-class slice.

    Classes that were never predicted are absent from the result rather than
    reported as zero.
    """
    out: dict[int, float] = {}
    for s in slices:
        if s.count == 0:
            continue
        stats = _binned(preds.confidence[s.indices], preds.correct[s.indices], binning)
        out[s.class_index] = ece(stats)
    return out


def max_ece(class_eces: Mapping[int, float]) -> float:
    """Maximum per-class ECE over classes with at least one predicted sample."""
    if not class_eces:
        raise EmptyDatasetError("max-ECE needs at least one non-empty class")
    return float(max(class_eces.values()))


def avg_ece(class_eces: Mapping[int, float]) -> float:
    """Unweighted mean of per-class ECEs over non-empty classes."""
    if not class_eces:
        raise EmptyDatasetError("Avg-ECE needs at least one non-empty class")
    return float(np.mean(list(class_eces.values())))


def nll(dataset: LogitDataset, model: CalibrationModel = Identity()) -> float:
    """Mean negative log-likelihood of the true labels under the calibrated model.

    The mean of `predict(dataset, model).nll`: each record contributes
    log(sum_k exp(u_k)) - u_y, with the calibrated logits u shifted so the
    row maximum is 0, so extreme logits never produce log(0). This is the
    formula the temperature fits minimize (`optim.temperature_nll`), with no
    floor on the log-probabilities. Raises EmptyDatasetError on an empty
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
    binned: BinnedStats
    predicted: np.ndarray
    warnings: list[str] = field(default_factory=list)


def compute_report(
    dataset: LogitDataset,
    model: CalibrationModel = Identity(),
    binning: BinningConfig = BinningConfig(),
) -> MetricsReport:
    """Evaluate all calibration metrics of a model on a dataset from one `predict` pass."""
    if dataset.num_records == 0:
        raise EmptyDatasetError("cannot evaluate metrics on an empty dataset")
    preds = predict(dataset, model)
    slices = split_by_predicted(preds)
    eces = class_ece(preds, slices, binning)
    stats = bin_stats(preds, binning)

    per_class = []
    warnings = []
    for s in slices:
        if s.count == 0:
            warnings.append(f"class {s.class_index} was never predicted; excluded from max/Avg-ECE")
            continue
        per_class.append(
            PerClassStats(
                class_index=s.class_index,
                count=s.count,
                ece=eces[s.class_index],
                accuracy=float(np.mean(preds.correct[s.indices])),
                mean_confidence=float(np.mean(preds.confidence[s.indices])),
            )
        )

    return MetricsReport(
        accuracy=preds.accuracy,
        ece=ece(stats),
        max_ece=max_ece(eces),
        avg_ece=avg_ece(eces),
        nll=preds.mean_nll,
        per_class=per_class,
        binned=stats,
        predicted=preds.predicted,
        warnings=warnings,
    )
