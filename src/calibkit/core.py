"""Domain types and prediction mechanics.

Holds the logit dataset and prediction containers, the calibration model
variants, numerically stable softmax, `predict` (the library's single
evaluation pass: one max-shifted exponential of the calibrated logits gives
probabilities, predictions and per-record NLL), and the predicted-class
splitting that all per-class machinery builds on. Classes are indexed 0..K-1
everywhere, including file formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassCountMismatchError,
    EmptyDatasetError,
    InvalidInputError,
    InvalidModelError,
)

__all__ = [
    "LogitDataset",
    "PredictionSet",
    "ClassSlice",
    "Identity",
    "Temperature",
    "ClassWiseTemperature",
    "Vector",
    "CalibrationModel",
    "softmax",
    "predict",
    "split_by_predicted",
]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, stabilized by max subtraction.

    Accepts a single logit vector or a batch of row vectors. Invariant to
    adding a constant to all entries of a row. Rejects NaN/Inf input.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("softmax input contains NaN or Inf")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class LogitDataset:
    """N records of (K raw logits, true label in [0, K)).

    Immutable after construction; the backing arrays are marked read-only.
    K = 1 is rejected: calibration is undefined with a single class.
    """

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        logits = np.asarray(self.logits, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if logits.ndim != 2:
            raise InvalidInputError("logits must be a 2-D (records x classes) array")
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise InvalidInputError("labels must be 1-D with one entry per record")
        if logits.shape[1] < 2:
            raise InvalidInputError("datasets need at least 2 classes")
        if not np.all(np.isfinite(logits)):
            raise InvalidInputError("logits contain NaN or Inf")
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
            raise InvalidInputError("labels must lie in [0, num_classes)")
        logits = logits.copy()
        labels = labels.copy()
        logits.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "labels", labels)

    @property
    def num_records(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def subset(self, indices: np.ndarray) -> "LogitDataset":
        """Dataset restricted to the given record indices (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return LogitDataset(self.logits[idx], self.labels[idx])


@dataclass(frozen=True)
class PredictionSet:
    """Per-record probabilities, predicted label, confidence, correctness and NLL.

    `nll` is each record's negative log-likelihood of its true label,
    log(sum_k exp(u_k)) - u_y on the max-shifted calibrated logits u.
    """

    probs: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    correct: np.ndarray
    nll: np.ndarray

    def __post_init__(self):
        for name in ("probs", "predicted", "confidence", "correct", "nll"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_records(self) -> int:
        return self.probs.shape[0]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[1]

    @property
    def accuracy(self) -> float:
        return float(np.mean(self.correct))

    @property
    def mean_nll(self) -> float:
        """Mean of `nll`; raises on an empty set or a non-finite mean."""
        if self.num_records == 0:
            raise EmptyDatasetError("NLL is undefined on an empty dataset")
        value = float(np.mean(self.nll))
        if not math.isfinite(value):
            raise InvalidInputError("NLL is not finite: the calibrated logits overflow")
        return value


@dataclass(frozen=True)
class ClassSlice:
    """Record indices of the parent dataset whose predicted label is `class_index`."""

    class_index: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64).copy()
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @property
    def count(self) -> int:
        return self.indices.shape[0]


class Identity:
    """No calibration: probabilities are the softmax of the raw logits."""

    def scaled_logits(self, logits: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        return np.asarray(logits, dtype=np.float64)

    def __eq__(self, other):
        return isinstance(other, Identity)

    def __repr__(self):
        return "Identity()"


@dataclass(frozen=True)
class Temperature:
    """Single scalar multiplying all logits; alpha < 1 softens, alpha > 1 sharpens.

    Note the multiplicative convention: much of the literature divides by a
    temperature T instead, i.e. alpha = 1/T.
    """

    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidModelError(f"temperature must be finite and positive, got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))

    def scaled_logits(self, logits: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        return self.alpha * np.asarray(logits, dtype=np.float64)


@dataclass(frozen=True)
class ClassWiseTemperature:
    """One temperature per predicted class, tied to a shared alpha0 within radius gamma.

    A record predicted as class k by the *uncalibrated* model gets its logits
    multiplied by alphas[k]. gamma records the constraint the fit used;
    gamma = 0 collapses to plain temperature scaling, gamma = inf decouples
    the classes entirely.
    """

    alpha0: float
    alphas: np.ndarray
    gamma: float

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64).copy()
        if alphas.ndim != 1:
            raise InvalidModelError("alphas must be a 1-D array with one entry per class")
        if not (np.isfinite(self.alpha0) and self.alpha0 > 0):
            raise InvalidModelError(f"shared temperature must be positive, got {self.alpha0}")
        if not np.all(np.isfinite(alphas) & (alphas > 0)):
            raise InvalidModelError("all class temperatures must be finite and positive")
        if np.isnan(self.gamma) or self.gamma < 0:
            raise InvalidModelError(f"gamma must be >= 0, got {self.gamma}")
        if np.isfinite(self.gamma):
            lo, hi = self.alpha0 - self.gamma, self.alpha0 + self.gamma
            if np.any(alphas < lo) or np.any(alphas > hi):
                raise InvalidModelError("class temperatures violate |alpha_k - alpha0| <= gamma")
        alphas.flags.writeable = False
        object.__setattr__(self, "alpha0", float(self.alpha0))
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def num_classes(self) -> int:
        return self.alphas.shape[0]

    def scaled_logits(self, logits: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        return self.alphas[np.asarray(predicted)][:, None] * np.asarray(logits, dtype=np.float64)


@dataclass(frozen=True)
class Vector:
    """Per-class scale and bias on the logits: softmax(scale * z + bias).

    Unlike temperature variants, this can reorder logits and change the
    predicted class.
    """

    scale: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.scale, dtype=np.float64).copy()
        bias = np.asarray(self.bias, dtype=np.float64).copy()
        if scale.ndim != 1 or bias.shape != scale.shape:
            raise InvalidModelError("scale and bias must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(scale)) and np.all(np.isfinite(bias))):
            raise InvalidModelError("scale and bias must be finite")
        scale.flags.writeable = False
        bias.flags.writeable = False
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "bias", bias)

    @property
    def num_classes(self) -> int:
        return self.scale.shape[0]

    def scaled_logits(self, logits: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        return self.scale * np.asarray(logits, dtype=np.float64) + self.bias


CalibrationModel = Identity | Temperature | ClassWiseTemperature | Vector


def check_model_classes(model: CalibrationModel, num_classes: int) -> None:
    """Raise if a per-class model disagrees with the dataset's class count."""
    k = getattr(model, "num_classes", None)
    if k is not None and k != num_classes:
        raise ClassCountMismatchError(
            f"model has {k} classes but dataset has {num_classes}"
        )


def predict(dataset: LogitDataset, model: CalibrationModel) -> PredictionSet:
    """Apply a calibration model to every record of a dataset in one pass.

    Class-wise temperatures are routed by the argmax of the *raw* logits.
    The calibrated logits are shifted so each row's maximum is 0 and
    exponentiated once; that one pass gives the probabilities, the
    predicted label (the argmax of the calibrated probabilities: identical
    to the raw one for temperature variants, possibly different for vector
    scaling), the confidence, the correctness and the per-record NLL.
    Deterministic: ties go to the lowest class index. Raises
    InvalidInputError if the calibrated logits contain NaN or Inf.
    """
    check_model_classes(model, dataset.num_classes)
    u = model.scaled_logits(dataset.logits, np.argmax(dataset.logits, axis=1))
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("calibrated logits contain NaN or Inf")
    u = u - u.max(axis=1, keepdims=True)
    probs = np.exp(u)
    total = probs.sum(axis=1)
    probs /= total[:, None]
    rows = np.arange(dataset.num_records)
    pred = np.argmax(probs, axis=1)
    return PredictionSet(
        probs=probs,
        predicted=pred,
        confidence=probs[rows, pred],
        correct=pred == dataset.labels,
        nll=np.log(total) - u[rows, dataset.labels],
    )


def split_by_predicted(preds: PredictionSet) -> list[ClassSlice]:
    """Partition record indices by predicted label into K (possibly empty) slices."""
    return [
        ClassSlice(class_index=k, indices=np.flatnonzero(preds.predicted == k))
        for k in range(preds.num_classes)
    ]
