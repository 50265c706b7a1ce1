"""Domain types and prediction mechanics.

Holds the logit dataset and prediction containers, the calibration model
variants, numerically stable softmax, `softmax_nll` (the library's one NLL
kernel, which `predict` and both fit objectives in `optim` call), `predict`
(the single evaluation pass: probabilities, predictions and per-record NLL
from one kernel pass over the calibrated logits), and `class_order`, one
stable sort that groups the record indices by label: CTS fits group by the
raw argmax and per-class metrics by the predicted label, each once. Classes
are indexed 0..K-1 everywhere, including file formats.

A dataset finds each record's raw top class and top logit once, on first
use (`LogitDataset.top`). The temperature variants multiply a record's
logits by one positive factor, which keeps their order, so `predict`
shifts each row by its top logit, scales the result as the temperature
solvers in `optim` do, (z - top) * alpha, and predicts the raw top class:
a temperature model never changes a prediction, with no reduction over
the rows. Vector scaling may reorder the classes, so it predicts the
argmax of its probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ClassCountMismatchError,
    EmptyDatasetError,
    InvalidInputError,
    InvalidModelError,
    check_array,
    check_real,
)

__all__ = [
    "LogitDataset",
    "PredictionSet",
    "Identity",
    "Temperature",
    "ClassWiseTemperature",
    "Vector",
    "CalibrationModel",
    "softmax",
    "softmax_nll",
    "predict",
    "class_order",
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


def softmax_nll(u: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponentials, row sums and per-record NLL of shifted calibrated logits.

    `u` holds calibrated logits already shifted so that each row's maximum
    is 0; it is exponentiated in place and returned as the first value. The
    NLL of record i is log(sum_k exp(u_ik)) - u_iy, with y = labels[i]; the
    shift keeps every row sum in [1, K], so it never takes log(0).
    """
    u_y = u[np.arange(u.shape[0]), labels]
    np.exp(u, out=u)
    total = u.sum(axis=1)
    return u, total, np.log(total) - u_y


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LogitDataset:
    """N records of (K raw logits, true label in [0, K)).

    Immutable after construction: the constructor copies the arrays it is
    given and marks the copies read-only. K = 1 is rejected: calibration is
    undefined with a single class. Logits must be real and finite; labels
    must be integers or whole-valued floats. `top` caches each record's raw
    top class and top logit, computed on first use. Datasets compare and
    hash by identity.
    """

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        logits = check_array("logits", self.logits, ndim=2, error=InvalidInputError)
        if logits.shape[1] < 2:
            raise InvalidInputError("datasets need at least 2 classes")
        labels = check_array(
            "labels", self.labels, integer=True, length=logits.shape[0], ge=0, lt=logits.shape[1],
            error=InvalidInputError,
        )
        self._hold(logits, labels)

    @classmethod
    def _adopt(cls, logits: np.ndarray, labels: np.ndarray) -> "LogitDataset":
        """A dataset over fresh arrays whose records already passed the checks.

        No copy and no re-check: for calibkit's own reader and `subset`, which
        build the arrays for the dataset and keep no other reference to them.
        """
        dataset = object.__new__(cls)
        dataset._hold(logits, labels)
        return dataset

    def _hold(self, logits: np.ndarray, labels: np.ndarray) -> None:
        object.__setattr__(self, "logits", _read_only(logits))
        object.__setattr__(self, "labels", _read_only(labels))

    @property
    def num_records(self) -> int:
        return self.logits.shape[0]

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    @cached_property
    def top(self) -> tuple[np.ndarray, np.ndarray]:
        """(top_class, top_logit): each record's raw argmax and the logit there.

        Read-only, and computed on first use, once: building or reading a
        dataset does not pay for it. Ties go to the lowest class index.
        """
        top_class = np.argmax(self.logits, axis=1)
        top_logit = self.logits[np.arange(self.num_records), top_class]
        return _read_only(top_class), _read_only(top_logit)

    def subset(self, indices: np.ndarray) -> "LogitDataset":
        """Dataset restricted to the given record indices (order preserved).

        Indices must be integers in [0, num_records). The subset finds its
        own `top` on first use, like any other dataset.
        """
        idx = check_array(
            "indices", indices, integer=True, ge=0, lt=self.num_records, error=InvalidInputError
        )
        # The gathers are new arrays of records that passed the checks.
        return LogitDataset._adopt(self.logits[idx], self.labels[idx])


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Per-record probabilities, predicted label, confidence, correctness and NLL.

    `nll` is each record's negative log-likelihood of its true label,
    log(sum_k exp(u_k)) - u_y on the max-shifted calibrated logits u. The
    set holds read-only views of the arrays it is given, not copies: the
    caller's own arrays stay writeable, and writing through them changes
    the set.
    """

    probs: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    correct: np.ndarray
    nll: np.ndarray

    def __post_init__(self):
        for name in ("probs", "predicted", "confidence", "correct", "nll"):
            arr = np.asarray(getattr(self, name)).view()
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
class Identity:
    """No calibration: probabilities are the softmax of the raw logits."""

    def row_scale(self, top_class: np.ndarray) -> float:
        return 1.0


@dataclass(frozen=True)
class Temperature:
    """Single scalar multiplying all logits; alpha < 1 softens, alpha > 1 sharpens.

    Note the multiplicative convention: much of the literature divides by a
    temperature T instead, i.e. alpha = 1/T.
    """

    alpha: float

    def __post_init__(self):
        vars(self).update(alpha=check_real("alpha", self.alpha, gt=0, error=InvalidModelError))

    def row_scale(self, top_class: np.ndarray) -> float:
        return self.alpha


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
        alpha0 = check_real("alpha0", self.alpha0, gt=0, error=InvalidModelError)
        alphas = check_array("alphas", self.alphas, gt=0, error=InvalidModelError)
        gamma = check_real("gamma", self.gamma, ge=0, le=math.inf, error=InvalidModelError)
        if np.any(alphas < alpha0 - gamma) or np.any(alphas > alpha0 + gamma):
            raise InvalidModelError("class temperatures violate |alpha_k - alpha0| <= gamma")
        vars(self).update(alpha0=alpha0, alphas=alphas, gamma=gamma)

    @property
    def num_classes(self) -> int:
        return self.alphas.shape[0]

    def row_scale(self, top_class: np.ndarray) -> np.ndarray:
        """Column of each record's factor, alphas[k] for raw top class k."""
        return self.alphas[top_class][:, None]


@dataclass(frozen=True)
class Vector:
    """Per-class scale and bias on the logits: softmax(scale * z + bias).

    Unlike temperature variants, this can reorder logits and change the
    predicted class.
    """

    scale: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        scale = check_array("scale", self.scale, error=InvalidModelError)
        vars(self).update(
            scale=scale, bias=check_array("bias", self.bias, length=scale.shape[0], error=InvalidModelError)
        )

    @property
    def num_classes(self) -> int:
        return self.scale.shape[0]


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

    The calibrated logits are shifted so each row's maximum is 0 and passed
    once through `softmax_nll`; that one pass gives the probabilities, the
    confidence, the correctness and the per-record NLL. Raises
    InvalidInputError if the calibrated logits contain NaN or Inf.

    The temperature variants (Identity, Temperature, ClassWiseTemperature)
    shift first and then scale: each row minus its cached top logit
    (`LogitDataset.top`), times the record's positive factor (`row_scale`),
    which is the formula `optim.TemperatureProblem` minimizes. The raw top
    class then has calibrated logit 0, the row maximum, and is the
    prediction even where `exp` rounds another class's probability up to
    the same value; raw ties go to the lowest class index. The finiteness
    check sees (z - top) * alpha: it accepts [1e307, 0.99e307] under alpha =
    100, though alpha * z overflows, and rejects [1e308, -1e308] under every
    temperature model, Identity included, since z - top overflows.

    Vector scaling computes scale * z + bias, checks it, subtracts each
    row's maximum and predicts the argmax of the probabilities, the lowest
    class index among ties.
    """
    check_model_classes(model, dataset.num_classes)
    vector = isinstance(model, Vector)
    if vector:
        u = model.scale * dataset.logits + model.bias
    else:
        pred, top_logit = dataset.top
        u = dataset.logits - top_logit[:, None]
        u *= model.row_scale(pred)
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("calibrated logits contain NaN or Inf")
    if vector:
        u -= u.max(axis=1, keepdims=True)
    probs, total, nll = softmax_nll(u, dataset.labels)
    probs /= total[:, None]
    if vector:
        pred = np.argmax(probs, axis=1)
    return PredictionSet(
        probs=probs,
        predicted=pred,
        confidence=probs[np.arange(dataset.num_records), pred],
        correct=pred == dataset.labels,
        nll=nll,
    )


def class_order(labels: np.ndarray, num_classes: int) -> tuple[np.ndarray, list[int]]:
    """Record indices grouped by label, and where each class's group starts.

    Class k's records are order[bounds[k]:bounds[k + 1]], in ascending
    order: one stable sort of the labels, cast to the narrowest unsigned
    type that holds num_classes - 1 (NumPy radix-sorts 8- and 16-bit keys).
    """
    order = np.argsort(labels.astype(np.min_scalar_type(num_classes - 1)), kind="stable")
    bounds = np.zeros(num_classes + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=num_classes), out=bounds[1:])
    return order, bounds.tolist()

