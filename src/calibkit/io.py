"""Dataset, model, and report file I/O.

Logit datasets are CSV with header ``logit_0,...,logit_{K-1},label``; binary
feature datasets (two-atom synthetic output) are written, never read back,
with header ``x_0,...,x_{d-1},label``.
Floats are written with shortest round-trip precision, so write/read is
lossless and byte-deterministic. Parse failures report 1-based line numbers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import LogitDataset
from .errors import FileFormatError

__all__ = [
    "read_logit_csv",
    "write_logit_csv",
    "write_binary_csv",
    "write_reliability_csv",
    "read_json",
    "write_json",
]


def _parse_matrix_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if not header:
            raise FileFormatError("empty file, expected a header row", line=1)
        columns = header.split(",")
        width = len(columns) - 1
        expected = [f"logit_{i}" for i in range(width)] + ["label"]
        if width < 1 or columns != expected:
            raise FileFormatError("bad header, expected logit_0,...,logit_{K-1},label", line=1)
        values = []
        labels = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width + 1:
                raise FileFormatError(
                    f"expected {width + 1} columns, found {len(parts)}", line=lineno
                )
            try:
                row = [float(p) for p in parts[:width]]
                label = int(parts[width])
            except ValueError as exc:
                raise FileFormatError(str(exc), line=lineno) from None
            if not all(math.isfinite(v) for v in row):
                raise FileFormatError("non-finite value", line=lineno)
            if label < 0:
                raise FileFormatError(f"negative label {label}", line=lineno)
            values.append(row)
            labels.append(label)
    data = np.asarray(values, dtype=np.float64).reshape(len(values), width)
    return data, np.asarray(labels, dtype=np.int64)


def read_logit_csv(path: str) -> LogitDataset:
    """Load a logit dataset; labels must lie in [0, K) with K >= 2 columns."""
    logits, labels = _parse_matrix_csv(path)
    if logits.shape[1] < 2:
        raise FileFormatError("logit files need at least 2 classes", line=1)
    if labels.size and labels.max() >= logits.shape[1]:
        bad = int(np.argmax(labels >= logits.shape[1]))
        raise FileFormatError(
            f"label {labels[bad]} out of range [0, {logits.shape[1]})", line=bad + 2
        )
    return LogitDataset(logits=logits, labels=labels)


def _write_matrix_csv(path: str, prefix: str, data: np.ndarray, labels: np.ndarray) -> None:
    width = data.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"{prefix}{i}" for i in range(width)] + ["label"]) + "\n")
        # One row at a time: `data.tolist()` holds every entry as a Python
        # float at once, about five times the array (196 MB at 50,000 x 100).
        for row, label in zip(data, labels.tolist()):
            fh.write(",".join(map(repr, row.tolist())) + f",{label}\n")


def write_logit_csv(dataset: LogitDataset, path: str) -> None:
    _write_matrix_csv(path, "logit_", dataset.logits, dataset.labels)


def write_binary_csv(dataset, path: str) -> None:
    """Write a `synthetic.BinaryDataset` (features `x`, 0/1 labels `y`)."""
    _write_matrix_csv(path, "x_", dataset.x, dataset.y)


def _fmt9(value: float | None) -> str:
    return "" if value is None else f"{value:.9g}"


def write_reliability_csv(rows, path: str) -> None:
    """Write reliability rows: floats at 9 significant digits, empty bins blank."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("bin_low,bin_high,count,mean_confidence,mean_accuracy\n")
        for low, high, count, conf, acc in rows:
            fh.write(f"{_fmt9(low)},{_fmt9(high)},{count},{_fmt9(conf)},{_fmt9(acc)}\n")


def read_json(path: str) -> dict:
    """Load a JSON document; malformed JSON raises FileFormatError with its line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise FileFormatError(f"invalid JSON: {exc}", line=getattr(exc, "lineno", None)) from None


def write_json(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")
