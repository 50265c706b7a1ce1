"""Every file calibkit reads or writes: datasets, result tables, models and reports.

Logit datasets are CSV with header ``logit_0,...,logit_{K-1},label``; binary
feature datasets (two-atom synthetic output) are written, never read back,
with header ``x_0,...,x_{d-1},label``. Their floats have shortest round-trip
precision, so write/read is lossless and byte-deterministic. The reader
parses about 64 KB of lines at a time: it joins a block's non-blank lines,
splits them into tokens once, converts them with the same float() and int()
a line-by-line parse uses, and checks column counts, finiteness and labels on
whole arrays. A block that fails any check is parsed again line by line, so a
parse failure names the 1-based number of the first bad line, a line that is
not UTF-8 included. Result tables (reliability rows, sweep curves, the
Theorem 1 trials) carry floats at 9 significant digits.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

import numpy as np

from .core import LogitDataset
from .errors import FileFormatError

__all__ = [
    "read_logit_csv",
    "write_logit_csv",
    "write_binary_csv",
    "write_table_csv",
    "write_reliability_csv",
    "read_json",
    "write_json",
]


# Characters of text (bytes, for ASCII files) per `readlines` call of
# `read_logit_csv`: large enough that the per-block numpy calls cost little,
# small enough that one block's Python strings and floats stay in cache.
_BLOCK_BYTES = 1 << 16


def read_logit_csv(path: str) -> LogitDataset:
    """Load a logit dataset; labels must lie in [0, K) with K >= 2 columns.

    The header fixes K. Data lines are parsed a block at a time; a block that
    fails any check is parsed again line by line, which raises for its first
    bad line. The file is read once: an undecodable byte reads as a lone
    surrogate, which float() and int() reject, so its block goes to the line
    loop, and that names the line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        header = fh.readline()
        _check_utf8(header, 1)
        header = header.rstrip("\r\n")
        if not header:
            raise FileFormatError("empty file, expected a header row", line=1)
        columns = header.split(",")
        k = len(columns) - 1
        if k < 1 or columns != [f"logit_{i}" for i in range(k)] + ["label"]:
            raise FileFormatError("bad header, expected logit_0,...,logit_{K-1},label", line=1)
        if k < 2:
            raise FileFormatError("logit files need at least 2 classes", line=1)
        logit_parts = [np.empty((0, k))]
        label_parts = [np.empty(0, dtype=np.int64)]
        lineno = 2
        while block := fh.readlines(_BLOCK_BYTES):
            parsed = _parse_block(block, k)
            if parsed is None:
                parsed = _parse_lines(block, k, lineno)
            logit_parts.append(parsed[0])
            label_parts.append(parsed[1])
            lineno += len(block)
    # The blocks built both arrays for this dataset and checked every record.
    return LogitDataset._adopt(np.concatenate(logit_parts), np.concatenate(label_parts))


def _check_utf8(line: str, lineno: int) -> None:
    """Raise for a line that holds an undecodable byte, with strict decoding's reason.

    The line is decoded with its line ending, so a sequence cut short at the
    end of the line gets the reason a strict read of the whole file gives.
    """
    try:
        line.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not UTF-8: {exc.reason}", line=lineno) from None


def _parse_block(lines: list[str], k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The block's records from one split of its joined lines, or None if any check fails.

    Each token goes through the same float() or int() as in `_parse_lines`,
    so an accepted block gives the same arrays bit for bit.
    """
    rows = list(filter(None, map(str.rstrip, lines, repeat("\r\n"))))
    if not rows:
        return np.empty((0, k)), np.empty(0, dtype=np.int64)
    if not set(map(str.count, rows, repeat(","))) <= {k}:
        return None
    tokens = ",".join(rows).split(",")
    label_tokens = tokens[k :: k + 1]
    del tokens[k :: k + 1]
    try:
        logits = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens)).reshape(len(rows), k)
        labels = np.fromiter(map(int, label_tokens), dtype=np.int64, count=len(rows))
    except (ValueError, OverflowError):  # a bad token; a label beyond int64
        return None
    if not np.isfinite(logits).all() or labels.min() < 0 or labels.max() >= k:
        return None
    return logits, labels


def _parse_lines(lines: list[str], k: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse and check one line at a time, numbering from `first`; raise for the first bad line."""
    values = []
    labels = []
    for lineno, line in enumerate(lines, start=first):
        _check_utf8(line, lineno)
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != k + 1:
            raise FileFormatError(f"expected {k + 1} columns, found {len(parts)}", line=lineno)
        try:
            row = [float(p) for p in parts[:k]]
            label = int(parts[k])
        except ValueError as exc:
            raise FileFormatError(str(exc), line=lineno) from None
        if not all(math.isfinite(v) for v in row):
            raise FileFormatError("non-finite value", line=lineno)
        if label < 0:
            raise FileFormatError(f"negative label {label}", line=lineno)
        if label >= k:
            raise FileFormatError(f"label {label} out of range [0, {k})", line=lineno)
        values.append(row)
        labels.append(label)
    return np.array(values, dtype=np.float64).reshape(len(values), k), np.array(labels, dtype=np.int64)


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


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(int(value) if isinstance(value, bool) else value)


def write_table_csv(rows, header, path: str) -> None:
    """Write a result table: floats at 9 significant digits, None blank, booleans 0/1, the rest as str()."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def write_reliability_csv(rows, path: str) -> None:
    """Write `metrics.reliability_rows` output; empty bins leave their means blank."""
    write_table_csv(rows, ("bin_low", "bin_high", "count", "mean_confidence", "mean_accuracy"), path)


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
