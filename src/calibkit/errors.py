"""Exception types shared across the package, and the checkers that raise them.

Every count, rate, seed, label and model parameter that enters calibkit is
checked by one of three functions, which name the field (or CLI flag) and
the value in the error they raise:

* `check_int`: an int or numpy integer, never a bool;
* `check_real`: a real number (int, float, Fraction or numpy number; never a
  bool or a string);
* `check_array`: a numeric array of a given dimension and length, of
  integers (integer dtypes, or whole-valued floats) or of real numbers; bool,
  complex, string and object arrays are rejected.

Bounds are keywords: `gt`/`ge` for the lower end and `lt`/`le` for the upper
one. Without them a value must be finite; NaN is never inside, and +inf only
when `le=math.inf` admits it.
"""

import math
import numbers

import numpy as np


class CalibkitError(Exception):
    """Base class for all calibkit errors."""


class InvalidInputError(CalibkitError):
    """Raised on non-finite or otherwise malformed numeric input."""


class ConfigError(CalibkitError):
    """Raised on invalid configuration: bad bounds, dimension mismatch, M = 0."""


class ClassCountMismatchError(ConfigError):
    """Raised when two datasets or a dataset and a model disagree on the number of classes."""


class EmptyDatasetError(CalibkitError):
    """Raised when an operation requires at least one record (or one non-empty class)."""


class InvalidModelError(CalibkitError):
    """Raised on calibration models violating their invariants (e.g. nonpositive temperature)."""


class OptimizationError(CalibkitError):
    """Raised when an optimizer encounters non-finite objective values or diverges."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class DegenerateNoiseError(CalibkitError):
    """Raised for noise levels where the closed-form classifier has infinite logits."""


class FileFormatError(CalibkitError):
    """Raised on unparseable or invalid data files; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def _span(gt=-math.inf, ge=None, lt=math.inf, le=None) -> str:
    lo = f"({gt}" if ge is None else f"[{ge}"
    hi = f"{lt})" if le is None else f"{le}]"
    return f"{lo}, {hi}"


def _within(x, gt=-math.inf, ge=None, lt=math.inf, le=None):
    """Whether the number x lies inside the bounds; NaN never does."""
    return (x > gt if ge is None else x >= ge) & (x < lt if le is None else x <= le)


def _show(value) -> str:
    return repr(value.item() if isinstance(value, np.generic) else value)


def check_int(name: str, value, error=ConfigError, **bounds) -> int:
    """`value` as an int, if it is an int or numpy integer (not a bool) inside `bounds`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not _within(value, **bounds):
        raise error(f"{name} must be an integer in {_span(**bounds)}, got {_show(value)}")
    return int(value)


def check_real(name: str, value, error=ConfigError, **bounds) -> float:
    """`value` as a float, if it is a real number (not a bool) inside `bounds`."""
    try:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        x = float(value) if ok else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if not _within(x, **bounds):
        raise error(f"{name} must be a real number in {_span(**bounds)}, got {_show(value)}")
    return x


def check_array(
    name: str, values, integer: bool = False, ndim: int = 1, length: int | None = None,
    error=ConfigError, **bounds,
) -> np.ndarray:
    """A fresh read-only int64 (`integer`) or float64 array of `values`, checked.

    It must have `ndim` dimensions, `length` entries along the first if
    given, and every entry inside `bounds`; with `integer`, float entries
    must be whole and below 2**63 in magnitude. The checks are made before
    the one cast, which would otherwise truncate fractions and wrap large
    values.
    """
    what = f"{'integers' if integer else 'real numbers'} in {_span(**bounds)}"
    # numpy would read [True, 1] as integers; as objects, the bool is found below.
    mixed = isinstance(values, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in values)
    try:
        raw = np.asarray(values, dtype=object if mixed else None)
    except ValueError:  # a ragged sequence
        raw = np.asarray(values, dtype=object)
    if raw.dtype.kind not in "iuf":
        bad = next((v for v in raw.flat if np.asarray(v).dtype.kind not in "iuf"), raw.dtype)
        raise error(f"{name} must be {what}, got {_show(bad)}")
    if raw.ndim != ndim or (length is not None and raw.shape[0] != length):
        size = "" if length is None else f" of length {length}"
        raise error(f"{name} must be a {ndim}-D array{size}, got shape {raw.shape}")
    if raw.size:  # NaN makes both ends NaN, so the ends decide the bounds
        cast_unsafe = integer and raw.dtype.kind != "i"  # floats and uint64 may not fit int64
        ends = (raw.min(), raw.max())
        bad = [v for v in ends if not _within(v, **bounds) or (cast_unsafe and abs(v) >= 2**63)]
        if not bad and cast_unsafe:
            bad = raw[np.floor(raw) != raw]
        if len(bad):
            raise error(f"{name} must be {what}, got {_show(bad[0])}")
    arr = raw.astype(np.int64 if integer else np.float64)
    arr.flags.writeable = False
    return arr
