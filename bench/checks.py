"""Output checks that do not use calibkit.

Every reference value here is recomputed from the raw inputs with this
file's own log-sum-exp, softmax, binning and Theorem-1 code, or is a
property the method must have (stationarity, KKT conditions, bounds). Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

NUM_BINS = 15
MIN_CLASS_SAMPLES = 10
ALPHA_LO, ALPHA_HI = 0.01, 100.0

# A metric a report prints must match the recomputed one to this absolute
# tolerance; a perturbation of 1e-6 must not pass.
METRIC_TOL = 1e-9
# |g / h| is the Newton step from the returned temperature to the
# stationary point. The scalar search stops at a 1e-6 bracket.
SCALAR_STEP_TOL = 1e-5
# A slice whose NLL has underflowed to 0 is flat: any temperature on it is
# optimal, and g and h are rounding noise.
FLAT_GRAD = 1e-12
# calibkit.metrics.nll floors log-probabilities here; a report may give the
# NLL with or without that floor.
LOG_PROB_FLOOR = -700.0
# Reliability CSV floats carry 9 significant digits.
CSV_REL_TOL = 1e-8
# Two optima of the same convex objective, each found to a 1e-6 bracket.
ALPHA_TOL = 2e-6


def log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def scaled_logits(logits: np.ndarray, model: dict) -> np.ndarray:
    """Logits after a model given as {"method": ..., parameters}."""
    method = model["method"]
    if method == "none":
        return logits
    if method == "ts":
        return model["alpha"] * logits
    if method == "cts":
        alphas = np.asarray(model["alphas"], dtype=np.float64)
        return alphas[np.argmax(logits, axis=1)][:, None] * logits
    if method == "vs":
        return np.asarray(model["a"]) * logits + np.asarray(model["b"])
    raise ValueError(f"unknown method {method!r}")


def mean_nll(logits: np.ndarray, labels: np.ndarray, model: dict, floor: float = -math.inf) -> float:
    logp = log_softmax(scaled_logits(logits, model))[np.arange(labels.shape[0]), labels]
    return float(-np.mean(np.maximum(logp, floor)))


def nll_matches(got, logits, labels, model) -> tuple[bool, float]:
    """Whether `got` is the mean NLL, exact or with the log-probability floor."""
    want = [mean_nll(logits, labels, model), mean_nll(logits, labels, model, LOG_PROB_FLOOR)]
    return any(_close(got, w, METRIC_TOL * max(1.0, abs(w))) for w in want), want[0]


def _ece(conf: np.ndarray, correct: np.ndarray, num_bins: int) -> float:
    idx = np.clip(np.ceil(conf * num_bins).astype(np.int64), 1, num_bins) - 1
    total = 0.0
    for b in np.unique(idx):
        sel = idx == b
        total += sel.sum() * abs(correct[sel].mean() - conf[sel].mean())
    return total / conf.shape[0]


def predictions(logits: np.ndarray, labels: np.ndarray, model: dict):
    """(predicted, confidence, correct) under a model."""
    probs = softmax(scaled_logits(logits, model))
    pred = np.argmax(probs, axis=1)
    conf = probs[np.arange(pred.shape[0]), pred]
    return pred, conf, (pred == labels).astype(np.float64)


def report_metrics(logits: np.ndarray, labels: np.ndarray, model: dict, num_bins: int = NUM_BINS) -> dict:
    """Accuracy, ECE, max-ECE and Avg-ECE of a model on a dataset."""
    pred, conf, correct = predictions(logits, labels, model)
    class_eces = [
        _ece(conf[pred == k], correct[pred == k], num_bins) for k in np.unique(pred)
    ]
    return {
        "accuracy": float(correct.mean()),
        "ece": float(_ece(conf, correct, num_bins)),
        "max_ece": float(max(class_eces)),
        "avg_ece": float(np.mean(class_eces)),
    }


def reliability_reference(logits, labels, model, num_bins: int = NUM_BINS) -> list[tuple]:
    """(low, high, count, mean_conf, mean_acc) per bin; means are None on empty bins."""
    _, conf, correct = predictions(logits, labels, model)
    idx = np.clip(np.ceil(conf * num_bins).astype(np.int64), 1, num_bins) - 1
    rows = []
    for b in range(num_bins):
        sel = idx == b
        n = int(sel.sum())
        means = (float(conf[sel].mean()), float(correct[sel].mean())) if n else (None, None)
        rows.append((b / num_bins, (b + 1) / num_bins, n) + means)
    return rows


def _close(a, b, tol: float) -> bool:
    return a is not None and b is not None and math.isfinite(a) and abs(a - b) <= tol


def compare_report(tag: str, got: dict, logits, labels, model: dict) -> list[str]:
    """Accuracy, ECE, max-ECE, Avg-ECE and NLL of a report against recomputed values."""
    out = []
    for key, want in report_metrics(logits, labels, model).items():
        if not _close(got.get(key), want, METRIC_TOL):
            out.append(f"{tag}: {key} {got.get(key)!r} != recomputed {want!r}")
    ok, want = nll_matches(got.get("nll"), logits, labels, model)
    if not ok:
        out.append(f"{tag}: nll {got.get('nll')!r} != recomputed {want!r}")
    return out


def temperature_derivs(logits: np.ndarray, labels: np.ndarray, alpha: float) -> tuple[float, float]:
    """(d/dalpha, d2/dalpha2) of the mean NLL of softmax(alpha * logits)."""
    p = softmax(alpha * logits)
    ez = (p * logits).sum(axis=1)
    g = ez - logits[np.arange(labels.shape[0]), labels]
    h = (p * logits * logits).sum(axis=1) - ez * ez
    return float(g.mean()), float(h.mean())


def _kkt(tag: str, g: float, h: float, alpha: float, lo: float, hi: float,
         step_tol: float, bound_tol: float) -> list[str]:
    """First-order optimality of a convex 1-D problem on [lo, hi].

    Within `bound_tol` of a bound the gradient may point outwards;
    elsewhere the Newton step g / h must be below `step_tol`.
    """
    at_lo = alpha - lo <= bound_tol
    at_hi = hi - alpha <= bound_tol
    if alpha < lo - 1e-12 or alpha > hi + 1e-12:
        return [f"{tag}: temperature {alpha!r} outside [{lo!r}, {hi!r}]"]
    if at_lo and g >= -step_tol * h:
        return []
    if at_hi and g <= step_tol * h:
        return []
    if abs(g) <= step_tol * h or abs(g) <= FLAT_GRAD:
        return []
    return [f"{tag}: not stationary at alpha={alpha!r} (gradient {g:.3e}, Newton step {g / h if h else math.inf:.3e})"]


def check_scalar_optimum(tag: str, logits, labels, alpha: float) -> list[str]:
    """A temperature fitted on a slice minimises that slice's NLL on [alpha_lo, alpha_hi]."""
    g, h = temperature_derivs(logits, labels, alpha)
    return _kkt(tag, g, h, alpha, ALPHA_LO, ALPHA_HI, SCALAR_STEP_TOL, bound_tol=10 * SCALAR_STEP_TOL)


def _shared(tag, alpha_ts, alpha0) -> list[str]:
    if abs(alpha0 - alpha_ts) <= ALPHA_TOL:
        return []
    return [f"{tag}: alpha0 {alpha0!r} != alpha_TS {alpha_ts!r}"]


def check_cts_gamma0(tag, alpha_ts, alpha0, alphas) -> list[str]:
    out = _shared(f"{tag} gamma=0", alpha_ts, alpha0)
    bad = [k for k, a in enumerate(alphas) if abs(a - alpha_ts) > ALPHA_TOL]
    if bad:
        out.append(f"{tag} gamma=0: classes {bad[:5]} differ from alpha_TS {alpha_ts!r}")
    return out


def check_cts_inf(tag, logits, labels, alpha_ts, alpha0, alphas, fallbacks) -> list[str]:
    """gamma=inf: per-class optima, with fallbacks exactly on the small slices."""
    out = _shared(f"{tag} gamma=inf", alpha_ts, alpha0)
    pred = np.argmax(logits, axis=1)
    counts = np.bincount(pred, minlength=len(alphas))
    small = [k for k in range(len(alphas)) if counts[k] < MIN_CLASS_SAMPLES]
    if fallbacks is not None and sorted(fallbacks) != small:
        out.append(f"{tag} gamma=inf: fallback classes {sorted(fallbacks)} != slices below "
                   f"{MIN_CLASS_SAMPLES} records {small}")
    for k, a in enumerate(alphas):
        if k in small:
            if abs(a - alpha0) > ALPHA_TOL:
                out.append(f"{tag} gamma=inf: fallback class {k} has alpha {a!r} != alpha0 {alpha0!r}")
            continue
        sel = pred == k
        out += check_scalar_optimum(f"{tag} gamma=inf class {k}", logits[sel], labels[sel], a)
    return out


def check_calibrate_report(tag, logits, labels, model: dict, report: dict) -> list[str]:
    """A `calibkit calibrate` report against metrics recomputed on the test file."""
    out = []
    if report.get("model") != model:
        out.append(f"{tag}: report model differs from the model file")
    for suffix, m in (("before", {"method": "none"}), ("after", model)):
        got = {key: report.get(f"{key}_{suffix}") for key in ("accuracy", "ece", "max_ece", "avg_ece", "nll")}
        out += compare_report(f"{tag} {suffix}", got, logits, labels, m)
    raw = np.argmax(logits, axis=1)
    changed = int(np.sum(raw != predictions(logits, labels, model)[0]))
    if model["method"] != "vs" and report.get("changed_records") != 0:
        out.append(f"{tag}: changed_records {report.get('changed_records')!r} for a temperature method")
    if report.get("changed_records") != changed:
        out.append(f"{tag}: changed_records {report.get('changed_records')!r} != recomputed {changed}")
    return out


def check_reliability(tag, logits, labels, model: dict, rows: list[tuple]) -> list[str]:
    ref = reliability_reference(logits, labels, model)
    if len(rows) != len(ref):
        return [f"{tag}: {len(rows)} bins, expected {len(ref)}"]
    out = []
    for i, (got, want) in enumerate(zip(rows, ref)):
        for name, g, w in zip(("bin_low", "bin_high", "count", "mean_confidence", "mean_accuracy"), got, want):
            ok = g == w if (w is None or name == "count") else _close(g, w, CSV_REL_TOL * max(1.0, abs(w)))
            if not ok:
                out.append(f"{tag}: bin {i} {name} {g!r} != recomputed {w!r}")
    return out


def check_sweep_rows(tag, rows: list[dict], values) -> list[str]:
    """TS and CTS share accuracy at each point; 0 <= Avg-ECE <= max-ECE <= 1."""
    out = []
    points: dict[float, dict[str, dict]] = {}
    for r in rows:
        points.setdefault(r["axis_value"], {})[r["method"]] = r
        if not (0.0 <= r["ece"] <= 1.0 and 0.0 <= r["avg_ece"] <= r["max_ece"] <= 1.0):
            out.append(f"{tag} {r['axis_value']} {r['method']}: ECE bounds violated "
                       f"(ece {r['ece']!r}, avg {r['avg_ece']!r}, max {r['max_ece']!r})")
        if not (math.isfinite(r["nll"]) and r["nll"] > 0):
            out.append(f"{tag} {r['axis_value']} {r['method']}: NLL {r['nll']!r}")
    if sorted(points) != sorted(float(v) for v in values):
        out.append(f"{tag}: axis values {sorted(points)} != requested {sorted(values)}")
    for v, methods in sorted(points.items()):
        if sorted(methods) != ["cts", "ts"]:
            out.append(f"{tag} {v}: methods {sorted(methods)}")
        elif methods["ts"]["accuracy"] != methods["cts"]["accuracy"]:
            out.append(f"{tag} {v}: TS accuracy {methods['ts']['accuracy']!r} != "
                       f"CTS accuracy {methods['cts']['accuracy']!r}")
    return out


def check_sweep_accuracy(tag, rows: list[dict], value: float, logits, labels) -> list[str]:
    """Rows at `value` report the argmax accuracy of the raw test logits."""
    want = float(np.mean(np.argmax(logits, axis=1) == labels))
    return [f"{tag} {value} {r['method']}: accuracy {r['accuracy']!r} != recomputed {want!r}"
            for r in rows if r["axis_value"] == value and not _close(r["accuracy"], want, METRIC_TOL)]


def rare_atoms(n: int, epsilon: float):
    """Atoms v, (u+v)/sqrt(2), -v with labels 1, 0, 0, their masses, and the norm budget."""
    u, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    atoms = np.vstack([v, (u + v) / math.sqrt(2.0), -v])
    rare = 1.0 / (20 * n)
    masses = np.array([0.5, rare, 0.5 - rare])
    return atoms, np.array([1, 0, 0]), masses, 6.0 * math.log(50 * n + 1.0 / epsilon)


def check_theorem1(tag, n: int, epsilon: float, trials: int, records: list[dict]) -> list[str]:
    """Confidence and accuracy recomputed from each returned classifier; ||w|| <= radius."""
    atoms, labels, masses, radius = rare_atoms(n, epsilon)
    out = []
    expected = [(t, s) for t in range(trials) for s in ("s1", "s2")]
    if [(r["trial"], r["scenario"]) for r in records] != expected:
        out.append(f"{tag}: records do not cover trials 0..{trials - 1} x (s1, s2)")
    for r in records:
        w = np.asarray(r["weight"], dtype=np.float64)
        z = atoms @ w + r["intercept"]
        f = 1.0 / (1.0 + np.exp(-z))
        conf = float(np.maximum(f, 1.0 - f).min())
        acc = 1.0 - float(masses[(z >= 0).astype(int) != labels].sum())
        where = f"{tag} trial {r['trial']} {r['scenario']}"
        if np.linalg.norm(w) > radius * (1 + 1e-9):
            out.append(f"{where}: ||w|| {float(np.linalg.norm(w))!r} > radius {radius!r}")
        if not _close(r["min_confidence"], conf, 1e-12):
            out.append(f"{where}: confidence {r['min_confidence']!r} != recomputed {conf!r}")
        if not _close(r["accuracy"], acc, 1e-12):
            out.append(f"{where}: accuracy {r['accuracy']!r} != recomputed {acc!r}")
    return out
