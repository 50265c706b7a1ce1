"""Command-line front end.

Four subcommands: ``calibrate`` fits a method on a validation logit file and
evaluates it on a test file, ``reliability`` exports reliability-diagram rows,
``synth`` writes synthetic datasets (or a trial table), and ``sweep`` emits
long-format metric curves. Reports store fractions; ``--percent`` only changes
the printed summary. Exit codes: 0 ok, 2 file/format/spec errors, 3 class
count mismatch, 4 optimization failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import calibrate as cal
from . import io as kio
from .core import Identity, predict
from .errors import (
    CalibkitError,
    ClassCountMismatchError,
    ConfigError,
    FileFormatError,
    OptimizationError,
)
from .metrics import BinningConfig, bin_stats, compute_report, reliability_rows
from .sweep import SWEEP_AXES, run_sweep
from .synthetic import (
    HeteroLogitSpec,
    NoisyBinarySpec,
    gen_hetero_logits,
    rare_atom_experiment,
    sample_dnoisy,
)


def _parse_gamma(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"gamma must be a number or 'inf', got {text!r}") from None


def _parse_values(text: str) -> list[float]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(float(tok))  # also reads "inf"
        except ValueError:
            raise ConfigError(f"expected a comma-separated list of numbers, got {tok!r}") from None
    if not out:
        raise ConfigError("empty value list")
    return out


def _broadcast(values: list[float], k: int, name: str) -> np.ndarray:
    if len(values) == 1:
        return np.full(k, values[0])
    if len(values) != k:
        raise ConfigError(f"{name} needs 1 or {k} comma-separated values, got {len(values)}")
    return np.asarray(values)


def _sidecar_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return (stem if ext else out) + ".json"


def _fmt(value: float, percent: bool) -> str:
    return f"{100 * value:.4f}%" if percent else f"{value:.6f}"


def _fit_config(args, gamma: float | None = None) -> cal.FitConfig:
    return cal.FitConfig(
        alpha_lo=args.alpha_lo,
        alpha_hi=args.alpha_hi,
        gamma=args.gamma if gamma is None else gamma,
        min_class_samples=args.min_class_samples,
    )


def _per_class_table(num_classes: int, before, after) -> list[dict]:
    before_by_class = {row.class_index: row for row in before.per_class}
    after_by_class = {row.class_index: row for row in after.per_class}
    table = []
    for k in range(num_classes):
        b = before_by_class.get(k)
        a = after_by_class.get(k)
        table.append(
            {
                "class": k,
                "count": a.count if a else 0,
                "ece_before": b.ece if b else None,
                "ece_after": a.ece if a else None,
                "mean_confidence": a.mean_confidence if a else None,
                "accuracy": a.accuracy if a else None,
            }
        )
    return table


def cmd_calibrate(args) -> int:
    val = kio.read_logit_csv(args.val)
    test = kio.read_logit_csv(args.test)
    if val.num_classes != test.num_classes:
        raise ClassCountMismatchError(
            f"validation has {val.num_classes} classes, test has {test.num_classes}"
        )
    cfg = _fit_config(args)
    binning = BinningConfig(args.bins)

    warnings: list[str] = []
    fallbacks: list[int] = []
    if args.method == "none":
        model = Identity()
    elif args.method == "ts":
        fit = cal.fit_ts(val, cfg)
    elif args.method == "cts":
        fit = cal.fit_cts(val, cfg)
    else:
        fit = cal.fit_vs(val, cfg)
    if args.method != "none":
        model = fit.model
        warnings = list(fit.warnings)
        fallbacks = list(fit.fallback_classes)
        if fallbacks:
            warnings.append(f"classes {fallbacks} fell back to the shared temperature")

    report_before = compute_report(test, Identity(), binning)
    report_after = compute_report(test, model, binning)
    warnings += report_after.warnings
    delta = report_after.accuracy - report_before.accuracy
    changed = int(np.sum(report_before.predicted != report_after.predicted))

    doc = {
        "method": args.method,
        "bins": args.bins,
        "num_classes": test.num_classes,
        "model": cal.model_to_dict(model, test.num_classes),
        "accuracy_before": report_before.accuracy,
        "accuracy_after": report_after.accuracy,
        "changed_records": changed,
        "ece_before": report_before.ece,
        "ece_after": report_after.ece,
        "max_ece_before": report_before.max_ece,
        "max_ece_after": report_after.max_ece,
        "avg_ece_before": report_before.avg_ece,
        "avg_ece_after": report_after.avg_ece,
        "nll_before": report_before.nll,
        "nll_after": report_after.nll,
        "per_class": _per_class_table(test.num_classes, report_before, report_after),
        "warnings": warnings,
        "config": {
            "val_file": args.val,
            "test_file": args.test,
            "method": args.method,
            "gamma": "inf" if math.isinf(args.gamma) else args.gamma,
            "bins": args.bins,
            "alpha_lo": args.alpha_lo,
            "alpha_hi": args.alpha_hi,
            "min_class_samples": args.min_class_samples,
            "percent": args.percent,
            "seed": None,
        },
    }
    kio.write_json(doc, args.out_report)
    if args.out_model:
        kio.write_json(cal.model_to_dict(model, test.num_classes), args.out_model)

    p = args.percent
    print(f"method={args.method}  records={test.num_records}  classes={test.num_classes}")
    print(
        f"accuracy {_fmt(report_before.accuracy, p)} -> {_fmt(report_after.accuracy, p)}"
        f"  (changed {changed} predictions, delta {_fmt(delta, p)})"
    )
    for name in ("ece", "max_ece", "avg_ece", "nll"):
        b = doc[f"{name}_before"]
        a = doc[f"{name}_after"]
        unit = p and name != "nll"
        print(f"{name:8s} {_fmt(b, unit)} -> {_fmt(a, unit)}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_reliability(args) -> int:
    dataset = kio.read_logit_csv(args.file)
    model = Identity()
    if args.model:
        model, k = cal.model_from_dict(kio.read_json(args.model))
        if k != dataset.num_classes:
            raise ClassCountMismatchError(
                f"model has {k} classes, dataset has {dataset.num_classes}"
            )
    binning = BinningConfig(args.bins)
    stats = bin_stats(predict(dataset, model), binning)
    kio.write_reliability_csv(reliability_rows(stats, binning), args.out)
    print(f"wrote {binning.num_bins} bins for {dataset.num_records} records to {args.out}")
    return 0


def cmd_synth(args) -> int:
    sidecar = {"kind": args.kind, "seed": args.seed}
    if args.kind == "dnoisy":
        direction = np.zeros(args.dim)
        direction[0] = 1.0
        spec = NoisyBinarySpec(
            p_plus=args.p_plus, p_minus=args.p_minus, p_test=args.p_test, direction=direction
        )
        data = sample_dnoisy(spec, args.n, args.seed)
        kio.write_binary_csv(data, args.out)
        sidecar.update(
            {
                "n": args.n,
                "p_plus": args.p_plus,
                "p_minus": args.p_minus,
                "p_test": args.p_test,
                "direction": spec.direction.tolist(),
                "files": [args.out],
            }
        )
    elif args.kind == "theorem1":
        records = rare_atom_experiment(args.n, args.epsilon, args.trials, args.seed)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("trial,scenario,rare_present,balanced,min_confidence,accuracy\n")
            for r in records:
                fh.write(
                    f"{r.trial},{r.scenario},{int(r.rare_present)},{int(r.balanced)},"
                    f"{r.min_confidence:.9g},{r.accuracy:.9g}\n"
                )
        sidecar.update(
            {"n": args.n, "epsilon": args.epsilon, "trials": args.trials, "files": [args.out]}
        )
    else:
        k = args.classes
        spec = HeteroLogitSpec(
            num_classes=k,
            class_sizes=_broadcast(_parse_values(args.sizes), k, "--sizes").astype(np.int64),
            scales=_broadcast(_parse_values(args.scales), k, "--scales"),
            noise_rates=_broadcast(_parse_values(args.noise), k, "--noise"),
            margin=args.margin,
            seed=args.seed,
        )
        splits = gen_hetero_logits(spec)
        stem, ext = os.path.splitext(args.out)
        files = []
        for name in ("train", "val", "test"):
            path = f"{stem}.{name}{ext or '.csv'}"
            kio.write_logit_csv(getattr(splits, name), path)
            files.append(path)
        sidecar.update(
            {
                "num_classes": k,
                "class_sizes": spec.class_sizes.tolist(),
                "scales": spec.scales.tolist(),
                "noise_rates": spec.noise_rates.tolist(),
                "margin": args.margin,
                "files": files,
            }
        )
    kio.write_json(sidecar, _sidecar_path(args.out))
    print(f"wrote {sidecar['files']} and {_sidecar_path(args.out)}")
    return 0


def cmd_sweep(args) -> int:
    k = args.classes
    base = HeteroLogitSpec(
        num_classes=k,
        class_sizes=_broadcast(_parse_values(args.sizes), k, "--sizes").astype(np.int64),
        scales=_broadcast(_parse_values(args.scales), k, "--scales"),
        noise_rates=_broadcast(_parse_values(args.noise), k, "--noise"),
        margin=args.margin,
        seed=args.seed,
    )
    rows = run_sweep(
        axis=args.axis,
        values=_parse_values(args.values),
        base=base,
        cfg=_fit_config(args),
        binning=BinningConfig(args.bins),
        trials=args.trials,
        test_records=args.test_records,
    )
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("axis_value,method,ece,max_ece,avg_ece,nll,accuracy\n")
        for r in rows:
            fh.write(
                f"{r.axis_value:.9g},{r.method},{r.ece:.9g},{r.max_ece:.9g},"
                f"{r.avg_ece:.9g},{r.nll:.9g},{r.accuracy:.9g}\n"
            )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=_parse_gamma, default=math.inf,
                   help="CTS radius; 'inf' decouples classes (default inf)")
    p.add_argument("--bins", type=int, default=15, help="confidence bins (default 15)")
    p.add_argument("--alpha-lo", type=float, default=0.01)
    p.add_argument("--alpha-hi", type=float, default=100.0)
    p.add_argument("--min-class-samples", type=int, default=10)


def _add_hetero_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--sizes", default="1000", help="per-class records per split (1 or K values)")
    p.add_argument("--scales", default="1", help="per-class logit scales (1 or K values)")
    p.add_argument("--noise", default="0", help="per-class label-noise rates (1 or K values)")
    p.add_argument("--margin", type=float, default=2.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calibkit", description="Post-hoc classifier calibration toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit on a validation file, evaluate on a test file")
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--method", required=True, choices=["none", "ts", "cts", "vs"])
    _add_fit_flags(p)
    p.add_argument("--out-report", required=True)
    p.add_argument("--out-model")
    p.add_argument("--percent", action="store_true", help="print Table-style percentages")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("reliability", help="export reliability-diagram rows to CSV")
    p.add_argument("--file", required=True)
    p.add_argument("--model", help="optional fitted-model JSON to apply first")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("synth", help="generate synthetic datasets or trial tables")
    p.add_argument("--kind", required=True, choices=["dnoisy", "theorem1", "hetero"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=1000, help="records (dnoisy) or small-sample size (theorem1)")
    p.add_argument("--p-plus", type=float, default=0.0)
    p.add_argument("--p-minus", type=float, default=0.0)
    p.add_argument("--p-test", type=float, default=0.0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=200)
    _add_hetero_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="generate-fit-evaluate curves for TS and CTS")
    p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p.add_argument("--values", required=True, help="comma-separated axis values ('inf' allowed)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=30, help="trials per point (n_val axis)")
    p.add_argument("--test-records", type=int, default=50_000)
    _add_hetero_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ClassCountMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OptimizationError as exc:
        print(f"error: optimization failed: {exc}", file=sys.stderr)
        return 4
    except (CalibkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
