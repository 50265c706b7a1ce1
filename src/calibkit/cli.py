"""Command-line front end.

Four subcommands: ``calibrate`` fits a method on a validation logit file and
evaluates it on a test file, ``reliability`` exports reliability-diagram rows,
``synth`` writes synthetic datasets (or a trial table), and ``sweep`` emits
long-format metric curves. Reports store fractions; ``--percent`` only changes
the printed summary. Exit codes: 0 ok, 2 file/format/spec errors (and counts
too large to allocate), 3 class count mismatch, 4 optimization failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields

import numpy as np

from . import calibrate as cal
from . import io as kio
from .core import Identity, predict
from .errors import (
    CalibkitError,
    ClassCountMismatchError,
    ConfigError,
    OptimizationError,
    check_array,
    check_int,
    check_real,
)
from .metrics import DEFAULT_NUM_BINS, MAX_BINS, BinningConfig, bin_stats, compute_report, reliability_rows
from .sweep import SWEEP_AXES, SweepRow, run_sweep
from .synthetic import (
    HeteroLogitSpec,
    NoisyBinarySpec,
    gen_hetero_logits,
    rare_atom_experiment,
    sample_dnoisy,
)


def _number(check, flag: str, **bounds):
    """An argparse type: the flag's text as a number, checked by `check` under the flag's name.

    float() also reads 'inf' and 'nan'; text that is not a number goes to
    `check` as it is, which rejects it.
    """
    parse = int if check is check_int else float

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = text
        return check(flag, value, **bounds)

    return convert


def _numbers(flag: str, **bounds):
    """An argparse type: a comma-separated list of numbers, checked by `check_array`."""

    def convert(text: str) -> np.ndarray:
        tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
        values = []
        for tok in tokens or [text]:  # an empty list fails on its whole text
            try:
                values.append(float(tok))
            except ValueError:
                raise ConfigError(f"{flag} expects a comma-separated list of numbers, got {tok!r}") from None
        return check_array(flag, values, **bounds)

    return convert


def _broadcast(values: np.ndarray, k: int, name: str) -> np.ndarray:
    if len(values) == 1:
        return np.full(k, values[0])
    if len(values) != k:
        raise ConfigError(f"{name} needs 1 or {k} comma-separated values, got {len(values)}")
    return np.asarray(values)


def _sidecar_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return (stem if ext else out) + ".json"


def _check_outputs(args, inputs: tuple[str, ...], outputs: tuple[str, ...]) -> None:
    """Raise ConfigError if an output flag names the file of an input flag or of another output.

    Flags are given by their argparse names; unset ones are skipped. Paths
    are compared after `os.path.realpath`. Commands call this before they
    read or write any file.
    """
    seen = {}
    for dest in [d for d in inputs + outputs if getattr(args, d) is not None]:
        path = getattr(args, dest)
        flag, real = "--" + dest.replace("_", "-"), os.path.realpath(path)
        if dest in outputs and real in seen:
            raise ConfigError(f"{flag} {path!r} is the same file as {seen[real]}; give {flag} another path")
        seen.setdefault(real, flag)


def _fmt(value: float, percent: bool) -> str:
    return f"{100 * value:.4f}%" if percent else f"{value:.6f}"


def _fit_config(args) -> cal.FitConfig:
    # FitConfig checks this rule too, under the field's name.
    check_real("--alpha-hi", args.alpha_hi, gt=args.alpha_lo)
    return cal.FitConfig(
        alpha_lo=args.alpha_lo,
        alpha_hi=args.alpha_hi,
        gamma=args.gamma,
        min_class_samples=args.min_class_samples,
    )


def _hetero_spec(args) -> HeteroLogitSpec:
    """The `--classes/--sizes/--scales/--noise/--margin/--seed` generator settings."""
    k = args.classes
    return HeteroLogitSpec(
        num_classes=k,
        class_sizes=_broadcast(args.sizes, k, "--sizes"),
        scales=_broadcast(args.scales, k, "--scales"),
        noise_rates=_broadcast(args.noise, k, "--noise"),
        margin=args.margin,
        seed=args.seed,
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


# Stored in the report as `<name>_before`/`<name>_after` pairs and printed in the summary, in this order.
_SUMMARY_METRICS = ("ece", "max_ece", "avg_ece", "nll")


def cmd_calibrate(args) -> int:
    _check_outputs(args, ("val", "test"), ("out_report", "out_model"))
    cfg = _fit_config(args)
    binning = BinningConfig(args.bins)
    val = kio.read_logit_csv(args.val)
    test = kio.read_logit_csv(args.test)
    if val.num_classes != test.num_classes:
        raise ClassCountMismatchError(
            f"validation has {val.num_classes} classes, test has {test.num_classes}"
        )

    model, warnings = Identity(), []
    if args.method != "none":
        fit = getattr(cal, f"fit_{args.method}")(val, cfg)
        model, warnings = fit.model, list(fit.warnings)
        if fit.fallback_classes:
            warnings.append(f"classes {fit.fallback_classes} fell back to the shared temperature")

    report_before = compute_report(test, Identity(), binning)
    report_after = report_before if args.method == "none" else compute_report(test, model, binning)
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
        **{f"{name}_{when}": getattr(report, name) for name in _SUMMARY_METRICS
           for when, report in (("before", report_before), ("after", report_after))},
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
        kio.write_json(doc["model"], args.out_model)

    p = args.percent
    print(f"method={args.method}  records={test.num_records}  classes={test.num_classes}")
    print(
        f"accuracy {_fmt(report_before.accuracy, p)} -> {_fmt(report_after.accuracy, p)}"
        f"  (changed {changed} predictions, delta {_fmt(delta, p)})"
    )
    for name in _SUMMARY_METRICS:
        unit = p and name != "nll"
        print(f"{name:8s} {_fmt(doc[f'{name}_before'], unit)} -> {_fmt(doc[f'{name}_after'], unit)}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


def cmd_reliability(args) -> int:
    _check_outputs(args, ("file", "model"), ("out",))
    binning = BinningConfig(args.bins)
    dataset = kio.read_logit_csv(args.file)
    model = Identity()
    if args.model:
        model, k = cal.model_from_dict(kio.read_json(args.model))
        if k != dataset.num_classes:
            raise ClassCountMismatchError(
                f"model has {k} classes, dataset has {dataset.num_classes}"
            )
    stats = bin_stats(predict(dataset, model), binning)
    kio.write_reliability_csv(reliability_rows(stats, binning), args.out)
    print(f"wrote {binning.num_bins} bins for {dataset.num_records} records to {args.out}")
    return 0


def cmd_synth(args) -> int:
    if _sidecar_path(args.out) == args.out:
        raise ConfigError(f"--out {args.out!r} is the path of its own JSON sidecar; give it another extension")
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
        columns = ("trial", "scenario", "rare_present", "balanced", "min_confidence", "accuracy")
        kio.write_table_csv([[getattr(r, c) for c in columns] for r in records], columns, args.out)
        sidecar.update(
            {"n": args.n, "epsilon": args.epsilon, "trials": args.trials, "files": [args.out]}
        )
    else:
        spec = _hetero_spec(args)
        splits = gen_hetero_logits(spec)
        stem, ext = os.path.splitext(args.out)
        files = []
        for name in ("train", "val", "test"):
            path = f"{stem}.{name}{ext or '.csv'}"
            kio.write_logit_csv(getattr(splits, name), path)
            files.append(path)
        sidecar.update(
            {
                "num_classes": spec.num_classes,
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
    # run_sweep checks this rule too, under the parameter's name.
    check_int("--test-records", args.test_records, ge=args.classes)
    rows = run_sweep(
        axis=args.axis,
        values=args.values,
        base=_hetero_spec(args),
        cfg=_fit_config(args),
        binning=BinningConfig(args.bins),
        trials=args.trials,
        test_records=args.test_records,
    )
    columns = [f.name for f in fields(SweepRow)]
    kio.write_table_csv([[getattr(r, c) for c in columns] for r in rows], columns, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _add_fit_flags(p: argparse.ArgumentParser) -> None:
    defaults = cal.FitConfig()
    p.add_argument("--gamma", type=_number(check_real, "--gamma", ge=0, le=math.inf), default=defaults.gamma,
                   help="CTS radius; 'inf' decouples classes (default %(default)s)")
    p.add_argument("--bins", type=_number(check_int, "--bins", ge=1, le=MAX_BINS), default=DEFAULT_NUM_BINS,
                   help="confidence bins (default %(default)s)")
    p.add_argument("--alpha-lo", type=_number(check_real, "--alpha-lo", gt=0), default=defaults.alpha_lo)
    p.add_argument("--alpha-hi", type=_number(check_real, "--alpha-hi", gt=0), default=defaults.alpha_hi)
    p.add_argument("--min-class-samples", type=_number(check_int, "--min-class-samples", ge=0),
                   default=defaults.min_class_samples)


def _add_hetero_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=_number(check_int, "--classes", ge=2), default=10)
    p.add_argument("--sizes", type=_numbers("--sizes", integer=True, ge=0), default="1000",
                   help="per-class records per split (1 or K values)")
    p.add_argument("--scales", type=_numbers("--scales", gt=0), default="1",
                   help="per-class logit scales (1 or K values)")
    p.add_argument("--noise", type=_numbers("--noise", ge=0, lt=1), default="0",
                   help="per-class label-noise rates (1 or K values)")
    p.add_argument("--margin", type=_number(check_real, "--margin", gt=0), default=2.0)


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
    p.add_argument("--bins", type=_number(check_int, "--bins", ge=1, le=MAX_BINS), default=DEFAULT_NUM_BINS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("synth", help="generate synthetic datasets or trial tables")
    p.add_argument("--kind", required=True, choices=["dnoisy", "theorem1", "hetero"])
    p.add_argument("--seed", type=_number(check_int, "--seed", ge=0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_number(check_int, "--n", ge=1), default=1000,
                   help="records (dnoisy) or small-sample size (theorem1)")
    for flag in ("--p-plus", "--p-minus", "--p-test"):
        p.add_argument(flag, type=_number(check_real, flag, ge=0, lt=0.5), default=0.0)
    p.add_argument("--dim", type=_number(check_int, "--dim", ge=1), default=2)
    p.add_argument("--epsilon", type=_number(check_real, "--epsilon", gt=0, lt=0.5), default=0.01)
    p.add_argument("--trials", type=_number(check_int, "--trials", ge=1), default=200)
    _add_hetero_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="generate-fit-evaluate curves for TS and CTS")
    p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p.add_argument("--values", type=_numbers("--values", le=math.inf), required=True,
                   help="comma-separated axis values ('inf' allowed)")
    p.add_argument("--seed", type=_number(check_int, "--seed", ge=0), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=_number(check_int, "--trials", ge=1), default=30,
                   help="trials per point (n_val axis)")
    p.add_argument("--test-records", type=_number(check_int, "--test-records", ge=1), default=50_000)
    _add_hetero_flags(p)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        # Inside the try: the numeric flag types raise ConfigError.
        args = build_parser().parse_args(argv)
        # Extreme logits can overflow in the fits' and reports' array arithmetic.
        # Each such result either fails a finiteness check, which ends in one
        # `error:` line, or gives a finite objective, so numpy's RuntimeWarning
        # would only be noise on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ClassCountMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OptimizationError as exc:
        print(f"error: optimization failed: {exc}", file=sys.stderr)
        return 4
    except (CalibkitError, OSError, MemoryError) as exc:  # MemoryError: a count too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
