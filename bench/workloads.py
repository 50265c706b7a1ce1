"""The benchmark's workloads: how each builds its inputs, its jobs, and its checks.

A workload's `setup` builds the inputs (timed, repeated); `jobs` lists the
operations of one pass in a fixed order; `observe` turns one pass's outputs
into plain data; `verify` runs the checks of `checks.py` on that data. The
calibkit functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

import checks
from calibkit import calibrate, cli, metrics, synthetic, sweep


def _model_doc(model) -> dict:
    """A fitted temperature model as the plain dict `checks` understands."""
    if isinstance(model, calibrate.Temperature):
        return {"method": "ts", "alpha": model.alpha}
    return {"method": "cts", "alpha0": model.alpha0, "alphas": model.alphas.tolist(),
            "gamma": "inf" if math.isinf(model.gamma) else model.gamma}


class FitK100:
    """Library fits on K=100 heterogeneous logits generated in memory.

    Each of `draws` seeded draws has `per_class` records per class and split,
    except the last four classes with 2, so that some predicted-class
    slices fall below `min_class_samples`. Classes 0-49 are over-confident
    (logit scale 1.5-2.5), classes 50-99 under-confident (0.4-0.8), and every
    fourth class has 10 % label noise. Finite gamma is left out: its
    projected gradient descent stops short of the optimum by a margin that
    depends on the draw, so no fixed tolerance holds on every seed.
    """

    name = "fit-k100"
    K = 100
    METHODS = (
        ("ts", "fit_ts", math.inf),
        ("cts-g0", "fit_cts", 0.0),
        ("cts-ginf", "fit_cts", math.inf),
    )

    def __init__(self, seed: int, draws: int = 3, per_class: int = 20, setup_reps: int = 5):
        self.seed, self.draws, self.per_class, self.setup_reps = seed, draws, per_class, setup_reps

    def setup(self):
        k, half = self.K, self.K // 2
        sizes = np.full(k, self.per_class)
        sizes[-4:] = 2
        scales = np.concatenate([np.linspace(1.5, 2.5, half), np.linspace(0.4, 0.8, k - half)])
        noise = np.where(np.arange(k) % 4 == 0, 0.1, 0.0)
        return [
            synthetic.gen_hetero_logits(
                synthetic.HeteroLogitSpec(k, sizes, scales, noise, margin=9.0, seed=self.seed * 16 + d)
            )
            for d in range(self.draws)
        ]

    def jobs(self, inputs):
        def job(splits, fit_name, gamma):
            cfg = calibrate.FitConfig(gamma=gamma)

            def run():
                fit = getattr(calibrate, fit_name)(splits.val, cfg)
                return fit, metrics.compute_report(splits.test, fit.model)

            return run

        return [
            (f"d{d}/{label}", job(splits, fit_name, gamma))
            for d, splits in enumerate(inputs)
            for label, fit_name, gamma in self.METHODS
        ]

    def observe(self, inputs, outputs) -> dict:
        out = {}
        for name, (fit, report) in outputs.items():
            out[name] = {
                "model": _model_doc(fit.model),
                "fallbacks": list(fit.fallback_classes),
                "val_nll": fit.val_nll,
                "report": {key: getattr(report, key) for key in ("accuracy", "ece", "max_ece", "avg_ece", "nll")},
            }
        return out

    def verify(self, inputs, observed) -> list[str]:
        failures = []
        for d, splits in enumerate(inputs):
            val, test = splits.val, splits.test
            got = {label: observed.get(f"d{d}/{label}") for label, _, _ in self.METHODS}
            for label, o in got.items():
                if o is None:
                    continue
                tag = f"d{d}/{label}"
                failures += checks.compare_report(f"{tag} test report", o["report"],
                                                  test.logits, test.labels, o["model"])
                ok, want = checks.nll_matches(o["val_nll"], val.logits, val.labels, o["model"])
                if not ok:
                    failures.append(f"{tag}: val_nll {o['val_nll']!r} != recomputed {want!r}")
            if got["ts"] is None:
                continue
            alpha_ts = got["ts"]["model"]["alpha"]
            failures += checks.check_scalar_optimum(f"d{d} TS", val.logits, val.labels, alpha_ts)
            if got["cts-g0"]:
                m = got["cts-g0"]["model"]
                failures += checks.check_cts_gamma0(f"d{d}", alpha_ts, m["alpha0"], m["alphas"])
            if got["cts-ginf"]:
                o = got["cts-ginf"]
                failures += checks.check_cts_inf(f"d{d}", val.logits, val.labels, alpha_ts,
                                                 o["model"]["alpha0"], o["model"]["alphas"], o["fallbacks"])
        return failures


class CliK10:
    """`calibkit.cli.main` in-process on K=10 CSV files written by `synth --kind hetero`.

    Per split, `per_class` records for each of 10 classes; five classes
    over-confident and five under-confident, four with 10 % label noise.
    """

    name = "cli-k10"
    METHODS = ("none", "ts", "cts", "vs")
    SCALES = "2.0,1.6,1.3,2.5,1.8,0.5,0.7,0.6,0.8,0.4"
    NOISE = "0.1,0,0,0.1,0,0,0.1,0,0,0.1"

    def __init__(self, seed: int, workdir: str, per_class: int = 2000, setup_reps: int = 2):
        self.seed, self.workdir, self.per_class = seed, workdir, per_class
        self.setup_reps = setup_reps

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _main(self, argv: list[str]) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"calibkit {argv[0]} exited {code}: {sink.getvalue()[-500:]}")

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        self._main(["synth", "--kind", "hetero", "--seed", str(self.seed), "--out", self._path("data.csv"),
                    "--classes", "10", "--sizes", str(self.per_class), "--scales", self.SCALES,
                    "--noise", self.NOISE, "--margin", "2"])
        return {"val": self._path("data.val.csv"), "test": self._path("data.test.csv")}

    def jobs(self, inputs):
        def calibrate_job(method):
            return lambda: self._main([
                "calibrate", "--val", inputs["val"], "--test", inputs["test"], "--method", method,
                "--out-report", self._path(f"report_{method}.json"),
                "--out-model", self._path(f"model_{method}.json"),
            ])

        reliability = lambda: self._main([  # noqa: E731
            "reliability", "--file", inputs["test"], "--model", self._path("model_cts.json"),
            "--out", self._path("reliability.csv"),
        ])
        return [(f"calibrate-{m}", calibrate_job(m)) for m in self.METHODS] + [("reliability", reliability)]

    def observe(self, inputs, outputs) -> dict:
        def load(name):
            with open(self._path(name), encoding="utf-8") as fh:
                return json.load(fh)

        out = {"reports": {}, "models": {}}
        for m in self.METHODS:
            if f"calibrate-{m}" in outputs:
                out["reports"][m] = load(f"report_{m}.json")
                out["models"][m] = load(f"model_{m}.json")
        if "reliability" in outputs:
            with open(self._path("reliability.csv"), encoding="utf-8") as fh:
                lines = fh.read().splitlines()[1:]
            out["reliability"] = [
                [int(f) if i == 2 else (float(f) if f else None) for i, f in enumerate(line.split(","))]
                for line in lines
            ]
        return out

    def verify(self, inputs, observed) -> list[str]:
        def load(path):
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            return data[:, :-1], data[:, -1].astype(np.int64)

        (zv, yv), (zt, yt) = load(inputs["val"]), load(inputs["test"])
        models, reports = observed["models"], observed["reports"]
        failures = []
        for m, report in reports.items():
            failures += checks.check_calibrate_report(f"calibrate {m}", zt, yt, models[m], report)
        if "ts" in models:
            alpha_ts = models["ts"]["alpha"]
            failures += checks.check_scalar_optimum("calibrate TS", zv, yv, alpha_ts)
            if "cts" in models:
                cts = models["cts"]
                failures += checks.check_cts_inf("calibrate", zv, yv, alpha_ts, cts["alpha0"], cts["alphas"], None)
            if "vs" in models:
                nll_vs, nll_ts = checks.mean_nll(zv, yv, models["vs"]), checks.mean_nll(zv, yv, models["ts"])
                if not nll_vs <= nll_ts + 1e-12:
                    failures.append(f"calibrate vs: validation NLL {nll_vs!r} > TS validation NLL {nll_ts!r}")
        if "reliability" in observed and "cts" in models:
            failures += checks.check_reliability("reliability", zt, yt, models["cts"], observed["reliability"])
        return failures


class PaperSweeps:
    """The paper's sweeps and Theorem 1, with CALIBKIT_THREADS unset.

    n_val axis: K=10, validation sizes that are multiples of K (the sweep
    truncates other sizes to a multiple), `trials` trials, `test_records`
    test records. noise axis: K=10, 1000 records per class, label noise on
    the first five classes. Theorem 1: n=100, epsilon=0.01. Set-up builds
    the two specs and the noise sweep's base splits, whose test split the
    accuracy check at noise 0 uses.
    """

    name = "paper-sweeps"
    NVAL = (100, 200, 500, 1000, 2000)
    NOISE = (0.0, 0.1, 0.2, 0.3)
    THEOREM = {"n": 100, "epsilon": 0.01}

    def __init__(self, seed: int, trials: int = 4, test_records: int = 20_000, per_class: int = 1000,
                 theorem_trials: int = 10, setup_reps: int = 15):
        self.seed, self.trials, self.test_records = seed, trials, test_records
        self.per_class, self.theorem_trials, self.setup_reps = per_class, theorem_trials, setup_reps

    def setup(self):
        k = 10
        first_half = np.arange(k) < k // 2
        noise = synthetic.HeteroLogitSpec(k, np.full(k, self.per_class), np.where(first_half, 0.6, 1.8),
                                          np.zeros(k), 2.0, self.seed + 1)
        return {
            "n_val": synthetic.HeteroLogitSpec(k, np.full(k, self.per_class), np.where(first_half, 1.8, 0.6),
                                               np.where(np.arange(k) % 2 == 0, 0.05, 0.0), 2.0, self.seed),
            "noise": noise,
            # The noise sweep's point 0 draws from this spec unchanged (its
            # noise rates are already 0), so its test split is this one.
            "noise_splits": synthetic.gen_hetero_logits(noise),
        }

    def jobs(self, inputs):
        return [
            ("sweep-n_val", lambda: sweep.run_sweep("n_val", self.NVAL, inputs["n_val"], trials=self.trials,
                                                    test_records=self.test_records)),
            ("sweep-noise", lambda: sweep.run_sweep("noise", self.NOISE, inputs["noise"])),
            ("theorem1", lambda: synthetic.rare_atom_experiment(
                self.THEOREM["n"], self.THEOREM["epsilon"], self.theorem_trials, self.seed * 1000)),
        ]

    def observe(self, inputs, outputs) -> dict:
        out = {}
        for name in ("sweep-n_val", "sweep-noise"):
            if name in outputs:
                out[name] = [dataclasses.asdict(r) for r in outputs[name]]
        if "theorem1" in outputs:
            out["theorem1"] = [
                {"trial": r.trial, "scenario": r.scenario, "min_confidence": r.min_confidence,
                 "accuracy": r.accuracy, "weight": r.weight.tolist(), "intercept": r.intercept}
                for r in outputs["theorem1"]
            ]
        return out

    def verify(self, inputs, observed) -> list[str]:
        failures = []
        if "sweep-n_val" in observed:
            failures += checks.check_sweep_rows("n_val", observed["sweep-n_val"], self.NVAL)
        if "sweep-noise" in observed:
            failures += checks.check_sweep_rows("noise", observed["sweep-noise"], self.NOISE)
            test = inputs["noise_splits"].test
            failures += checks.check_sweep_accuracy("noise", observed["sweep-noise"], 0.0, test.logits, test.labels)
        if "theorem1" in observed:
            failures += checks.check_theorem1("theorem1", self.THEOREM["n"], self.THEOREM["epsilon"],
                                              self.theorem_trials, observed["theorem1"])
        return failures


WORKLOADS = {w.name: w for w in (FitK100, CliK10, PaperSweeps)}
