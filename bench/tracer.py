"""Spans around calls into calibkit's layers, recorded from outside the package.

`Tracer.install` replaces each public function at the module attribute its
callers look it up by (for example `calibkit.calibrate.temperature_nll`,
which `_scalar_fit` reads from its own module globals) with a wrapper that
records a span: name, start, end, parent span and the phase it ran in, plus
a few sizes taken from the arguments or the result. Spans stay in memory;
`write` saves them when the run ends. `layer_metrics` turns them into the
per-layer numbers the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import threading
import time
from collections import defaultdict

# (module, attribute, span name). One function may be looked up under
# several modules; each lookup site gets its own wrapper, and a call passes
# through exactly one of them.
TARGETS = [
    ("optim", "temperature_nll", "calibkit.calibrate"),
    ("optim", "minimize_scalar", "calibkit.calibrate"),
    ("optim", "projected_gd", "calibkit.calibrate", "calibkit.synthetic"),
    ("optim", "vector_nll", "calibkit.calibrate"),
    ("optim", "nll_grad_vector", "calibkit.calibrate"),
    ("core", "predict", "calibkit.calibrate", "calibkit.metrics", "calibkit.cli"),
    ("core", "softmax", "calibkit.core", "calibkit.optim", "calibkit.calibrate", "calibkit.metrics"),
    ("calibrate", "fit_ts", "calibkit.calibrate", "calibkit.sweep"),
    ("calibrate", "fit_cts", "calibkit.calibrate", "calibkit.sweep"),
    ("calibrate", "fit_vs", "calibkit.calibrate"),
    ("metrics", "compute_report", "calibkit.metrics", "calibkit.sweep", "calibkit.cli"),
    ("metrics", "nll", "calibkit.metrics", "calibkit.calibrate", "calibkit.sweep"),
    ("metrics", "bin_stats", "calibkit.cli"),
    ("metrics", "reliability_rows", "calibkit.cli"),
    ("io", "read_logit_csv", "calibkit.io"),
    ("io", "write_logit_csv", "calibkit.io"),
    ("io", "write_reliability_csv", "calibkit.io"),
    ("io", "read_json", "calibkit.io"),
    ("io", "write_json", "calibkit.io"),
    ("synthetic", "gen_hetero_logits", "calibkit.synthetic", "calibkit.sweep", "calibkit.cli"),
    ("synthetic", "fit_constrained_logistic", "calibkit.synthetic"),
    ("synthetic", "rare_atom_experiment", "calibkit.synthetic", "calibkit.cli"),
    ("sweep", "run_sweep", "calibkit.sweep", "calibkit.cli"),
    ("cli", "main", "calibkit.cli"),
]

FITS = ("calibrate.fit_ts", "calibrate.fit_cts", "calibrate.fit_vs")
NAME, START, END, PARENT, PHASE, INFO = range(6)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _nll_logits(args, kwargs, result):
    dataset, indices = args[0], _arg(args, kwargs, 2, "indices")
    rows = dataset.num_records if indices is None else len(indices)
    return rows * dataset.num_classes


def _gd_info(args, kwargs, result):
    problem = _arg(args, kwargs, 0, "problem")
    return (result.iterations, int(result.iterations >= problem.max_iters))


def _file_bytes(pos, name):
    return lambda args, kwargs, result: os.path.getsize(_arg(args, kwargs, pos, name))


def _records(args, kwargs, result):
    return result.train.num_records + result.val.num_records + result.test.num_records


INFO_OF = {
    "optim.temperature_nll": _nll_logits,
    "optim.projected_gd": _gd_info,
    "io.read_logit_csv": _file_bytes(0, "path"),
    "io.write_logit_csv": _file_bytes(1, "path"),
    "io.write_reliability_csv": _file_bytes(1, "path"),
    "synthetic.gen_hetero_logits": _records,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        info_of = INFO_OF.get(name)
        counted = name == "optim.minimize_scalar"

        def traced(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            evals = [0]
            if counted:
                problem = _arg(args, kwargs, 0, "problem")
                objective = problem.objective

                def counting(x):
                    evals[0] += 1
                    return objective(x)

                args, kwargs = (dataclasses.replace(problem, objective=counting),), {}
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if counted:
                rec[INFO] = evals[0]
            elif info_of is not None:
                rec[INFO] = info_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for layer, attr, *modules in TARGETS:
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase", "info"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, setups: int, passes: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one pass.

        Counts and seconds are summed per phase and divided by the number
        of set-ups or passes in it; ratios use the totals of the whole run.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]

        def in_sweep(i: int) -> bool:
            while i >= 0:
                if spans[i][NAME] == "sweep.run_sweep":
                    return True
                i = spans[i][PARENT]
            return False

        sums: dict[str, dict[str, float]] = {"setup": defaultdict(float), "pass": defaultdict(float)}
        for i, s in enumerate(spans):
            acc = sums[s[PHASE]]
            name, dur, info = s[NAME], s[END] - s[START], s[INFO]
            acc[name + ".calls"] += 1
            acc[name + ".s"] += dur
            acc[name + ".self_s"] += dur - child_time[i]
            if name == "optim.projected_gd":
                acc["gd_iters"] += info[0]
                acc["gd_cap_hits"] += info[1]
            elif info is not None:
                acc[name + ".info"] += info
            if name in FITS and in_sweep(s[PARENT]):
                acc["sweep_fits"] += 1

        def total(key: str) -> float:
            return sums["setup"][key] / setups + sums["pass"][key] / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def run_total(key: str) -> float:
            return sums["setup"][key] + sums["pass"][key]

        def over(keys, suffix):
            return sum(total(f"{k}.{suffix}") for k in keys)

        mb = 1e-6
        logits = run_total("optim.temperature_nll.info")
        read_keys = ["io.read_logit_csv"]
        write_keys = ["io.write_logit_csv", "io.write_reliability_csv"]
        m = {
            "optim.nll_calls": total("optim.temperature_nll.calls"),
            "optim.nll_s": total("optim.temperature_nll.s"),
            "optim.nll_ns_per_logit": ratio(run_total("optim.temperature_nll.s") * 1e9, logits),
            "optim.nll_mb_computed": total("optim.temperature_nll.info") * 8 * mb,
            "optim.scalar_solves": total("optim.minimize_scalar.calls"),
            "optim.evals_per_solve": ratio(run_total("optim.minimize_scalar.info"),
                                           run_total("optim.minimize_scalar.calls")),
            "optim.scalar_s": total("optim.minimize_scalar.s"),
            "optim.gd_runs": total("optim.projected_gd.calls"),
            "optim.gd_iters": total("gd_iters"),
            "optim.gd_cap_hits": total("gd_cap_hits"),
            "optim.gd_s": total("optim.projected_gd.s"),
            "optim.vector_evals": over(["optim.vector_nll", "optim.nll_grad_vector"], "calls"),
            "calibrate.fits": over(FITS, "calls"),
            "calibrate.fit_s": over(FITS, "s"),
            "calibrate.self_s": over(FITS, "self_s"),
            "core.predict_calls": total("core.predict.calls"),
            "core.predict_s": total("core.predict.s"),
            "core.softmax_calls": total("core.softmax.calls"),
            "metrics.report_calls": total("metrics.compute_report.calls"),
            "metrics.report_s": total("metrics.compute_report.s"),
            "metrics.nll_calls": total("metrics.nll.calls"),
            "metrics.nll_s": total("metrics.nll.s"),
            "io.read_s": over(read_keys, "s"),
            "io.read_mb": over(read_keys, "info") * mb,
            "io.read_mb_per_s": ratio(sum(run_total(f"{k}.info") for k in read_keys) * mb,
                                      sum(run_total(f"{k}.s") for k in read_keys)),
            "io.json_s": over(["io.read_json", "io.write_json"], "s"),
            "io.write_s": over(write_keys, "s"),
            "io.write_mb": over(write_keys, "info") * mb,
            "io.write_mb_per_s": ratio(sum(run_total(f"{k}.info") for k in write_keys) * mb,
                                       sum(run_total(f"{k}.s") for k in write_keys)),
            "synthetic.gen_s": total("synthetic.gen_hetero_logits.s"),
            "synthetic.gen_records": total("synthetic.gen_hetero_logits.info"),
            "synthetic.logistic_fits": total("synthetic.fit_constrained_logistic.calls"),
            "synthetic.logistic_s": total("synthetic.fit_constrained_logistic.s"),
            "sweep.fits": total("sweep_fits"),
            "sweep.self_s": total("sweep.run_sweep.self_s"),
            "cli.commands": total("cli.main.calls"),
            "cli.self_s": total("cli.main.self_s"),
        }
        return m
