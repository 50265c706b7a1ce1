"""Self-test of the benchmark's output checks on tiny inputs.

    python3 bench/selftest.py

Runs one pass of each workload on tiny inputs and requires every check to
pass on calibkit's real outputs. Then it perturbs one checked quantity at a
time (a temperature by 1e-3, a report ECE by 1e-6, and so on) and requires
the matching check to fail. Prints one line per case; exits 1 if any case
does not behave. Takes about 15 seconds.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import import_calibkit  # noqa: E402

import_calibkit()
from workloads import CliK10, FitK100, PaperSweeps  # noqa: E402

import checks  # noqa: E402


def one_pass(workload):
    inputs = workload.setup()
    outputs = {name: fn() for name, fn in workload.jobs(inputs)}
    return inputs, workload.observe(inputs, outputs)


def interior_class(logits, model, lo, hi):
    """The largest predicted-class slice whose temperature is off its bounds."""
    counts = np.bincount(np.argmax(logits, axis=1), minlength=len(model["alphas"]))
    for k in np.argsort(-counts):
        if counts[k] >= checks.MIN_CLASS_SAMPLES and lo + 0.1 < model["alphas"][k] < hi - 0.1:
            return int(k)
    raise AssertionError("no interior class to perturb")


def fit_cases(inputs, obs):
    val = inputs[0].val
    k_inf = interior_class(val.logits, obs["d0/cts-ginf"]["model"], checks.ALPHA_LO, checks.ALPHA_HI)

    def add(path, delta):
        def apply(o):
            node = o
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] += delta
        return apply

    cases = [
        ("TS alpha + 1e-3", add(["d0/ts", "model", "alpha"], 1e-3), "TS: not stationary"),
        ("gamma=0 alpha_0 + 1e-3", add(["d0/cts-g0", "model", "alphas", 0], 1e-3), "gamma=0: classes"),
        ("gamma=0 alpha0 + 1e-3", add(["d0/cts-g0", "model", "alpha0"], 1e-3), "gamma=0: alpha0"),
        (f"gamma=inf alpha_{k_inf} + 1e-3", add(["d0/cts-ginf", "model", "alphas", k_inf], 1e-3),
         f"gamma=inf class {k_inf}: not stationary"),
        ("gamma=inf extra fallback", lambda o: o["d0/cts-ginf"]["fallbacks"].append(k_inf), "fallback classes"),
        ("fit val_nll + 1e-6", add(["d0/ts", "val_nll"], 1e-6), "val_nll"),
    ]
    for key in ("accuracy", "ece", "max_ece", "avg_ece", "nll"):
        cases.append((f"report {key} + 1e-6", add(["d0/cts-ginf", "report", key], 1e-6), f"test report: {key}"))
    return cases


def cli_cases(inputs, obs):
    def report(method, key, value):
        def apply(o):
            o["reports"][method][key] = value(o["reports"][method][key])
        return apply

    def worse_vs(o):
        k = o["models"]["vs"]["num_classes"]
        o["models"]["vs"]["a"] = [o["models"]["ts"]["alpha"]] * k
        o["models"]["vs"]["b"] = [1.0] + [0.0] * (k - 1)

    def rel(i, col, delta):
        def apply(o):
            o["reliability"][i][col] += delta
        return apply

    busy = max(range(len(obs["reliability"])), key=lambda i: obs["reliability"][i][2])
    cases = [
        ("ts alpha + 1e-3", lambda o: o["models"]["ts"].__setitem__("alpha", o["models"]["ts"]["alpha"] + 1e-3),
         "TS: not stationary"),
        ("ts changed_records = 1", report("ts", "changed_records", lambda v: 1), "changed_records"),
        ("vs changed_records + 1", report("vs", "changed_records", lambda v: v + 1), "changed_records"),
        ("vs worse than ts on validation", worse_vs, "TS validation NLL"),
        (f"reliability bin {busy} mean_confidence + 1e-6", rel(busy, 3, 1e-6), "mean_confidence"),
        (f"reliability bin {busy} count + 1", rel(busy, 2, 1), "count"),
    ]
    for key in ("accuracy_after", "ece_after", "max_ece_after", "avg_ece_after", "nll_after", "ece_before"):
        name, suffix = key.rsplit("_", 1)
        cases.append((f"cts report {key} + 1e-6", report("cts", key, lambda v: v + 1e-6), f"{suffix}: {name}"))
    return cases


def sweep_cases(inputs, obs):
    def row(axis, i, key, value):
        def apply(o):
            o[axis][i][key] = value(o[axis][i])
        return apply

    def record(i, key, value):
        def apply(o):
            o["theorem1"][i][key] = value(o["theorem1"][i])
        return apply

    _, _, _, radius = checks.rare_atoms(PaperSweeps.THEOREM["n"], PaperSweeps.THEOREM["epsilon"])
    return [
        ("n_val row accuracy + 1e-9", row("sweep-n_val", 0, "accuracy", lambda r: r["accuracy"] + 1e-9),
         "TS accuracy"),
        ("noise row avg_ece > max_ece", row("sweep-noise", 1, "avg_ece", lambda r: r["max_ece"] + 1e-6),
         "ECE bounds"),
        ("noise rows missing a point", lambda o: o.__setitem__("sweep-noise", o["sweep-noise"][2:]), "axis values"),
        ("noise 0 accuracy + 1e-6", row("sweep-noise", 0, "accuracy", lambda r: r["accuracy"] + 1e-6),
         "noise 0.0 cts: accuracy"),
        ("theorem1 ||w|| beyond radius",
         record(0, "weight", lambda r: (np.asarray(r["weight"]) * 1.01 * radius / np.linalg.norm(r["weight"])).tolist()),
         "radius"),
        ("theorem1 accuracy - 1e-6", record(1, "accuracy", lambda r: r["accuracy"] - 1e-6), "accuracy"),
        ("theorem1 confidence - 1e-9", record(2, "min_confidence", lambda r: r["min_confidence"] - 1e-9),
         "confidence"),
    ]


def main() -> int:
    workdir = BENCH / "work" / "selftest"
    bad = 0
    try:
        for workload, make_cases in (
            (FitK100(seed=1, draws=1, per_class=15, setup_reps=1), fit_cases),
            (CliK10(seed=1, workdir=str(workdir), per_class=100, setup_reps=1), cli_cases),
            (PaperSweeps(seed=1, trials=1, test_records=2000, per_class=100, theorem_trials=3, setup_reps=1),
             sweep_cases),
        ):
            inputs, obs = one_pass(workload)
            failures = workload.verify(inputs, obs)
            status = "ok" if not failures else "FAIL"
            bad += bool(failures)
            print(f"{status}  {workload.name}: real outputs pass every check", *failures[:5], sep="\n    ")
            for label, perturb, expected in make_cases(inputs, obs):
                changed = copy.deepcopy(obs)
                perturb(changed)
                found = [f for f in workload.verify(inputs, changed) if expected in f]
                bad += not found
                print(f"{'ok' if found else 'FAIL'}  {workload.name}: {label} -> "
                      f"{found[0] if found else 'no failure mentioning ' + repr(expected)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    print(f"{'all cases behave' if not bad else f'{bad} case(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
