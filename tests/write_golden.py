"""Rewrite the golden outputs under tests/golden/.

    python tests/write_golden.py

`tests/test_cli.py::TestGoldenSweeps` and `TestGoldenCli` regenerate each
file with the same arguments and compare bytes. Rewrite them only for a
change that alters seeded outputs on purpose, and name each file and the
reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_CLI = GOLDEN / "cli"

# One small K=4 sweep per axis. The base has no empty class and uneven
# scales and noise; the gamma values are unsorted and include 0 and inf.
_BASE = ["--seed", "5", "--classes", "4", "--sizes", "30", "--scales", "2,1.5,0.7,0.4",
         "--noise", "0,0.1,0,0.2", "--margin", "2"]
SWEEPS = {
    "noise": ["--values", "0.3,0,0.1"],
    "size": ["--values", "0.2,1,0.5"],
    "gamma": ["--values", "inf,0.3,0,0.05"],
    "n_val": ["--values", "40,8", "--trials", "2", "--test-records", "200"],
}

# A `synth --kind hetero` triple and sidecar from the sweeps' base, a
# `calibrate` report and model file per method (CTS at gamma 0, 0.5 and
# inf), a reliability table under the gamma = inf CTS model, a noisy
# two-atom sample, and a Theorem 1 trial table whose trial 5 (seed 415)
# draws a small sample with one label. Reports echo their --val and --test
# paths, so the commands run in the output directory with relative paths.
_FITS = {"none": [], "ts": [], "vs": [], "cts_0": ["--gamma", "0"], "cts_0.5": ["--gamma", "0.5"],
         "cts_inf": ["--gamma", "inf"]}
COMMANDS = [
    ["synth", "--kind", "hetero", *_BASE, "--out", "hetero.csv"],
    *(["calibrate", "--val", "hetero.val.csv", "--test", "hetero.test.csv", "--method", name.split("_")[0],
       *flags, "--out-report", f"report_{name}.json", "--out-model", f"model_{name}.json"]
      for name, flags in _FITS.items()),
    ["reliability", "--file", "hetero.test.csv", "--model", "model_cts_inf.json", "--out", "reliability.csv"],
    ["synth", "--kind", "dnoisy", "--seed", "5", "--n", "40", "--p-plus", "0.3", "--p-minus", "0.1", "--p-test", "0.2",
     "--out", "dnoisy.csv"],
    ["synth", "--kind", "theorem1", "--seed", "410", "--n", "10", "--trials", "6", "--out", "theorem1.csv"],
]


def _run(argv: list[str]) -> None:
    from calibkit.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"calibkit {' '.join(argv)} exited {code}")


def write_sweep(axis: str, out) -> None:
    """Run `calibkit sweep` for `axis`'s golden arguments, writing the CSV to `out`."""
    _run(["sweep", "--axis", axis, *SWEEPS[axis], *_BASE, "--out", str(out)])


def write_cli(directory) -> None:
    """Run the golden `synth`, `calibrate` and `reliability` commands in `directory`."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in COMMANDS:
            _run(argv)
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    GOLDEN_CLI.mkdir(parents=True, exist_ok=True)
    for axis in SWEEPS:
        write_sweep(axis, GOLDEN / f"sweep_{axis}.csv")
        print(f"wrote {GOLDEN / f'sweep_{axis}.csv'}")
    write_cli(GOLDEN_CLI)
    print(f"wrote {', '.join(sorted(p.name for p in GOLDEN_CLI.iterdir()))} in {GOLDEN_CLI}")
