"""Rewrite the golden sweep CSVs under tests/golden/.

    python tests/write_golden.py

`tests/test_cli.py::TestGoldenSweeps` regenerates each file with the same
arguments and compares bytes. Rewrite them only for a change that alters
seeded sweep outputs on purpose, and name each file and the reason in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

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


def write_sweep(axis: str, out) -> None:
    """Run `calibkit sweep` for `axis`'s golden arguments, writing the CSV to `out`."""
    from calibkit.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["sweep", "--axis", axis, *SWEEPS[axis], *_BASE, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"calibkit sweep --axis {axis} exited {code}")


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    GOLDEN.mkdir(exist_ok=True)
    for axis in SWEEPS:
        write_sweep(axis, GOLDEN / f"sweep_{axis}.csv")
        print(f"wrote {GOLDEN / f'sweep_{axis}.csv'}")
