"""Run one calibkit benchmark workload and print its metrics.

    python3 bench/run.py --workload fit-k100 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: calibkit is imported from `src/` next to
this directory, never from an installed copy. The run is made of
whole rounds, each of which builds the workload's inputs from `--seed`
`setup_reps` times (the median build time is `setup_s`) and then makes one
pass over the workload's jobs in a fixed order; rounds continue while the
next is expected to end within `--seconds`. The outputs of the first pass
are checked against computations independent of calibkit, and every later
pass must reproduce them exactly.

With `--trace 0` the last line of standard output is
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics; with `--trace 1` the metrics are the per-layer ones, from spans
recorded around the calls into each calibkit module. The line before it
records the environment. Full results (and, traced, the spans) are written
under `bench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_calibkit():
    """Import calibkit from this checkout's src/, or exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "calibkit" / "__init__.py").is_file():
        print(f"error: no calibkit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import calibkit

    if Path(calibkit.__file__).resolve().parent != src / "calibkit":
        print(f"error: imported calibkit from {calibkit.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return calibkit


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "CALIBKIT_THREADS": os.environ.get("CALIBKIT_THREADS", "unset"),
        "platform": platform.platform(),
    }


def fingerprint(observed) -> str:
    return hashlib.sha256(json.dumps(observed, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run rounds for about `seconds`, then check the outputs.

    A round builds the inputs `setup_reps` times and then runs one pass over
    the jobs, always on the inputs of the very first build. Spreading the
    builds over the run makes `setup_s` sample the same stretch of the
    machine's time as `pass_s`, instead of its first few seconds.
    """
    inputs = jobs = None
    setup_times, pass_times, round_times = [], [], []
    job_times: dict[str, list[float]] = {}
    attempted = failed = 0
    first = None
    failures = []
    cpu_start = os.times()
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        if tracer is not None:
            tracer.phase = "setup"
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            built = workload.setup()
            setup_times.append(time.perf_counter() - t0)
            if inputs is None:
                inputs = built
            del built
        if jobs is None:
            jobs = workload.jobs(inputs)
            job_times = {name: [] for name, _ in jobs}

        if tracer is not None:
            tracer.phase = "pass"
        outputs = {}
        t_pass = time.perf_counter()
        for name, fn in jobs:
            attempted += 1
            t0 = time.perf_counter()
            try:
                outputs[name] = fn()
            except Exception:
                failed += 1
                print(f"job {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            job_times[name].append(time.perf_counter() - t0)
        now = time.perf_counter()
        pass_times.append(now - t_pass)
        round_times.append(now - t_round)
        observed = workload.observe(inputs, outputs)
        if first is None:
            # Later rounds can raise the high-water mark a little (heap
            # fragmentation), and how many rounds fit depends on the
            # machine's speed, so the peak is read after the first round.
            rss = peak_rss_mb()
            first = observed
        elif fingerprint(observed) != fingerprint(first):
            failures.append(f"pass {len(pass_times)} outputs differ from pass 1")
        if time.perf_counter() - start + statistics.median(round_times) > seconds:
            break
    cpu = os.times()
    if tracer is not None:
        tracer.uninstall()
    failures = workload.verify(inputs, first) + failures

    per_job = [statistics.median(ts) for ts in job_times.values()]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_times": setup_times,
        "pass_times": pass_times,
        "job_times": job_times,
        "cpu_s": {"user": cpu.user - cpu_start.user, "system": cpu.system - cpu_start.system},
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(pass_times),
            "job_geomean_s": math.exp(statistics.fmean(math.log(t) for t in per_job)),
            "peak_rss_mb": rss,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Sweeps run with the program's default thread count.
    os.environ.pop("CALIBKIT_THREADS", None)
    import_calibkit()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, CliK10
    from tracer import Tracer

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, str(workdir)) if cls is CliK10 else cls(args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        result = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    metrics = result["metrics"]
    if tracer is not None:
        metrics = tracer.layer_metrics(len(result["setup_times"]), len(result["pass_times"]))
        metrics["traced_pass_s"] = result["metrics"]["pass_s"]
    env = environment()
    for message in result["failures"][:20]:
        print(f"check failed: {message}", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(str(RESULTS / f"{stem}.spans.json.gz"))
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "env": env, **result, "metrics": metrics}, indent=1) + "\n")

    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
