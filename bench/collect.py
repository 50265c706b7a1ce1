"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --label set1 --seeds 1-10
    python3 bench/collect.py --label traced --seeds 1,1 --trace 1
    python3 bench/collect.py --compare bench/results/summary-set1.json bench/results/summary-set2.json

Each run is a separate `bench/run.py` process; runs go seed by seed, with
the workloads interleaved, so that a slow spell of the machine hits every
workload alike. For every metric the summary gives the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and their
distance as a share of the median. The summary is written to
`bench/results/summary-<label>.json` and printed as a Markdown table; the
README's reference tables are regenerated this way. `--compare` prints,
per workload and metric, how far the second summary's median lies from
the first's, as a share of the first's, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text and "," not in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["traced_pass_s"] = detail["metrics"].get("traced_pass_s")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def collect(args) -> dict:
    workloads = args.workloads.split(",")
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            r = run_one(w, seed, args.seconds, args.trace)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items() if args.trace == 0),
                  file=sys.stderr, flush=True)
    summary = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for w, rs in runs.items():
        names = rs[0]["metrics"].keys()
        summary["workloads"][w] = {
            "correct": all(r["correct"] for r in rs),
            "attempted": [r["attempted"] for r in rs],
            "failed": [r["failed"] for r in rs],
            "metrics": {n: summarise([r["metrics"][n]["value"] for r in rs]) for n in names},
        }
        if args.trace:
            summary["workloads"][w]["traced_pass_s"] = summarise([r["traced_pass_s"] for r in rs])
    return summary


def table(summary: dict) -> str:
    lines = ["| workload | metric | median | q1 | q3 | (q3-q1)/median |", "|---|---|---|---|---|---|"]
    for w, s in summary["workloads"].items():
        for n, m in s["metrics"].items():
            lines.append(f"| {w} | {n} | {m['median']:.4g} | {m['q1']:.4g} | {m['q3']:.4g} | {m['spread']:.3f} |")
    return "\n".join(lines)


def compare(first: dict, second: dict) -> str:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    lines = ["| workload | metric | median 1 | median 2 | change | bound |", "|---|---|---|---|---|---|"]
    for w, s in first["workloads"].items():
        for n, m in s["metrics"].items():
            m2 = second["workloads"][w]["metrics"][n]
            change = (m2["median"] - m["median"]) / m["median"]
            lines.append(f"| {w} | {n} | {m['median']:.4g} | {m2['median']:.4g} | {change:+.3f} | {bounds.get(n, '')} |")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="set")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma-separated list")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="SUMMARY")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        print(compare(first, second))
        return 0
    summary = collect(args)
    (BENCH / "results").mkdir(exist_ok=True)
    (BENCH / "results" / f"summary-{args.label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(table(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
