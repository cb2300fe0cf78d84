"""Run the benchmark several times per workload, each with another seed, and
report each metric's median and interquartile spread as a share of the median.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 1]
        [--first-seed 1] [--out perfbench/BENCH_0.json]

Spreads are compared with a third of the bounds in BENCHMARK.json, the margin
the benchmark is tuned to. Runs are made one at a time, as the benchmark
itself is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    env, diagnostics, result = map(json.loads, proc.stdout.strip().splitlines()[-3:])
    return {"env": env["env"], "spread": diagnostics["spread"], "result": result}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = [
            run_once(workload, args.first_seed + i, bench["run_seconds"], args.trace)
            for i in range(args.runs)
        ]
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            share, bound = metrics[name]["iqr_share"], bounds.get(name)
            flag = ""
            if bound is not None and share is not None and share > bound / 3:
                flag = f"  above a third of bound {bound}"
                if name != "setup_s":  # set-up spread is reported, not gated
                    ok = False
            print(f"{workload:16s} {name:48s} median {metrics[name]['median']:.6g} "
                  f"iqr/median {share if share is None else round(share, 4)}{flag}")
        correct = all(r["result"]["correct"] for r in runs)
        ok = ok and correct
        summary["workloads"][workload] = {
            "correct": correct,
            "failed": [r["result"]["failed"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "env": [r["env"] for r in runs],
            "spread": [r["spread"] for r in runs],
            "metrics": metrics,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
