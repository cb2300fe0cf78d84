"""sqdc benchmark: Monte Carlo trials per second on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see workloads.py) is a fixed batch of `ExperimentConfig`s
generated from --seed. The batch is run through the public
`sqdc.harness.run_experiment`, in this process and on one thread, again and
again for S seconds; figures are medians over those passes.

--trace 0 prints the end-to-end metrics: trials_per_s, setup_s (median of
several fresh interpreters, see setup_probe.py) and peak_rss_mb. Both times
are stated for a reference host: the fixed kernel in reference.py is timed
beside every pass and every set-up, and each figure is scaled by the ratio
of the kernel's reference rate to its rate at that moment, because the raw
speed of this kind of host drifts by half within minutes. The raw figures are
printed on the line before the result.
--trace 1 spends S/2 untraced and S/2 with every sqdc layer wrapped by
tracer.py, and prints the per-layer metrics. Per-layer times are raw;
trace.overhead_frac compares reference-scaled rates.

Correctness gate, applied on every run: the batch is also run at the default
seed, where every JSON report must match the SHA-256 pinned in pins.json
(refresh with pin.py) and every closed-form detection rate must lie in the
report's 99% Wilson interval. At the run's own seed, each pass must repeat
the first pass byte for byte, traced reports must equal untraced ones, and
closed forms of exactly 0 or 1 are checked; the others are checked only at
the pinned seed, where a miss is reproducible, since at a fresh seed a 99%
interval misses by chance once in a hundred. A trial in a report that fails
any check, or in a run that raises, counts as failed.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; earlier lines record the environment and the spread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, SRC, WORKLOADS, Case  # sets up the sqdc import path

import sqdc.cli
import sqdc.harness
import reference
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = SRC.parent
PINS = HERE / "pins.json"
SETUP_PROBES = 7
MIN_PASSES = 3


class Tally:
    """Trials attempted and failed, with one note per distinct failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, case: Case, why: str) -> None:
        self.failed += case.config.trials
        note = f"{case.label}: {why}"
        if note not in self.notes:
            self.notes.append(note)


def report_digest(stats) -> str:
    return hashlib.sha256(sqdc.harness.emit_report(stats, "json").encode()).hexdigest()


def closed_form_ok(stats, exact_only: bool) -> bool:
    p = stats.analytic
    if p is None or (exact_only and p not in (0.0, 1.0)):
        return True
    low, high = stats.wilson_99
    return low <= p <= high


def gate_failure(case: Case, pins: dict) -> str | None:
    """Why the case fails at the pinned seed, or None."""
    try:
        stats = sqdc.harness.run_experiment(case.config)
    except Exception as exc:  # a raising config is a counted failure
        return f"raised {exc!r}"
    if report_digest(stats) != pins.get(case.label):
        return "report differs from the pinned digest"
    if not closed_form_ok(stats, exact_only=False):
        return "closed form outside the Wilson 99% interval"
    return None


def run_gate(cases: list[Case], pins: dict, tally: Tally) -> float:
    """Run the batch at the default seed against the pins. Returns the share
    of trials that failed, known defects included; the tally leaves known
    defects out."""
    failed = attempted = 0
    for case in cases:
        why = gate_failure(case, pins)
        attempted += case.config.trials
        if why:
            failed += case.config.trials
        if not case.known_defect:
            tally.attempted += case.config.trials
            if why:
                tally.fail(case, why)
    return failed / attempted


def measure(cases: list[Case], seconds: float, tally: Tally, digests: dict, tracer=None):
    """Run passes over the batch for `seconds`, timing the reference kernel
    between passes. Returns (raw trials/s per pass, the same scaled to the
    reference host, stats of the last pass, trials completed)."""
    raw, scaled = [], []
    last = {}
    completed = 0
    kernel_before = reference.rounds_per_s()
    deadline = perf_counter() + seconds
    while len(raw) < MIN_PASSES or perf_counter() < deadline:
        trials = 0
        busy = 0.0
        for case in cases:
            tally.attempted += case.config.trials
            t0 = perf_counter()
            try:
                stats = sqdc.harness.run_experiment(case.config)
            except Exception as exc:  # a raising config is a counted failure
                tally.fail(case, f"raised {exc!r}")
                continue
            busy += perf_counter() - t0
            trials += stats.trials
            last[case.label] = stats
            digest = report_digest(stats)
            if digests.setdefault(case.label, digest) != digest:
                tally.fail(case, "report differs between passes or from the untraced run")
            elif not closed_form_ok(stats, exact_only=True):
                tally.fail(case, "exact closed form outside the Wilson 99% interval")
        if tracer is not None:
            tracer.end_batch()
        kernel_after = reference.rounds_per_s()
        completed += trials
        rate = trials / busy if busy else 0.0
        raw.append(rate)
        scaled.append(reference.to_reference_rate(rate, (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return raw, scaled, last, completed


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and reference-scaled set-up seconds of fresh interpreters."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, kernel_rate = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(reference.to_reference_seconds(seconds, kernel_rate))
    return raw, scaled


def emit_report_us(stats_list, rounds: int = 30) -> float:
    """Median time to render one report as JSON and as CSV."""
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        for stats in stats_list:
            sqdc.cli.emit_report(stats, "json")
            sqdc.cli.emit_report(stats, "csv")
        times.append((perf_counter() - t0) / len(stats_list))
    return statistics.median(times) * 1e6


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def spread(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    pins = json.loads(PINS.read_text())[workload.name]
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload.name,
        "n": workload.n,
        "seed": args.seed,
        "reference_rounds_per_s_start": reference.rounds_per_s(5 * reference.ROUNDS),
    }
    tally = Tally()
    failed_frac = run_gate(workload.cases(DEFAULT_SEED), pins, tally)
    timed = [c for c in workload.cases(args.seed) if not c.known_defect]
    digests: dict = {}

    if args.trace:
        raw, rates, last, _ = measure(timed, args.seconds / 2, tally, digests)
        tracer = Tracer()
        with tracer.installed():
            traced_raw, traced_rates, _, traced_trials = measure(
                timed, args.seconds / 2, tally, digests, tracer
            )
        metrics = tracer.metrics(traced_trials)
        metrics["cli.emit_report.us_per_report"] = (emit_report_us(list(last.values())), "us")
        metrics["trace.overhead_frac"] = (
            1.0 - statistics.median(traced_rates) / statistics.median(rates),
            "frac",
        )
        metrics["failed_frac"] = (failed_frac, "frac")
        diagnostics = {
            "untraced_raw_trials_per_s": spread(raw),
            "traced_raw_trials_per_s": spread(traced_raw),
        }
    else:
        raw, rates, _, _ = measure(timed, args.seconds, tally, digests)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw_setups, setups = setup_seconds(workload.name, args.seed)
        metrics = {
            "trials_per_s": (statistics.median(rates), "trials/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        diagnostics = {
            "raw_trials_per_s": spread(raw),
            "trials_per_s": spread(rates),
            "raw_setup_s": spread(raw_setups),
            "setup_s": spread(setups),
        }

    env["reference_rounds_per_s_end"] = reference.rounds_per_s(5 * reference.ROUNDS)
    print(json.dumps({"env": env}))
    print(json.dumps({"spread": diagnostics, "failures": tally.notes}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
