"""Rewrite pins.json: the SHA-256 of every config's JSON report at the
default workload seed. Run after a change that is meant to alter reports:

    python3 perfbench/pin.py
"""

import json

from run import PINS, report_digest
from workloads import DEFAULT_SEED, WORKLOADS

import sqdc.harness


def main() -> None:
    pins = {}
    for name, workload in WORKLOADS.items():
        pins[name] = {}
        for case in workload.cases(DEFAULT_SEED):
            try:
                stats = sqdc.harness.run_experiment(case.config)
            except ValueError:
                if not case.known_defect:
                    raise
                continue  # a known defect has no report to pin
            pins[name][case.label] = report_digest(stats)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
