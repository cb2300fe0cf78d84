"""Set-up cost of one workload in a fresh interpreter.

Times importing sqdc, building and validating the workload's configs, and one
warm-up trial per config, then prints the seconds taken and the rate of the
reference kernel (reference.py) measured right after. Run by run.py as
`python3 perfbench/setup_probe.py WORKLOAD SEED`.
"""

import time

T0 = time.perf_counter()

import dataclasses  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (imports sqdc)

import sqdc.harness  # noqa: E402


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    for case in WORKLOADS[name].cases(seed):
        case.config.validate()
        try:
            sqdc.harness.run_experiment(dataclasses.replace(case.config, trials=1))
        except ValueError:
            if not case.known_defect:
                raise
    seconds = time.perf_counter() - T0
    import reference  # after the timed part: it is the benchmark's, not sqdc's

    print(repr(seconds), repr(reference.rounds_per_s(5 * reference.ROUNDS)))


if __name__ == "__main__":
    main()
