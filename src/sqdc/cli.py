"""Command-line front end for the Monte Carlo experiment runner.

Exit codes: 0 success, 2 configuration error, 3 I/O error. The environment
variable SQDC_OUTPUT_DIR supplies a default directory for relative --out
paths; everything else is configured via flags.
"""

from __future__ import annotations

import argparse
import os
import sys

from .adversary import ATTACKS
from .harness import (
    ConfigError,
    ExperimentConfig,
    analytic_detection,
    emit_report,
    run_experiment,
)
from .protocol import Variant

OUTPUT_DIR_ENV = "SQDC_OUTPUT_DIR"


def _parse_attack_params(pairs):
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"attack parameter must look like key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqdc",
        description="Semi-quantum direct communication protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo experiment")
    run.add_argument("--variant", choices=[v.value for v in Variant], required=True)
    run.add_argument("--attack", required=True, choices=tuple(ATTACKS))
    run.add_argument(
        "--attack-param",
        action="append",
        default=[],
        metavar="K=V",
        help="attack parameter, repeatable (see list-attacks)",
    )
    run.add_argument("--n", type=int, required=True, help="qubits per session")
    run.add_argument("--trials", type=int, required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--message", help="fixed message as hex; default random per trial")
    run.add_argument("--format", choices=["json", "csv"], default="json")
    run.add_argument("--out", help="output path; default stdout")

    analytic = sub.add_parser("analytic", help="print a closed-form detection probability")
    analytic.add_argument("--attack", required=True, choices=tuple(ATTACKS))
    analytic.add_argument("--n", type=int, required=True)
    analytic.add_argument(
        "--variant", choices=[v.value for v in Variant], default=Variant.RANDOMIZATION.value
    )
    analytic.add_argument("--attack-param", action="append", default=[], metavar="K=V")

    sub.add_parser("list-attacks", help="list attack names and their parameters")
    return parser


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            config = ExperimentConfig(
                variant=Variant(args.variant),
                attack=args.attack,
                attack_params=_parse_attack_params(args.attack_param),
                n=args.n,
                trials=args.trials,
                seed=args.seed,
                message=args.message,
            )
            text = emit_report(run_experiment(config), args.format)
            if args.out:
                try:
                    with open(_resolve_out(args.out), "w", encoding="utf-8") as fh:
                        fh.write(text)
                except OSError as exc:
                    print(f"error: cannot write report: {exc}", file=sys.stderr)
                    return 3
            else:
                sys.stdout.write(text)
        elif args.command == "analytic":
            prob, formula = analytic_detection(
                args.attack,
                Variant(args.variant),
                args.n,
                _parse_attack_params(args.attack_param),
            )
            if prob is None:
                print("no closed form for this attack/variant")
            else:
                print(f"{prob!r}  ({formula})")
        elif args.command == "list-attacks":
            for name, entry in ATTACKS.items():
                line = name
                if len(entry.variants) < len(Variant):
                    line += f"  ({' / '.join(v.value for v in entry.variants)} only)"
                for key, param in entry.params.items():
                    line += f"\n    {key}: {param.values()}\n      {param.help}"
                print(line)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
