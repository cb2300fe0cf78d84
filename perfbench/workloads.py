"""Workload definitions: each workload is a fixed batch of experiment configs
generated from the workload seed.

The program only ever sees the generated configs; the seed picks each
config's base seed, and `run_experiment` derives every trial's keys, message
and attack choices from that base seed.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

# The benchmark measures the sources beside it, never an installed copy.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "sqdc" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no sqdc sources under {SRC}")
sys.path.insert(0, str(SRC))

import sqdc  # noqa: E402
from sqdc.harness import ExperimentConfig  # noqa: E402
from sqdc.protocol import Variant  # noqa: E402

if Path(sqdc.__file__).resolve().parent != SRC / "sqdc":
    raise SystemExit(f"perfbench: imported sqdc from {sqdc.__file__}, expected {SRC}")

DEFAULT_SEED = 0

RAND = Variant.RANDOMIZATION
MR = Variant.MEASURE_RESEND

# The attacks `ExperimentConfig.validate` accepts for both variants.
_BOTH_VARIANTS = (
    ("no_attack", {}),
    ("impersonate_alice", {}),
    ("impersonate_bob", {"mode": "idealized"}),
    ("impersonate_bob", {"mode": "concrete"}),
    ("intercept_resend", {}),
    ("modify_single", {"target": "random"}),
)

# Combinations that pass validate() but fail at run time. They stay in their
# workload so that a fix shows as a lower `failed_frac`; they are run outside
# the timed batch, because a run that raises on its first trial times nothing.
# measure-resend x impersonate_bob concrete: the bypassing attack returns n/2
# qubits, and step 4* deinterleaves them against the n-bit k1, raising
# "ValueError: sequence length must equal k1 length".
KNOWN_DEFECTS = frozenset({"measure-resend/impersonate_bob/mode=concrete"})


@dataclass(frozen=True)
class Case:
    label: str
    config: ExperimentConfig

    @property
    def known_defect(self) -> bool:
        return self.label in KNOWN_DEFECTS


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    trials: int  # trials per config in one batch
    combos: tuple  # (variant, attack, attack_params)
    why: str

    def cases(self, seed: int) -> list[Case]:
        out = []
        for variant, attack, params in self.combos:
            label = "/".join(
                [variant.value, attack] + [f"{k}={v}" for k, v in sorted(params.items())]
            )
            config = ExperimentConfig(
                variant=variant,
                attack=attack,
                n=self.n,
                trials=self.trials,
                seed=config_seed(self.name, seed, label),
                attack_params=dict(params),
            )
            out.append(Case(label, config))
        return out


def config_seed(workload: str, seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "honest-n256",
            n=256,
            trials=24,
            combos=((RAND, "no_attack", {}),),
            why="engine-bound: same-component bell_measure, measure_z and "
            "prepare_bell dominate; per-trial harness cost is under 1%",
        ),
        Workload(
            "attack-mix-n16",
            n=16,
            # Wilson 99% intervals at 24 or 32 trials miss 1-2^-8 or
            # 1-(5/8)^8 up to 9% of the time; at 200 every closed form here
            # is missed under 1% of the time.
            trials=200,
            combos=tuple((v, a, p) for v in (RAND, MR) for a, p in _BOTH_VARIANTS)
            + ((MR, "reflect_all", {}),),
            why="short sessions make fixed per-trial cost (seeds, keys, "
            "permutations, attack set-up, checksums) a large share; every "
            "hook and both Bob paths run",
        ),
        Workload(
            "swap-n64",
            n=64,
            trials=64,
            combos=((RAND, "impersonate_bob", {"mode": "concrete"}),),
            why="Bob is bypassed and almost every check is a cross-component "
            "bell_measure that merges two pairs into a 4-qubit component",
        ),
    )
}
