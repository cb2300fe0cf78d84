"""Monte Carlo experiment runner, analytic references, and report emission.

Each trial owns its own register, keys, message, and strategy instance, all
derived deterministically from (base seed, trial index), so any report can be
regenerated bit-for-bit from its embedded configuration.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from math import sqrt
from random import Random

from . import __version__
from .adversary import ATTACKS, Attack
from .codec import HASH_NAME, bits_to_hex, hex_to_bits, random_bits
from .keys import KeyMaterial, gen_keys
from .protocol import DetectionCause, Variant, run_session

WILSON_Z_99 = 2.5758293035489004


class ConfigError(ValueError):
    """Invalid experiment or session configuration."""


@dataclass
class ExperimentConfig:
    variant: Variant
    attack: str
    n: int
    trials: int
    seed: int
    attack_params: dict = field(default_factory=dict)
    message: str | None = None  # fixed message as hex; None = random per trial

    def validate(self) -> None:
        """Raise ConfigError, naming the field at fault, unless the
        configuration can run."""
        if type(self.variant) is not Variant:
            raise ConfigError(f"variant must be a Variant, got {self.variant!r}")
        if type(self.trials) is not int or self.trials < 1:
            raise ConfigError(f"trials must be an int of at least 1, got {self.trials!r}")
        if type(self.seed) is not int:
            raise ConfigError(f"seed must be an int, got {self.seed!r}")
        _attack_entry(self.attack, self.variant, self.n, self.attack_params)
        if self.message is not None:
            try:
                hex_to_bits(self.message, self.n // 8)
            except ValueError as exc:
                raise ConfigError(f"message: {exc}") from None


def _attack_entry(attack, variant: Variant, n: int, params) -> Attack:
    """Check n and the attack's variant and parameters against the catalogue;
    return the attack's entry."""
    if type(n) is not int or n % 8 != 0 or n < 16:
        raise ConfigError(f"n must be a multiple of 8 and at least 16, got {n!r}")
    if not isinstance(attack, str) or attack not in ATTACKS:
        raise ConfigError(f"unknown attack {attack!r}")
    entry = ATTACKS[attack]
    try:
        entry.check(variant, n, params)
    except ValueError as exc:
        raise ConfigError(f"attack {attack}: {exc}") from None
    return entry


@dataclass
class DetectionStats:
    trials: int
    cause_counts: dict
    bob_accept_rate: float
    alice_accept_rate: float
    security_event_rate: float
    detection_rate: float
    wilson_99: tuple[float, float]
    analytic: float | None
    analytic_formula: str | None
    config: ExperimentConfig


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z_99):
    """Wilson score interval for a binomial proportion; stays well-behaved
    for proportions at or near 0 and 1."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    # the boundary cases are exactly 0 and 1 analytically; avoid rounding junk
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def analytic_detection(attack: str, variant: Variant, n: int, params: dict | None = None):
    """Closed-form detection probability where one exists, else (None, None).

    Returns (probability, formula tag). Raises ConfigError on an invalid
    attack, variant, n or parameter.
    """
    params = {} if params is None else params
    return _attack_entry(attack, variant, n, params).analytic(variant, n, params)


def trial_seeds(base_seed: int, index: int) -> tuple[int, int]:
    """Distinct, reproducible (trial rng seed, register seed) per trial."""
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")


def run_trial(config: ExperimentConfig, index: int):
    rng_seed, register_seed = trial_seeds(config.seed, index)
    rng = Random(rng_seed)
    keys = gen_keys(config.n, rng, include_k2=config.variant is Variant.RANDOMIZATION)
    if config.message is not None:
        m = hex_to_bits(config.message, config.n // 8)
    else:
        m = random_bits(config.n // 8, rng)
    attack = ATTACKS[config.attack].build(config.attack_params, rng, keys.k1)
    return run_session(config.variant, m, keys, attack, register_seed)


def run_experiment(config: ExperimentConfig) -> DetectionStats:
    """Run the configured number of independent sessions and aggregate.

    Aggregation is pure counting, so trial order is irrelevant.
    """
    config.validate()
    counts = {cause.value: 0 for cause in DetectionCause}
    bob_accepts = alice_accepts = security_events = 0
    for i in range(config.trials):
        outcome = run_trial(config, i)
        counts[outcome.detection_cause.value] += 1
        if outcome.bob_accepts:
            bob_accepts += 1
        if outcome.alice_accepts:
            alice_accepts += 1
        if outcome.security_event:
            security_events += 1

    t = config.trials
    detections = t - counts[DetectionCause.NONE.value]
    analytic, formula = ATTACKS[config.attack].analytic(
        config.variant, config.n, config.attack_params
    )
    return DetectionStats(
        trials=t,
        cause_counts=counts,
        bob_accept_rate=bob_accepts / t,
        alice_accept_rate=alice_accepts / t,
        security_event_rate=security_events / t,
        detection_rate=detections / t,
        wilson_99=wilson_interval(detections, t),
        analytic=analytic,
        analytic_formula=formula,
        config=config,
    )


# -- reporting ---------------------------------------------------------------

CSV_COLUMNS = (
    "variant",
    "attack",
    "attack_params",
    "n",
    "trials",
    "seed",
    "message",
    "count_none",
    "count_hash_mismatch",
    "count_bell_check_failed",
    "count_reflect_flag",
    "bob_accept_rate",
    "alice_accept_rate",
    "security_event_rate",
    "detection_rate",
    "wilson_99_low",
    "wilson_99_high",
    "analytic",
    "analytic_formula",
    "hash_algorithm",
    "hash_truncate_bits",
    "version",
)


def report_dict(stats: DetectionStats) -> dict:
    cfg = stats.config
    return {
        "artifact": {"name": "sqdc", "version": __version__},
        "config": {
            "variant": cfg.variant.value,
            "attack": cfg.attack,
            "attack_params": dict(cfg.attack_params),
            "n": cfg.n,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "message": cfg.message,
        },
        "hash": {"algorithm": HASH_NAME, "truncate_bits": cfg.n // 8},
        "results": {
            "trials": stats.trials,
            "cause_counts": dict(stats.cause_counts),
            "bob_accept_rate": stats.bob_accept_rate,
            "alice_accept_rate": stats.alice_accept_rate,
            "security_event_rate": stats.security_event_rate,
            "detection_rate": stats.detection_rate,
            "wilson_99": list(stats.wilson_99),
            "analytic": stats.analytic,
            "analytic_formula": stats.analytic_formula,
        },
    }


def emit_report(stats: DetectionStats, output_format: str) -> str:
    """Render a report as json or csv."""
    report = report_dict(stats)
    if output_format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif output_format == "csv":
        results = report["results"]
        row = {**report["config"], **results, "version": report["artifact"]["version"]}
        row["attack_params"] = json.dumps(row["attack_params"], sort_keys=True)
        row.update({f"count_{k}": v for k, v in results["cause_counts"].items()})
        row["wilson_99_low"], row["wilson_99_high"] = results["wilson_99"]
        row.update({f"hash_{k}": v for k, v in report["hash"].items()})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({column: row[column] for column in CSV_COLUMNS})
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown output format {output_format!r}")
    return text


# -- single-session configuration documents ----------------------------------
#
# Schema (JSON object):
#   variant  : "randomization" | "measure-resend"
#   n        : int, multiple of 8, >= 16
#   message  : hex string carrying at least n/8 bits
#   k1       : hex string carrying n bits (must be balanced)
#   k2       : hex string carrying n/2 bits, or null (measure-resend)
#   seed     : int; the attack and register seeds derive from it as for trial 0
#   attack   : optional attack name (default "no_attack")
#   attack_params : optional object


def load_session_config(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed session config: {exc}") from None
    _check_session_keys(doc)
    return doc


def _check_session_keys(doc) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("session config must be a JSON object")
    for key in ("variant", "n", "message", "k1", "seed"):
        if key not in doc:
            raise ConfigError(f"session config missing {key!r}")


def run_session_from_config(doc: dict) -> dict:
    """Execute one session from a parsed configuration document and return a
    transcript mirroring the run outcome."""
    _check_session_keys(doc)
    try:
        variant = Variant(doc["variant"])
    except ValueError:
        raise ConfigError(f"unknown variant {doc['variant']!r}") from None
    n = doc["n"]
    params = doc.get("attack_params", {})
    entry = _attack_entry(doc.get("attack", "no_attack"), variant, n, params)
    try:
        m = hex_to_bits(doc["message"], n // 8)
        k1 = tuple(hex_to_bits(doc["k1"], n))
        k2 = tuple(hex_to_bits(doc["k2"], n // 2)) if doc.get("k2") else None
        keys = KeyMaterial(k1=k1, k2=k2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if k2 is None and variant is Variant.RANDOMIZATION:
        raise ConfigError("the randomization variant needs k2")
    if type(doc["seed"]) is not int:
        raise ConfigError(f"seed must be an int, got {doc['seed']!r}")
    rng_seed, register_seed = trial_seeds(doc["seed"], 0)
    attack = entry.build(params, Random(rng_seed), keys.k1)
    outcome = run_session(variant, m, keys, attack, register_seed)
    return {
        "bob_accepts": outcome.bob_accepts,
        "alice_accepts": outcome.alice_accepts,
        "decoded_message": (
            bits_to_hex(outcome.decoded_message) if outcome.decoded_message is not None else None
        ),
        "detection_cause": outcome.detection_cause.value,
        "security_event": outcome.security_event,
    }
