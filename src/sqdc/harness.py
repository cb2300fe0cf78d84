"""Monte Carlo experiment runner, analytic references, and report emission.

`run_trial` builds each trial's register, keys, message and strategy instance
from (base seed, trial index), so a report regenerates bit-for-bit from its
configuration, and its `register=` takes a QuantumRegister subclass that
observes the trial. A session document runs as trial 0 with its own keys.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field, fields
from math import sqrt
from random import Random

from . import __version__
from .adversary import ATTACKS
from .codec import HASH_NAME, hex_to_bits
from .keys import KeyMaterial, check_n, gen_keys, random_bits
from .protocol import ALICE_ACCEPTS, DetectionCause, Variant, check_keys, run_session
from .qsim import QuantumRegister

WILSON_Z_99 = 2.5758293035489004


class ConfigError(ValueError):
    """Invalid experiment or session configuration."""


@dataclass
class ExperimentConfig:
    variant: Variant
    attack: str
    attack_params: dict = field(default_factory=dict, kw_only=True)
    n: int
    trials: int
    seed: int
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
        _checked("", check_n, self.n)
        if not isinstance(self.attack, str) or self.attack not in ATTACKS:
            raise ConfigError(f"unknown attack {self.attack!r}")
        entry = ATTACKS[self.attack]
        _checked(f"attack {self.attack}", entry.check, self.variant, self.n, self.attack_params)
        if self.message is not None:
            _checked("message", hex_to_bits, self.message, self.n // 8)

    def analytic(self):
        """(probability, formula) of the attack's closed form for this valid
        configuration, or (None, None) where none is known."""
        return ATTACKS[self.attack].analytic(self.variant, self.n, self.attack_params)


def _checked(field: str, check, *args):
    """check(*args), with its ValueError raised as ConfigError prefixed by
    the field at fault, if any."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}" if field else str(exc)) from None


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


def wilson_interval(successes: int, trials: int):
    """Wilson 99% score interval for a binomial proportion; stays
    well-behaved for proportions at or near 0 and 1."""
    z = WILSON_Z_99
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


def trial_seeds(base_seed: int, index: int) -> tuple[int, int]:
    """Distinct, reproducible (trial rng seed, register seed) per trial."""
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")


def run_trial(
    config: ExperimentConfig, index: int, keys: KeyMaterial | None = None, *, register=QuantumRegister
):
    """Run trial `index` of a configuration; given keys are used, not drawn. Its
    register is `register(its seed)`: pass a QuantumRegister subclass to observe it."""
    rng_seed, register_seed = trial_seeds(config.seed, index)
    trial_register = register(register_seed)
    rng = Random(rng_seed)
    if keys is None:
        keys = gen_keys(config.n, rng, include_k2=config.variant.holds_k2)
    if config.message is not None:
        m = hex_to_bits(config.message, config.n // 8)
    else:
        m = random_bits(config.n // 8, rng)
    attack = ATTACKS[config.attack].build(config.attack_params, rng, keys, config.variant)
    return run_session(config.variant, m, keys, attack, trial_register)


def run_experiment(config: ExperimentConfig) -> DetectionStats:
    """Run the configured number of independent sessions and aggregate.

    Aggregation is pure counting, so trial order is irrelevant.
    """
    config.validate()
    counts = {cause.value: 0 for cause in DetectionCause}
    bob_accepts = security_events = 0
    for i in range(config.trials):
        outcome = run_trial(config, i)
        counts[outcome.detection_cause.value] += 1
        if outcome.bob_accepts:
            bob_accepts += 1
        if outcome.security_event:
            security_events += 1

    t = config.trials
    detections = t - counts[DetectionCause.NONE.value]
    alice_accepts = sum(counts[cause.value] for cause in ALICE_ACCEPTS)
    analytic, formula = config.analytic()
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

def report_dict(stats: DetectionStats) -> dict:
    """The report of a run; its config and results blocks list the
    ExperimentConfig and DetectionStats fields in declaration order, the
    results all but config, as JSON types."""
    cfg = stats.config
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    config.update(variant=cfg.variant.value, attack_params=dict(cfg.attack_params))
    results = {f.name: getattr(stats, f.name) for f in fields(stats) if f.name != "config"}
    results.update(cause_counts=dict(stats.cause_counts), wilson_99=list(stats.wilson_99))
    return {
        "artifact": {"name": "sqdc", "version": __version__},
        "config": config,
        "hash": {"algorithm": HASH_NAME, "truncate_bits": cfg.n // 8},
        "results": results,
    }


def emit_report(stats: DetectionStats, output_format: str) -> str:
    """Render a report as json or csv."""
    report = report_dict(stats)
    if output_format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif output_format == "csv":
        # the row is the report flattened in order; results.trials repeats config.trials
        config = report["config"]
        row = dict(config, attack_params=json.dumps(config["attack_params"], sort_keys=True))
        for key, value in report["results"].items():
            if key == "cause_counts":
                row.update({f"count_{k}": v for k, v in value.items()})
            elif key == "wilson_99":
                row["wilson_99_low"], row["wilson_99_high"] = value
            elif key != "trials":
                row[key] = value
        row.update({f"hash_{k}": v for k, v in report["hash"].items()})
        row["version"] = report["artifact"]["version"]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([list(row), list(row.values())])
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown output format {output_format!r}")
    return text


# -- single-session configuration documents ----------------------------------
#
# Schema (JSON object):
#   variant  : "randomization" | "measure-resend"
#   n        : int, multiple of 8, 16..2048
#   message  : hex string of exactly ceil(n/32) digits carrying n/8 bits
#   k1       : hex string of n/4 digits carrying n bits (must be balanced)
#   k2       : hex string of n/8 digits carrying n/2 bits, or null (measure-resend)
#   seed     : int; the attack and register seeds derive from it as for trial 0
#   attack   : optional attack name (default "no_attack")
#   attack_params : optional object
# Any other key, and a key repeated in any object, is rejected, so nothing a
# document says is silently ignored.


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a repeated key would drop its earlier value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_session_config(text: str) -> tuple[ExperimentConfig, KeyMaterial]:
    """Parse a session document into the (config, keys) that
    `run_trial(config, 0, keys)` runs."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # int digit limit and nesting depth too
        raise ConfigError(f"malformed session config: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("session config must be a JSON object")
    required = ("variant", "n", "message", "k1", "seed")
    for key in required:
        if key not in doc:
            raise ConfigError(f"session config missing {key!r}")
    unknown = sorted(doc.keys() - {*required, "k2", "attack", "attack_params"})
    if unknown:
        raise ConfigError(f"session config has unknown key {unknown[0]!r}")
    try:
        variant = Variant(doc["variant"])
    except ValueError:
        raise ConfigError(f"unknown variant {doc['variant']!r}") from None
    n, attack, params = doc["n"], doc.get("attack", "no_attack"), doc.get("attack_params", {})
    # a document is one session (trials=1) held to the checks and error text of `sqdc run`
    config = ExperimentConfig(
        variant, attack, n, 1, doc["seed"], doc["message"], attack_params=params
    )
    config.validate()
    if config.message is None:  # random per trial in a run; a document needs one
        raise ConfigError("message: a session config needs a hex string, got None")
    k1 = tuple(_checked("k1", hex_to_bits, doc["k1"], n))
    k2 = doc.get("k2")
    k2 = tuple(_checked("k2", hex_to_bits, k2, n // 2)) if k2 is not None else None
    keys = _checked("", KeyMaterial, k1, k2)
    _checked("k2", check_keys, variant, keys)
    return config, keys
