"""Every byte-for-byte pin of the tests, and the one producer of each.

Reports, `sqdc analytic` outputs and session transcripts are pinned as text,
one file per pin under `tests/golden/`, so a failing test's diff and a re-pin's
`git diff` show what moved. An engine stream lists every measurement of a run,
so it is pinned by SHA-256 in `tests/pins.json`. `tests/test_pins.py` checks
every pin; `python tests/pins.py` rewrites them all from the sources beside it.
Tests share its config builder, and `trial_outcomes`, which runs a config's
sessions through `run_trial` as a run does.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from functools import partial
from itertools import product
from pathlib import Path
from random import Random

# The pins are of the sources beside this file, never of an installed copy.
SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import sqdc  # noqa: E402
from sqdc.cli import main  # noqa: E402
from sqdc.codec import bits_to_hex  # noqa: E402
from sqdc.harness import (  # noqa: E402
    ExperimentConfig, emit_report, load_session_config, run_experiment, run_trial
)
from sqdc.keys import gen_keys, random_bits  # noqa: E402
from sqdc.protocol import Variant  # noqa: E402
from sqdc.qsim import QuantumRegister  # noqa: E402
from dense_oracle import snapshot_amplitudes  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN.parent / "pins.json"
MEASURE_RESEND = Variant.MEASURE_RESEND


def make_config(**overrides):
    base = dict(variant=Variant.RANDOMIZATION, attack="no_attack", n=16, trials=50, seed=1)
    return ExperimentConfig(**{**base, **overrides})


def session_doc(seed=5, size=16, **overrides):
    rng = Random(seed)
    keys = gen_keys(size, rng)
    m = random_bits(size // 8, rng)
    doc = {"variant": "randomization", "n": size, "message": bits_to_hex(m)}
    doc.update(k1=bits_to_hex(list(keys.k1)), k2=bits_to_hex(list(keys.k2)), seed=seed)
    return {**doc, **overrides}, m


def run_document(doc):
    """Load a session document from its JSON text and run it as trial 0."""
    config, keys = load_session_config(json.dumps(doc))
    return run_trial(config, 0, keys)


def document_transcript(doc) -> str:
    """One session document's outcome, or its exception type and text."""
    try:
        outcome = run_document(doc)
    except ValueError as exc:  # ConfigError included
        return f"{type(exc).__name__}: {exc}"
    decoded = None if outcome.decoded_message is None else bits_to_hex(outcome.decoded_message)
    fields = outcome.bob_accepts, outcome.alice_accepts, decoded, outcome.detection_cause.value
    return ",".join(map(str, (*fields, outcome.security_event)))


# The attack settings of the benchmark matrix, run on both variants.
MATRIX_ATTACKS = [
    ("no_attack", {}), ("impersonate_alice", {}), ("impersonate_bob", {"mode": "idealized"}),
    ("impersonate_bob", {"mode": "concrete"}), ("intercept_resend", {}), ("reflect_all", {}),
    *(("modify_single", {"target": t}) for t in ("random", "s", "c", "s_msg", 3)),
]


def setting(variant, attack, params, n) -> str:
    return " ".join([variant.value, attack, *(f"{k}={v}" for k, v in params.items()), f"n={n}"])


def report_text(**overrides) -> str:
    """A run's JSON then CSV report, or a rejected config's exception type and text."""
    try:
        stats = run_experiment(make_config(**overrides))
    except ValueError as exc:  # ConfigError included
        return f"{type(exc).__name__}: {exc}\n"
    return emit_report(stats, "json") + emit_report(stats, "csv")


def analytic_outputs() -> str:
    """`sqdc analytic`'s exit code, stdout and stderr for both variants x MATRIX_ATTACKS
    x n in {3, 16, 64, 4096}; n = 3 and 4096 and reflect_all on randomization exit 2."""
    lines = []
    for variant, (attack, params), n in product(Variant, MATRIX_ATTACKS, (3, 16, 64, 4096)):
        argv = ["analytic", "--variant", variant.value, "--attack", attack, "--n", str(n)]
        argv += [f"--attack-param={k}={v}" for k, v in params.items()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        label = setting(variant, attack, params, n)
        lines.append(f"{label}: exit {code}, stdout {out.getvalue()!r}, stderr {err.getvalue()!r}\n")
    return "".join(lines)


def session_transcripts() -> str:
    """The documents of both variants x MATRIX_ATTACKS x n in {16, 64} x seeds
    1-3, drawn as session_doc draws them (k2 null on measure-resend)."""
    lines = []
    for variant, (attack, params), size, seed in product(Variant, MATRIX_ATTACKS, (16, 64), (1, 2, 3)):
        overrides = dict(variant=variant.value, attack=attack, attack_params=params)
        if variant is MEASURE_RESEND:
            overrides["k2"] = None
        doc, _ = session_doc(seed, size, **overrides)
        label = f"{setting(variant, attack, params, size)} seed={seed}"
        lines.append(f"{label}: {document_transcript(doc)}\n")
    return "".join(lines)


class Recording(QuantumRegister):
    """A register that logs every measurement it makes; each one built is kept,
    in order, in `Recording.built`."""

    built = []

    def __init__(self, seed):
        super().__init__(seed)
        self.log = []
        Recording.built.append(self)

    def measure_z(self, *qubits):
        outcomes = super().measure_z(*qubits)
        # one entry per qubit, as successive calls
        self.log += [f"measure_z {(q,)} {o};" for q, o in zip(qubits, outcomes)]
        return outcomes

    def bell_measure(self, *args):
        outcome = super().bell_measure(*args)
        self.log.append(f"bell_measure {args} {outcome};")
        return outcome


def trial_outcomes(config, register=QuantumRegister) -> list:
    """The outcome of every trial of a valid config, as run_experiment runs them;
    each trial's register is `register(its seed)`."""
    config.validate()
    return [run_trial(config, i, register=register) for i in range(config.trials)]


def engine_stream(**overrides) -> str:
    """SHA-256 over every measurement of a run, then over each session's final
    register components. Unlike a saturated report, it moves with the engine
    state: the partner left by teleportation (idealized Bob) or entanglement
    swapping (concrete Bob), and the label an iY leaves (modify_single)."""
    Recording.built.clear()
    trial_outcomes(make_config(**overrides), register=Recording)
    registers = Recording.built
    text = [entry for register in registers for entry in register.log]
    text += [
        f"{q} {snapshot_amplitudes(register.component_snapshot(q))};"
        for register in registers
        for q in register.live_qubits()
    ]
    return hashlib.sha256("".join(text).encode()).hexdigest()


def attack_of(name, **params):
    return dict(attack=name, attack_params=params)


# Configs pinned by name. These three read saturated reports, so their engine streams are pinned too.
SATURATED = {
    "intercept-n64": dict(attack="intercept_resend", n=64, trials=40, seed=13),
    "idealized-bob-n64": dict(
        **attack_of("impersonate_bob", mode="idealized"), n=64, trials=40, seed=17
    ),
    "measure-resend-n256": dict(variant=MEASURE_RESEND, n=256, trials=20, seed=19),
}
GOLDEN_REPORTS = {
    "fixed-message": dict(n=32, trials=40, seed=1, message="a"),
    "no-closed-form": dict(variant=MEASURE_RESEND, attack="impersonate_alice", trials=40, seed=7),
    "s_msg": dict(**attack_of("modify_single", target="s_msg"), trials=60, seed=5),
    "concrete": dict(**attack_of("impersonate_bob", mode="concrete"), trials=30, seed=3),
    "position-target": dict(
        variant=MEASURE_RESEND, **attack_of("modify_single", target=3), trials=30, seed=11, message="f"
    ),
    "reflect-all": dict(variant=MEASURE_RESEND, attack="reflect_all", n=24, trials=30, seed=9),
    **SATURATED,
}
ENGINE_STREAMS = {
    **SATURATED,
    "concrete-bob-n64": dict(**attack_of("impersonate_bob", mode="concrete"), n=64, trials=20, seed=23),
    "modify-c-n64": dict(**attack_of("modify_single", target="c"), n=64, trials=40, seed=29),
    "measure-resend-modify-random-n64": dict(
        variant=MEASURE_RESEND, **attack_of("modify_single", target="random"), n=64, trials=40, seed=31
    ),
    "impersonate-alice-n64": dict(attack="impersonate_alice", n=64, trials=40, seed=37),
    "measure-resend-impersonate-alice-n64": dict(
        variant=MEASURE_RESEND, attack="impersonate_alice", n=64, trials=40, seed=41
    ),
    "honest-n256": dict(n=256, trials=20, seed=43),
}

# file under GOLDEN -> producer of its text
TEXT_PINS = {
    **{f"reports/{name}.txt": partial(report_text, **c) for name, c in GOLDEN_REPORTS.items()},
    # the benchmark matrix: both variants x MATRIX_ATTACKS x n in {16, 64, 256}
    **{
        f"matrix/{setting(variant, name, params, n).replace(' ', '-')}.txt": partial(
            report_text, variant=variant, **attack_of(name, **params), n=n, trials=24, seed=41
        )
        for variant, (name, params), n in product(Variant, MATRIX_ATTACKS, (16, 64, 256))
    },
    "analytic.txt": analytic_outputs,
    "session-transcripts.txt": session_transcripts,
}
# key of DIGESTS -> producer of its SHA-256
DIGEST_PINS = {name: partial(engine_stream, **c) for name, c in ENGINE_STREAMS.items()}


def repin():
    """Rewrite every pin from its producer, and drop any other pin file."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name, produce in TEXT_PINS.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(produce().encode())
    digests = {name: produce() for name, produce in DIGEST_PINS.items()}
    DIGESTS.write_bytes((json.dumps(digests, indent=2) + "\n").encode())


if __name__ == "__main__":
    if Path(sqdc.__file__).resolve().parent != SRC / "sqdc":
        raise SystemExit(f"pins: imported sqdc from {sqdc.__file__}, expected {SRC}")
    repin()
