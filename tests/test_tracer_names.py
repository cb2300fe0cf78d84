"""The benchmark's tracer finds sqdc functions by name, so a rename silently
empties a per-layer figure. Every span `Tracer.metrics` reads must be called
by a traced batch that runs every attack on both variants."""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
from tracer import _ALICE_VERIFY, _BOB, QSIM_PRIMITIVES, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPANS = (
    *_BOB,
    *_ALICE_VERIFY,
    "harness.run_experiment",
    "harness.run_trial",
    "protocol.run_session",
    "protocol.alice_prepare",
    "adversary.tamper_forward",
    "adversary.tamper_backward",
    "keys.permutation_from_key",
    "keys.gen_keys",
    "codec.build_block",
    "codec.verify_block",
    *(f"qsim.{prim}" for prim in QSIM_PRIMITIVES),
)


def test_every_traced_span_is_called():
    workload = dataclasses.replace(WORKLOADS["attack-mix-n16"], trials=2)
    cases = [c for c in workload.cases(DEFAULT_SEED) if not c.known_defect]
    tally = run.Tally()
    tracer = Tracer()
    with tracer.installed():
        run.measure(cases, 0, tally, {}, tracer)
    assert tally.failed == 0, tally.notes
    uncalled = [name for name in SPANS if tracer.spans[name].calls == 0]
    assert uncalled == []
