"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import dataclasses
import json

import pytest

import run
import sqdc.harness
import sqdc.qsim
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS


def small(name, trials=6):
    return dataclasses.replace(WORKLOADS[name], trials=trials)


def traced_metrics(workload, seed=DEFAULT_SEED):
    tally = run.Tally()
    tracer = Tracer()
    cases = [c for c in workload.cases(seed) if not c.known_defect]
    with tracer.installed():
        _, _, _, trials = run.measure(cases, 0, tally, {}, tracer)
    assert tally.failed == 0, tally.notes
    return {name: value for name, (value, _unit) in tracer.metrics(trials).items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    first = traced_metrics(small(name))
    second = traced_metrics(small(name))
    keys = [
        k
        for k in first
        if k.endswith((".calls_per_trial", ".unique_ratio")) or k == "qsim.max_component_qubits"
    ]
    assert len(keys) == 9
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name):
    a, b = WORKLOADS[name].cases(1), WORKLOADS[name].cases(2)
    assert [c.label for c in a] == [c.label for c in b]
    assert all(x.config.seed != y.config.seed for x, y in zip(a, b))
    assert [c.config.seed for c in a] == [c.config.seed for c in WORKLOADS[name].cases(1)]


def test_honest_never_merges_components():
    m = traced_metrics(small("honest-n256", trials=2))
    assert m["qsim.bell_measure_cross.calls_per_trial"] == 0
    assert m["qsim.bell_measure_same.calls_per_trial"] == 128
    assert m["qsim.max_component_qubits"] == 2
    assert m["keys.permutation_from_key.unique_ratio"] == 0.5


def test_swap_bypasses_bob():
    m = traced_metrics(small("swap-n64"))
    assert m["protocol.bob.us_per_trial"] == 0
    assert m["qsim.measure_z.calls_per_trial"] == 0
    assert m["qsim.bell_measure_cross.calls_per_trial"] > 30
    assert m["qsim.max_component_qubits"] == 4


def test_tracing_leaves_reports_and_functions_unchanged():
    case = small("attack-mix-n16").cases(3)[5]  # randomization modify_single
    before = sqdc.harness.run_experiment
    plain = run.report_digest(sqdc.harness.run_experiment(case.config))
    with Tracer().installed():
        assert sqdc.harness.run_experiment is not before
        traced = run.report_digest(sqdc.harness.run_experiment(case.config))
    assert traced == plain
    assert sqdc.harness.run_experiment is before
    assert "bell_measure" in vars(sqdc.qsim.QuantumRegister)


@pytest.mark.parametrize(
    "name, failed_frac", [("honest-n256", 0.0), ("attack-mix-n16", 1 / 13), ("swap-n64", 0.0)]
)
def test_gate_matches_pins(name, failed_frac):
    pins = json.loads(run.PINS.read_text())[name]
    tally = run.Tally()
    assert run.run_gate(WORKLOADS[name].cases(DEFAULT_SEED), pins, tally) == failed_frac
    assert tally.failed == 0, tally.notes
