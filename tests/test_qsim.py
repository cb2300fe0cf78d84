"""Tests for the exact engine, whose components are basis qubits and
labelled Bell pairs: snapshots, Born statistics, collapse, teleportation and
entanglement swapping, and agreement with the dense full-register oracle on
random scripts (outcomes, probabilities and the full state after each step)."""

import math
from random import Random

import pytest

from sqdc.qsim import (
    BELL_AMPLITUDES,
    BELL_ORDER,
    BellState,
    Pauli,
    QuantumRegister,
    states_equal,
)

from dense_oracle import DenseRegister

INV_SQRT2 = 2 ** -0.5

CHI2_CRIT_DF3_P01 = 11.345  # chi-square critical value, df=3, alpha=0.01


# -- preparation -------------------------------------------------------------


def test_alloc_basis_states():
    reg = QuantumRegister(0)
    q0 = reg.alloc_qubit(0)
    q1 = reg.alloc_qubit(1)
    assert reg.component_snapshot(q0)[1] == (1, 0)
    assert reg.component_snapshot(q1)[1] == (0, 1)


def test_alloc_rejects_non_bit():
    reg = QuantumRegister(0)
    with pytest.raises(ValueError):
        reg.alloc_qubit(2)


def test_alloc_then_measure_is_deterministic():
    reg = QuantumRegister(0)
    for b in (0, 1):
        for _ in range(50):
            q = reg.alloc_qubit(b)
            assert reg.measure_z(q) == b


def test_prepare_phi_plus_amplitudes():
    reg = QuantumRegister(0)
    qa, qb = reg.prepare_bell(BellState.PHI_PLUS)
    qubits, amps = reg.component_snapshot(qa)
    assert qubits == (qa, qb)
    assert states_equal(amps, [INV_SQRT2, 0, 0, INV_SQRT2])


def test_prepare_psi_minus_amplitudes():
    reg = QuantumRegister(0)
    qa, _ = reg.prepare_bell(BellState.PSI_MINUS)
    _, amps = reg.component_snapshot(qa)
    assert states_equal(amps, [0, INV_SQRT2, -INV_SQRT2, 0])


def test_bell_states_orthonormal():
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            dot = sum(x * y for x, y in zip(BELL_AMPLITUDES[a], BELL_AMPLITUDES[b]))
            assert abs(dot - (1.0 if a is b else 0.0)) < 1e-12


def test_qubit_ids_never_reused():
    reg = QuantumRegister(0)
    ids = [reg.alloc_qubit(0) for _ in range(10)]
    ids += [q for _ in range(5) for q in reg.prepare_bell(BellState.PHI_PLUS)]
    assert len(set(ids)) == len(ids)


# -- Z measurement -----------------------------------------------------------


def test_measure_collapse_partners_agree():
    reg = QuantumRegister(42)
    for _ in range(500):
        qa, qb = reg.prepare_bell(BellState.PHI_PLUS)
        assert reg.measure_z(qa) == reg.measure_z(qb)


def test_psi_minus_partners_disagree():
    reg = QuantumRegister(43)
    for _ in range(500):
        qa, qb = reg.prepare_bell(BellState.PSI_MINUS)
        assert reg.measure_z(qa) != reg.measure_z(qb)


def test_born_statistics_on_bell_half():
    reg = QuantumRegister(7)
    zeros = 0
    trials = 100_000
    for _ in range(trials):
        qa, _ = reg.prepare_bell(BellState.PHI_PLUS)
        if reg.measure_z(qa) == 0:
            zeros += 1
        if len(reg.live_qubits()) > 4000:
            reg = QuantumRegister(reg.rng.getrandbits(32))
    assert abs(zeros / trials - 0.5) < 0.01


def test_measurement_splits_component():
    reg = QuantumRegister(0)
    qa, qb = reg.prepare_bell(BellState.PHI_PLUS)
    b = reg.measure_z(qa)
    qubits_a, amps_a = reg.component_snapshot(qa)
    qubits_b, amps_b = reg.component_snapshot(qb)
    assert qubits_a == (qa,) and qubits_b == (qb,)
    expected = (1, 0) if b == 0 else (0, 1)
    for amps in (amps_a, amps_b):
        assert all(abs(a - e) < 1e-12 for a, e in zip(amps, expected))


def test_measure_unknown_qubit():
    reg = QuantumRegister(0)
    with pytest.raises(ValueError):
        reg.measure_z(99)


# -- Bell measurement ----------------------------------------------------------


def test_bell_measure_eigenstate_repeats():
    reg = QuantumRegister(5)
    for bs in BELL_ORDER:
        for _ in range(20):
            qa, qb = reg.prepare_bell(bs)
            assert reg.bell_measure(qa, qb) == bs
            assert reg.bell_measure(qa, qb) == bs  # projective repeatability


def test_bell_measure_product_00():
    # |00> = (Phi+ + Phi-)/sqrt(2)
    reg = QuantumRegister(11)
    counts = {bs: 0 for bs in BELL_ORDER}
    trials = 4000
    for _ in range(trials):
        qa = reg.alloc_qubit(0)
        qb = reg.alloc_qubit(0)
        counts[reg.bell_measure(qa, qb)] += 1
        if len(reg.live_qubits()) > 4000:
            reg = QuantumRegister(reg.rng.getrandbits(32))
    assert counts[BellState.PSI_PLUS] == 0
    assert counts[BellState.PSI_MINUS] == 0
    assert abs(counts[BellState.PHI_PLUS] / trials - 0.5) < 0.05


def test_bell_measure_probabilities_product_00():
    reg = QuantumRegister(0)
    qa = reg.alloc_qubit(0)
    qb = reg.alloc_qubit(0)
    probs = reg.bell_probabilities(qa, qb)
    assert abs(probs[BellState.PHI_PLUS] - 0.5) < 1e-12
    assert abs(probs[BellState.PHI_MINUS] - 0.5) < 1e-12
    assert probs[BellState.PSI_PLUS] < 1e-12
    assert probs[BellState.PSI_MINUS] < 1e-12


def test_bell_measure_across_independent_pairs_uniform():
    # chi-square uniformity over the four outcomes, 1e5 draws
    reg = QuantumRegister(17)
    counts = {bs: 0 for bs in BELL_ORDER}
    trials = 100_000
    for _ in range(trials):
        qa, _ = reg.prepare_bell(BellState.PHI_PLUS)
        _, qb = reg.prepare_bell(BellState.PSI_MINUS)
        counts[reg.bell_measure(qa, qb)] += 1
        if len(reg.live_qubits()) > 4000:
            reg = QuantumRegister(reg.rng.getrandbits(32))
    expected = trials / 4
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF3_P01


def test_bell_measure_entanglement_swap():
    # measuring one qubit from each of two Bell pairs leaves the two
    # leftover qubits in a definite Bell state
    reg = QuantumRegister(23)
    for _ in range(200):
        a1, a2 = reg.prepare_bell(BellState.PHI_PLUS)
        b1, b2 = reg.prepare_bell(BellState.PHI_PLUS)
        reg.bell_measure(a1, b2)
        qubits, amps = reg.component_snapshot(a2)
        assert set(qubits) == {a2, b1}
        probs = reg.bell_probabilities(a2, b1)
        assert max(probs.values()) > 1 - 1e-9


def test_bell_measure_identical_qubits_rejected():
    reg = QuantumRegister(0)
    qa, _ = reg.prepare_bell(BellState.PHI_PLUS)
    with pytest.raises(ValueError):
        reg.bell_measure(qa, qa)


def test_bell_measure_unknown_qubit():
    reg = QuantumRegister(0)
    qa, _ = reg.prepare_bell(BellState.PHI_PLUS)
    with pytest.raises(ValueError):
        reg.bell_measure(qa, 1234)


# -- Pauli unitaries -----------------------------------------------------------


def test_iy_turns_phi_plus_into_psi_minus():
    reg = QuantumRegister(0)
    qa, qb = reg.prepare_bell(BellState.PHI_PLUS)
    reg.apply_pauli(qa, Pauli.IY)
    assert reg.bell_measure(qa, qb) == BellState.PSI_MINUS


def test_iy_turns_psi_minus_into_phi_plus():
    reg = QuantumRegister(0)
    qa, qb = reg.prepare_bell(BellState.PSI_MINUS)
    reg.apply_pauli(qb, Pauli.IY)
    assert reg.bell_measure(qa, qb) == BellState.PHI_PLUS


def test_iy_on_one():
    # iY maps |1> to |0>
    reg = QuantumRegister(0)
    q = reg.alloc_qubit(1)
    reg.apply_pauli(q, Pauli.IY)
    assert reg.measure_z(q) == 0


def test_iy_on_zero_gives_minus_one():
    reg = QuantumRegister(0)
    q = reg.alloc_qubit(0)
    reg.apply_pauli(q, Pauli.IY)
    _, amps = reg.component_snapshot(q)
    assert amps == (0, -1)
    assert states_equal(amps, [0, 1])  # equal up to global phase


def test_x_flips_basis_state():
    reg = QuantumRegister(0)
    q = reg.alloc_qubit(0)
    reg.apply_pauli(q, Pauli.X)
    assert reg.measure_z(q) == 1


def test_z_leaves_zero_unchanged():
    reg = QuantumRegister(0)
    q = reg.alloc_qubit(0)
    before = reg.component_snapshot(q)
    reg.apply_pauli(q, Pauli.Z)
    assert reg.component_snapshot(q) == before


# -- snapshots, normalization, determinism -------------------------------------


def test_snapshot_is_pure_read():
    reg = QuantumRegister(0)
    qa, _ = reg.prepare_bell(BellState.PHI_PLUS)
    assert reg.component_snapshot(qa) == reg.component_snapshot(qa)


def test_normalization_maintained_under_random_ops():
    rng = Random(31)
    reg = QuantumRegister(99)
    live = []
    for _ in range(400):
        roll = rng.random()
        if roll < 0.3 or len(live) < 2:
            live.extend(reg.prepare_bell(rng.choice(list(BELL_ORDER))))
        elif roll < 0.55:
            reg.measure_z(rng.choice(live))
        elif roll < 0.8:
            reg.bell_measure(*rng.sample(live, 2))
        else:
            reg.apply_pauli(rng.choice(live), rng.choice(list(Pauli)))
        for q in live:
            _, amps = reg.component_snapshot(q)
            assert abs(sum(abs(a) ** 2 for a in amps) - 1.0) < 1e-9


def test_determinism_same_seed_same_outcomes():
    def run(seed):
        reg = QuantumRegister(seed)
        out = []
        for _ in range(100):
            qa, qb = reg.prepare_bell(BellState.PHI_PLUS)
            qc, qd = reg.prepare_bell(BellState.PSI_MINUS)
            out.append(reg.measure_z(qa))
            out.append(reg.bell_measure(qb, qc))
            out.append(reg.measure_z(qd))
        return out

    assert run(1234) == run(1234)
    assert run(1234) != run(4321)


def test_states_equal_global_phase():
    assert states_equal([0, 1], [0, -1])
    assert states_equal([INV_SQRT2, 0, 0, INV_SQRT2], [-INV_SQRT2, 0, 0, -INV_SQRT2])
    assert not states_equal([1, 0], [0, 1])


# -- oracle equivalence (smoke; the full 200-scenario run lives in acceptance) --


def engine_state(eng, order):
    """The engine's full state: the tensor product of its component snapshots,
    with the qubits in `order` (first qubit owns the most significant bit)."""
    qubits, amps = [], [1 + 0j]
    for q in eng.live_qubits():
        if q not in qubits:
            comp_qubits, comp_amps = eng.component_snapshot(q)
            qubits += comp_qubits
            amps = [a * b for a in amps for b in comp_amps]
    k = len(qubits)
    shifts = [k - 1 - order.index(q) for q in qubits]
    out = [0j] * len(amps)
    for i, a in enumerate(amps):
        out[sum(1 << s for pos, s in enumerate(shifts) if (i >> (k - 1 - pos)) & 1)] = a
    return out


def run_scripted_comparison(seed, script_rng, steps=20, max_qubits=8):
    eng = QuantumRegister(seed)
    orc = DenseRegister(seed)
    live = []
    worst = 0.0
    for _ in range(steps):
        choices = []
        if len(live) <= max_qubits - 2:
            choices += ["alloc", "bell"]
        if live:
            choices += ["mz", "pauli"]
        if len(live) >= 2:
            choices += ["bm"]
        op = script_rng.choice(choices)
        if op == "alloc":
            b = script_rng.randrange(2)
            assert eng.alloc_qubit(b) == orc.alloc_qubit(b)
            live.append(eng.live_qubits()[-1])
        elif op == "bell":
            bs = script_rng.choice(list(BELL_ORDER))
            pair = eng.prepare_bell(bs)
            assert pair == orc.prepare_bell(bs)
            live.extend(pair)
        elif op == "mz":
            q = script_rng.choice(live)
            pe, po = eng.z_probabilities(q), orc.z_probabilities(q)
            worst = max(worst, abs(pe[0] - po[0]))
            assert eng.measure_z(q) == orc.measure_z(q)
        elif op == "pauli":
            q = script_rng.choice(live)
            p = script_rng.choice(list(Pauli))
            eng.apply_pauli(q, p)
            orc.apply_pauli(q, p)
        else:
            qa, qb = script_rng.sample(live, 2)
            pe, po = eng.bell_probabilities(qa, qb), orc.bell_probabilities(qa, qb)
            worst = max(worst, max(abs(pe[bs] - po[bs]) for bs in BELL_ORDER))
            assert eng.bell_measure(qa, qb) == orc.bell_measure(qa, qb)
        assert states_equal(engine_state(eng, orc.qubits), orc.amps)
    return worst


def test_oracle_equivalence_smoke():
    worst = 0.0
    for trial in range(25):
        worst = max(worst, run_scripted_comparison(trial, Random(5000 + trial)))
    assert worst < 1e-9
