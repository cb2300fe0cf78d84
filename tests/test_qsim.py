"""Tests for the exact engine, whose components are basis qubits and
labelled Bell pairs. Each Bell-measurement law (same-pair certainty,
teleportation, entanglement swapping) is checked once, against the dense
oracle, at every quarter boundary of the uniform, and random scripts compare
every operation with it. The rest states what the oracle cannot: the paper's
amplitudes and weights written by hand, the Pauli actions, the rejections,
determinism and the sequence calls."""

import itertools
import re
from random import Random

import pytest

from sqdc.qsim import BELL_ORDER, BellState, Pauli, QuantumRegister

from dense_oracle import (
    DenseRegister,
    FixedUniform,
    engine_state,
    live_qubits,
    run_scripted_comparison,
    snapshot_amplitudes,
    states_equal,
)

INV_SQRT2 = 2 ** -0.5


# -- preparation -------------------------------------------------------------


@pytest.mark.parametrize(
    "state, amps",
    [
        (0, [1, 0]),
        (1, [0, 1]),
        (BellState.PHI_PLUS, [INV_SQRT2, 0, 0, INV_SQRT2]),
        (BellState.PSI_MINUS, [0, INV_SQRT2, -INV_SQRT2, 0]),
    ],
)
def test_prepared_amplitudes(state, amps):
    reg = QuantumRegister(0)
    qubits = reg.prepare_bell(state) if state in BELL_ORDER else (reg.alloc_qubit(state),)
    got_qubits, got = snapshot_amplitudes(reg.component_snapshot(qubits[0]))
    assert got_qubits == qubits
    assert states_equal(got, amps)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda reg: reg.alloc_qubit(2), None),
        *((lambda reg, op=op: reg.apply_pauli(0, op), re.escape(repr(op)))
          for op in ("X", None, BellState.PHI_PLUS)),
        (lambda reg: reg.measure_z(99), "unknown qubit id 99"),
        (lambda reg: reg.measure_z(1, 99, 2), "unknown qubit id 99"),
        (lambda reg: reg.bell_measure(1, 1), None),
        (lambda reg: reg.bell_measure(1, 1234), None),
    ],
    ids=["alloc-non-bit", "pauli-str", "pauli-none", "pauli-bell-state", "measure-unknown",
         "measure-unknown-among-known", "bell-identical", "bell-unknown"],
)
def test_register_rejects(call, message):
    reg = QuantumRegister(0)
    reg.alloc_qubit(0)
    reg.prepare_bell(BellState.PHI_PLUS)
    snapshots = [reg.component_snapshot(q) for q in live_qubits(reg)]
    state = reg.rng.getstate()
    with pytest.raises(ValueError, match=message):
        call(reg)
    # a refused call changes no component and draws nothing
    assert [reg.component_snapshot(q) for q in live_qubits(reg)] == snapshots
    assert reg.rng.getstate() == state


def test_bell_states_orthonormal():
    # the engine's snapshots read through the oracle's vectors; the oracle's
    # evolution checks them in test_bell_measure_closed_form_at_boundaries
    reg = QuantumRegister(0)
    vectors = {
        bs: snapshot_amplitudes(reg.component_snapshot(reg.prepare_bell(bs)[0]))[1]
        for bs in BELL_ORDER
    }
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            dot = sum(x.conjugate() * y for x, y in zip(vectors[a], vectors[b]))
            assert abs(dot - (1.0 if a is b else 0.0)) < 1e-12


# -- Bell measurement ----------------------------------------------------------


@pytest.mark.parametrize(
    "a, b", [(0, 0), *itertools.product((BellState.PHI_PLUS, BellState.PSI_MINUS), repeat=2)]
)
def test_bell_probabilities_exact(a, b):
    reg = QuantumRegister(7)
    if a == 0:  # |00> = (Phi+ + Phi-)/sqrt(2)
        qubits, probs = (reg.alloc_qubit(0), reg.alloc_qubit(0)), (0.5, 0.5, 0, 0)
    else:  # a checking qubit measured against a stranger from another pair
        qubits, probs = (reg.prepare_bell(a)[0], reg.prepare_bell(b)[1]), (0.25,) * 4
    got = reg.bell_probabilities(*qubits)
    assert all(abs(got[bs] - p) < 1e-12 for bs, p in zip(BELL_ORDER, probs, strict=True))


BOUNDARY_US = (0.0, 0.25 - 2**-53, 0.25, 0.5 - 2**-53, 0.5, 0.75, 1 - 2**-53)


def same_pair_setups():
    """One pair, bare or after a Pauli on either half, in either order: certain.
    Each setup prepares qubits on a register (engine or oracle; both hand out
    the same ids) and returns the two to Bell-measure."""
    for bs, pauli, half, flip in itertools.product(
        BELL_ORDER, (None, *Pauli), (0, 1), (False, True)
    ):

        def same_pair(reg, bs=bs, pauli=pauli, half=half, flip=flip):
            pair = reg.prepare_bell(bs)
            if pauli is not None:
                reg.apply_pauli(pair[half], pauli)
            return pair[::-1] if flip else pair

        yield same_pair


def x_parity_setups():
    """Two basis qubits a, b: Phi or Psi by a ^ b, sign uniform."""
    for a, b in itertools.product((0, 1), repeat=2):
        yield lambda reg, a=a, b=b: (reg.alloc_qubit(a), reg.alloc_qubit(b))


def teleport_setups():
    """A basis qubit against either half of a pair, in either order."""
    for bit, bs, half, flip in itertools.product((0, 1), BELL_ORDER, (0, 1), (False, True)):

        def teleport(reg, bit=bit, bs=bs, half=half, flip=flip):
            q = reg.alloc_qubit(bit)
            pair = (q, reg.prepare_bell(bs)[half])
            return pair[::-1] if flip else pair

        yield teleport


def swap_setups():
    """One half of each of two pairs, in either order: entanglement swapping."""
    for bs1, bs2, h1, h2, flip in itertools.product(
        BELL_ORDER, BELL_ORDER, (0, 1), (0, 1), (False, True)
    ):

        def swap(reg, bs1=bs1, bs2=bs2, h1=h1, h2=h2, flip=flip):
            pair = (reg.prepare_bell(bs1)[h1], reg.prepare_bell(bs2)[h2])
            return pair[::-1] if flip else pair

        yield swap


BELL_LAWS = {
    "same_pair": same_pair_setups,
    "x_parity": x_parity_setups,
    "teleport": teleport_setups,
    "swap": swap_setups,
}


@pytest.mark.parametrize("u", BOUNDARY_US, ids=[f"u{i}" for i in range(len(BOUNDARY_US))])
@pytest.mark.parametrize("law", BELL_LAWS)
def test_bell_measure_closed_form_at_boundaries(law, u):
    # bell_probabilities, read off bell_measure, must equal the dense oracle's
    # weights without drawing or changing a component; the outcome read off u
    # must be the inverse CDF over them, right at and just below each multiple
    # of 1/4, draw one uniform, pair the measured qubits (lower id first) and
    # leave the partners as the oracle's projection onto it does
    # (one case per law and boundary, so a failure names both)
    for setup in BELL_LAWS[law]():
        eng = QuantumRegister(0)
        orc = DenseRegister(0)
        qa, qb = setup(eng)
        assert setup(orc) == (qa, qb)
        state = eng.rng.getstate()
        snapshots = [eng.component_snapshot(q) for q in live_qubits(eng)]
        probs = eng.bell_probabilities(qa, qb)
        reference = orc.bell_probabilities(qa, qb)
        assert list(probs) == list(BELL_ORDER)
        assert all(abs(probs[bs] - reference[bs]) < 1e-12 for bs in BELL_ORDER), (qa, qb)
        assert eng.rng.getstate() == state
        assert [eng.component_snapshot(q) for q in live_qubits(eng)] == snapshots
        unknown = len(live_qubits(eng))
        for bad, message in (((qa, qa), "distinct"), ((qa, unknown), f"id {unknown}$")):
            with pytest.raises(ValueError, match=message):
                eng.bell_probabilities(*bad)
        acc, expected = 0.0, None
        for bs, p in probs.items():
            acc += p
            if expected is None and u < acc:
                expected = bs
        eng.rng = FixedUniform(u)
        outcome = eng.bell_measure(qa, qb)
        assert outcome is expected, (qa, qb, u)
        assert eng.rng.draws == 1
        assert eng.component_snapshot(qa) == (tuple(sorted((qa, qb))), outcome)
        assert orc.force_bell(qa, qb, outcome) > 0
        assert states_equal(engine_state(eng, orc.qubits), orc.amps), (qa, qb, u)


# -- Pauli unitaries -----------------------------------------------------------


@pytest.mark.parametrize(
    "state, half, pauli, expected",
    [
        (BellState.PHI_PLUS, 0, Pauli.IY, BellState.PSI_MINUS),
        (BellState.PSI_MINUS, 1, Pauli.IY, BellState.PHI_PLUS),
        (BellState.PHI_PLUS, 1, Pauli.X, BellState.PSI_PLUS),
        (BellState.PHI_PLUS, 0, Pauli.Z, BellState.PHI_MINUS),
        (1, 0, Pauli.IY, 0),
        (0, 0, Pauli.IY, 1),  # iY|0> = -|1>; the engine keeps no global phase
        (0, 0, Pauli.X, 1),
        (0, 0, Pauli.Z, 0),
    ],
)
def test_pauli_action(state, half, pauli, expected):
    reg = QuantumRegister(0)
    if state in BELL_ORDER:
        pair = reg.prepare_bell(state)
        reg.apply_pauli(pair[half], pauli)
        assert reg.bell_measure(*pair) == expected
    else:
        q = reg.alloc_qubit(state)
        reg.apply_pauli(q, pauli)
        assert reg.component_snapshot(q) == ((q,), expected)
        assert reg.measure_z(q) == (expected,)


# -- determinism, and the oracle's equality up to phase ---------------------------


def test_determinism_same_seed_same_outcomes():
    def run(seed):
        reg = QuantumRegister(seed)
        pairs = [reg.prepare_bell(BellState.PHI_PLUS, BellState.PSI_MINUS) for _ in range(100)]
        return [(reg.measure_z(a), reg.bell_measure(b, c), reg.measure_z(d)) for a, b, c, d in pairs]

    assert run(1234) == run(1234)
    assert run(1234) != run(4321)


def test_states_equal_global_phase():
    assert states_equal([0, 1], [0, -1])
    assert states_equal([INV_SQRT2, 0, 0, INV_SQRT2], [-INV_SQRT2, 0, 0, -INV_SQRT2])
    assert not states_equal([1, 0], [0, 1])


# -- oracle equivalence (smoke; the full 200-scenario run lives in acceptance) --


def test_oracle_equivalence_smoke():
    worst = 0.0
    for trial in range(25):
        worst = max(worst, run_scripted_comparison(trial, Random(5000 + trial)))
    assert worst < 1e-9


# -- sequence calls --------------------------------------------------------------


def test_sequence_calls_equal_successive_calls():
    """prepare_bell and measure_z given 0-4 elements leave the outcomes,
    components and stream of one-element calls on a twin register, and agree
    with the dense oracle called per element."""
    for seed in range(60):
        script = Random(9000 + seed)
        seq, one, orc = QuantumRegister(seed), QuantumRegister(seed), DenseRegister(seed)
        live = []
        for _ in range(8):
            k = script.randrange(5)
            if not live or (len(live) + 2 * k <= 12 and script.random() < 0.5):
                states = [script.choice(BELL_ORDER) for _ in range(k)]
                pairs = seq.prepare_bell(*states)
                assert pairs == tuple(q for bs in states for q in one.prepare_bell(bs))
                assert pairs == tuple(q for bs in states for q in orc.prepare_bell(bs))
                live.extend(pairs)
            else:  # with repeats, and partners measured within one call
                qubits = [script.choice(live) for _ in range(k)]
                outcomes = seq.measure_z(*qubits)
                assert outcomes == tuple(b for q in qubits for b in one.measure_z(q))
                assert outcomes == tuple(orc.measure_z(q) for q in qubits)
            assert states_equal(engine_state(seq, orc.qubits), orc.amps)
        assert live_qubits(seq) == live_qubits(one)
        assert [seq.component_snapshot(q) for q in live_qubits(seq)] == [
            one.component_snapshot(q) for q in live_qubits(one)
        ]
        assert seq.rng.getstate() == one.rng.getstate()


def test_empty_sequence_calls_draw_nothing():
    reg = QuantumRegister(5)
    reg.prepare_bell(BellState.PSI_MINUS)
    state = reg.rng.getstate()
    assert reg.prepare_bell() == () and reg.measure_z() == ()
    assert reg.rng.getstate() == state
    assert live_qubits(reg) == [0, 1] and reg.prepare_bell(BellState.PHI_PLUS) == (2, 3)


def test_bad_state_in_sequence_allocates_nothing():
    reg = QuantumRegister(5)
    reg.prepare_bell(BellState.PSI_MINUS)
    with pytest.raises(ValueError):
        reg.prepare_bell(BellState.PHI_PLUS, "phi+", BellState.PSI_PLUS)
    assert live_qubits(reg) == [0, 1] and reg.alloc_qubit(0) == 2
