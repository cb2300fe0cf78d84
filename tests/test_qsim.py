"""Tests for the exact engine, whose components are basis qubits and
labelled Bell pairs: snapshots (read as amplitudes through the dense oracle's
vectors), Born statistics, collapse, teleportation and entanglement swapping,
and agreement with the dense full-register oracle on random scripts
(outcomes, Bell-outcome probabilities and the full state after each step)."""

import itertools
import re
from collections import Counter
from random import Random

import pytest

from sqdc.qsim import (
    BELL_ORDER,
    BellState,
    Pauli,
    QuantumRegister,
)

from dense_oracle import DenseRegister, snapshot_amplitudes, states_equal

INV_SQRT2 = 2 ** -0.5

CHI2_CRIT_DF3_P01 = 11.345  # chi-square critical value, df=3, alpha=0.01; criterion 4 reads it


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
    with pytest.raises(ValueError, match=message):
        call(reg)
    assert reg.measure_z(0) == (0,)  # the basis qubit is untouched


def test_alloc_then_measure_is_deterministic():
    reg = QuantumRegister(0)
    for b in (0, 1):
        for _ in range(50):
            q = reg.alloc_qubit(b)
            assert reg.measure_z(q) == (b,)


def test_bell_states_orthonormal():
    # the engine's snapshots read through the oracle's vectors; the oracle's
    # evolution checks them in test_same_pair_bell_measure_certain_in_both_orders
    reg = QuantumRegister(0)
    vectors = {
        bs: snapshot_amplitudes(reg.component_snapshot(reg.prepare_bell(bs)[0]))[1]
        for bs in BELL_ORDER
    }
    for a in BELL_ORDER:
        for b in BELL_ORDER:
            dot = sum(x.conjugate() * y for x, y in zip(vectors[a], vectors[b]))
            assert abs(dot - (1.0 if a is b else 0.0)) < 1e-12


def test_qubit_ids_never_reused():
    reg = QuantumRegister(0)
    ids = [reg.alloc_qubit(0) for _ in range(10)]
    ids += [q for _ in range(5) for q in reg.prepare_bell(BellState.PHI_PLUS)]
    assert len(set(ids)) == len(ids)


# -- Z measurement -----------------------------------------------------------


@pytest.mark.parametrize("state, seed", [(BellState.PHI_PLUS, 42), (BellState.PSI_MINUS, 43)])
def test_measured_partners_read_the_parity(state, seed):
    # Phi+ partners agree in Z, Psi- partners disagree
    reg = QuantumRegister(seed)
    for _ in range(500):
        qa, qb = reg.prepare_bell(state)
        (a,), (b,) = reg.measure_z(qa), reg.measure_z(qb)
        assert a ^ b == (state is BellState.PSI_MINUS)


def test_measurement_splits_component():
    reg = QuantumRegister(0)
    qa, qb = reg.prepare_bell(BellState.PHI_PLUS)
    assert reg.component_snapshot(qa) == reg.component_snapshot(qa)  # a snapshot is a pure read
    (b,) = reg.measure_z(qa)
    assert reg.component_snapshot(qa) == ((qa,), b)
    assert reg.component_snapshot(qb) == ((qb,), b)


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
    reg, counts, trials = QuantumRegister(11), Counter(), 4000
    for _ in range(trials):
        counts[reg.bell_measure(reg.alloc_qubit(0), reg.alloc_qubit(0))] += 1
        if len(reg.live_qubits()) > 4000:
            reg = QuantumRegister(reg.rng.getrandbits(32))
    assert counts[BellState.PSI_PLUS] == counts[BellState.PSI_MINUS] == 0
    assert abs(counts[BellState.PHI_PLUS] / trials - 0.5) < 0.05


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


def test_bell_measure_entanglement_swap():
    # measuring one qubit from each of two Bell pairs leaves the two
    # leftover qubits in a definite Bell state
    reg = QuantumRegister(23)
    for _ in range(200):
        a1, a2 = reg.prepare_bell(BellState.PHI_PLUS)
        b1, b2 = reg.prepare_bell(BellState.PHI_PLUS)
        reg.bell_measure(a1, b2)
        qubits, _ = reg.component_snapshot(a2)
        assert qubits == tuple(sorted((b1, a2)))
        probs = reg.bell_probabilities(a2, b1)
        assert max(probs.values()) > 1 - 1e-9


def test_same_pair_bell_measure_certain_in_both_orders():
    # every Bell state, bare or after a Pauli on either half, measured in the
    # stored and the swapped order: one uniform drawn, the outcome and the
    # collapsed state of the dense oracle
    for seed, (bs, pauli, half, swapped) in enumerate(
        (bs, pauli, half, swapped)
        for bs in BELL_ORDER
        for pauli in (None, *Pauli)
        for half in (0, 1)
        for swapped in (False, True)
    ):
        eng = QuantumRegister(seed)
        orc = DenseRegister(seed)
        pair = eng.prepare_bell(bs)
        assert orc.prepare_bell(bs) == pair
        if pauli is not None:
            eng.apply_pauli(pair[half], pauli)
            orc.apply_pauli(pair[half], pauli)
        qa, qb = pair[::-1] if swapped else pair
        (expected,) = [b for b, p in eng.bell_probabilities(*pair).items() if p == 1.0]

        twin = Random(seed)
        twin.random()
        outcome = eng.bell_measure(qa, qb)
        assert eng.rng.getstate() == twin.getstate()
        assert outcome == orc.bell_measure(qa, qb)
        assert states_equal(engine_state(eng, orc.qubits), orc.amps)
        assert eng.component_snapshot(qa) == (tuple(sorted((qa, qb))), outcome)
        assert outcome is expected  # every Bell state is (anti)symmetric


BOUNDARY_US = (0.0, 0.25 - 2**-53, 0.25, 0.5 - 2**-53, 0.5, 0.75, 1 - 2**-53)


class FixedUniform:
    """Stands in for a register's rng: every uniform is u, and draws are counted."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


def bell_boundary_setups():
    """Scripts that prepare qubits on a register (engine or oracle; both hand
    out the same ids) and return the two to Bell-measure."""
    for bs in BELL_ORDER:  # one pair, measured in swapped order
        yield lambda reg, bs=bs: reg.prepare_bell(bs)[::-1]
    for a, b in itertools.product((0, 1), repeat=2):  # X parity a ^ b
        yield lambda reg, a=a, b=b: (reg.alloc_qubit(a), reg.alloc_qubit(b))
    for bit, bs, half, flip in itertools.product((0, 1), BELL_ORDER, (0, 1), (False, True)):

        def teleport(reg, bit=bit, bs=bs, half=half, flip=flip):
            q = reg.alloc_qubit(bit)
            pair = (q, reg.prepare_bell(bs)[half])
            return pair[::-1] if flip else pair

        yield teleport
    for bs1, bs2, h1, h2, flip in itertools.product(
        BELL_ORDER, BELL_ORDER, (0, 1), (0, 1), (False, True)
    ):

        def swap(reg, bs1=bs1, bs2=bs2, h1=h1, h2=h2, flip=flip):
            pair = (reg.prepare_bell(bs1)[h1], reg.prepare_bell(bs2)[h2])
            return pair[::-1] if flip else pair

        yield swap


def test_bell_measure_closed_form_at_boundaries():
    # bell_probabilities, read off bell_measure, must equal the dense oracle's
    # weights without drawing or changing a component; the outcome read off u
    # must be the inverse CDF over them, right at and just below each multiple
    # of 1/4, and leave the partners as the oracle's projection onto it does
    for setup in bell_boundary_setups():
        for u in BOUNDARY_US:
            eng = QuantumRegister(0)
            orc = DenseRegister(0)
            qa, qb = setup(eng)
            assert setup(orc) == (qa, qb)
            state = eng.rng.getstate()
            snapshots = [eng.component_snapshot(q) for q in eng.live_qubits()]
            probs = eng.bell_probabilities(qa, qb)
            reference = orc.bell_probabilities(qa, qb)
            assert list(probs) == list(BELL_ORDER)
            assert all(abs(probs[bs] - reference[bs]) < 1e-12 for bs in BELL_ORDER), (qa, qb)
            assert eng.rng.getstate() == state
            assert [eng.component_snapshot(q) for q in eng.live_qubits()] == snapshots
            unknown = len(eng.live_qubits())
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


# -- snapshots, normalization, determinism -------------------------------------


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
            _, amps = snapshot_amplitudes(reg.component_snapshot(q))
            assert abs(sum(abs(a) ** 2 for a in amps) - 1.0) < 1e-9


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


def engine_state(eng, order):
    """The engine's full state: the tensor product of its component snapshots,
    read as amplitudes through the oracle's vectors, with the qubits in `order`
    (first qubit owns the most significant bit)."""
    qubits, amps = [], [1 + 0j]
    for q in eng.live_qubits():
        if q not in qubits:
            comp_qubits, comp_amps = snapshot_amplitudes(eng.component_snapshot(q))
            qubits += comp_qubits
            amps = [a * b for a in amps for b in comp_amps]
    k = len(qubits)
    shifts = [k - 1 - order.index(q) for q in qubits]
    out = [0j] * len(amps)
    for i, a in enumerate(amps):
        out[sum(1 << s for pos, s in enumerate(shifts) if (i >> (k - 1 - pos)) & 1)] = a
    return out


def assert_components_shared(eng):
    """Each live qubit's component lists it, and every qubit it lists reads
    the same snapshot: a component is one value bound to all of its qubits."""
    for q in eng.live_qubits():
        snapshot = eng.component_snapshot(q)
        assert q in snapshot[0]
        for p in snapshot[0]:
            assert eng.component_snapshot(p) == snapshot, (q, p)


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
            (b,) = eng.measure_z(q)
            assert b == orc.measure_z(q)
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
        assert_components_shared(eng)
        assert states_equal(engine_state(eng, orc.qubits), orc.amps)
    return worst


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
        assert seq.live_qubits() == one.live_qubits()
        assert [seq.component_snapshot(q) for q in seq.live_qubits()] == [
            one.component_snapshot(q) for q in one.live_qubits()
        ]
        assert seq.rng.getstate() == one.rng.getstate()


def test_empty_sequence_calls_draw_nothing():
    reg = QuantumRegister(5)
    reg.prepare_bell(BellState.PSI_MINUS)
    state = reg.rng.getstate()
    assert reg.prepare_bell() == () and reg.measure_z() == ()
    assert reg.rng.getstate() == state
    assert reg.live_qubits() == [0, 1] and reg.prepare_bell(BellState.PHI_PLUS) == (2, 3)


def test_bad_state_in_sequence_allocates_nothing():
    reg = QuantumRegister(5)
    reg.prepare_bell(BellState.PSI_MINUS)
    with pytest.raises(ValueError):
        reg.prepare_bell(BellState.PHI_PLUS, "phi+", BellState.PSI_PLUS)
    assert reg.live_qubits() == [0, 1] and reg.alloc_qubit(0) == 2
