"""Tests for the attack strategies and their statistical signatures."""

from random import Random

import pytest

from sqdc.adversary import (
    ATTACKS,
    AttackStrategy,
    ImpersonateAlice,
    ImpersonateBobConcrete,
    ImpersonateBobIdealized,
    InterceptResend,
    ModifySingleQubit,
    ReflectAll,
)
from sqdc.keys import gen_keys, random_bits
from sqdc.protocol import DetectionCause, Variant, run_session
from sqdc.qsim import BellState, QuantumRegister
from dense_oracle import DenseRegister


def run_many(variant, n, attack_factory, trials, base_seed, include_k2=None):
    if include_k2 is None:
        include_k2 = variant is Variant.RANDOMIZATION
    outcomes = []
    for i in range(trials):
        rng = Random(base_seed + i)
        keys = gen_keys(n, rng, include_k2=include_k2)
        m = random_bits(n // 8, rng)
        register = QuantumRegister(base_seed * 31 + i)
        outcomes.append(run_session(variant, m, keys, attack_factory(rng), register))
    return outcomes


# -- baseline -----------------------------------------------------------------


def test_no_attack_hooks_are_identity():
    attack = AttackStrategy()
    register = QuantumRegister(0)
    qubits = [register.alloc_qubit(0) for _ in range(4)]
    assert attack.tamper_forward(register, qubits) == qubits
    assert attack.tamper_backward(register, qubits) == qubits
    assert not attack.bypasses_bob


# -- intercept-resend ----------------------------------------------------------


def test_intercept_resend_forwards_fresh_qubits():
    seen = set()
    for seed in range(8):
        register = QuantumRegister(seed)
        qa, qb = register.prepare_bell(BellState.PHI_PLUS)
        fresh = InterceptResend().tamper_forward(register, [qa, qb])
        assert len(fresh) == 2 and not {qa, qb} & set(fresh)
        bits = []
        for q in fresh:
            # a basis qubit |b>: its Z outcome is b, and measuring repeats it
            qubits, bit = register.component_snapshot(q)
            assert qubits == (q,) and bit in (0, 1)
            (b,) = register.measure_z(q)
            assert b == bit and register.measure_z(q) == (b,)
            bits.append(b)
        assert bits[0] == bits[1]  # Phi+ is correlated in Z
        seen.add(bits[0])
    assert seen == {0, 1}


def test_intercept_resend_detection_rate_n16():
    outcomes = run_many(Variant.RANDOMIZATION, 16, lambda rng: InterceptResend(), 2000, 100)
    assert all(o.bob_accepts for o in outcomes)  # parity survives Z measurement
    detected = sum(o.detected for o in outcomes)
    p = 1 - 0.5 ** 8
    sigma = (p * (1 - p) / len(outcomes)) ** 0.5
    assert abs(detected / len(outcomes) - p) <= 3 * sigma
    assert all(o.detection_cause in (DetectionCause.NONE, DetectionCause.BELL_CHECK_FAILED)
               for o in outcomes)


def test_intercepted_check_slot_match_rate_is_half():
    outcomes = run_many(Variant.RANDOMIZATION, 16, lambda rng: InterceptResend(), 2000, 200)
    matched = sum(sum(o.check_matches) for o in outcomes)
    total = sum(len(o.check_matches) for o in outcomes)
    sigma = (0.25 / total) ** 0.5
    assert abs(matched / total - 0.5) <= 3 * sigma


# -- receiver impersonation ------------------------------------------------------


def test_impersonate_bob_idealized_per_slot_rate():
    outcomes = run_many(
        Variant.RANDOMIZATION, 16, ImpersonateBobIdealized, 3000, 300
    )
    matched = sum(sum(o.check_matches) for o in outcomes)
    total = sum(len(o.check_matches) for o in outcomes)
    p = 5 / 8
    sigma = (p * (1 - p) / total) ** 0.5
    assert abs(matched / total - p) <= 3 * sigma


def test_impersonate_bob_idealized_detection_rate():
    outcomes = run_many(
        Variant.RANDOMIZATION, 16, ImpersonateBobIdealized, 3000, 400
    )
    detected = sum(o.detected for o in outcomes)
    p = 1 - (5 / 8) ** 8
    sigma = (p * (1 - p) / len(outcomes)) ** 0.5
    assert abs(detected / len(outcomes) - p) <= 3 * sigma


def test_impersonate_bob_concrete_bypasses_bob():
    outcomes = run_many(
        Variant.RANDOMIZATION, 16, ImpersonateBobConcrete, 500, 500
    )
    assert all(o.bob_accepts is None for o in outcomes)
    assert all(o.decoded_message is None for o in outcomes)
    assert not any(o.security_event for o in outcomes)
    # blind guessing over subsets and orderings is detected almost surely
    assert sum(o.detected for o in outcomes) / len(outcomes) >= 0.99


def test_concrete_guess_matches_stdlib_sample():
    # the inlined draw must take the words `Random.sample` takes, or reports drift
    for n in range(16, 2049, 8):
        qubits = list(range(1000, 1000 + n))
        ours, stdlib = Random(n), Random(n)
        guess = ImpersonateBobConcrete(ours).tamper_backward(None, qubits)
        assert guess == stdlib.sample(qubits, n // 2), f"n={n}"
        assert ours.getstate() == stdlib.getstate(), f"n={n}"
    assert qubits == list(range(1000, 1000 + n))  # the forward sequence is not mutated


def test_impersonate_bob_unknown_mode():
    with pytest.raises(ValueError):
        ATTACKS["impersonate_bob"].check(Variant.RANDOMIZATION, 16, {"mode": "quantum_memory"})


def test_wrong_partner_bell_outcome_uniform_exact():
    # measuring a checking qubit against a stranger from another pair leaves
    # each Bell outcome with probability exactly 1/4
    for state_a in (BellState.PHI_PLUS, BellState.PSI_MINUS):
        for state_b in (BellState.PHI_PLUS, BellState.PSI_MINUS):
            register = QuantumRegister(7)
            a1, _ = register.prepare_bell(state_a)
            _, b2 = register.prepare_bell(state_b)
            probs = register.bell_probabilities(a1, b2)
            assert all(abs(p - 0.25) < 1e-12 for p in probs.values())


# -- sender impersonation ----------------------------------------------------------


def test_impersonate_alice_acceptance_bounded_by_forgery_rate():
    outcomes = run_many(Variant.RANDOMIZATION, 32, ImpersonateAlice, 2000, 600)
    accepts = sum(bool(o.bob_accepts) for o in outcomes)
    p = 2 ** -4  # truncated-digest collision rate at n=32
    sigma = (p * (1 - p) / len(outcomes)) ** 0.5
    assert accepts / len(outcomes) <= p + 3 * sigma
    for o in outcomes:
        # a forgery slipping past the checksum is a security event unless it
        # happened to decode to the genuine message
        if o.security_event:
            assert o.bob_accepts


# -- single-qubit modification ------------------------------------------------------


def test_modify_single_checking_qubit_always_detected():
    for i in range(300):
        rng = Random(700 + i)
        keys = gen_keys(16, rng)
        m = random_bits(2, rng)
        c_positions = [j for j, b in enumerate(keys.k1) if b == 1]
        attack = ModifySingleQubit(rng.choice(c_positions))
        out = run_session(Variant.RANDOMIZATION, m, keys, attack, QuantumRegister(9000 + i))
        assert out.bob_accepts  # the message stream is untouched
        assert not out.alice_accepts
        assert out.detection_cause is DetectionCause.BELL_CHECK_FAILED


def test_modify_single_validation():
    with pytest.raises(ValueError):
        ModifySingleQubit(-1)
    attack = ModifySingleQubit(99)
    with pytest.raises(ValueError):
        attack.tamper_forward(QuantumRegister(0), [1, 2, 3])
    assert attack.target == 99


# -- reflect-all ---------------------------------------------------------------


def test_reflect_all_always_flagged():
    outcomes = run_many(Variant.MEASURE_RESEND, 16, lambda rng: ReflectAll(), 300, 800)
    for o in outcomes:
        assert o.bob_accepts is None
        assert not o.alice_accepts
        assert o.detection_cause is DetectionCause.REFLECT_FLAG


class RecordingBypass(AttackStrategy):
    """Bypasses Bob and records what each hook receives. Its forward hook
    reverses the sequence, so the backward hook must see that reversal."""

    bypasses_bob = True

    def __init__(self, keep):
        self.keep = keep
        self.seen = {}

    def tamper_forward(self, register, qubits):
        self.seen["forward"] = list(qubits)
        return qubits[::-1]

    def tamper_backward(self, register, qubits):
        self.seen["backward"] = list(qubits)
        return qubits[: self.keep]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_bypassing_attack_receives_forward_sequence(variant):
    n = 16
    rng = Random(3)
    keys = gen_keys(n, rng, include_k2=variant is Variant.RANDOMIZATION)
    # Alice's check needs n/2 returned qubits in randomization, n in measure-resend
    attack = RecordingBypass(n // 2 if variant is Variant.RANDOMIZATION else n)
    outcome = run_session(variant, random_bits(n // 8, rng), keys, attack, QuantumRegister(7))
    assert len(attack.seen["forward"]) == n
    assert attack.seen["backward"] == attack.seen["forward"][::-1]
    assert outcome.bob_accepts is None and outcome.decoded_message is None


# -- reordered-reflection correlations ------------------------------------------


def cycle_count(sigma):
    seen = set()
    cycles = 0
    for start in range(len(sigma)):
        if start in seen:
            continue
        cycles += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = sigma[j]
    return cycles


@pytest.mark.parametrize(
    "sigma",
    [
        (0, 1, 2, 3, 4, 5, 6, 7),  # identity: 8 cycles
        (1, 0, 2, 3, 4, 5, 6, 7),  # one swap: 7 cycles
        (1, 2, 0, 3, 4, 5, 6, 7),  # one 3-cycle: 6 cycles
        (1, 2, 3, 4, 5, 6, 7, 0),  # full rotation: 1 cycle
        (1, 0, 3, 2, 5, 4, 7, 6),  # four swaps: 4 cycles
    ],
)
def test_all_checks_pass_probability_follows_cycle_law(sigma):
    # If the verifier Bell-measures retained qubit i against the transmitted
    # qubit of pair sigma(i), entanglement swapping correlates the per-slot
    # pass events: P(all pass) = (1/4)^(slots - cycles), not (1/4)^(wrong slots).
    rng = Random(42)
    reg = DenseRegister(0)
    initials = [rng.choice((BellState.PHI_PLUS, BellState.PSI_MINUS)) for _ in sigma]
    pairs = [reg.prepare_bell(s) for s in initials]
    prob = 1.0
    for i, s in enumerate(initials):
        prob *= reg.force_bell(pairs[i][0], pairs[sigma[i]][1], s)
    expected = 0.25 ** (len(sigma) - cycle_count(sigma))
    assert abs(prob - expected) < 1e-12


def test_base_strategy_subclass_contract():
    class Null(AttackStrategy):
        pass

    attack = Null()
    register = QuantumRegister(0)
    assert attack.tamper_forward(register, [5]) == [5]
    assert attack.tamper_backward(register, [5]) == [5]
