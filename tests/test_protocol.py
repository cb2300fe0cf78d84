"""Tests for the protocol state machines of both variants."""

from random import Random

import pytest

from sqdc.adversary import AttackStrategy, InterceptResend, ModifySingleQubit
from sqdc.codec import ALPHABET, verify_block
from sqdc.keys import deinterleave, gen_keys, interleave, random_bits
from sqdc.protocol import (
    DetectionCause,
    Variant,
    alice_measure_resend_step4,
    alice_prepare,
    alice_randomization_step4,
    bob_measure_resend_step23,
    bob_randomization_step2,
    bob_randomization_step3,
    run_session,
)
from sqdc.qsim import BellState, Pauli, QuantumRegister

CHI2_CRIT_DF1_P01 = 6.635


def make_session(n, seed, variant=Variant.RANDOMIZATION):
    rng = Random(seed)
    keys = gen_keys(n, rng, include_k2=variant is Variant.RANDOMIZATION)
    m = random_bits(n // 8, rng)
    register = QuantumRegister(seed * 7919 + 1)
    session, q_seq = alice_prepare(m, keys, register, variant)
    return m, keys, register, session, q_seq


# -- preparation ------------------------------------------------------------------


def test_prepare_structure_n16():
    m, keys, register, session, q_seq = make_session(16, 0)
    assert len(session.block) == 4
    assert len(session.c_pairs) == 8
    assert len(q_seq) == 16
    assert all(state in (BellState.PHI_PLUS, BellState.PSI_MINUS)
               for _, state in session.c_pairs)


def test_prepare_zero_message_pairs():
    rng = Random(1)
    keys = gen_keys(32, rng)
    register = QuantumRegister(2)
    session, q_seq = alice_prepare([0, 0, 0, 0], keys, register, Variant.RANDOMIZATION)
    # message-half pairs all encode zero; the checksum half still varies
    assert session.block[:4] == [0, 0, 0, 0]
    s_seq, _ = deinterleave(q_seq, keys)
    for i, bit in enumerate(session.block):
        probs = register.bell_probabilities(s_seq[2 * i], s_seq[2 * i + 1])
        assert probs[BellState.PSI_MINUS if bit else BellState.PHI_PLUS] == 1.0


def test_prepare_checking_states_uniform():
    counts = 0
    total = 0
    for seed in range(10_000):
        rng = Random(seed)
        keys = gen_keys(16, rng)
        register = QuantumRegister(seed)
        session, _ = alice_prepare(random_bits(2, rng), keys, register, Variant.RANDOMIZATION)
        counts += sum(1 for _, s in session.c_pairs if s == BellState.PHI_PLUS)
        total += len(session.c_pairs)
    assert abs(counts / total - 0.5) < 0.02


def test_prepare_key_length_mismatch():
    rng = Random(3)
    keys = gen_keys(16, rng)
    with pytest.raises(ValueError):
        alice_prepare(random_bits(4, rng), keys, QuantumRegister(0), Variant.RANDOMIZATION)


def test_prepare_randomization_needs_k2():
    # and measure-resend refuses one, which it would silently ignore
    rng = Random(4)
    keys = gen_keys(16, rng, include_k2=False)
    with pytest.raises(ValueError, match="randomization variant needs k2"):
        alice_prepare(random_bits(2, rng), keys, QuantumRegister(0), Variant.RANDOMIZATION)
    m, keys = random_bits(2, rng), gen_keys(16, Random(4))
    with pytest.raises(ValueError, match="measure-resend variant takes no k2"):
        run_session(Variant.MEASURE_RESEND, m, keys, AttackStrategy(), QuantumRegister(7))


# -- randomization variant ---------------------------------------------------------


def test_honest_randomization_steps():
    for seed in range(200):
        m, keys, register, session, q_seq = make_session(16, seed)
        ok, decoded, cb = bob_randomization_step2(q_seq, keys, register)
        assert ok and decoded == m
        reflected = bob_randomization_step3(cb, keys)
        assert len(reflected) == 8
        cause, matches = alice_randomization_step4(reflected, session, register)
        assert cause is DetectionCause.NONE and all(matches)


def test_modify_one_s_qubit_flips_exactly_one_block_bit():
    for seed in range(200):
        m, keys, register, session, q_seq = make_session(32, seed)
        rng = Random(seed + 5000)
        s_positions = [i for i, b in enumerate(keys.k1) if b == 0]
        j = rng.randrange(len(s_positions))
        register.apply_pauli(q_seq[s_positions[j]], Pauli.IY)
        s_qubits, _ = deinterleave(q_seq, keys)
        results = register.measure_z(*s_qubits)
        block = [results[2 * i] ^ results[2 * i + 1] for i in range(8)]
        diff = [i for i in range(8) if block[i] != session.block[i]]
        assert diff == [j // 2]


def test_modify_s_qubit_rejected_by_bob():
    rejects = 0
    trials = 300
    for seed in range(trials):
        m, keys, register, session, q_seq = make_session(32, seed)
        s_positions = [i for i, b in enumerate(keys.k1) if b == 0]
        register.apply_pauli(q_seq[s_positions[0]], Pauli.IY)
        ok, _, _ = bob_randomization_step2(q_seq, keys, register)
        if not ok:
            rejects += 1
    # rejection fails only on a truncated-digest collision (rate ~2^-4 at n=32)
    assert rejects / trials >= 1 - 2 ** -4 - 3 * (2 ** -4 / trials) ** 0.5


def test_intercepted_check_pairs_match_half_the_time():
    # Z-measuring a checking qubit in transit leaves a 1/2 per-pair match rate
    matches = 0
    total = 0
    for seed in range(500):
        m, keys, register, session, q_seq = make_session(16, seed)
        attack = InterceptResend()
        q_obs = attack.tamper_forward(register, q_seq)
        ok, decoded, cb = bob_randomization_step2(q_obs, keys, register)
        assert ok and decoded == m  # parity survives Z measurement
        reflected = bob_randomization_step3(cb, keys)
        _, per_pair = alice_randomization_step4(reflected, session, register)
        matches += sum(per_pair)
        total += len(per_pair)
    sigma = (0.25 / total) ** 0.5
    assert abs(matches / total - 0.5) <= 3 * sigma


def test_step4_wrong_length():
    m, keys, register, session, _ = make_session(16, 9)
    with pytest.raises(ValueError):
        alice_randomization_step4([1, 2, 3], session, register)


# -- measure-resend variant ---------------------------------------------------------


def test_honest_measure_resend_bob():
    for seed in range(200):
        m, keys, register, session, q_seq = make_session(16, seed, Variant.MEASURE_RESEND)
        ok, decoded, returned = bob_measure_resend_step23(q_seq, keys, register)
        assert ok and decoded == m
        assert len(returned) == 16
        # SHARE positions carry fresh qubits, CHECK positions the originals
        for bit, before, after in zip(keys.k1, q_seq, returned):
            assert (before == after) == (bit == 1)


def test_honest_measure_resend_alice_verdicts():
    reflect_flags = 0
    trials = 2000
    for seed in range(trials):
        m, keys, register, session, q_seq = make_session(16, seed, Variant.MEASURE_RESEND)
        _, _, returned = bob_measure_resend_step23(q_seq, keys, register)
        cause, matches = alice_measure_resend_step4(returned, session, register)
        assert all(matches)  # reflected checking qubits are undisturbed
        assert cause in (DetectionCause.NONE, DetectionCause.REFLECT_FLAG)
        if cause is DetectionCause.REFLECT_FLAG:
            reflect_flags += 1
    # spurious reflect flag fires at (1/2)^(n/4) = 1/16
    p = 2 ** -4
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(reflect_flags / trials - p) <= 3.5 * sigma


def test_measure_resend_returned_bell_outcomes_uniform_on_allowed_set():
    # per returned message pair the outcome is uniform on its 2-element
    # parity class; chi-square per class at alpha=0.01
    counts = {0: [0, 0], 1: [0, 0]}
    sessions = 6500  # 16 message pairs each at n=64
    for seed in range(sessions):
        m, keys, register, session, q_seq = make_session(64, seed, Variant.MEASURE_RESEND)
        _, _, returned = bob_measure_resend_step23(q_seq, keys, register)
        s_returned, _ = deinterleave(returned, keys)
        for i, bit in enumerate(session.block):
            outcome = register.bell_measure(s_returned[2 * i], s_returned[2 * i + 1])
            if bit == 0:
                assert outcome in (BellState.PHI_PLUS, BellState.PHI_MINUS)
                counts[0][outcome == BellState.PHI_MINUS] += 1
            else:
                assert outcome in (BellState.PSI_PLUS, BellState.PSI_MINUS)
                counts[1][outcome == BellState.PSI_MINUS] += 1
    for bit in (0, 1):
        total = sum(counts[bit])
        assert total >= 25_000
        expected = total / 2
        chi2 = sum((c - expected) ** 2 / expected for c in counts[bit])
        assert chi2 < CHI2_CRIT_DF1_P01


def test_measure_resend_modified_s_qubit_rejected():
    for seed in range(200):
        m, keys, register, session, q_seq = make_session(32, seed, Variant.MEASURE_RESEND)
        s_positions = [i for i, b in enumerate(keys.k1) if b == 0]
        register.apply_pauli(q_seq[s_positions[2]], Pauli.IY)
        ok, _, returned = bob_measure_resend_step23(q_seq, keys, register)
        # parity flip also lands the returned pair outside its allowed class
        cause, _ = alice_measure_resend_step4(returned, session, register)
        assert cause is DetectionCause.BELL_CHECK_FAILED


@pytest.mark.parametrize(
    "s_pauli, c_pauli, expected",
    [
        (None, None, DetectionCause.REFLECT_FLAG),
        (Pauli.Z, None, DetectionCause.NONE),  # Phi+ <-> Phi-, Psi- <-> Psi+
        (Pauli.X, None, DetectionCause.BELL_CHECK_FAILED),  # leaves the parity class
        (None, Pauli.X, DetectionCause.BELL_CHECK_FAILED),  # breaks a checking pair
    ],
)
def test_measure_resend_step4_causes_exact(s_pauli, c_pauli, expected):
    # Checking halves come back reflected and every message pair is a fresh Bell
    # pair, so every Bell outcome Alice draws is certain.
    for seed in range(20):
        m, keys, register, session, q_seq = make_session(32, seed, Variant.MEASURE_RESEND)
        _, cb = deinterleave(q_seq, keys)
        s = [q for bit in session.block for q in register.prepare_bell(ALPHABET[bit])]
        if s_pauli is not None:
            register.apply_pauli(s[2 * (seed % len(session.block))], s_pauli)
        if c_pauli is not None:
            register.apply_pauli(cb[seed % len(cb)], c_pauli)
        cause, matches = alice_measure_resend_step4(interleave(s, cb, keys), session, register)
        assert cause is expected
        assert all(matches) == (c_pauli is None)


# -- orchestration ---------------------------------------------------------------


def test_run_session_honest_outcome():
    rng = Random(77)
    keys = gen_keys(16, rng)
    m = random_bits(2, rng)
    outcome = run_session(Variant.RANDOMIZATION, m, keys, AttackStrategy(), QuantumRegister(123))
    assert outcome.bob_accepts and outcome.alice_accepts
    assert outcome.decoded_message == m
    assert outcome.detection_cause is DetectionCause.NONE
    assert not outcome.security_event
    assert not outcome.detected


def test_run_session_deterministic():
    rng = Random(78)
    keys = gen_keys(16, rng)
    m = random_bits(2, rng)
    a = run_session(Variant.RANDOMIZATION, m, keys, AttackStrategy(), QuantumRegister(5))
    b = run_session(Variant.RANDOMIZATION, m, keys, AttackStrategy(), QuantumRegister(5))
    assert a == b


def test_detection_accounting_invariant():
    # detection_cause is NONE exactly when both parties accept
    rng = Random(79)
    for seed in range(300):
        keys = gen_keys(16, Random(seed))
        m = random_bits(2, Random(seed + 1))
        attack = ModifySingleQubit(rng.randrange(16))
        out = run_session(Variant.RANDOMIZATION, m, keys, attack, QuantumRegister(seed))
        both = bool(out.bob_accepts) and out.alice_accepts
        assert (out.detection_cause is DetectionCause.NONE) == both
        if out.security_event:
            assert out.bob_accepts
