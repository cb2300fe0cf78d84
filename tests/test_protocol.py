"""Tests for the protocol state machines of both variants."""

from random import Random

import pytest

from sqdc.adversary import AttackStrategy
from sqdc.codec import ALPHABET
from sqdc.harness import run_trial
from sqdc.keys import deinterleave, gen_keys, interleave, random_bits
from sqdc.protocol import (
    DetectionCause,
    Variant,
    alice_measure_resend_step4,
    alice_prepare,
    alice_randomization_step4,
    bob_measure_resend_step23,
    run_session,
)
from sqdc.qsim import BellState, Pauli, QuantumRegister
from pins import attack_of, make_config, trial_outcomes


def make_session(n, seed, variant=Variant.RANDOMIZATION):
    rng = Random(seed)
    keys = gen_keys(n, rng, include_k2=variant.holds_k2)
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
    counts = total = 0
    for seed in range(10_000):
        session = make_session(16, seed)[3]
        counts += sum(1 for _, s in session.c_pairs if s == BellState.PHI_PLUS)
        total += len(session.c_pairs)
    assert abs(counts / total - 0.5) <= 3 * (0.25 / total) ** 0.5


def keys_then_message(seed, n, message_bits, include_k2=True):
    """A message and keys for n qubits, the keys drawn first from Random(seed)."""
    rng = Random(seed)
    keys = gen_keys(n, rng, include_k2=include_k2)
    return random_bits(message_bits, rng), keys


def step4_of_three_qubits():
    _, _, register, session, _ = make_session(16, 9)
    alice_randomization_step4([1, 2, 3], session, register)


@pytest.mark.parametrize(
    "call, message",
    [
        # keys for 16 qubits, a message for 32
        (lambda: alice_prepare(*keys_then_message(3, 16, 4), QuantumRegister(0), Variant.RANDOMIZATION),
         "k1 must have 32 bits"),
        (lambda: alice_prepare(*keys_then_message(4, 16, 2, include_k2=False), QuantumRegister(0),
                               Variant.RANDOMIZATION), "randomization variant needs k2"),
        # measure-resend would silently ignore a k2
        (lambda: run_session(Variant.MEASURE_RESEND, *keys_then_message(4, 16, 2), AttackStrategy(),
                             QuantumRegister(7)), "measure-resend variant takes no k2"),
        (step4_of_three_qubits, "sequence length must match permutation length"),
    ],
    ids=["k1-length", "k2-missing", "k2-surplus", "step4-length"],
)
def test_protocol_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- randomization variant ---------------------------------------------------------


def test_honest_randomization_steps():
    for out in trial_outcomes(make_config(n=16, trials=200, seed=0)):
        assert out.bob_accepts and not out.security_event
        assert out.detection_cause is DetectionCause.NONE
        assert len(out.check_matches) == 8 and all(out.check_matches)


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
    # A flipped message-half qubit flips one message bit, and at n = 32 every such
    # flip changes the checksum: test_codec's exact rates put detection at 1 here.
    config = make_config(**attack_of("modify_single", target="s_msg"), n=32, trials=300, seed=0)
    assert not any(out.bob_accepts for out in trial_outcomes(config))


def test_message_qubit_flip_is_bobs_rejection_alone():
    # at n = 32 every one-bit flip of a block fails its checksum, and no checking pair is touched
    config = make_config(**attack_of("modify_single", target="s"), n=32, trials=50, seed=0)
    for out in trial_outcomes(config):
        assert (out.bob_accepts, out.alice_accepts, all(out.check_matches)) == (False, True, True)
        assert out.detection_cause is DetectionCause.HASH_MISMATCH


def test_intercepted_check_pairs_match_half_the_time():
    # Z-measuring a checking qubit in transit leaves a 1/2 per-pair match rate
    matches = []
    for out in trial_outcomes(make_config(attack="intercept_resend", n=16, trials=500, seed=0)):
        assert out.bob_accepts and not out.security_event  # parity survives Z measurement
        matches += out.check_matches
    sigma = (0.25 / len(matches)) ** 0.5
    assert abs(sum(matches) / len(matches) - 0.5) <= 3 * sigma


# -- measure-resend variant ---------------------------------------------------------


def test_honest_measure_resend_verdicts():
    reflect_flags = 0
    trials = 2000
    for seed in range(trials):
        m, keys, register, session, q_seq = make_session(16, seed, Variant.MEASURE_RESEND)
        ok, decoded, returned = bob_measure_resend_step23(q_seq, keys, register)
        assert ok and decoded == m
        # SHARE positions carry fresh qubits, CHECK positions the originals
        assert [a == b for a, b in zip(q_seq, returned, strict=True)] == [k == 1 for k in keys.k1]
        cause, matches = alice_measure_resend_step4(returned, session, register)
        assert all(matches)  # reflected checking qubits are undisturbed
        assert cause in (DetectionCause.NONE, DetectionCause.REFLECT_FLAG)
        if cause is DetectionCause.REFLECT_FLAG:
            reflect_flags += 1
    # spurious reflect flag fires at (1/2)^(n/4) = 1/16
    p = 2 ** -4
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(reflect_flags / trials - p) <= 3.5 * sigma


def test_measure_resend_modified_s_qubit_rejected():
    # parity flip also lands the returned pair outside its allowed class
    attack = attack_of("modify_single", target="s")
    config = make_config(variant=Variant.MEASURE_RESEND, **attack, n=32, trials=200, seed=0)
    assert {out.detection_cause for out in trial_outcomes(config)} == {DetectionCause.BELL_CHECK_FAILED}


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
    config = make_config(trials=1, seed=77, message="8")  # the message bits 1, 0
    outcome = run_trial(config, 0)
    assert outcome.bob_accepts and outcome.alice_accepts
    assert outcome.decoded_message == [1, 0]
    assert outcome.detection_cause is DetectionCause.NONE
    assert not outcome.security_event
    assert not outcome.detected
    # the same config and trial index replay the session
    assert run_trial(config, 0) == outcome


def test_detection_accounting_invariant():
    # detection_cause is NONE exactly when both parties accept
    config = make_config(**attack_of("modify_single", target="random"), trials=300, seed=79)
    for out in trial_outcomes(config):
        both = bool(out.bob_accepts) and out.alice_accepts
        assert (out.detection_cause is DetectionCause.NONE) == both
        if out.security_event:
            assert out.bob_accepts
