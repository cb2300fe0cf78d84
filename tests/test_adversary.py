"""Tests for the attack strategies and their statistical signatures."""

from random import Random

import pytest

from sqdc.adversary import (
    ATTACKS,
    AttackStrategy,
    ImpersonateBobConcrete,
    InterceptResend,
    ModifySingleQubit,
)
from sqdc.harness import ExperimentConfig, run_experiment
from sqdc.keys import deinterleave, gen_keys, random_bits
from sqdc.protocol import DetectionCause, Variant, run_session
from sqdc.qsim import BellState, QuantumRegister
from dense_oracle import DenseRegister
from pins import attack_of, make_config, trial_outcomes


# -- baseline -----------------------------------------------------------------


class Null(AttackStrategy):
    """A subclass that overrides nothing: it inherits the identity hooks."""


@pytest.mark.parametrize("strategy", [AttackStrategy, Null])
def test_base_hooks_are_identity(strategy):
    attack = strategy()
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
        # basis qubits |b>|b> (Phi+ is correlated in Z): each reads b, and measuring repeats it
        b = register.component_snapshot(fresh[0])[1]
        assert [register.component_snapshot(q) for q in fresh] == [((q,), b) for q in fresh]
        assert b in (0, 1) and register.measure_z(*fresh, *fresh) == (b,) * 4
        seen.add(b)
    assert seen == {0, 1}


def test_intercept_resend_detection_rate_n16():
    outcomes = trial_outcomes(make_config(attack="intercept_resend", trials=2000, seed=100))
    assert all(o.bob_accepts for o in outcomes)  # parity survives Z measurement
    detected = sum(o.detected for o in outcomes)
    p = 1 - 0.5 ** 8
    sigma = (p * (1 - p) / len(outcomes)) ** 0.5
    assert abs(detected / len(outcomes) - p) <= 3 * sigma
    assert all(o.detection_cause in (DetectionCause.NONE, DetectionCause.BELL_CHECK_FAILED)
               for o in outcomes)


# -- receiver impersonation ------------------------------------------------------


@pytest.mark.parametrize(
    "seed, p, events",
    [
        (300, 5 / 8, lambda o: o.check_matches),  # each checking pair matches
        (400, 1 - (5 / 8) ** 8, lambda o: [o.detected]),  # some pair does not
    ],
    ids=["per_slot", "detection"],
)
def test_impersonate_bob_idealized_rates(seed, p, events):
    config = make_config(**attack_of("impersonate_bob", mode="idealized"), trials=3000, seed=seed)
    outcomes = trial_outcomes(config)
    flags = [e for o in outcomes for e in events(o)]
    sigma = (p * (1 - p) / len(flags)) ** 0.5
    assert abs(sum(flags) / len(flags) - p) <= 3 * sigma


def test_impersonate_bob_concrete_bypasses_bob():
    config = make_config(**attack_of("impersonate_bob", mode="concrete"), trials=500, seed=500)
    outcomes = trial_outcomes(config)
    assert all(o.bob_accepts is None for o in outcomes)
    assert all(o.decoded_message is None for o in outcomes)
    assert not any(o.security_event for o in outcomes)
    # blind guessing over subsets and orderings is detected almost surely
    assert sum(o.detected for o in outcomes) / len(outcomes) >= 0.99


def test_impersonate_bob_guessed_key_bypasses_bob():
    # measure-resend receiver impersonation: Eve runs Bob's steps with a guessed k1',
    # so Alice accepts w.p. 619/8580 at n=16 (criterion 10), and Bob never does
    config = ExperimentConfig(
        Variant.MEASURE_RESEND, "impersonate_bob", 16, 400, 1010, attack_params={"mode": "concrete"}
    )
    stats = run_experiment(config)
    assert stats.bob_accept_rate == 0.0
    assert stats.cause_counts[DetectionCause.NONE.value] > 0


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


# -- sender impersonation ----------------------------------------------------------


def test_impersonate_alice_acceptance_bounded_by_forgery_rate():
    outcomes = trial_outcomes(make_config(attack="impersonate_alice", n=32, trials=2000, seed=600))
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
    config = make_config(**attack_of("modify_single", target="c"), trials=300, seed=700)
    for out in trial_outcomes(config):
        assert out.bob_accepts  # the message stream is untouched
        assert not out.alice_accepts
        assert out.detection_cause is DetectionCause.BELL_CHECK_FAILED


def test_s_msg_targets_a_message_half_qubit():
    # the flipped qubit carries one of the block's n/8 message bits, not a checksum bit
    build = ATTACKS["modify_single"].build
    for seed in range(20):
        rng = Random(seed)
        keys = gen_keys(64, rng)
        attack = build({"target": "s_msg"}, rng, keys, Variant.RANDOMIZATION)
        assert attack.target in deinterleave(range(64), keys)[0][:16]
    # a random target lands anywhere: 200 draws at n=16 cover all 16 positions
    keys = gen_keys(16, rng)
    assert {build({}, rng, keys, Variant.RANDOMIZATION).target for _ in range(200)} == set(range(16))


def test_modify_single_validation():
    with pytest.raises(ValueError):
        ModifySingleQubit(-1)
    attack = ModifySingleQubit(99)
    with pytest.raises(ValueError):
        attack.tamper_forward(QuantumRegister(0), [1, 2, 3])
    assert attack.target == 99


# -- reflect-all ---------------------------------------------------------------


def test_reflect_all_always_flagged():
    config = make_config(variant=Variant.MEASURE_RESEND, attack="reflect_all", trials=300, seed=800)
    for o in trial_outcomes(config):
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
