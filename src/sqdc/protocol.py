"""Alice and Bob state machines for both protocol variants.

Randomization-based: Alice interleaves message Bell pairs with checking pairs,
Bob Z-measures the message qubits and reflects the checking qubits reordered
by k2, Alice Bell-verifies the reflection. Measure-resend: Bob either measures
and resends (SHARE) or reflects (CHECK) each position per k1, and Alice
additionally Bell-measures the returned message pairs to flag reflectors.

A run never short-circuits on Bob's verdict: both verdicts are always
produced so detection statistics stay well defined per trial. Retry loops
belong to the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .codec import build_block, decode_pair, encode_bit, verify_block
from .keys import (
    KeyMaterial,
    apply_perm,
    deinterleave,
    interleave,
    invert_perm,
    permutation_from_key,
)
from .qsim import BellState, QuantumRegister


class Variant(Enum):
    RANDOMIZATION = "randomization"
    MEASURE_RESEND = "measure-resend"


class DetectionCause(Enum):
    NONE = "none"
    HASH_MISMATCH = "hash_mismatch"
    BELL_CHECK_FAILED = "bell_check_failed"
    REFLECT_FLAG = "reflect_flag"


@dataclass
class AliceSession:
    keys: KeyMaterial
    block: list[int]
    # (retained-or-first qubit, transmitted-or-second qubit, initial Bell state)
    s_pairs: list[tuple[int, int, BellState]]
    c_pairs: list[tuple[int, int, BellState]]


@dataclass
class RunOutcome:
    bob_accepts: bool | None  # None when the adversary bypassed Bob entirely
    alice_accepts: bool
    decoded_message: list[int] | None
    detection_cause: DetectionCause
    security_event: bool
    check_matches: list[bool] = field(default_factory=list)

    @property
    def detected(self) -> bool:
        return self.detection_cause is not DetectionCause.NONE


def alice_prepare(m, keys: KeyMaterial, register: QuantumRegister, variant: Variant):
    """Step 1: build the block, encode it into message Bell pairs, draw the
    checking pairs, and interleave the transmitted halves by k1.

    Returns (session, transmitted qubit sequence of length n).
    """
    n = 8 * len(m)
    if len(keys.k1) != n:
        raise ValueError(f"k1 must have {n} bits for a {len(m)}-bit message")
    if variant is Variant.RANDOMIZATION and keys.k2 is None:
        raise ValueError("randomization variant requires k2")

    block = build_block(m)  # n/4 bits
    s_pairs = []
    s_seq = []
    for bit in block:
        state = encode_bit(bit)
        q1, q2 = register.prepare_bell(state)
        s_pairs.append((q1, q2, state))
        s_seq.extend((q1, q2))

    c_pairs = []
    cb_seq = []
    for _ in range(n // 2):
        state = BellState.PHI_PLUS if register.rng.random() < 0.5 else BellState.PSI_MINUS
        qc1, qc2 = register.prepare_bell(state)
        c_pairs.append((qc1, qc2, state))
        cb_seq.append(qc2)

    session = AliceSession(keys, block, s_pairs, c_pairs)
    return session, interleave(s_seq, cb_seq, keys.k1)


# -- randomization-based variant --------------------------------------------


def bob_randomization_step2(q_seq, keys: KeyMaterial, register: QuantumRegister):
    """Step 2: split by k1, Z-measure the message qubits, decode and verify.

    Returns (verdict, decoded message, checking qubits in k1 order).
    """
    s_qubits, cb_qubits = deinterleave(q_seq, keys.k1)
    ok, m_decoded = _decode_block([register.measure_z(q) for q in s_qubits])
    return ok, m_decoded, cb_qubits


def bob_randomization_step3(cb_qubits, keys: KeyMaterial):
    """Step 3: reorder the checking qubits by the k2-derived permutation."""
    perm = permutation_from_key(keys.k2, len(cb_qubits))
    return apply_perm(perm, cb_qubits)


def alice_randomization_step4(returned, session: AliceSession, register: QuantumRegister):
    """Step 4: undo the k2 permutation and Bell-verify every checking pair.

    Returns (verdict, per-pair match flags).
    """
    if len(returned) != len(session.c_pairs):
        raise ValueError("returned sequence has the wrong length")
    perm = permutation_from_key(session.keys.k2, len(returned))
    matches = _check_pairs(session, invert_perm(perm, returned), register)
    return all(matches), matches


# -- measure-resend variant --------------------------------------------------


def bob_measure_resend_step23(q_seq, keys: KeyMaterial, register: QuantumRegister):
    """Steps 2*/3*: per position SHARE (measure, resend a fresh qubit in the
    observed state) or CHECK (reflect untouched), then decode and verify.

    Returns (verdict, decoded message, returned sequence of length n).
    """
    if len(q_seq) != len(keys.k1):
        raise ValueError("sequence length must equal k1 length")
    results = []
    returned = []
    for bit, q in zip(keys.k1, q_seq):
        if bit == 0:  # SHARE
            b = register.measure_z(q)
            results.append(b)
            returned.append(register.alloc_qubit(b))
        else:  # CHECK
            returned.append(q)
    ok, m_decoded = _decode_block(results)
    return ok, m_decoded, returned


def alice_measure_resend_step4(returned, session: AliceSession, register: QuantumRegister):
    """Step 4*: Bell-verify the checking pairs; if they pass, Bell-measure the
    returned message pairs. Outcomes outside the parity-allowed set reject;
    all outcomes equal to their initial states flags a reflecting attack.

    Returns (verdict, cause, checking-pair match flags).
    """
    s_returned, cb_returned = deinterleave(returned, session.keys.k1)
    matches = _check_pairs(session, cb_returned, register)
    if not all(matches):
        return False, DetectionCause.BELL_CHECK_FAILED, matches

    in_allowed = True
    all_initial = True
    for i, (_, _, initial) in enumerate(session.s_pairs):
        outcome = register.bell_measure(s_returned[2 * i], s_returned[2 * i + 1])
        if session.block[i] == 0:
            allowed = (BellState.PHI_PLUS, BellState.PHI_MINUS)
        else:
            allowed = (BellState.PSI_PLUS, BellState.PSI_MINUS)
        if outcome not in allowed:
            in_allowed = False
        if outcome != initial:
            all_initial = False
    if not in_allowed:
        return False, DetectionCause.BELL_CHECK_FAILED, matches
    if all_initial:
        return False, DetectionCause.REFLECT_FLAG, matches
    return True, DetectionCause.NONE, matches


def _check_pairs(session: AliceSession, returned, register: QuantumRegister):
    """Bell-measure each retained checking qubit with its returned partner;
    one flag per pair, True where the outcome is the pair's initial state."""
    return [
        register.bell_measure(qc1, back) == initial
        for (qc1, _, initial), back in zip(session.c_pairs, returned)
    ]


def _decode_block(results):
    """Decode Bob's Z outcomes pairwise into block bits and verify the
    checksum. Returns (verdict, decoded message)."""
    block = [decode_pair(results[2 * i], results[2 * i + 1]) for i in range(len(results) // 2)]
    return verify_block(block)


# -- orchestration -------------------------------------------------------------


def run_session(variant: Variant, m, keys: KeyMaterial, attack, seed) -> RunOutcome:
    """One full protocol execution with adversary tamper hooks.

    Flow: prepare -> forward tamper -> Bob -> backward tamper -> Alice verify.
    Deterministic for a given seed.
    """
    register = QuantumRegister(seed)
    session, q_seq = alice_prepare(m, keys, register, variant)
    q_obs = attack.tamper_forward(register, list(q_seq))

    if attack.bypasses_bob:
        bob_ok = None
        m_decoded = None
        backward = q_obs
    elif variant is Variant.RANDOMIZATION:
        bob_ok, m_decoded, cb_qubits = bob_randomization_step2(q_obs, keys, register)
        backward = bob_randomization_step3(cb_qubits, keys)
    else:
        bob_ok, m_decoded, backward = bob_measure_resend_step23(q_obs, keys, register)

    returned = attack.tamper_backward(register, list(backward))

    if variant is Variant.RANDOMIZATION:
        alice_ok, matches = alice_randomization_step4(returned, session, register)
        alice_cause = DetectionCause.NONE if alice_ok else DetectionCause.BELL_CHECK_FAILED
    else:
        alice_ok, alice_cause, matches = alice_measure_resend_step4(returned, session, register)

    if not alice_ok:
        cause = alice_cause
    elif bob_ok is False:
        cause = DetectionCause.HASH_MISMATCH
    else:
        cause = DetectionCause.NONE

    security_event = bool(bob_ok) and m_decoded != list(m)
    return RunOutcome(
        bob_accepts=bob_ok,
        alice_accepts=alice_ok,
        decoded_message=m_decoded,
        detection_cause=cause,
        security_event=security_event,
        check_matches=matches,
    )
