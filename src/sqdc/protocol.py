"""Alice and Bob state machines for both protocol variants.

Randomization-based: Alice interleaves message Bell pairs with checking pairs,
Bob Z-measures the message qubits and reflects the checking qubits reordered
by k2, Alice Bell-verifies the reflection. Measure-resend: Bob either measures
and resends (SHARE) or reflects (CHECK) each position per k1, and Alice
additionally Bell-measures the returned message pairs to flag reflectors.
Both share Bob's reading of a block; only randomization holds a k2.

A run never short-circuits on Bob's verdict: both verdicts are always
produced so detection statistics stay well defined per trial. Retry loops
belong to the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import xor

from .codec import ALPHABET, build_block, verify_block
from .keys import (
    KeyMaterial,
    apply_perm,
    deinterleave,
    interleave,
    invert_perm,
    permutation_from_key,
)
from .qsim import BELL_ORDER, BellState, QuantumRegister


class Variant(Enum):
    RANDOMIZATION = "randomization"
    MEASURE_RESEND = "measure-resend"

    @property
    def holds_k2(self) -> bool:  # only randomization reorders by a k2
        return self is Variant.RANDOMIZATION


class DetectionCause(Enum):
    NONE = "none"
    HASH_MISMATCH = "hash_mismatch"
    BELL_CHECK_FAILED = "bell_check_failed"
    REFLECT_FLAG = "reflect_flag"


# the causes under which Alice's checks passed; a hash mismatch is Bob's rejection alone
ALICE_ACCEPTS = (DetectionCause.NONE, DetectionCause.HASH_MISMATCH)


@dataclass
class AliceSession:
    keys: KeyMaterial
    block: list[int]
    # (retained qubit, initial Bell state) per checking pair
    c_pairs: list[tuple[int, BellState]]


@dataclass
class RunOutcome:
    bob_accepts: bool | None  # None when the adversary bypassed Bob entirely
    decoded_message: list[int] | None
    detection_cause: DetectionCause
    security_event: bool
    check_matches: list[bool]

    @property
    def alice_accepts(self) -> bool:
        return self.detection_cause in ALICE_ACCEPTS

    @property
    def detected(self) -> bool:
        return self.detection_cause is not DetectionCause.NONE


def check_keys(variant: Variant, keys: KeyMaterial) -> None:
    """Raise ValueError unless keys hold a k2 just where the variant uses one."""
    if (keys.k2 is None) == variant.holds_k2:
        need = "needs" if keys.k2 is None else "takes no"
        raise ValueError(f"the {variant.value} variant {need} k2")


def alice_prepare(m, keys: KeyMaterial, register: QuantumRegister, variant: Variant):
    """Step 1: build the block, encode it into message Bell pairs, draw the
    checking pairs, and interleave the transmitted halves by k1.

    Returns (session, transmitted qubit sequence of length n).
    """
    n = 8 * len(m)
    if len(keys.k1) != n:
        raise ValueError(f"k1 must have {n} bits for a {len(m)}-bit message")
    check_keys(variant, keys)

    block = build_block(m)  # n/4 bits
    # allocating draws nothing, so drawing the checking states first keeps the
    # stream, and one register call prepares the message and checking pairs
    random = register.rng.random
    c_states = [ALPHABET[random() >= 0.5] for _ in range(n // 2)]
    qubits = register.prepare_bell(*[ALPHABET[bit] for bit in block], *c_states)
    c_pairs = list(zip(qubits[n // 2 :: 2], c_states))
    s_seq, cb_seq = qubits[: n // 2], qubits[n // 2 + 1 :: 2]
    return AliceSession(keys, block, c_pairs), interleave(s_seq, cb_seq, keys)


# -- randomization-based variant --------------------------------------------


def bob_randomization_step2(q_seq, keys: KeyMaterial, register: QuantumRegister):
    """Step 2: split by k1, Z-measure the message qubits, decode and verify.

    Returns (verdict, decoded message, checking qubits in k1 order).
    """
    ok, m_decoded, _, cb_qubits = _read_block(q_seq, keys, register)
    return ok, m_decoded, cb_qubits


def bob_randomization_step3(cb_qubits, keys: KeyMaterial):
    """Step 3: reorder the checking qubits by the k2-derived permutation."""
    return apply_perm(permutation_from_key(keys.k2), cb_qubits)


def alice_randomization_step4(returned, session: AliceSession, register: QuantumRegister):
    """Step 4: undo the k2 permutation and Bell-verify every checking pair.

    Returns (detection cause, per-pair match flags).
    """
    perm = permutation_from_key(session.keys.k2)
    matches = _check_pairs(session, invert_perm(perm, returned), register)
    cause = DetectionCause.NONE if all(matches) else DetectionCause.BELL_CHECK_FAILED
    return cause, matches


# -- measure-resend variant --------------------------------------------------


def bob_measure_resend_step23(q_seq, keys: KeyMaterial, register: QuantumRegister):
    """Steps 2*/3*: read the block as in step 2, resend a fresh qubit in each
    observed SHARE state and reflect the CHECK qubits untouched, merged by k1.

    Returns (verdict, decoded message, returned sequence of length n).
    """
    ok, m_decoded, results, cb_qubits = _read_block(q_seq, keys, register)
    alloc_qubit = register.alloc_qubit
    return ok, m_decoded, interleave([alloc_qubit(b) for b in results], cb_qubits, keys)


def alice_measure_resend_step4(returned, session: AliceSession, register: QuantumRegister):
    """Step 4*: Bell-verify the checking pairs; if they pass, Bell-measure the
    returned message pairs. An outcome whose X parity differs from its block
    bit rejects; every outcome equal to its bit's state flags a reflector.

    Returns (detection cause, checking-pair match flags).
    """
    s_returned, cb_returned = deinterleave(returned, session.keys)
    matches = _check_pairs(session, cb_returned, register)
    if not all(matches):
        return DetectionCause.BELL_CHECK_FAILED, matches

    outcomes = [register.bell_measure(qa, qb) for qa, qb in zip(s_returned[::2], s_returned[1::2])]
    pairs = list(zip(session.block, outcomes))
    if any(BELL_ORDER.index(o) >> 1 != bit for bit, o in pairs):
        return DetectionCause.BELL_CHECK_FAILED, matches
    if all(o == ALPHABET[bit] for bit, o in pairs):
        return DetectionCause.REFLECT_FLAG, matches
    return DetectionCause.NONE, matches


def _check_pairs(session: AliceSession, returned, register: QuantumRegister):
    """Bell-measure each retained checking qubit with its returned partner;
    one flag per pair, True where the outcome is the pair's initial state."""
    bell_measure = register.bell_measure
    return [
        bell_measure(qc1, back) == initial
        for (qc1, initial), back in zip(session.c_pairs, returned)
    ]


def _read_block(q_seq, keys: KeyMaterial, register: QuantumRegister):
    """Bob's reading of a block in both variants: split by k1, Z-measure the
    message qubits, XOR each pair's outcomes into a block bit and verify the
    checksum. Returns (verdict, decoded message, Z outcomes, checking qubits)."""
    s_qubits, cb_qubits = deinterleave(q_seq, keys)
    results = register.measure_z(*s_qubits)
    ok, m_decoded = verify_block(list(map(xor, results[::2], results[1::2])))
    return ok, m_decoded, results, cb_qubits


# -- orchestration -------------------------------------------------------------


def run_session(variant: Variant, m, keys: KeyMaterial, attack, register: QuantumRegister):
    """One full protocol execution with adversary tamper hooks.

    Flow: prepare -> forward tamper -> Bob -> backward tamper -> Alice verify.
    Runs on the register it is given, which draws every measurement outcome.
    """
    session, q_seq = alice_prepare(m, keys, register, variant)
    q_obs = attack.tamper_forward(register, q_seq)

    if attack.bypasses_bob:
        bob_ok = None
        m_decoded = None
        backward = q_obs
    elif variant is Variant.RANDOMIZATION:
        bob_ok, m_decoded, cb_qubits = bob_randomization_step2(q_obs, keys, register)
        backward = bob_randomization_step3(cb_qubits, keys)
    else:
        bob_ok, m_decoded, backward = bob_measure_resend_step23(q_obs, keys, register)

    returned = attack.tamper_backward(register, backward)

    if variant is Variant.RANDOMIZATION:
        alice_cause, matches = alice_randomization_step4(returned, session, register)
    else:
        alice_cause, matches = alice_measure_resend_step4(returned, session, register)
    alice_ok = alice_cause is DetectionCause.NONE
    cause = DetectionCause.HASH_MISMATCH if alice_ok and bob_ok is False else alice_cause

    security_event = bool(bob_ok) and m_decoded != list(m)
    return RunOutcome(
        bob_accepts=bob_ok,
        decoded_message=m_decoded,
        detection_cause=cause,
        security_event=security_event,
        check_matches=matches,
    )
