"""Exact simulation of the quantum operations the Bell-state protocols need.

Every state these protocols reach is a product of Z-basis qubits and Bell
pairs. Alice prepares Bell pairs; Bob measures in Z, resends basis qubits
and reflects; the attacks apply X, Z and iY and measure in Z or the Bell
basis. Each of these operations maps such a product to another one (a Bell
measurement across components is teleportation or entanglement swapping), so
the family is closed and a register holds it exactly as integer labels, with
no amplitudes and nothing to drift.

A component is a list [qubits, label, k]:
- one qubit in i^k |label>, or
- two qubits (qa, qb) in i^k (I ⊗ X^x Z^z)|Φ+>, where label = 2x + z is the
  state's index in BELL_ORDER.
The phase i^k is global to the component (k is 0 or 2, because the Paulis
here are real). It only keeps snapshots exact: iY|0> reads (0, -1).

Amplitude vectors are built only by `component_snapshot`, for inspection.
Within a component the first qubit owns the most significant index bit.
"""

from __future__ import annotations

from enum import Enum
from random import Random

NORM_ATOL = 1e-9

_INV_SQRT2 = 2 ** -0.5


class Pauli(Enum):
    X = "X"
    Z = "Z"
    IY = "iY"


class BellState(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


# Amplitude conventions: Phi+- = (|00> +- |11>)/sqrt(2), Psi+- = (|01> +- |10>)/sqrt(2).
BELL_AMPLITUDES = {
    BellState.PHI_PLUS: (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2),
    BellState.PHI_MINUS: (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2),
    BellState.PSI_PLUS: (0.0, _INV_SQRT2, _INV_SQRT2, 0.0),
    BellState.PSI_MINUS: (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0),
}

# Fixed sampling order for inverse-CDF draws; shared with any external oracle
# so that identical random streams produce identical outcomes. Index 2x + z
# is the state (I ⊗ X^x Z^z)|Φ+>.
BELL_ORDER = (
    BellState.PHI_PLUS,
    BellState.PHI_MINUS,
    BellState.PSI_PLUS,
    BellState.PSI_MINUS,
)

# Each operator as Z^pz X^px, as (px, pz); iY = ZX maps |0> -> -|1>, |1> -> |0>.
_PAULI_XZ = {Pauli.X: (1, 0), Pauli.Z: (0, 1), Pauli.IY: (1, 1)}

# Bell outcome weights over BELL_ORDER; all are exact binary fractions.
_CERTAIN = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))
_BASIS_PAIR = ((0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.5, 0.5))  # by X parity a ^ b
_UNIFORM = (0.25, 0.25, 0.25, 0.25)


class QuantumRegister:
    """Collection of qubits partitioned into basis qubits and Bell pairs.

    All measurement randomness flows through the seeded `rng`, one uniform
    draw per measurement, so a register replays identically for a given seed
    and operation script.
    """

    def __init__(self, seed=None):
        self.rng = Random(seed)
        self._next_id = 0
        self._comp_of: dict[int, list] = {}

    # -- allocation ------------------------------------------------------

    def alloc_qubit(self, bit: int) -> int:
        """Allocate a fresh qubit in the basis state |bit>."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        q = self._next_id
        self._next_id = q + 1
        self._comp_of[q] = [(q,), int(bit), 0]
        return q

    def prepare_bell(self, bs: BellState) -> tuple[int, int]:
        """Allocate a fresh pair of qubits in the given Bell state."""
        qa = self._next_id
        qb = qa + 1
        self._next_id = qa + 2
        # tuple.index compares by identity first, unlike hashing the enum
        self._comp_of[qa] = self._comp_of[qb] = [(qa, qb), BELL_ORDER.index(bs), 0]
        return qa, qb

    # -- measurement -----------------------------------------------------

    def z_probabilities(self, q: int) -> tuple[float, float]:
        """Outcome probabilities of a Z-basis measurement, without measuring."""
        qubits, bit, _ = self._component(q)
        p0 = 0.5 if len(qubits) == 2 else 1.0 - bit
        return p0, 1.0 - p0

    def measure_z(self, q: int) -> int:
        """Measure one qubit in the computational basis with Born-rule collapse.

        The measured qubit becomes a basis qubit. A Bell partner is left in
        the basis state its Z parity x fixes: outcome ^ x.
        """
        comp = self._component(q)
        u = self.rng.random()
        qubits, label, _ = comp
        if len(qubits) == 1:  # |label> is certain
            comp[2] = 0
            return label
        outcome = 0 if u < 0.5 else 1
        partner = qubits[1] if qubits[0] == q else qubits[0]
        self._comp_of[q] = [(q,), outcome, 0]
        self._comp_of[partner] = [(partner,), outcome ^ (label >> 1), 0]
        return outcome

    def bell_probabilities(self, qa: int, qb: int) -> dict[BellState, float]:
        """Outcome probabilities of a joint Bell measurement, without measuring."""
        return dict(zip(BELL_ORDER, self._bell_case(qa, qb)[2]))

    def bell_measure(self, qa: int, qb: int) -> BellState:
        """Jointly measure two qubits in the Bell basis with collapse.

        The measured pair becomes its own two-qubit component. A partner left
        behind gets the state that teleportation or entanglement swapping
        fixes; two partners form one pair, in qubit-id order.
        """
        ca, cb, weights = self._bell_case(qa, qb)
        u = self.rng.random()
        if ca is cb and ca[0][0] == qa:  # certain; u was drawn to keep streams aligned
            ca[2] = 0
            return BELL_ORDER[ca[1]]
        acc = 0.0
        for label, w in enumerate(weights):
            acc += w
            if u < acc:
                break
        comp_of = self._comp_of
        comp_of[qa] = comp_of[qb] = [(qa, qb), label, 0]
        rest = [] if ca is cb else [q for q in ca[0] + cb[0] if q != qa and q != qb]
        if len(rest) == 1:
            # Teleportation: Z parities chain through the pair (x), the basis
            # qubit's bit and the outcome's X parity.
            pair, basis = (ca, cb) if len(ca[0]) == 2 else (cb, ca)
            comp_of[rest[0]] = [(rest[0],), (pair[1] >> 1) ^ basis[1] ^ (label >> 1), 0]
        elif len(rest) == 2:
            # Entanglement swapping: the partners carry the product of the
            # three Paulis, which is the XOR of their labels up to sign.
            rest.sort()
            comp_of[rest[0]] = comp_of[rest[1]] = [tuple(rest), ca[1] ^ cb[1] ^ label, 0]
        return BELL_ORDER[label]

    # -- unitaries -------------------------------------------------------

    def apply_pauli(self, q: int, op: Pauli) -> None:
        """Apply a single-qubit Pauli-type unitary in place.

        On |b> or on the second qubit of a pair, P = Z^pz X^px multiplies
        X^x Z^z from the left; on the first qubit, (P ⊗ I)|Φ+> = (I ⊗ P^T)|Φ+>
        multiplies it from the right. Both give X^(x^px) Z^(z^pz) up to the
        sign of the commuted X and Z.
        """
        px, pz = _PAULI_XZ[op]
        comp = self._component(q)
        qubits, label, k = comp
        if len(qubits) == 1:
            comp[1] = label ^ px
            comp[2] = (k + 2 * (pz & comp[1])) % 4
        elif q == qubits[1]:
            comp[1] = label ^ (2 * px + pz)
            comp[2] = (k + 2 * (pz & (comp[1] >> 1))) % 4
        else:
            comp[1] = label ^ (2 * px + pz)
            comp[2] = (k + 2 * (px & label)) % 4

    # -- introspection ---------------------------------------------------

    def component_snapshot(self, q: int) -> tuple[tuple[int, ...], tuple[complex, ...]]:
        """The qubits of the component containing q and its amplitude vector."""
        qubits, label, k = self._component(q)
        phase = 1j ** k
        if len(qubits) == 1:
            return qubits, ((phase, 0j) if label == 0 else (0j, phase))
        return qubits, tuple(phase * a for a in BELL_AMPLITUDES[BELL_ORDER[label]])

    def live_qubits(self) -> list[int]:
        return sorted(self._comp_of)

    # -- internals -------------------------------------------------------

    def _component(self, q: int) -> list:
        try:
            return self._comp_of[q]
        except KeyError:
            raise ValueError(f"unknown qubit id {q!r}") from None

    def _bell_case(self, qa: int, qb: int):
        """The components of qa and qb and the outcome weights over BELL_ORDER.

        One pair is its own eigenstate. Two basis qubits |ab> have X parity
        a ^ b and an even split over the Z phase. Otherwise a measured qubit
        has its partner outside the measurement, so every outcome has 1/4.
        """
        if qa == qb:
            raise ValueError("bell measurement needs two distinct qubits")
        ca = self._component(qa)
        cb = self._component(qb)
        if ca is cb:
            return ca, cb, _CERTAIN[ca[1]]
        if len(ca[0]) == len(cb[0]) == 1:
            return ca, cb, _BASIS_PAIR[ca[1] ^ cb[1]]
        return ca, cb, _UNIFORM


def states_equal(a, b, atol: float = NORM_ATOL) -> bool:
    """Amplitude-vector equality up to a global phase."""
    if len(a) != len(b):
        return False
    pivot = max(range(len(a)), key=lambda i: abs(a[i]))
    if abs(a[pivot]) < atol and max(abs(x) for x in b) < atol:
        return True
    if abs(b[pivot]) < atol:
        return False
    phase = a[pivot] / b[pivot]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return all(abs(x - phase * y) <= atol * 10 for x, y in zip(a, b))
