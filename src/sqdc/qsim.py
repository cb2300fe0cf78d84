"""Exact simulation of the quantum operations the Bell-state protocols need.

Every state these protocols reach is a product of Z-basis qubits and Bell
pairs. Alice prepares Bell pairs and alone measures in the Bell basis; Bob
measures in Z, resends basis qubits and reflects; the attacks prepare the
same states, apply iY and measure in Z. Each of these operations maps such a
product to another one (a Bell measurement across components is
teleportation or entanglement swapping), so the family is closed and a
register holds it exactly as integer labels, with no amplitudes and nothing
to drift. Pair allocation and Z measurement take whole sequences, element by
element in order; such a call equals successive one-element calls, since
allocating draws nothing and each measurement draws one uniform.

Each qubit id maps to (partner, label): a basis qubit names itself and holds
its bit; the two halves of a pair name each other and hold one label 2x + z,
the BELL_ORDER index of (I ⊗ X^x Z^z)|Φ+>, whichever half comes first, since
each Bell state is symmetric or antisymmetric under a swap. A state is held up
to a global phase, which no measurement sees and a stabilizer simulator does
not keep (Aaronson & Gottesman, PRA 70, 052328, 2004): iY|0> reads |1>, and a
Pauli changes a pair's label the same way on either half.

`bell_measure` alone states the Bell-outcome law; `bell_probabilities` reads
it off by measuring the two components at the midpoint of each quarter of u.
`component_snapshot`, for inspection, returns the state a component stores:
a basis qubit's bit or a pair's BellState, lower id first; their amplitudes
are written out once, in the tests' dense oracle.
"""

from __future__ import annotations

from enum import Enum
from random import Random
from types import SimpleNamespace


class Pauli(Enum):
    # each operator Z^pz X^px, valued (px, pz); iY = ZX maps |0> -> -|1>, |1> -> |0>
    X = (1, 0)
    Z = (0, 1)
    IY = (1, 1)


class BellState(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


# Fixed outcome order, as BellState declares it; index 2x + z is the state
# (I ⊗ X^x Z^z)|Φ+>. A Bell outcome is read off one uniform u in closed form, a
# step function of u with steps at multiples of 1/4, so every weight is 0, 1/4,
# 1/2 or 1 and the outcome equals the inverse CDF over this order: an external
# oracle sampling that inverse CDF replays the same outcomes from one stream.
BELL_ORDER = tuple(BellState)


class QuantumRegister:
    """Collection of qubits partitioned into basis qubits and Bell pairs.

    `_comp_of` maps each qubit id to (partner, label). Ids are allocated
    densely from 0 and never freed, so the next free id is `len(_comp_of)`.
    All measurement randomness flows through the seeded `rng`, one uniform
    draw per measurement, so a register replays identically for a given seed
    and operation script.
    """

    def __init__(self, seed):
        self.rng = Random(seed)
        self._comp_of: dict[int, tuple] = {}

    # -- allocation ------------------------------------------------------

    def alloc_qubit(self, bit: int) -> int:
        """Allocate a fresh qubit in the basis state |bit>."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        q = len(self._comp_of)
        self._comp_of[q] = (q, int(bit))
        return q

    def prepare_bell(self, *states: BellState) -> tuple[int, ...]:
        """Allocate one fresh pair per state, in order, and return the flat
        tuple (qa0, qb0, qa1, qb1, ...). Every state is checked before any
        qubit is allocated."""
        # tuple.index compares by identity first, unlike hashing the enum, and
        # raises ValueError on a non-BellState
        labels = list(map(BELL_ORDER.index, states))
        comp_of = self._comp_of
        first = qa = len(comp_of)
        for label in labels:
            comp_of[qa] = (qa + 1, label)
            comp_of[qa + 1] = (qa, label)
            qa += 2
        return tuple(range(first, qa))

    # -- measurement -----------------------------------------------------

    def measure_z(self, *qubits: int) -> tuple[int, ...]:
        """Measure qubits in the computational basis, in the order given, with
        Born-rule collapse; one outcome and one uniform draw per qubit. A
        measured qubit becomes a basis qubit, and a Bell partner is left in
        the basis state its Z parity x fixes: outcome ^ x."""
        comp_of = self._comp_of
        random = self.rng.random
        outcomes = []
        for q in qubits:
            try:
                partner, label = comp_of[q]
            except KeyError:
                raise ValueError(f"unknown qubit id {q!r}") from None
            u = random()
            if partner != q:  # else a basis qubit, certain to read label
                x, label = label >> 1, 0 if u < 0.5 else 1
                comp_of[q] = (q, label)
                comp_of[partner] = (partner, label ^ x)
            outcomes.append(label)
        return tuple(outcomes)

    def bell_probabilities(self, qa: int, qb: int) -> dict[BellState, float]:
        """Outcome probabilities of a joint Bell measurement, without measuring.

        bell_measure's outcome is a step function of its uniform u with steps
        at multiples of 1/4, so measuring a scratch register holding just the
        two components at each quarter's midpoint gives each outcome weight
        1/4 exactly. It draws nothing, changes no component, and raises the
        ValueErrors bell_measure raises.
        """
        scratch = QuantumRegister(0)
        scratch.rng = SimpleNamespace(random=iter((0.125, 0.375, 0.625, 0.875)).__next__)
        weights = dict.fromkeys(BELL_ORDER, 0.0)
        for _ in range(4):
            scratch._comp_of = {q: self._comp_of[q] for q in (qa, qb) if q in self._comp_of}
            weights[scratch.bell_measure(qa, qb)] += 0.25
        return weights

    def bell_measure(self, qa: int, qb: int) -> BellState:
        """Jointly measure two qubits in the Bell basis with collapse.

        The measured qubits become each other's partners. A partner left
        behind gets the state that teleportation or entanglement swapping
        fixes; two partners form one pair.
        """
        if qa == qb:
            raise ValueError("bell measurement needs two distinct qubits")
        comp_of = self._comp_of
        try:
            pa, la = comp_of[qa]
            cb = comp_of[qb]
        except KeyError as exc:
            raise ValueError(f"unknown qubit id {exc.args[0]!r}") from None
        u = self.rng.random()
        if pa == qb:  # certain; u was drawn to keep streams aligned
            return BELL_ORDER[la]
        pb, lb = cb
        if pa == qa and pb == qb:  # X parity a ^ b, the Z phase even
            label = 2 * (la ^ lb) + (u >= 0.5)
        elif pa != qa and pb != qb:
            # Entanglement swapping: the partners carry the product of the
            # three Paulis, which is the XOR of their labels up to sign.
            label = int(4 * u)
            comp_of[pa] = (pb, la ^ lb ^ label)
            comp_of[pb] = (pa, la ^ lb ^ label)
        else:
            # Teleportation: Z parities chain through the pair (x), the basis
            # qubit's bit and the outcome's X parity.
            label = int(4 * u)
            p, x, bit = (pa, la >> 1, lb) if pa != qa else (pb, lb >> 1, la)
            comp_of[p] = (p, x ^ bit ^ (label >> 1))
        comp_of[qa] = (qb, label)
        comp_of[qb] = (qa, label)
        return BELL_ORDER[label]

    # -- unitaries -------------------------------------------------------

    def apply_pauli(self, q: int, op: Pauli) -> None:
        """Apply a single-qubit Pauli-type unitary, up to global phase.

        P = Z^pz X^px flips a basis qubit by px. On a pair it gives label
        2(x^px) + (z^pz) on either half: on the second it multiplies X^x Z^z
        from the left, and on the first (P ⊗ I)|Φ+> = (I ⊗ P^T)|Φ+> with
        P^T = ±P multiplies it from the right.
        """
        if not isinstance(op, Pauli):
            raise ValueError(f"op must be a Pauli, got {op!r}")
        px, pz = op.value
        p, label = self._component(q)
        label ^= px if p == q else 2 * px + pz
        self._comp_of[q] = (p, label)
        self._comp_of[p] = (q, label)

    # -- introspection ---------------------------------------------------

    def component_snapshot(self, q: int) -> tuple[tuple[int, ...], int | BellState]:
        """The component containing q as the state it stores: ((q,), bit) for
        a basis qubit, ((lo, hi), BellState) for a pair."""
        p, label = self._component(q)
        if p == q:
            return (q,), label
        return (min(p, q), max(p, q)), BELL_ORDER[label]

    def live_qubits(self) -> list[int]:
        return sorted(self._comp_of)

    # -- internals -------------------------------------------------------

    def _component(self, q: int) -> tuple:
        try:
            return self._comp_of[q]
        except KeyError:
            raise ValueError(f"unknown qubit id {q!r}") from None
