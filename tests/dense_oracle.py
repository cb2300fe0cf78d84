"""Independent dense full-register state-vector oracle.

Keeps every allocated qubit in one flat amplitude vector, with the same index
convention, sampling order, and one-uniform-per-measurement RNG discipline as
the component engine, so that outcome probabilities can be compared per step
and sampled outcomes agree exactly under identical random streams.

The oracle states the only amplitudes in the project: each Bell vector is
(I ⊗ X^x Z^z)|Φ+> for its BELL_ORDER index 2x + z, built with the oracle's
own Pauli matrices. The engine stores labels, and `snapshot_amplitudes` reads
its component snapshots through these vectors and the two basis vectors.

It is the engine's one reference: `engine_state`, `assert_components_shared`,
`FixedUniform` and `run_scripted_comparison` below are the helpers every test
that compares the engine with the oracle calls, and `live_qubits` lists a
register's qubits for them. `closed_cycles` counts the cycles of a Bell
verification's assignment, which set the entanglement-swapping cycle law.
"""

from __future__ import annotations

from math import sqrt
from random import Random

from sqdc.qsim import BELL_ORDER, BellState, Pauli, QuantumRegister

NORM_ATOL = 1e-9

_PAULI_MATRIX = {
    Pauli.X: (0.0, 1.0, 1.0, 0.0),
    Pauli.Z: (1.0, 0.0, 0.0, -1.0),
    Pauli.IY: (0.0, 1.0, -1.0, 0.0),
}


def _apply_matrix(amps: list, op: Pauli, bit: int) -> None:
    """Apply op's matrix in place to the qubit owning index bit `bit`."""
    m00, m01, m10, m11 = _PAULI_MATRIX[op]
    for i0 in range(len(amps)):
        if i0 & bit:
            continue
        i1 = i0 | bit
        a0, a1 = amps[i0], amps[i1]
        amps[i0] = m00 * a0 + m01 * a1
        amps[i1] = m10 * a0 + m11 * a1


def _bell_vector(label: int) -> tuple:
    """(I ⊗ X^x Z^z)|Φ+> for label 2x + z, Φ+ = (|00> + |11>)/sqrt(2)."""
    amps = [2 ** -0.5, 0.0, 0.0, 2 ** -0.5]
    if label & 1:
        _apply_matrix(amps, Pauli.Z, 1)
    if label >> 1:
        _apply_matrix(amps, Pauli.X, 1)
    return tuple(amps)


BELL_VECTORS = {bs: _bell_vector(label) for label, bs in enumerate(BELL_ORDER)}
_BASIS_VECTORS = ((1.0, 0.0), (0.0, 1.0))


def snapshot_amplitudes(snapshot) -> tuple:
    """An engine component snapshot, ((q,), bit) or ((lo, hi), BellState), as
    (qubits, amplitude vector); the lower id owns the most significant bit."""
    qubits, state = snapshot
    vector = _BASIS_VECTORS[state] if len(qubits) == 1 else BELL_VECTORS[state]
    return qubits, tuple(map(complex, vector))


class DenseRegister:
    def __init__(self, seed=None):
        self.rng = Random(seed)
        self.qubits: list[int] = []
        self.amps: list[complex] = [1 + 0j]
        self._next_id = 0

    # -- allocation --------------------------------------------------------

    def alloc_qubit(self, bit: int) -> int:
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        q = self._next_id
        self._next_id += 1
        self.qubits.append(q)  # appended qubit owns the least significant bit
        if bit == 0:
            self.amps = [x for a in self.amps for x in (a, 0j)]
        else:
            self.amps = [x for a in self.amps for x in (0j, a)]
        return q

    def prepare_bell(self, bs: BellState):
        qa = self._next_id
        qb = self._next_id + 1
        self._next_id += 2
        self.qubits.extend((qa, qb))
        t = BELL_VECTORS[bs]
        self.amps = [a * t[j] for a in self.amps for j in range(4)]
        return qa, qb

    def _shift(self, q: int) -> int:
        return len(self.qubits) - 1 - self.qubits.index(q)

    # -- measurement -------------------------------------------------------

    def z_probabilities(self, q: int):
        s = self._shift(q)
        p0 = sum(
            a.real * a.real + a.imag * a.imag
            for i, a in enumerate(self.amps)
            if not (i >> s) & 1
        )
        return p0, 1.0 - p0

    def measure_z(self, q: int) -> int:
        p0, _ = self.z_probabilities(q)
        outcome = 0 if self.rng.random() < p0 else 1
        self._project_z(q, outcome, p0 if outcome == 0 else 1.0 - p0)
        return outcome

    def _project_z(self, q: int, outcome: int, prob: float) -> None:
        s = self._shift(q)
        norm = sqrt(prob)
        self.amps = [
            a / norm if ((i >> s) & 1) == outcome else 0j
            for i, a in enumerate(self.amps)
        ]

    def bell_probabilities(self, qa: int, qb: int):
        return {bs: p for bs, p, _ in self._bell_branches(qa, qb)}

    def bell_measure(self, qa: int, qb: int) -> BellState:
        branches = self._bell_branches(qa, qb)
        u = self.rng.random()
        acc = 0.0
        outcome = branches[-1][0]
        coeffs = branches[-1][2]
        for bs, p, c in branches:
            acc += p
            if u < acc:
                outcome, coeffs = bs, c
                break
        self._project_bell(qa, qb, outcome, coeffs)
        return outcome

    def force_bell(self, qa: int, qb: int, outcome: BellState) -> float:
        """Collapse to a chosen Bell branch; returns that branch's probability.

        Supports exact probability-tree enumeration in tests.
        """
        for bs, p, coeffs in self._bell_branches(qa, qb):
            if bs is outcome:
                if p > 0:
                    self._project_bell(qa, qb, outcome, coeffs)
                return p
        raise AssertionError("unreachable")

    def _bell_branches(self, qa: int, qb: int):
        sa = self._shift(qa)
        sb = self._shift(qb)
        ba, bb = 1 << sa, 1 << sb
        rest = [i for i in range(len(self.amps)) if not (i & ba) and not (i & bb)]
        branches = []
        for bs in BELL_ORDER:
            t = BELL_VECTORS[bs]
            p = 0.0
            coeffs = {}
            for i in rest:
                c = (
                    t[0] * self.amps[i]
                    + t[1] * self.amps[i | bb]
                    + t[2] * self.amps[i | ba]
                    + t[3] * self.amps[i | ba | bb]
                )
                coeffs[i] = c
                p += c.real * c.real + c.imag * c.imag
            branches.append((bs, p, coeffs))
        return branches

    def _project_bell(self, qa, qb, outcome, coeffs) -> None:
        sa = self._shift(qa)
        sb = self._shift(qb)
        ba, bb = 1 << sa, 1 << sb
        t = BELL_VECTORS[outcome]
        norm = sqrt(sum(c.real * c.real + c.imag * c.imag for c in coeffs.values()))
        new = [0j] * len(self.amps)
        for i, c in coeffs.items():
            c /= norm
            new[i] = t[0] * c
            new[i | bb] = t[1] * c
            new[i | ba] = t[2] * c
            new[i | ba | bb] = t[3] * c
        self.amps = new

    # -- unitaries -----------------------------------------------------------

    def apply_pauli(self, q: int, op: Pauli) -> None:
        _apply_matrix(self.amps, op, 1 << self._shift(q))


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


# -- comparing the engine with the oracle ------------------------------------


class FixedUniform:
    """Stands in for a register's rng: every uniform is u, and draws are counted."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


def live_qubits(register) -> list[int]:
    """The ids of a QuantumRegister's qubits, in order."""
    return sorted(register._comp_of)


def closed_cycles(mapping) -> int:
    """The closed cycles of a one-to-one map of slots to slots (a dict, full or
    partial): the chains that come back to where they start. Verifying slot i
    against pair mapping[i], all checks pass w.p. (1/4)^(slots - cycles)."""
    seen, cycles = set(), 0
    for start in mapping:
        if start in seen:
            continue
        j = start
        while j in mapping and j not in seen:
            seen.add(j)
            j = mapping[j]
        cycles += j == start
    return cycles


def engine_state(eng, order):
    """The engine's full state: the tensor product of its component snapshots,
    read as amplitudes through the oracle's vectors, with the qubits in `order`
    (first qubit owns the most significant bit)."""
    qubits, amps = [], [1 + 0j]
    for q in live_qubits(eng):
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
    for q in live_qubits(eng):
        snapshot = eng.component_snapshot(q)
        assert q in snapshot[0]
        for p in snapshot[0]:
            assert eng.component_snapshot(p) == snapshot, (q, p)


def run_scripted_comparison(seed, script_rng, steps=20, max_qubits=8):
    """Run one random script on an engine and an oracle seeded alike: the ids,
    every outcome and the full state after each step must agree, and each
    component must be shared by its qubits. Returns the worst Bell-outcome
    probability deviation."""
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
            live.append(live_qubits(eng)[-1])
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
