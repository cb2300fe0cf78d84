"""Pluggable attack strategies as tamper hooks on the qubit channels.

A strategy sees only the register and the qubit sequences in flight; it has
no access to key material or to either party's private records, and keeps no
state beyond what its constructor sets. For a strategy that sets
`bypasses_bob`, Bob never runs: `run_session` hands the forward sequence, as
`tamper_forward` returned it, straight to `tamper_backward`, whose result
goes to Alice.

`ATTACKS` is the catalogue of the attacks a configuration can name: how a
trial builds each one, its parameters, the variants it applies to, and its
closed-form detection probability. The CLI, configuration checks, trial
construction and analytic references all read it.
"""

from __future__ import annotations

from random import Random

from .keys import interleave
from .protocol import Variant
from .qsim import BellState, Pauli, QuantumRegister


class AttackStrategy:
    """Identity tamper hooks; base class and the honest-channel baseline."""

    bypasses_bob = False

    def tamper_forward(self, register: QuantumRegister, qubits):
        return qubits

    def tamper_backward(self, register: QuantumRegister, qubits):
        return qubits


class ImpersonateAlice(AttackStrategy):
    """Eve discards the transmitted sequence and substitutes her own forgery.

    Her strongest keyless mimicry of the sender: fresh Bell pairs drawn from
    the protocol alphabet, interleaved by a random balanced string.
    """

    def __init__(self, rng: Random):
        self.rng = rng

    def tamper_forward(self, register, qubits):
        n = len(qubits)
        fake_s = []
        for _ in range(n // 4):
            state = BellState.PHI_PLUS if self.rng.random() < 0.5 else BellState.PSI_MINUS
            q1, q2 = register.prepare_bell(state)
            fake_s.extend((q1, q2))
        fake_cb = []
        for _ in range(n // 2):
            state = BellState.PHI_PLUS if self.rng.random() < 0.5 else BellState.PSI_MINUS
            q1, _ = register.prepare_bell(state)  # Eve keeps the partner
            fake_cb.append(q1)
        guess = [0] * (n // 2) + [1] * (n // 2)
        self.rng.shuffle(guess)
        return interleave(fake_s, fake_cb, guess)


class ImpersonateBobIdealized(AttackStrategy):
    """Idealized receiver impersonation with per-slot pass probability 5/8.

    Each returned position independently keeps the genuine qubit with
    probability 1/2; otherwise Eve substitutes a fresh qubit of her own in a
    random basis state. A substituted qubit is uncorrelated with the retained
    partner, so the verifier's Bell outcome is uniform and matches with
    probability exactly 1/4, giving 1/2 + 1/2 * 1/4 = 5/8 per slot.
    """

    def __init__(self, rng: Random):
        self.rng = rng

    def tamper_backward(self, register, qubits):
        out = []
        for q in qubits:
            if self.rng.random() < 0.5:
                out.append(q)
            else:
                out.append(register.alloc_qubit(self.rng.randrange(2)))
        return out


class ImpersonateBobConcrete(AttackStrategy):
    """Receiver impersonation by blind guessing: Eve bypasses Bob and answers
    with a uniformly random half-size subset of the forward sequence in
    uniformly random order."""

    bypasses_bob = True

    def __init__(self, rng: Random):
        self.rng = rng

    def tamper_backward(self, register, qubits):
        return self.rng.sample(qubits, len(qubits) // 2)


class InterceptResend(AttackStrategy):
    """Eve Z-measures every forward qubit and forwards fresh qubits prepared
    in the observed basis states."""

    def tamper_forward(self, register, qubits):
        return [register.alloc_qubit(register.measure_z(q)) for q in qubits]


class ModifySingleQubit(AttackStrategy):
    """Apply the sign-flipping unitary (|0> -> -|1>, |1> -> |0>) to exactly
    one forward qubit, swapping Phi+ and Psi- on the pair it belongs to."""

    def __init__(self, target: int):
        if target < 0:
            raise ValueError("target index must be non-negative")
        self.target = target

    def tamper_forward(self, register, qubits):
        if self.target >= len(qubits):
            raise ValueError(f"target {self.target} out of range for {len(qubits)} qubits")
        register.apply_pauli(qubits[self.target], Pauli.IY)
        return qubits


class ReflectAll(AttackStrategy):
    """Eve bypasses Bob and returns every forward qubit untouched in
    transmitted order (measure-resend variant only)."""

    bypasses_bob = True


# -- the catalogue -------------------------------------------------------------


class Param:
    """One attack parameter: its default, the symbolic values it takes, and
    whether an int position 0..n-1 is allowed too."""

    def __init__(self, default: str, choices: tuple[str, ...], help: str, position=False):
        self.default, self.choices, self.help, self.position = default, choices, help, position

    def values(self) -> str:
        marked = [f"{c} (default)" if c == self.default else c for c in self.choices]
        return " | ".join(marked + ["a position 0..n-1"] * self.position)

    def check(self, key: str, value, n: int) -> None:
        is_position = self.position and type(value) is int and 0 <= value < n
        if value not in self.choices and not is_position:
            raise ValueError(f"bad {key} {value!r} at n={n}; expected {self.values()}")


class Attack:
    """One catalogue entry. `build_strategy(params, rng, k1)` makes a trial's
    strategy from the parameters with defaults filled in; `closed_form(variant,
    n, params)` gives (detection probability, formula), or None if unknown."""

    def __init__(self, build_strategy, params=None, variants=tuple(Variant), closed_form=None):
        self.build_strategy = build_strategy
        self.params = params or {}
        self.variants = variants
        self.closed_form = closed_form or (lambda variant, n, params: None)

    def resolve(self, params: dict) -> dict:
        return {key: params.get(key, p.default) for key, p in self.params.items()}

    def build(self, params: dict, rng: Random, k1) -> AttackStrategy:
        """A fresh strategy for one trial; its random choices come from rng."""
        return self.build_strategy(self.resolve(params), rng, k1)

    def check(self, variant: Variant, n: int, params) -> None:
        """Raise ValueError unless the variant and parameters fit this attack."""
        if variant not in self.variants:
            raise ValueError(f"applies only to {' / '.join(v.value for v in self.variants)}")
        if not isinstance(params, dict):
            raise ValueError(f"attack_params must be a mapping, got {params!r}")
        for key, value in params.items():
            if key not in self.params:
                takes = ", ".join(self.params) or "none"
                raise ValueError(f"unknown parameter {key!r} in attack_params; takes {takes}")
            self.params[key].check(key, value, n)

    def analytic(self, variant: Variant, n: int, params: dict):
        """(probability, formula) of the closed form, or (None, None)."""
        return self.closed_form(variant, n, self.resolve(params)) or (None, None)


def _modify_single(params, rng: Random, k1) -> ModifySingleQubit:
    """Resolve a symbolic target against the trial's key layout here, so the
    strategy itself never sees key material."""
    target = params["target"]
    if target == "random":
        target = rng.randrange(len(k1))
    elif target == "c":
        target = rng.choice([i for i, b in enumerate(k1) if b == 1])
    elif target in ("s", "s_msg"):
        positions = [i for i, b in enumerate(k1) if b == 0]
        if target == "s_msg":
            # message-half block bits sit in the first half of the message stream
            positions = positions[: len(k1) // 4]
        target = rng.choice(positions)
    return ModifySingleQubit(target)


_RAND = Variant.RANDOMIZATION

ATTACKS = {
    "no_attack": Attack(
        lambda p, rng, k1: AttackStrategy(),
        closed_form=lambda v, n, p: (0.0, "honest runs are never rejected") if v is _RAND
        else (0.5 ** (n / 4), "reflect-flag false positive (1/2)^(n/4)"),
    ),
    "impersonate_alice": Attack(lambda p, rng, k1: ImpersonateAlice(rng)),
    "impersonate_bob": Attack(
        lambda p, rng, k1: (
            ImpersonateBobIdealized if p["mode"] == "idealized" else ImpersonateBobConcrete
        )(rng),
        params={"mode": Param(
            "idealized", ("idealized", "concrete"),
            "idealized: keep each returned qubit w.p. 1/2; concrete: bypass Bob, guess blindly",
        )},
        closed_form=lambda v, n, p: (1.0 - 0.625 ** (n / 2), "1-(5/8)^(n/2)")
        if v is _RAND and p["mode"] == "idealized" else None,
    ),
    "intercept_resend": Attack(
        lambda p, rng, k1: InterceptResend(),
        closed_form=lambda v, n, p: (1.0 - 0.5 ** (n / 2), "1-(1/2)^(n/2)")
        if v is _RAND else None,
    ),
    "modify_single": Attack(
        _modify_single,
        params={"target": Param(
            "random", ("random", "s", "c", "s_msg"),
            "forward qubit to flip; s, c, s_msg: random message, checking, message-half slot",
            position=True,
        )},
        closed_form=lambda v, n, p: (
            1.0, "Phi+ <-> Psi- flip is orthogonal to the recorded state"
        ) if p["target"] == "c" else None,
    ),
    "reflect_all": Attack(
        lambda p, rng, k1: ReflectAll(),
        variants=(Variant.MEASURE_RESEND,),
        closed_form=lambda v, n, p: (
            1.0, "all-reflected message pairs always match their initial states"
        ),
    ),
}
