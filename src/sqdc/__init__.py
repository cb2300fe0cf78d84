"""Desk-scale simulator of two authenticated semi-quantum direct
communication protocols over Bell states, with adversary models and Monte
Carlo verification of their eavesdropping-detection probabilities."""

__version__ = "0.1.0"

from .qsim import BellState, Pauli, QuantumRegister
from .keys import KeyMaterial, gen_keys
from .protocol import DetectionCause, RunOutcome, Variant, run_session
from .adversary import AttackStrategy

__all__ = [
    "AttackStrategy",
    "BellState",
    "DetectionCause",
    "KeyMaterial",
    "Pauli",
    "QuantumRegister",
    "RunOutcome",
    "Variant",
    "gen_keys",
    "run_session",
    "__version__",
]
