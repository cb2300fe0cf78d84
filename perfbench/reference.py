"""Reference kernel: how fast this host runs sqdc-like Python right now.

On a shared host the speed of pure-Python code drifts by a factor of 1.5
within minutes, so raw trials/s from two runs are not comparable. The kernel
below is fixed code of the same kind as sqdc's hot paths: small complex state
vectors, bit reordering, objects with __slots__, dict and list traffic,
seeded Random draws and SHA-256 of short strings. It never calls sqdc, so a
change to sqdc does not move it. run.py times it between passes and scales
each pass to a host that runs it at REF_ROUNDS_PER_S; the ratio of a pass's
rate to the kernel's rate drifts far less than either does alone.
"""

from __future__ import annotations

import hashlib
from random import Random
from time import perf_counter

REF_ROUNDS_PER_S = 30_000.0
ROUNDS = 400

_BELL = (0.7071067811865476, 0.0, 0.0, -0.7071067811865476)


class _Box:
    __slots__ = ("ids", "amps")

    def __init__(self, ids, amps):
        self.ids = ids
        self.amps = amps


def rounds_per_s(rounds: int = ROUNDS) -> float:
    rng = Random(1)
    held = {}
    t0 = perf_counter()
    for r in range(rounds):
        box = _Box(list(range(4)), [complex(rng.random(), rng.random()) for _ in range(16)])
        pos = {q: i for i, q in enumerate(box.ids)}
        out = [0j] * 16
        for i, a in enumerate(box.amps):
            j = 0
            for s in (3, 1, 2, 0):
                j = (j << 1) | ((i >> s) & 1)
            out[j] = a
        vec = [
            _BELL[0] * out[s] + _BELL[1] * out[4 + s] + _BELL[2] * out[8 + s] + _BELL[3] * out[12 + s]
            for s in range(4)
        ]
        p = sum(v.real * v.real + v.imag * v.imag for v in vec)
        held[r % 64] = _Box(sorted(pos), [v / (p + 1) for v in vec])
        bits = [rng.randrange(2) for _ in range(16)]
        rng.shuffle(bits)
        acc = 0
        for b in bits:
            acc = (acc << 1) | b
        digest = hashlib.sha256(acc.to_bytes(2, "big")).digest()
        held[(r + 1) % 64] = _Box(tuple(bits), [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(16)])
    return rounds / (perf_counter() - t0)


def to_reference_rate(rate: float, kernel_rate: float) -> float:
    """A rate measured while the kernel ran at kernel_rate, scaled to the
    reference host."""
    return rate * REF_ROUNDS_PER_S / kernel_rate


def to_reference_seconds(seconds: float, kernel_rate: float) -> float:
    return seconds * kernel_rate / REF_ROUNDS_PER_S
