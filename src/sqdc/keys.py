"""Pre-shared key material and the key-driven sequence transforms.

k1 (n bits, balanced) decides per transmitted position whether it carries a
message qubit (bit 0) or a checking qubit (bit 1); in the measure-resend
variant the same bit selects Bob's SHARE (0) or CHECK (1) mode. k2 (n/2 bits)
seeds a Fisher-Yates shuffle that reorders the reflected checking qubits.
Every draw that copies CPython's `_randbelow` lives here: `_shuffle` (k1, the
k2 permutation, the concrete receiver impersonator's guess) and `random_bits`
(k2, a random message) consume the generator exactly as `Random.shuffle`,
`Random.sample` and `randrange(2)` do, as tests/test_keys.py pins.

`KeyMaterial` alone checks these invariants; `interleave` and `deinterleave`
take it and trust its k1. A permutation is a tuple p sending input position i
to p[i], a bijection because it is a shuffle of range(len(p)).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .codec import MAX_MESSAGE_BITS, pack_bits


@dataclass(frozen=True)
class KeyMaterial:
    k1: tuple[int, ...]
    k2: tuple[int, ...] | None = None  # absent in measure-resend sessions

    def __post_init__(self):
        # counting both values checks the balance and that every entry is a bit
        n = len(self.k1)
        if self.k1.count(0) * 2 != n or self.k1.count(1) * 2 != n:
            raise ValueError("k1 must be a balanced string of bits 0 and 1")
        if self.k2 is not None:
            if len(self.k2) * 2 != n:
                raise ValueError("k2 must be half the length of k1")
            if self.k2.count(0) + self.k2.count(1) != len(self.k2):
                raise ValueError("k2 must be a string of bits 0 and 1")


def check_n(n) -> None:
    """Raise ValueError unless n is a session size: a multiple of 8 whose n/8
    checksum bits fit the digest."""
    if type(n) is not int or n % 8 != 0 or not 16 <= n <= 8 * MAX_MESSAGE_BITS:
        raise ValueError(f"n must be a multiple of 8 in 16..{8 * MAX_MESSAGE_BITS}, got {n!r}")


def gen_keys(n: int, rng: Random, include_k2: bool = True) -> KeyMaterial:
    """Sample fresh key material: k1 uniform over balanced n-bit strings,
    k2 uniform over n/2-bit strings."""
    check_n(n)
    k1 = [0] * (n // 2) + [1] * (n // 2)
    _shuffle(k1, rng)
    k2 = tuple(random_bits(n // 2, rng)) if include_k2 else None
    return KeyMaterial(k1=tuple(k1), k2=k2)


def interleave(s, cb, keys: KeyMaterial):
    """Merge the message sequence s (k1 bit 0) and checking sequence cb
    (k1 bit 1) into one transmitted sequence, preserving relative order."""
    if len(s) != len(cb):
        raise ValueError("sequences must have equal length")
    if len(keys.k1) != len(s) + len(cb):
        raise ValueError("k1 length must equal the combined sequence length")
    it_s = iter(s)
    it_c = iter(cb)
    return [next(it_c) if bit else next(it_s) for bit in keys.k1]


def deinterleave(q, keys: KeyMaterial):
    """Exact inverse of interleave: split q back into (s, cb)."""
    if len(q) != len(keys.k1):
        raise ValueError("sequence length must equal k1 length")
    s, cb = [], []
    for bit, x in zip(keys.k1, q):
        (cb if bit else s).append(x)
    return s, cb


def permutation_from_key(k) -> tuple[int, ...]:
    """Deterministic permutation of len(k) positions from a key: Fisher-Yates
    driven by a stream seeded with the hash of the key (hashing decorrelates
    similar keys)."""
    return _permutation(tuple(k))


@lru_cache(maxsize=1)
def _permutation(k: tuple) -> tuple[int, ...]:
    """Bob's step 3 and Alice's step 4 derive the same k2 permutation, so the
    last one is kept."""
    seed = int.from_bytes(hashlib.sha256(pack_bits(k)).digest()[:8], "big")
    mapping = list(range(len(k)))
    _shuffle(mapping, Random(seed))
    return tuple(mapping)


def random_bits(k: int, rng: Random):
    """k draws of `rng.randrange(2)`, inlined: the same getrandbits stream."""
    getrandbits = rng.getrandbits
    bits = []
    for _ in range(k):
        r = getrandbits(2)
        while r > 1:
            r = getrandbits(2)
        bits.append(r)
    return bits


def _shuffle(x: list, rng: Random, swaps: int | None = None) -> None:
    """`rng.shuffle(x)` with CPython's `_randbelow(i + 1)` inlined: the same
    getrandbits words in the same order. Cut short after `swaps` swaps, it
    draws as the pool branch of `rng.sample(x, swaps)` and leaves the picks at
    x[-1], x[-2], ... (Durstenfeld, CACM 7(7) 420, 1964, Algorithm 235)."""
    getrandbits = rng.getrandbits
    stop = 0 if swaps is None else len(x) - 1 - swaps
    for i in range(len(x) - 1, stop, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def apply_perm(p: tuple[int, ...], seq):
    if len(seq) != len(p):
        raise ValueError("sequence length must match permutation length")
    out = [None] * len(seq)
    for i, x in enumerate(seq):
        out[p[i]] = x
    return out


def invert_perm(p: tuple[int, ...], seq):
    if len(seq) != len(p):
        raise ValueError("sequence length must match permutation length")
    return [seq[j] for j in p]
