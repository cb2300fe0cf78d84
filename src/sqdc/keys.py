"""Pre-shared key material and the key-driven sequence transforms.

k1 (n bits, balanced) decides per transmitted position whether it carries a
message qubit (bit 0) or a checking qubit (bit 1); in the measure-resend
variant the same bit selects Bob's SHARE (0) or CHECK (1) mode. k2 (n/2 bits)
seeds a Fisher-Yates shuffle that reorders the reflected checking qubits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from .codec import pack_bits


@dataclass(frozen=True)
class KeyMaterial:
    k1: tuple[int, ...]
    k2: tuple[int, ...] | None = None  # absent in measure-resend sessions

    def __post_init__(self):
        n = len(self.k1)
        if n % 2 != 0 or sum(self.k1) * 2 != n:
            raise ValueError("k1 must be a balanced bit string of even length")
        if self.k2 is not None and len(self.k2) * 2 != n:
            raise ValueError("k2 must be half the length of k1")


def gen_keys(n: int, rng: Random, include_k2: bool = True) -> KeyMaterial:
    """Sample fresh key material: k1 uniform over balanced n-bit strings,
    k2 uniform over n/2-bit strings."""
    if n % 8 != 0 or n < 16:
        raise ValueError(f"n must be a multiple of 8 and at least 16, got {n}")
    k1 = [0] * (n // 2) + [1] * (n // 2)
    rng.shuffle(k1)
    k2 = tuple(rng.randrange(2) for _ in range(n // 2)) if include_k2 else None
    return KeyMaterial(k1=tuple(k1), k2=k2)


def interleave(s, cb, k1):
    """Merge the message sequence s (k1 bit 0) and checking sequence cb
    (k1 bit 1) into one transmitted sequence, preserving relative order."""
    if len(s) != len(cb):
        raise ValueError("sequences must have equal length")
    if len(k1) != len(s) + len(cb):
        raise ValueError("k1 length must equal the combined sequence length")
    if sum(k1) * 2 != len(k1):
        raise ValueError("k1 must be balanced")
    it_s = iter(s)
    it_c = iter(cb)
    return [next(it_c) if bit else next(it_s) for bit in k1]


def deinterleave(q, k1):
    """Exact inverse of interleave: split q back into (s, cb)."""
    if len(q) != len(k1):
        raise ValueError("sequence length must equal k1 length")
    if sum(k1) * 2 != len(k1):
        raise ValueError("k1 must be balanced")
    s, cb = [], []
    for bit, x in zip(k1, q):
        (cb if bit else s).append(x)
    return s, cb


@dataclass(frozen=True)
class Permutation:
    mapping: tuple[int, ...]  # element at input position i goes to mapping[i]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping must be a bijection on 0..len-1")

    def __len__(self):
        return len(self.mapping)


def permutation_from_key(k, length: int) -> Permutation:
    """Deterministic permutation from a key: Fisher-Yates driven by a stream
    seeded with the hash of the key (hashing decorrelates similar keys)."""
    if length != len(k):
        raise ValueError("permutation length must equal the key length")
    return _permutation(tuple(k))


@lru_cache(maxsize=1)
def _permutation(k: tuple) -> Permutation:
    """Bob's step 3 and Alice's step 4 derive the same k2 permutation, so the
    last one is kept."""
    seed = int.from_bytes(hashlib.sha256(pack_bits(k)).digest()[:8], "big")
    mapping = list(range(len(k)))
    Random(seed).shuffle(mapping)  # draws randbelow(i + 1) for i = len-1 .. 1
    return Permutation(tuple(mapping))


def apply_perm(p: Permutation, seq):
    if len(seq) != len(p):
        raise ValueError("sequence length must match permutation length")
    out = [None] * len(seq)
    for i, x in enumerate(seq):
        out[p.mapping[i]] = x
    return out


def invert_perm(p: Permutation, seq):
    if len(seq) != len(p):
        raise ValueError("sequence length must match permutation length")
    return [seq[p.mapping[i]] for i in range(len(seq))]
