"""Message-block construction, bit/Bell encoding, and checksum verification.

A message m of n/8 bits is extended to the block M = m || checksum(m), where
the checksum is a truncated SHA-256 digest of the same length as m. Each block
bit is carried by one Bell pair: 0 -> Phi+, 1 -> Psi-. The receiver recovers a
block bit as the XOR of the two Z-measurement outcomes of the pair.
"""

from __future__ import annotations

import hashlib
from random import Random

from .qsim import BellState

HASH_NAME = "sha256"

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def pack_bits(bits) -> bytes:
    """Byte-pack a bit sequence: 16-bit big-endian length prefix, then the
    bits MSB-first, zero-padded to a byte boundary."""
    n = len(bits)
    if n > 0xFFFF:
        raise ValueError("bit string too long to pack")
    out = bytearray(n.to_bytes(2, "big"))
    acc = 0
    filled = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {b!r}")
        acc = (acc << 1) | b
        filled += 1
        if filled == 8:
            out.append(acc)
            acc = filled = 0
    if filled:
        out.append(acc << (8 - filled))
    return bytes(out)


def hash_checksum(m, L: int):
    """First L bits of the SHA-256 digest of the packed message."""
    if L <= 0:
        raise ValueError("checksum length must be positive")
    if len(m) != L:
        raise ValueError(f"expected a {L}-bit message, got {len(m)} bits")
    digest = hashlib.sha256(pack_bits(m)).digest()
    return [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(L)]


def build_block(m):
    """M = m || checksum(m); doubles the bit length."""
    return list(m) + hash_checksum(m, len(m))


def verify_block(block):
    """Split a received block into (message, checksum) and recompute.

    Returns (ok, message); ok is True iff the checksum halves agree.
    """
    if len(block) % 2 != 0:
        raise ValueError("block length must be even")
    half = len(block) // 2
    m = list(block[:half])
    return hash_checksum(m, half) == list(block[half:]), m


def encode_bit(b: int) -> BellState:
    """Block bit to Bell state: 0 -> Phi+, 1 -> Psi-."""
    if b == 0:
        return BellState.PHI_PLUS
    if b == 1:
        return BellState.PSI_MINUS
    raise ValueError(f"bit must be 0 or 1, got {b!r}")


def decode_pair(b1: int, b2: int) -> int:
    """Block bit from the two Z outcomes of its Bell pair (XOR)."""
    return b1 ^ b2


# -- bit-string plumbing ---------------------------------------------------


def random_bits(k: int, rng: Random):
    return [rng.randrange(2) for _ in range(k)]


def bits_to_hex(bits) -> str:
    """Hex rendering, MSB-first, zero-padded to a 4-bit boundary."""
    pad = (-len(bits)) % 4
    value = 0
    for b in bits:
        value = (value << 1) | b
    value <<= pad
    return format(value, f"0{(len(bits) + pad) // 4}x")


def hex_to_bits(text: str, nbits: int):
    """First nbits of the bit expansion of a string of hex digits."""
    if not isinstance(text, str) or not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"not a string of hex digits: {text!r}")
    if len(text) * 4 < nbits:
        raise ValueError(f"need at least {nbits} bits, got {len(text) * 4}")
    value = int(text, 16)
    total = len(text) * 4
    return [(value >> (total - 1 - i)) & 1 for i in range(nbits)]
