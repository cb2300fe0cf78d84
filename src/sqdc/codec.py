"""Message-block construction, bit/Bell encoding, and checksum verification.

A message m of n/8 bits is extended to the block M = m || checksum(m), where
the checksum is a truncated SHA-256 digest of the same length as m. Each block
bit is carried by one Bell pair: 0 -> Phi+, 1 -> Psi-. The receiver recovers a
block bit as the XOR of the two Z-measurement outcomes of the pair.
A bit string crosses to bytes and back as one integer, rendered in base 2 by
`int` and `bin`, so no conversion loops over the bits in Python.
Nothing here is random: `keys.random_bits` draws a random message.
"""

from __future__ import annotations

import hashlib

from .qsim import BellState

HASH_NAME = "sha256"

# A checksum as long as the message cannot exceed the 256-bit digest.
MAX_MESSAGE_BITS = 256

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

# Bytes 0 and 1 become the digits "0" and "1"; every other byte becomes "x",
# which int(..., 2) rejects. The reverse table reads the digits back as bits.
_BIT_DIGITS = b"01" + b"x" * 254
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")

# The two Bell states that carry a bit, indexed by the bit. Alice's checking
# pairs and an impersonator's forgeries are drawn uniformly from it too.
ALPHABET = (BellState.PHI_PLUS, BellState.PSI_MINUS)


def _bits_to_int(bits) -> int:
    """The bits read MSB-first as one integer."""
    try:
        return int(bytes(bits).translate(_BIT_DIGITS) or b"0", 2)
    except (TypeError, ValueError):
        # name the first entry outside {0, 1}
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0/1, got {b!r}") from None
        raise


def _int_to_bits(value: int, nbits: int):
    """The nbits of value < 2**nbits, MSB-first, as a list of 0/1."""
    # a set bit above them keeps the leading zeros; [3:] drops it and "0b"
    return list(bin(value | (1 << nbits))[3:].encode().translate(_DIGIT_BITS))


def pack_bits(bits) -> bytes:
    """Byte-pack a bit sequence: 16-bit big-endian length prefix, then the
    bits MSB-first, zero-padded to a byte boundary."""
    n = len(bits)
    if n > 0xFFFF:
        raise ValueError("bit string too long to pack")
    size = (n + 7) // 8
    return n.to_bytes(2, "big") + (_bits_to_int(bits) << (8 * size - n)).to_bytes(size, "big")


def hash_checksum(m):
    """First len(m) bits of the SHA-256 digest of the packed message."""
    L = len(m)
    if not 0 < L <= MAX_MESSAGE_BITS:
        raise ValueError(f"message must have 1..{MAX_MESSAGE_BITS} bits, got {L}")
    digest = hashlib.sha256(pack_bits(m)).digest()
    return _int_to_bits(int.from_bytes(digest, "big") >> (256 - L), L)


def build_block(m):
    """M = m || checksum(m); doubles the bit length."""
    return list(m) + hash_checksum(m)


def verify_block(block):
    """Split a received block into (message, checksum) and recompute.

    Returns (ok, message); ok is True iff the checksum halves agree.
    """
    if len(block) % 2 != 0:
        raise ValueError("block length must be even")
    half = len(block) // 2
    m = list(block[:half])
    return hash_checksum(m) == list(block[half:]), m


# -- bit-string plumbing ---------------------------------------------------


def bits_to_hex(bits) -> str:
    """Hex rendering, MSB-first, zero-padded to a 4-bit boundary."""
    pad = (-len(bits)) % 4
    return format(_bits_to_int(bits) << pad, f"0{(len(bits) + pad) // 4}x")


def hex_to_bits(text: str, nbits: int):
    """The nbits that a string of exactly ceil(nbits/4) hex digits carries,
    MSB-first; the padding bits of the last digit are ignored."""
    if not isinstance(text, str) or not _HEX_DIGITS.issuperset(text):
        raise ValueError(f"not a string of hex digits: {text!r}")
    digits = -(-nbits // 4)
    if len(text) != digits:
        raise ValueError(f"need {digits} hex digits for {nbits} bits, got {len(text)}")
    return _int_to_bits(int(text, 16) >> (4 * digits - nbits), nbits)
