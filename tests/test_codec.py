"""Tests for block construction, checksums, and Bell encoding."""

import hashlib
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from sqdc.codec import (
    ALPHABET,
    MAX_MESSAGE_BITS,
    bits_to_hex,
    build_block,
    hash_checksum,
    hex_to_bits,
    pack_bits,
    verify_block,
)
from sqdc.keys import random_bits
from sqdc.qsim import BellState, QuantumRegister


# -- checksum ------------------------------------------------------------------


def test_checksum_pinned_vector_zero_byte():
    # sha256(0x000800)[:1] = 0x8f
    assert hash_checksum([0] * 8) == [1, 0, 0, 0, 1, 1, 1, 1]
    rng = Random(0)
    for m in (random_bits(8, rng) for _ in range(50)):
        assert hash_checksum(m) == hash_checksum(m)


def test_checksum_length_validation():
    # a checksum as long as the message cannot outgrow the 256-bit digest
    assert len(hash_checksum([1] * MAX_MESSAGE_BITS)) == MAX_MESSAGE_BITS == 256


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hash_checksum([1] * (MAX_MESSAGE_BITS + 1)), None),
        (lambda: hash_checksum([]), None),
        (lambda: pack_bits([0, 2]), None),
        (lambda: bits_to_hex([0, 2]), None),
        (lambda: verify_block([0, 1, 0]), None),  # odd length
        (lambda: hex_to_bits("a", 5), None),  # too short
        # too long: exactly ceil(nbits/4) digits, so nothing is dropped unseen
        *((lambda t=t, k=k: hex_to_bits(t, k), "hex digits") for t, k in (("ab", 4), ("abc", 8), ("0f", 2))),
    ],
    ids=["checksum-257-bits", "checksum-empty", "pack-non-bit", "hex-non-bit", "verify-odd-length",
         "hex-too-short", "hex-too-long-ab", "hex-too-long-abc", "hex-too-long-0f"],
)
def test_codec_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_checksum_avalanche_exhaustive():
    # every 8-bit message, every single-bit flip
    changed_bits = 0
    cases = 0
    for v in range(256):
        m = [(v >> (7 - i)) & 1 for i in range(8)]
        hm = hash_checksum(m)
        for i in range(8):
            m2 = list(m)
            m2[i] ^= 1
            h2 = hash_checksum(m2)
            changed_bits += sum(a != b for a, b in zip(hm, h2))
            cases += 1
    # output bits change in at least 35% of sampled cases
    assert changed_bits / (8 * cases) >= 0.35


def test_pack_bits_length_prefix():
    assert pack_bits([]) == b"\x00\x00"
    assert pack_bits([1]) == b"\x00\x01\x80"
    assert pack_bits([0] * 8) == b"\x00\x08\x00"
    assert pack_bits([1] * 8) == b"\x00\x08\xff"
    # prefix disambiguates zero padding
    assert pack_bits([1, 0]) != pack_bits([1, 0, 0])


# -- block build / verify --------------------------------------------------------


def test_build_block_pinned():
    assert build_block([1, 0, 1, 1]) == [1, 0, 1, 1, 1, 1, 0, 0]


def random_messages():
    rng = Random(9)
    for _ in range(200):
        yield random_bits(rng.choice([8, 16, 32]), rng)


@pytest.mark.parametrize(
    "messages",
    [lambda: (list(m) for k in (2, 3, 4) for m in product((0, 1), repeat=k)), random_messages],
    ids=["exhaustive_small", "randomized_large"],  # every message for n <= 32; 200 up to n = 256
)
def test_round_trip(messages):
    for m in messages():
        block = build_block(m)
        assert block == m + hash_checksum(m)  # the message, then its checksum
        assert verify_block(block) == (True, m)


def test_flipped_tail_bit_always_rejects():
    rng = Random(10)
    for _ in range(200):
        block = build_block(random_bits(8, rng))
        block[8 + rng.randrange(8)] ^= 1
        ok, _ = verify_block(block)
        assert not ok


def test_single_message_bit_flip_detection_is_exact():
    # A flipped message-half qubit (`modify_single target=s_msg`) flips one
    # message bit; the paper's "close to 1" holds exactly from n = 24 on, and
    # an ideal hash would give 1 - 2^(-n/8) instead.
    exact_rates = {16: Fraction(1, 2), 24: Fraction(11, 12), 32: 1, 64: Fraction(1021, 1024)}
    for n, exact in exact_rates.items():
        cases = caught = 0
        for m in product((0, 1), repeat=n // 8):
            block = build_block(m)
            for i in range(n // 8):
                block[i] ^= 1
                caught += not verify_block(block)[0]
                block[i] ^= 1
                cases += 1
        assert Fraction(caught, cases) == exact, n


def test_forgery_bound_random_blocks():
    # uniformly random blocks at n=32 pass with rate 2^-4 within 3 sigma
    rng = Random(11)
    trials = 100_000
    accepted = sum(verify_block(random_bits(8, rng))[0] for _ in range(trials))
    p = 2 ** -4
    sigma = (p * (1 - p) / trials) ** 0.5
    assert abs(accepted / trials - p) <= 3 * sigma


# -- bit <-> Bell encoding --------------------------------------------------------


def test_alphabet_mapping():
    assert ALPHABET == (BellState.PHI_PLUS, BellState.PSI_MINUS)


def test_encode_measure_decode_round_trip():
    # the Z outcomes of an encoded pair always XOR back to the bit
    reg = QuantumRegister(3)
    for _ in range(1000):
        for bit in (0, 1):
            a, b = reg.measure_z(*reg.prepare_bell(ALPHABET[bit]))
            assert a ^ b == bit
        if len(reg.live_qubits()) > 4000:
            reg = QuantumRegister(reg.rng.getrandbits(32))


# -- hex plumbing -----------------------------------------------------------------


# -- equivalence with the per-bit loops ----------------------------------------
# The codec once converted bit strings one bit at a time. These loops are that
# code, kept as the reference the int/bin conversions must match.


def loop_bits_to_int(bits):
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise ValueError(f"bits must be 0/1, got {b!r}")
        value = (value << 1) | b
    return value


def loop_pack_bits(bits):
    n = len(bits)
    size = (n + 7) // 8
    return n.to_bytes(2, "big") + (loop_bits_to_int(bits) << (8 * size - n)).to_bytes(size, "big")


def loop_bits_to_hex(bits):
    pad = (-len(bits)) % 4
    return format(loop_bits_to_int(bits) << pad, f"0{(len(bits) + pad) // 4}x")


def loop_hash_checksum(m):
    digest = hashlib.sha256(loop_pack_bits(m)).digest()
    return [(digest[i // 8] >> (7 - i % 8)) & 1 for i in range(len(m))]


def loop_hex_to_bits(text, nbits):
    value = int(text, 16)
    total = len(text) * 4
    return [(value >> (total - 1 - i)) & 1 for i in range(nbits)]


def test_pack_and_hex_match_loops_for_every_length():
    assert hex_to_bits("f", 2) == [1, 1]  # the padding bits of the last digit
    rng = Random(13)
    for length in range(301):
        bits = [rng.randrange(2) for _ in range(length)]
        assert pack_bits(bits) == loop_pack_bits(bits)
        assert pack_bits(tuple(bits)) == loop_pack_bits(bits)
        text = bits_to_hex(bits)
        assert text == loop_bits_to_hex(bits)
        if length:
            assert hex_to_bits(text, length) == bits
            # random digits, so the padding bits of the last one are set too
            text = "".join(rng.choice("0123456789abcdefABCDEF") for _ in text)
            assert hex_to_bits(text, length) == loop_hex_to_bits(text, length)


def test_hash_checksum_matches_loop_for_every_length():
    rng = Random(14)
    for L in range(1, MAX_MESSAGE_BITS + 1):
        m = [rng.randrange(2) for _ in range(L)]
        checksum = hash_checksum(m)
        assert checksum == loop_hash_checksum(m)
        assert all(type(b) is int for b in checksum)


def test_invalid_entries_raise_the_loops_error():
    rng = Random(15)
    for bad in (2, -1, 256, "1", None, 0.5):
        for at in (0, 4, 8):
            bits = [rng.randrange(2) for _ in range(9)]
            bits[at] = bad
            # alone, and followed by a later bad entry that is not the one named
            for case in (bits, bits + [3]):
                with pytest.raises(ValueError) as expected:
                    loop_bits_to_int(case)
                for convert in (pack_bits, bits_to_hex, hash_checksum):
                    with pytest.raises(ValueError) as got:
                        convert(case)
                    assert str(got.value) == str(expected.value) == f"bits must be 0/1, got {bad!r}"
