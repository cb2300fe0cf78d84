"""Tests for key generation, interleaving, and key-derived permutations."""

import hashlib
from itertools import combinations
from random import Random

import pytest

from sqdc.codec import pack_bits
from sqdc.keys import (
    KeyMaterial,
    _shuffle,
    apply_perm,
    deinterleave,
    gen_keys,
    interleave,
    invert_perm,
    permutation_from_key,
    random_bits,
)


# -- generation -----------------------------------------------------------------


def test_gen_keys_shapes():
    keys = gen_keys(16, Random(0))
    assert (len(keys.k1), sum(keys.k1), len(keys.k2)) == (16, 8, 8)
    assert gen_keys(16, Random(0), include_k2=False).k2 is None


def test_gen_keys_deterministic():
    assert gen_keys(32, Random(5)) == gen_keys(32, Random(5))
    assert len({gen_keys(32, Random(seed)) for seed in range(100)}) == 100


KEYS = KeyMaterial(k1=(0, 1, 1, 0))
BAD_N = (0, 8, 12, 17, 20, 2056)


@pytest.mark.parametrize(
    "call, message",
    [
        *((lambda n=n: gen_keys(n, Random(0)), None) for n in BAD_N),
        # an unbalanced k1 never reaches interleave or deinterleave: the type rejects it
        (lambda: KeyMaterial(k1=(1, 1, 0, 1)), "balanced"),
        (lambda: KeyMaterial(k1=(1, 1, 1, 0)), "balanced"),
        (lambda: KeyMaterial(k1=(0, 1, 1, 0), k2=(0,)), None),  # wrong k2 length
        (lambda: KeyMaterial(k1=(2, 0, 0, 0)), "bits"),  # passes the balance sum, but 2 is not a bit
        (lambda: KeyMaterial(k1=(0, 1, 1, 0), k2=(7, 0)), "bits"),
        (lambda: interleave([1], [2, 3], KEYS), "equal length"),
        (lambda: interleave([1], [2], KEYS), "k1 length"),
        (lambda: deinterleave([1, 2, 3], KEYS), "sequence length must equal k1 length"),
        (lambda: apply_perm((1, 0), [1, 2, 3]), None),
        (lambda: invert_perm((1, 0), [1, 2, 3]), None),
    ],
    ids=[*(f"gen_keys-n{n}" for n in BAD_N), "k1-1101", "k1-1110", "k2-length", "k1-non-bit",
         "k2-non-bit", "interleave-unequal", "interleave-k1-length", "deinterleave-length",
         "apply_perm-length", "invert_perm-length"],
)
def test_keys_and_permutations_reject(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- the draws pinned to the stdlib ------------------------------------------------

STREAM_DRIFT = (
    "CPython's _randbelow changed: the key and message draws no longer match it,"
    " so reports would drift"
)
PIN_LENGTHS = (*range(131), 255, 256, 257, 1024, 2048)


def test_shuffle_matches_stdlib_shuffle():
    # a shuffle cut short after k swaps is `sample(x, k)` where sample takes
    # its pool branch: always for len(x) <= 21, and at k = len(x) // 2
    partial = [(length, k) for length in range(22) for k in range(length + 1)]
    partial += [(length, length // 2) for length in PIN_LENGTHS]
    for seed in range(64):
        ours, stdlib = Random(seed), Random(seed)
        for length in PIN_LENGTHS:
            x, y = list(range(length)), list(range(length))
            _shuffle(x, ours)
            stdlib.shuffle(y)
            where = f"{STREAM_DRIFT} (seed {seed}, length {length})"
            assert x == y, where
            assert ours.getrandbits(32) == stdlib.getrandbits(32), where
        for length, k in partial:
            x = list(range(length))
            _shuffle(x, ours, k)
            where = f"{STREAM_DRIFT} (seed {seed}, length {length}, swaps {k})"
            assert x[length - k :][::-1] == stdlib.sample(range(length), k), where
            assert ours.getrandbits(32) == stdlib.getrandbits(32), where


def test_random_bits_matches_stdlib_randrange():
    for seed in range(64):
        ours, stdlib = Random(seed), Random(seed)
        for k in PIN_LENGTHS:
            where = f"{STREAM_DRIFT} (seed {seed}, k {k})"
            assert random_bits(k, ours) == [stdlib.randrange(2) for _ in range(k)], where
            assert ours.getrandbits(32) == stdlib.getrandbits(32), where


def test_trial_setup_matches_stdlib_draws():
    # a trial draws k1, then k2 (randomization only), then the message
    for n in range(16, 2049, 8):
        for include_k2 in (False, True):
            ours, stdlib = Random(n), Random(n)
            keys = gen_keys(n, ours, include_k2)
            m = random_bits(n // 8, ours)
            k1 = [0] * (n // 2) + [1] * (n // 2)
            stdlib.shuffle(k1)
            k2 = tuple(stdlib.randrange(2) for _ in range(n // 2)) if include_k2 else None
            assert keys == KeyMaterial(k1=tuple(k1), k2=k2), f"{STREAM_DRIFT} (n {n})"
            assert m == [stdlib.randrange(2) for _ in range(n // 8)], f"{STREAM_DRIFT} (n {n})"
            assert ours.getrandbits(32) == stdlib.getrandbits(32), f"{STREAM_DRIFT} (n {n})"


# -- interleaving -----------------------------------------------------------------


@pytest.mark.parametrize(
    "k1, s, cb, q",
    [("0110", "ab", "xy", "axyb"), ("00001111", "abcd", "wxyz", "abcdwxyz"), ("1100", "ab", "xy", "xyab")],
)
def test_interleave_example(k1, s, cb, q):
    keys = KeyMaterial(k1=tuple(map(int, k1)))
    assert interleave(list(s), list(cb), keys) == list(q)
    assert deinterleave(list(q), keys) == (list(s), list(cb))


def every_balanced_k1_n16():
    for ones in combinations(range(16), 8):  # the C(16,8) = 12870 hidden splits
        yield KeyMaterial(k1=tuple(1 if i in ones else 0 for i in range(16)))


def random_keys():
    rng = Random(21)
    for _ in range(100):
        yield gen_keys(rng.choice([32, 64]), rng, include_k2=False)


@pytest.mark.parametrize("key_source", [every_balanced_k1_n16, random_keys])
def test_deinterleave_inverts_interleave(key_source):
    for keys in key_source():
        q = list(range(len(keys.k1)))
        s, cb = deinterleave(q, keys)
        assert interleave(s, cb, keys) == q


# -- permutations -----------------------------------------------------------------


def test_permutation_pinned_regression():
    k = [1, 0, 1, 1, 0, 0, 1, 0]
    assert permutation_from_key(k) == (0, 2, 5, 7, 1, 4, 3, 6)
    assert permutation_from_key(k) == permutation_from_key(k)


def test_permutation_pinned_regression_n256():
    # a 128-bit k2, as at n = 256; computed with the per-bit packing loop
    k = [int(c) for c in (
        "1101011111111110000110000001111010100000111101110111001110111011"
        "1111011001011001110100011111110111000001011101000001100010001000"
    )]
    assert bytes(permutation_from_key(k)).hex() == (  # one byte an entry
        "5b483e241a750f5d361e40096a14544e15046465591847587e0a517739553c6b"
        "4f68572b7a11711242312523736d4b007d76560e015332704420226e497c3a07"
        "2a6c107f2d3f5c38191c526245373d2e7b30613b0528160635266f0b5a5f0d17"
        "694c5e02722729631f340c796078437403414d4a1d082f5066466713331b2c21"
    )


def fisher_yates_reference(k, length):
    """The k2 permutation as `Random.shuffle` draws it, from the seed permutation_from_key derives."""
    # test_codec pins codec.pack_bits to a bit-by-bit loop for every length
    seed = int.from_bytes(hashlib.sha256(pack_bits(k)).digest()[:8], "big")
    mapping = list(range(length))
    Random(seed).shuffle(mapping)
    return tuple(mapping)


def test_permutation_matches_explicit_fisher_yates():
    rng = Random(8)
    for length in range(8, 129, 8):
        for _ in range(13):
            k = [rng.randrange(2) for _ in range(length)]
            assert permutation_from_key(k) == fisher_yates_reference(k, length)


def test_permutation_memo_never_stale():
    a, b = [0, 1] * 8, [1, 0] * 8
    expected = {tuple(a): fisher_yates_reference(a, 16), tuple(b): fisher_yates_reference(b, 16)}
    assert expected[tuple(a)] != expected[tuple(b)]
    for k in (a, b, a, b):
        assert permutation_from_key(k) == expected[tuple(k)]
        assert permutation_from_key(tuple(k)) == expected[tuple(k)]


def test_permutation_is_bijection():
    # every k2 length a session can have: n/2 for n = 16, 24, ..., 2048
    rng = Random(3)
    for n in range(16, 2049, 8):
        k = [rng.randrange(2) for _ in range(n // 2)]
        assert sorted(permutation_from_key(k)) == list(range(n // 2))


def test_permutation_collisions_match_birthday_expectation():
    # all 256 8-bit keys into 8! = 40320 permutation cells; expected
    # colliding pairs = C(256,2)/8! ~ 0.81, so a 3-sigma Poisson band tops
    # out at 4 colliding pairs
    seen = {}
    colliding_pairs = 0
    for v in range(256):
        k = [(v >> (7 - i)) & 1 for i in range(8)]
        mapping = permutation_from_key(k)
        colliding_pairs += seen.get(mapping, 0)
        seen[mapping] = seen.get(mapping, 0) + 1
    assert colliding_pairs <= 4


def test_apply_invert_round_trip():
    rng = Random(4)
    for _ in range(100):
        length = rng.choice([4, 8, 12])
        k = [rng.randrange(2) for _ in range(length)]
        p = permutation_from_key(k)
        seq = [rng.random() for _ in range(length)]
        assert invert_perm(p, apply_perm(p, seq)) == seq


def test_identity_and_reversal_permutations():
    assert apply_perm((0, 1, 2), ["a", "b", "c"]) == ["a", "b", "c"]
    assert apply_perm((2, 1, 0), ["a", "b", "c"]) == ["c", "b", "a"]
    # position i goes to p[i]; inverting reads position p[i] back
    assert apply_perm((1, 2, 0), ["a", "b", "c"]) == ["c", "a", "b"]
    assert invert_perm((1, 2, 0), ["c", "a", "b"]) == ["a", "b", "c"]
