"""Tests for key generation, interleaving, and key-derived permutations."""

import hashlib
from itertools import combinations
from math import comb
from random import Random

import pytest

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
from test_codec import loop_pack_bits


# -- generation -----------------------------------------------------------------


def test_gen_keys_shapes():
    keys = gen_keys(16, Random(0))
    assert len(keys.k1) == 16
    assert sum(keys.k1) == 8
    assert len(keys.k2) == 8


def test_gen_keys_deterministic():
    assert gen_keys(32, Random(5)) == gen_keys(32, Random(5))


def test_gen_keys_distinct_seeds_distinct_keys():
    seen = {gen_keys(32, Random(seed)) for seed in range(100)}
    assert len(seen) == 100


def test_gen_keys_invalid_n():
    for n in (0, 8, 12, 17, 2056):
        with pytest.raises(ValueError):
            gen_keys(n, Random(0))


def test_gen_keys_without_k2():
    assert gen_keys(16, Random(0), include_k2=False).k2 is None


def test_key_material_validation():
    with pytest.raises(ValueError):
        KeyMaterial(k1=(1, 1, 0, 1))  # unbalanced
    with pytest.raises(ValueError):
        KeyMaterial(k1=(0, 1, 1, 0), k2=(0,))  # wrong k2 length
    with pytest.raises(ValueError, match="bits"):
        KeyMaterial(k1=(2, 0, 0, 0))  # passes the balance sum, but 2 is not a bit
    with pytest.raises(ValueError, match="bits"):
        KeyMaterial(k1=(0, 1, 1, 0), k2=(7, 0))


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


def test_interleave_example():
    keys = KeyMaterial(k1=(0, 1, 1, 0))
    assert interleave(["a", "b"], ["x", "y"], keys) == ["a", "x", "y", "b"]


def test_interleave_degenerate_pattern():
    keys = KeyMaterial(k1=(0,) * 4 + (1,) * 4)
    s = list("abcd")
    cb = list("wxyz")
    assert interleave(s, cb, keys) == s + cb


def test_deinterleave_example():
    keys = KeyMaterial(k1=(0, 1, 1, 0))
    assert deinterleave(["a", "x", "y", "b"], keys) == (["a", "b"], ["x", "y"])


def test_interleave_validation():
    keys = KeyMaterial(k1=(0, 1, 1, 0))
    with pytest.raises(ValueError, match="equal length"):
        interleave([1], [2, 3], keys)
    with pytest.raises(ValueError, match="k1 length"):
        interleave([1], [2], keys)
    with pytest.raises(ValueError, match="sequence length must equal k1 length"):
        deinterleave([1, 2, 3], keys)
    # an unbalanced k1 never reaches either function: the type rejects it
    with pytest.raises(ValueError, match="balanced"):
        KeyMaterial(k1=(1, 1, 1, 0))


def test_round_trip_exhaustive_n16():
    # every balanced 16-bit key
    q = list(range(16))
    for ones in combinations(range(16), 8):
        keys = KeyMaterial(k1=tuple(1 if i in ones else 0 for i in range(16)))
        s, cb = deinterleave(q, keys)
        assert interleave(s, cb, keys) == q
    assert comb(16, 8) == 12870  # the size of the hidden-split space


def test_round_trip_randomized_large():
    rng = Random(21)
    for _ in range(100):
        n = rng.choice([32, 64])
        keys = gen_keys(n, rng, include_k2=False)
        s = [("s", i) for i in range(n // 2)]
        cb = [("c", i) for i in range(n // 2)]
        q = interleave(s, cb, keys)
        assert deinterleave(q, keys) == (s, cb)


def test_split_hiding_operational():
    # a keyless guesser picking a uniform balanced split finds the true one
    # with frequency at most 2/C(16,8) over 1e5 attempts
    rng = Random(2)
    trials = 100_000
    hits = 0
    base = [0] * 8 + [1] * 8
    for _ in range(trials):
        true = list(base)
        rng.shuffle(true)
        guess = list(base)
        rng.shuffle(guess)
        if guess == true:
            hits += 1
    assert hits / trials <= 2 / comb(16, 8)


# -- permutations -----------------------------------------------------------------


def test_permutation_from_key_deterministic():
    k = [1, 0, 1, 1, 0, 0, 1, 0]
    assert permutation_from_key(k) == permutation_from_key(k)


def test_permutation_pinned_regression():
    assert permutation_from_key([1, 0, 1, 1, 0, 0, 1, 0]) == (0, 2, 5, 7, 1, 4, 3, 6)


def test_permutation_pinned_regression_n256():
    # a 128-bit k2, as at n = 256; computed with the per-bit packing loop
    k = [int(c) for c in (
        "1101011111111110000110000001111010100000111101110111001110111011"
        "1111011001011001110100011111110111000001011101000001100010001000"
    )]
    assert permutation_from_key(k) == (
        91, 72, 62, 36, 26, 117, 15, 93, 54, 30, 64, 9, 106, 20, 84, 78,
        21, 4, 100, 101, 89, 24, 71, 88, 126, 10, 81, 119, 57, 85, 60, 107,
        79, 104, 87, 43, 122, 17, 113, 18, 66, 49, 37, 35, 115, 109, 75, 0,
        125, 118, 86, 14, 1, 83, 50, 112, 68, 32, 34, 110, 73, 124, 58, 7,
        42, 108, 16, 127, 45, 63, 92, 56, 25, 28, 82, 98, 69, 55, 61, 46,
        123, 48, 97, 59, 5, 40, 22, 6, 53, 38, 111, 11, 90, 95, 13, 23,
        105, 76, 94, 2, 114, 39, 41, 99, 31, 52, 12, 121, 96, 120, 67, 116,
        3, 65, 77, 74, 29, 8, 47, 80, 102, 70, 103, 19, 51, 27, 44, 33,
    )


def fisher_yates_reference(k, length):
    """The explicit Fisher-Yates loop that permutation_from_key replaced."""
    # packed bit by bit, so a wrong codec.pack_bits cannot pass unseen
    seed = int.from_bytes(hashlib.sha256(loop_pack_bits(k)).digest()[:8], "big")
    rng = Random(seed)
    mapping = list(range(length))
    for i in range(length - 1, 0, -1):
        j = rng.randrange(i + 1)
        mapping[i], mapping[j] = mapping[j], mapping[i]
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


def test_permutation_validation():
    with pytest.raises(ValueError):
        apply_perm((1, 0), [1, 2, 3])
    with pytest.raises(ValueError):
        invert_perm((1, 0), [1, 2, 3])
