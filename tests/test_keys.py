"""Tests for key generation, interleaving, and key-derived permutations."""

import hashlib
from itertools import combinations
from math import comb
from random import Random

import pytest

from sqdc.codec import pack_bits
from sqdc.keys import (
    KeyMaterial,
    Permutation,
    apply_perm,
    deinterleave,
    gen_keys,
    interleave,
    invert_perm,
    permutation_from_key,
)


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
    for n in (0, 8, 12, 17):
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


# -- interleaving -----------------------------------------------------------------


def test_interleave_example():
    assert interleave(["a", "b"], ["x", "y"], [0, 1, 1, 0]) == ["a", "x", "y", "b"]


def test_interleave_degenerate_pattern():
    k1 = [0] * 4 + [1] * 4
    s = list("abcd")
    cb = list("wxyz")
    assert interleave(s, cb, k1) == s + cb


def test_deinterleave_example():
    assert deinterleave(["a", "x", "y", "b"], [0, 1, 1, 0]) == (["a", "b"], ["x", "y"])


def test_interleave_validation():
    with pytest.raises(ValueError):
        interleave([1], [2, 3], [0, 1, 1])
    with pytest.raises(ValueError):
        interleave([1, 2], [3, 4], [1, 1, 1, 0])  # unbalanced
    with pytest.raises(ValueError):
        deinterleave([1, 2, 3], [0, 1])


def test_round_trip_exhaustive_n16():
    # every balanced 16-bit key
    q = list(range(16))
    for ones in combinations(range(16), 8):
        k1 = [1 if i in ones else 0 for i in range(16)]
        s, cb = deinterleave(q, k1)
        assert interleave(s, cb, k1) == q
    assert comb(16, 8) == 12870  # the size of the hidden-split space


def test_round_trip_randomized_large():
    rng = Random(21)
    for _ in range(100):
        n = rng.choice([32, 64])
        k1 = [0] * (n // 2) + [1] * (n // 2)
        rng.shuffle(k1)
        s = [("s", i) for i in range(n // 2)]
        cb = [("c", i) for i in range(n // 2)]
        q = interleave(s, cb, k1)
        assert deinterleave(q, k1) == (s, cb)


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
    assert permutation_from_key(k, 8) == permutation_from_key(k, 8)


def test_permutation_pinned_regression():
    assert permutation_from_key([1, 0, 1, 1, 0, 0, 1, 0], 8).mapping == (0, 2, 5, 7, 1, 4, 3, 6)


def fisher_yates_reference(k, length):
    """The explicit Fisher-Yates loop that permutation_from_key replaced."""
    seed = int.from_bytes(hashlib.sha256(pack_bits(list(k))).digest()[:8], "big")
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
            assert permutation_from_key(k, length).mapping == fisher_yates_reference(k, length)


def test_permutation_memo_never_stale():
    a, b = [0, 1] * 8, [1, 0] * 8
    expected = {tuple(a): fisher_yates_reference(a, 16), tuple(b): fisher_yates_reference(b, 16)}
    assert expected[tuple(a)] != expected[tuple(b)]
    for k in (a, b, a, b):
        assert permutation_from_key(k, 16).mapping == expected[tuple(k)]
        assert permutation_from_key(tuple(k), 16).mapping == expected[tuple(k)]


def test_permutation_is_bijection():
    rng = Random(3)
    for _ in range(50):
        length = rng.choice([4, 8, 16])
        k = [rng.randrange(2) for _ in range(length)]
        p = permutation_from_key(k, length)
        assert sorted(p.mapping) == list(range(length))


def test_permutation_length_mismatch():
    with pytest.raises(ValueError):
        permutation_from_key([0, 1], 3)


def test_permutation_collisions_match_birthday_expectation():
    # all 256 8-bit keys into 8! = 40320 permutation cells; expected
    # colliding pairs = C(256,2)/8! ~ 0.81, so a 3-sigma Poisson band tops
    # out at 4 colliding pairs
    seen = {}
    colliding_pairs = 0
    for v in range(256):
        k = [(v >> (7 - i)) & 1 for i in range(8)]
        mapping = permutation_from_key(k, 8).mapping
        colliding_pairs += seen.get(mapping, 0)
        seen[mapping] = seen.get(mapping, 0) + 1
    assert colliding_pairs <= 4


def test_apply_invert_round_trip():
    rng = Random(4)
    for _ in range(100):
        length = rng.choice([4, 8, 12])
        k = [rng.randrange(2) for _ in range(length)]
        p = permutation_from_key(k, length)
        seq = [rng.random() for _ in range(length)]
        assert invert_perm(p, apply_perm(p, seq)) == seq


def test_identity_and_reversal_permutations():
    ident = Permutation((0, 1, 2))
    assert apply_perm(ident, ["a", "b", "c"]) == ["a", "b", "c"]
    rev = Permutation((2, 1, 0))
    assert apply_perm(rev, ["a", "b", "c"]) == ["c", "b", "a"]


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        apply_perm(Permutation((1, 0)), [1, 2, 3])
