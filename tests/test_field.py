import random
from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.stats

from sss_prnu import DEFAULT_PRIME, NotPrime, PrimeField, ZeroInverse, is_prime
from sss_prnu import field

KERNEL_PRIMES = (17, 257, 2**61 - 1, 2**63 - 25)


def test_default_prime_is_mersenne_61():
    assert DEFAULT_PRIME == 2**61 - 1
    assert is_prime(DEFAULT_PRIME)


def test_is_prime_small_values():
    for n in range(2, 300):
        assert is_prime(n) == all(n % d for d in range(2, n))
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(2**61 - 3)


def test_constructor_rejects_composites_and_oversize():
    with pytest.raises(NotPrime):
        PrimeField(15)
    with pytest.raises(ValueError):
        PrimeField(2**63 + 33)  # too wide for the 8-byte wire format


def test_exhaustive_oracle_p257():
    # Every scalar operation against plain modular arithmetic on a field
    # small enough to enumerate completely.
    f = PrimeField(257)
    for a in range(257):
        if a != 0:
            inv = f.inv(a)
            assert a * inv % 257 == 1
        assert f.signed(a) == (a if a <= 128 else a - 257)
    with pytest.raises(ZeroInverse):
        f.inv(0)


def test_property_samples_default_prime():
    # 10^4 random elements: inverse and signed-lift round trips.
    f = PrimeField()
    rng = random.Random(1234)
    for _ in range(10_000):
        a = rng.randrange(f.p)
        assert f.signed(a) % f.p == a and abs(f.signed(a)) <= f.half
        if a != 0:
            assert a * f.inv(a) % f.p == 1


def test_signed_lift():
    f = PrimeField()
    assert f.signed(0) == 0
    assert f.signed(5) == 5
    assert f.signed(f.p - 1) == -1
    assert f.signed(f.half) == f.half
    assert f.signed(f.half + 1) == -(f.half)
    rng = random.Random(7)
    for _ in range(1000):
        m = rng.randrange(-f.half, f.half + 1)
        assert f.signed(m % f.p) == m


def _operands(p, count, rng):
    """Edge residues 0, 1, p-1 followed by uniform ones, as Python ints."""
    return [0, 1, p - 1] + [rng.randrange(p) for _ in range(count)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_mul_scalar_matches_python_ints(p):
    f = PrimeField(p)
    rng = random.Random(p)
    # Shoup's bound covers every x below 2**64, not just residues.
    xs = _operands(p, 500, rng) + [2**63, 2**64 - 1] + [rng.randrange(2**64) for _ in range(500)]
    x = np.array(xs, dtype=np.uint64)
    for w in _operands(p, 20, rng):
        assert f.mul_scalar(x, w).tolist() == [v * w % p for v in xs]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_elementwise_kernels_match_python_ints(p):
    f = PrimeField(p)
    rng = random.Random(p + 1)
    a = _operands(p, 500, rng)
    b = list(reversed(_operands(p, 500, rng)))
    va, vb = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
    assert f.mul_scalar(va, 3, plus=vb).tolist() == [(3 * x + y) % p for x, y in zip(a, b)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("block", [64, field.CHUNK])
def test_gram_matches_python_ints_across_blocks(p, block, monkeypatch):
    # `dot` against Python ints, for every pair of rows, a row with itself
    # included.  A shrunken chunk puts the sizes below on both sides of it;
    # all-(p-1) rows give the largest limbs.
    monkeypatch.setattr(field, "CHUNK", block)
    f = PrimeField(p)
    rng = random.Random(p + 2)
    for n in (0, 63, 64, 65, 3 * 64 + 5):
        for rows in (
            [[p - 1] * n, [p - 1] * n],
            [[rng.randrange(p) for _ in range(n)] for _ in range(3)],
        ):
            vectors = [np.array(r, dtype=np.uint64) for r in rows]
            for x, y in combinations_with_replacement(range(len(rows)), 2):
                expected = sum(u * v for u, v in zip(rows[x], rows[y])) % p
                assert f.dot(vectors[x], vectors[y]) == expected


DOT_TOPS = (0, 1, 2**21 - 1, 2**21, 2**42 - 1, 2**42, DEFAULT_PRIME - 1)


@pytest.mark.parametrize("block", [64, field.CHUNK])
def test_dot_of_operands_with_different_limb_counts_matches_python_ints(block, monkeypatch):
    # Each operand's largest value, one of DOT_TOPS, sets how many of its
    # limbs `dot` multiplies: 0, 1, 2 or 3.  Half of each vector holds
    # that value, the largest limbs it allows, and half values below it.
    monkeypatch.setattr(field, "CHUNK", block)
    f = PrimeField()
    gen = np.random.default_rng(block)
    lengths = (1, 63, 64, 65, 3 * 64 + 5) if block == 64 else (block - 1, block + 1)
    for n in lengths:
        operands = {}
        for top in DOT_TOPS:
            v = gen.integers(0, top, n, dtype=np.uint64, endpoint=True)
            v[::2] = top
            operands[top] = v
        for x, y in ((operands[a], operands[b]) for a in DOT_TOPS for b in DOT_TOPS):
            expected = sum(u * w for u, w in zip(x.tolist(), y.tolist())) % f.p
            assert f.dot(x, y) == expected


def test_gram_block_bound_and_guards():
    # Limb products stay below 2**42; a full chunk of them fits uint64.
    assert (2**21 - 1) ** 2 * field.CHUNK < 2**64
    f = PrimeField(17)
    one, two, p = (np.array(v, dtype=np.uint64) for v in ([1], [1, 2], [17]))
    for x, y in ((p, p), (one, p), (p, one), (two, one), (one, two)):
        with pytest.raises(ValueError):
            f.dot(x, y)


@pytest.mark.parametrize(
    "rng, min_p_value",
    # The system RNG is unseeded, so its threshold keeps false alarms negligible.
    [(random.Random(41), 1e-3), (random.SystemRandom(), 1e-6)],
)
def test_random_vector_is_uniform_mod_17(rng, min_p_value):
    f = PrimeField(17)
    draws = f.random_vector(rng, 17 * 2000)
    assert draws.dtype == np.uint64 and draws.size == 17 * 2000
    counts = np.bincount(draws.astype(np.int64), minlength=17)
    assert counts.size == 17  # no draw at or above p
    assert scipy.stats.chisquare(counts).pvalue > min_p_value


def test_random_vector_is_reproducible_when_seeded():
    f = PrimeField()
    a = f.random_vector(random.Random(5), 1000)
    assert np.array_equal(a, f.random_vector(random.Random(5), 1000))
    assert not np.array_equal(a, f.random_vector(random.Random(6), 1000))
