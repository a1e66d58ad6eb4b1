import random
from itertools import combinations

import pytest

from sss_prnu import (
    DegreeMismatch,
    DegreeOverflow,
    DuplicatePoint,
    InsufficientShares,
    LengthMismatch,
    PointMismatch,
    PrimeField,
    Share,
    ShareScheme,
    ShareVector,
    add_shares,
    deserialize_share_vector,
    interpolate_at_zero,
    mul_shares,
    reconstruct,
    reconstruct_vector,
    scalar_mul,
    serialize_share_vector,
    share,
    share_vector,
)

F17 = PrimeField(17)
SMALL = ShareScheme(l=2, n=4, field=F17)


def test_hand_worked_shares():
    # G(u) = 5 + 3u over Z_17 evaluated at 1..4.
    shares = share(5, SMALL, coeffs=[3])
    assert [(s.point, s.value) for s in shares] == [(1, 8), (2, 11), (3, 14), (4, 0)]
    assert all(s.degree_hint == 1 for s in shares)


def test_reconstruct_from_every_l_subset():
    rng = random.Random(21)
    for _ in range(200):
        secret = rng.randrange(17)
        shares = share(secret, SMALL, rng)
        for subset in combinations(shares, SMALL.l):
            assert reconstruct(list(subset), SMALL) == secret
        # Oversampled reconstruction agrees too.
        assert reconstruct(shares, SMALL) == secret


def test_scheme_validation():
    with pytest.raises(ValueError):
        ShareScheme(l=1, n=4, field=F17)
    with pytest.raises(ValueError):
        ShareScheme(l=2, n=2, field=F17)  # below the 2l-1 quorum
    with pytest.raises(ValueError):
        ShareScheme(l=2, n=4, field=F17, evaluation_points=(1, 2, 3, 3))
    with pytest.raises(ValueError):
        ShareScheme(l=2, n=4, field=F17, evaluation_points=(0, 1, 2, 3))
    with pytest.raises(ValueError):
        ShareScheme(l=2, n=4, field=F17, evaluation_points=(1, 2, 3))
    custom = ShareScheme(l=2, n=3, field=F17, evaluation_points=(5, 9, 13))
    assert custom.quorum == 3
    assert ShareScheme(l=3, n=5, field=F17).quorum == 5


def test_insufficient_and_duplicate_guards():
    shares = share(6, SMALL, random.Random(1))
    with pytest.raises(InsufficientShares):
        reconstruct(shares[:1], SMALL)
    with pytest.raises(DuplicatePoint):
        reconstruct([shares[0], shares[0]], SMALL)
    with pytest.raises(InsufficientShares):
        reconstruct([], SMALL)
    mixed = [shares[0], Share(shares[1].point, shares[1].value, 2)]
    with pytest.raises(DegreeMismatch):
        reconstruct(mixed, SMALL)


def test_vector_roundtrip_and_guards():
    rng = random.Random(2)
    secrets = [rng.randrange(17) for _ in range(9)]
    vectors = share_vector(secrets, SMALL, rng)
    assert reconstruct_vector(vectors[:2], SMALL) == secrets
    assert reconstruct_vector(vectors, SMALL) == secrets
    with pytest.raises(InsufficientShares):
        reconstruct_vector(vectors[:1], SMALL)
    short = ShareVector(vectors[1].point, vectors[1].values[:-1], vectors[1].degree_hint)
    with pytest.raises(LengthMismatch):
        reconstruct_vector([vectors[0], short], SMALL)


def test_additive_homomorphism():
    rng = random.Random(3)
    xs = [rng.randrange(17) for _ in range(8)]
    ys = [rng.randrange(17) for _ in range(8)]
    vx = share_vector(xs, SMALL, rng)
    vy = share_vector(ys, SMALL, rng)
    summed = [add_shares(a, b, SMALL) for a, b in zip(vx, vy)]
    expected = [(a + b) % 17 for a, b in zip(xs, ys)]
    assert reconstruct_vector(summed[:2], SMALL) == expected


def test_scalar_homomorphism():
    rng = random.Random(4)
    xs = [rng.randrange(17) for _ in range(8)]
    vx = share_vector(xs, SMALL, rng)
    scaled = [scalar_mul(7, v, SMALL) for v in vx]
    expected = [7 * x % 17 for x in xs]
    assert reconstruct_vector(scaled[2:], SMALL) == expected
    assert all(v.degree_hint == SMALL.fresh_degree for v in scaled)


def test_single_multiplication():
    rng = random.Random(5)
    xs = [rng.randrange(17) for _ in range(8)]
    ys = [rng.randrange(17) for _ in range(8)]
    vx = share_vector(xs, SMALL, rng)
    vy = share_vector(ys, SMALL, rng)
    prod = [mul_shares(a, b, SMALL) for a, b in zip(vx, vy)]
    expected = [a * b % 17 for a, b in zip(xs, ys)]
    assert all(v.degree_hint == SMALL.product_degree for v in prod)
    # Quorum reconstructs the products; a fresh-size subset cannot.
    assert reconstruct_vector(prod[:3], SMALL) == expected
    with pytest.raises(InsufficientShares):
        reconstruct_vector(prod[:2], SMALL)


def test_second_multiplication_rejected():
    rng = random.Random(6)
    vx = share_vector([3, 5], SMALL, rng)
    vy = share_vector([2, 8], SMALL, rng)
    prod = [mul_shares(a, b, SMALL) for a, b in zip(vx, vy)]
    with pytest.raises(DegreeOverflow):
        mul_shares(prod[0], vx[0], SMALL)
    with pytest.raises(DegreeOverflow):
        mul_shares(prod[0], prod[0], SMALL)


def test_elementwise_guards():
    rng = random.Random(7)
    vx = share_vector([1, 2, 3], SMALL, rng)
    vy = share_vector([4, 5, 6], SMALL, rng)
    with pytest.raises(PointMismatch):
        add_shares(vx[0], vy[1], SMALL)
    with pytest.raises(PointMismatch):
        mul_shares(vx[0], vy[1], SMALL)
    short = ShareVector(vy[0].point, vy[0].values[:2], vy[0].degree_hint)
    with pytest.raises(LengthMismatch):
        add_shares(vx[0], short, SMALL)
    bumped = ShareVector(vy[0].point, vy[0].values, 2)
    with pytest.raises(DegreeMismatch):
        add_shares(vx[0], bumped, SMALL)


def test_fresh_randomness_differs():
    a = share_vector([9, 9, 9], SMALL, random.Random(100))
    b = share_vector([9, 9, 9], SMALL, random.Random(200))
    assert any(x != y for x, y in zip(a, b))


def test_seeded_share_vector_is_reproducible_byte_for_byte():
    scheme = ShareScheme(l=3, n=5)
    secrets = list(range(0, 10**6, 997))
    a = share_vector(secrets, scheme, random.Random(77))
    b = share_vector(secrets, scheme, random.Random(77))
    assert [serialize_share_vector(v) for v in a] == [serialize_share_vector(v) for v in b]
    assert reconstruct_vector(a[:3], scheme) == secrets


def test_serialization_layout():
    vec = ShareVector(3, [0, 1, 2**61 - 2], 1)
    raw = serialize_share_vector(vec)
    # point (8B) | degree_hint (1B) | count (4B) | 3 elements (8B each)
    assert len(raw) == 8 + 1 + 4 + 3 * 8
    assert raw[:8] == (3).to_bytes(8, "big")
    assert raw[8] == 1
    assert raw[9:13] == (3).to_bytes(4, "big")
    assert raw[13:21] == (0).to_bytes(8, "big")
    assert deserialize_share_vector(raw) == vec


def test_serialization_roundtrip_random():
    rng = random.Random(8)
    scheme = ShareScheme(l=3, n=5)
    secrets = [rng.randrange(scheme.field.p) for _ in range(16)]
    for vec in share_vector(secrets, scheme, rng):
        assert deserialize_share_vector(serialize_share_vector(vec)) == vec


def test_deserialize_rejects_truncation():
    vec = ShareVector(1, [5, 6], 1)
    raw = serialize_share_vector(vec)
    with pytest.raises(ValueError):
        deserialize_share_vector(raw[:-3])
    with pytest.raises(ValueError):
        deserialize_share_vector(raw + b"\x00")
    with pytest.raises(ValueError):
        deserialize_share_vector(raw[:10])


def test_share_pairs_uniform_over_random_secrets():
    # With uniformly random secrets, (share_i, share_j) pairs cover
    # Z_p x Z_p uniformly; chi-square over all 289 cells for p = 17.
    from scipy import stats

    rng = random.Random(31)
    counts = [[0] * 17 for _ in range(17)]
    samples = 100_000
    for _ in range(samples):
        secret = rng.randrange(17)
        shares = share(secret, SMALL, rng)
        counts[shares[0].value][shares[2].value] += 1
    flat = [c for row in counts for c in row]
    _, p_value = stats.chisquare(flat)
    assert p_value > 0.001


def test_interpolate_at_zero_matches_reconstruct():
    rng = random.Random(9)
    scheme = ShareScheme(l=3, n=5, field=PrimeField(257))
    for _ in range(50):
        secret = rng.randrange(257)
        shares = share(secret, scheme, rng)
        pts = [s.point for s in shares[:3]]
        vals = [s.value for s in shares[:3]]
        assert interpolate_at_zero(pts, vals, scheme.field) == secret
