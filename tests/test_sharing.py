import random
from itertools import combinations

import numpy as np
import pytest

from sss_prnu import (
    DuplicatePoint,
    InsufficientShares,
    LengthMismatch,
    PrimeField,
    ShareScheme,
    ShareVector,
    deserialize_share_vector,
    reconstruct_vector,
    serialize_share_vector,
    share_vector,
)
from sss_prnu.field import CHUNK

F17 = PrimeField(17)
SMALL = ShareScheme(l=2, n=4, field=F17)


class ThreesRng:
    """Byte stream of 3s: every polynomial coefficient it draws is 3."""

    def randbytes(self, n):
        return b"\x03" * n


def test_hand_worked_shares():
    # G(u) = 5 + 3u over Z_17 evaluated at 1..4.
    vectors = share_vector([5], SMALL, ThreesRng())
    assert [(v.point, int(v.values[0])) for v in vectors] == [(1, 8), (2, 11), (3, 14), (4, 0)]


def test_reconstruct_from_every_l_subset():
    rng = random.Random(21)
    secrets = [rng.randrange(17) for _ in range(200)]
    vectors = share_vector(secrets, SMALL, rng)
    for subset in combinations(vectors, SMALL.l):
        assert reconstruct_vector(list(subset), SMALL) == secrets
    # Oversampled reconstruction agrees too.
    assert reconstruct_vector(vectors, SMALL) == secrets


class StreamRng:
    """Byte stream of the given 8-byte little-endian draws, then zeros."""

    def __init__(self, draws):
        self.buf = b"".join(int(v).to_bytes(8, "little") for v in draws)

    def randbytes(self, n):
        out, self.buf = self.buf[:n], self.buf[n:]
        return out.ljust(n, b"\x00")


def test_l2_shares_are_secret_plus_u_times_the_draw():
    # Past a chunk boundary, with secrets up to 2**64 - 1 to be reduced.
    scheme = ShareScheme(l=2, n=4)
    p = scheme.field.p
    rng = random.Random(4)
    secrets = [rng.randrange(2**64) for _ in range(CHUNK + 5)] + [0, p - 1, p, 2**64 - 1]
    draws = scheme.field.random_vector(random.Random(9), len(secrets)).tolist()
    vectors = share_vector(np.array(secrets, dtype=np.uint64), scheme, random.Random(9))
    for u, vec in zip((1, 2, 3, 4), vectors):
        assert vec.point == u
        assert vec.values.tolist() == [(s + u * c) % p for s, c in zip(secrets, draws)]


def test_l3_shares_at_two_points_cover_every_pair_once():
    # A fixed secret and all 289 pairs of forward differences over F_17:
    # the shares at any 2 of the 5 points take each of the 289 value
    # pairs exactly once, so l - 1 shares say nothing about the secret.
    scheme = ShareScheme(l=3, n=5, field=F17)
    firsts, seconds = zip(*[(d1, d2) for d1 in range(17) for d2 in range(17)])
    vectors = share_vector([11] * 289, scheme, StreamRng(firsts + seconds))
    for a, b in combinations(vectors, 2):
        assert len(set(zip(a.values.tolist(), b.values.tolist()))) == 289
    assert reconstruct_vector(vectors[:3], scheme) == [11] * 289


@pytest.mark.parametrize("l", [3, 4])
def test_any_l_shares_reconstruct(l):
    scheme = ShareScheme(l=l, n=2 * l - 1)
    rng = random.Random(l)
    secrets = [rng.randrange(scheme.field.p) for _ in range(CHUNK + 3)]
    vectors = share_vector(secrets, scheme, rng)
    for subset in combinations(vectors, l):
        assert reconstruct_vector(list(subset), scheme) == secrets
    with pytest.raises(InsufficientShares):
        reconstruct_vector(vectors[: l - 1], scheme)


def test_scheme_validation():
    with pytest.raises(ValueError):
        ShareScheme(l=1, n=4, field=F17)
    with pytest.raises(ValueError):
        ShareScheme(l=2, n=2, field=F17)  # below the 2l-1 quorum
    with pytest.raises(ValueError):
        ShareScheme(l=2, n=17, field=F17)  # point 17 is zero mod 17
    # The points are always 1..n; the constructor takes none.
    with pytest.raises(TypeError):
        ShareScheme(l=2, n=4, field=F17, evaluation_points=(5, 9, 13, 15))
    assert SMALL.evaluation_points == (1, 2, 3, 4)
    assert ShareScheme(l=2, n=16, field=F17).evaluation_points == tuple(range(1, 17))
    assert ShareScheme(l=2, n=3, field=F17).quorum == 3
    assert ShareScheme(l=3, n=5, field=F17).quorum == 5


def test_insufficient_and_duplicate_guards():
    vectors = share_vector([6], SMALL, random.Random(1))
    with pytest.raises(InsufficientShares):
        reconstruct_vector(vectors[:1], SMALL)
    with pytest.raises(DuplicatePoint):
        reconstruct_vector([vectors[0], vectors[0]], SMALL)
    with pytest.raises(InsufficientShares):
        reconstruct_vector([], SMALL)


def test_vector_roundtrip_and_guards():
    rng = random.Random(2)
    secrets = [rng.randrange(17) for _ in range(9)]
    vectors = share_vector(secrets, SMALL, rng)
    assert reconstruct_vector(vectors[:2], SMALL) == secrets
    assert reconstruct_vector(vectors, SMALL) == secrets
    with pytest.raises(InsufficientShares):
        reconstruct_vector(vectors[:1], SMALL)
    short = ShareVector(vectors[1].point, vectors[1].values[:-1])
    with pytest.raises(LengthMismatch):
        reconstruct_vector([vectors[0], short], SMALL)


def test_single_multiplication():
    # Elementwise products of two share sets, in plain ints, are shares
    # of the products at degree 2l-2.
    rng = random.Random(5)
    xs = [rng.randrange(17) for _ in range(8)]
    ys = [rng.randrange(17) for _ in range(8)]
    vx = share_vector(xs, SMALL, rng)
    vy = share_vector(ys, SMALL, rng)
    prod = [
        ShareVector(a.point, a.values * b.values % 17)
        for a, b in zip(vx, vy)
    ]
    expected = [a * b % 17 for a, b in zip(xs, ys)]
    # Quorum reconstructs the products; a fresh-size subset cannot.
    assert reconstruct_vector(prod[:3], SMALL) == expected
    assert reconstruct_vector(prod[:2], SMALL) != expected


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
    vec = ShareVector(3, [0, 1, 2**61 - 2])
    raw = serialize_share_vector(vec)
    # point (8B) | count (4B) | 3 elements (8B each)
    assert len(raw) == 8 + 4 + 3 * 8
    assert raw[:8] == (3).to_bytes(8, "big")
    assert raw[8:12] == (3).to_bytes(4, "big")
    assert raw[12:20] == (0).to_bytes(8, "big")
    assert deserialize_share_vector(raw) == vec


def test_serialization_roundtrip_random():
    rng = random.Random(8)
    scheme = ShareScheme(l=3, n=5)
    secrets = [rng.randrange(scheme.field.p) for _ in range(16)]
    for vec in share_vector(secrets, scheme, rng):
        assert deserialize_share_vector(serialize_share_vector(vec)) == vec


def test_deserialize_rejects_truncation():
    vec = ShareVector(1, [5, 6])
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
    samples = 100_000
    secrets = [rng.randrange(17) for _ in range(samples)]
    vectors = share_vector(secrets, SMALL, rng)
    cells = vectors[0].values.astype(np.int64) * 17 + vectors[2].values.astype(np.int64)
    counts = np.bincount(cells, minlength=17 * 17)
    assert counts.size == 17 * 17 and counts.sum() == samples
    _, p_value = stats.chisquare(counts)
    assert p_value > 0.001
