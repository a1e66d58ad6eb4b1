"""(l, n) threshold secret sharing over whole vectors.

A secret b0 is hidden as the constant term of a random polynomial G of
degree l-1 over Z_p; server u holds G(u), at the fixed points u = 1..n.
Any l shares recover b0 by Lagrange interpolation at zero.
`share_vector` shares every element of a fingerprint or residual at
once, one `ShareVector` per server, by modular additions alone: G is
drawn as its l-1 forward differences at 0, uniform exactly when its
coefficients are (the map between them is triangular with diagonal j!,
nonzero mod p), and each step of the difference table from u to u+1
costs l-1 additions.  `reconstruct_vector` recovers secrets elementwise.

The library itself performs no arithmetic on shares.  The one product
happens inside `correlation.compute_partials`: multiplying two share
vectors elementwise yields shares of the product secret, but doubles
the polynomial degree to 2l-2, so the scheme supports exactly one
multiplication and afterwards needs 2l-1 points to reconstruct.  The
types allow no second product: `compute_partials` returns a
`PartialCorrelation` of two scalars, which no code turns back into a
share vector.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .field import CHUNK, ELEMENT_BYTES, ELEMENT_DTYPE, WIRE_DTYPE, PrimeField


class SharingError(Exception):
    """Base class for share manipulation errors."""


class InsufficientShares(SharingError):
    def __init__(self, given: int, required: int):
        self.given = given
        self.required = required
        super().__init__(f"need {required} shares to reconstruct, got {given}")


class DuplicatePoint(SharingError):
    """Two shares claim the same evaluation point."""


class PointMismatch(SharingError):
    """Elementwise operation across different evaluation points."""


class LengthMismatch(SharingError):
    """Elementwise operation across vectors of different lengths."""


# Module-level entropy source for unseeded share generation.
_SYSTEM_RNG = random.SystemRandom()


@dataclass(frozen=True)
class ShareScheme:
    """Parameters of one sharing instance.

    l fresh shares reconstruct a fresh secret; after the single allowed
    multiplication the threshold rises to the quorum 2l-1, which is why
    n >= 2l-1 is required.
    """

    l: int
    n: int
    field: PrimeField = dc_field(default_factory=PrimeField)

    def __post_init__(self) -> None:
        if self.l < 2:
            raise ValueError("threshold l must be at least 2")
        if self.n < 2 * self.l - 1:
            raise ValueError(
                f"n={self.n} cannot support one multiplication; need n >= {2 * self.l - 1}"
            )
        if self.n >= self.field.p:
            raise ValueError(f"points 1..{self.n} are not all nonzero mod {self.field.p}")

    @property
    def evaluation_points(self) -> tuple[int, ...]:
        """Server u holds the shares at point u, for u = 1..n."""
        return tuple(range(1, self.n + 1))

    @property
    def quorum(self) -> int:
        """Shares needed to reconstruct after the one multiplication."""
        return 2 * self.l - 1


@dataclass(eq=False)
class ShareVector:
    """One server's share of a whole flattened matrix, at degree l-1.

    `values` is a one-dimensional `uint64` ndarray of residues; any
    sequence of ints passed in is converted to one.
    """

    point: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=ELEMENT_DTYPE)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareVector):
            return NotImplemented
        return self.point == other.point and np.array_equal(self.values, other.values)


def share_vector(
    secrets: Sequence[int],
    scheme: ShareScheme,
    rng: Optional[random.Random] = None,
) -> list[ShareVector]:
    """Share every element of a vector, one fresh polynomial per element.

    `secrets` are residues below 2**64 (a `uint64` vector or ints); they
    are reduced mod p.  One `random_vector` call draws every polynomial's
    l-1 forward differences at 0.
    """
    f = scheme.field
    secrets = np.asarray(secrets, dtype=ELEMENT_DTYPE)
    count = len(secrets)
    rng = rng if rng is not None else _SYSTEM_RNG
    # Row j holds the differences of order j+1; they are stepped in place.
    diffs = f.random_vector(rng, (scheme.l - 1) * count).reshape(scheme.l - 1, count)
    rows = np.empty((scheme.n, count), dtype=ELEMENT_DTYPE)
    pv = np.array(f.p, dtype=ELEMENT_DTYPE)
    # The pass uses two rows of scratch, but the block holds 4 * CHUNK
    # elements (1 MiB), as `mul_scalar`'s does at full width: freeing a
    # block this large raises glibc's dynamic mmap threshold to 1 MiB and
    # its trim threshold to 2 MiB, so the arrays a query allocates and
    # frees stay on a heap that is not trimmed and faulted back in on
    # every call.
    scratch = np.empty((4, CHUNK), dtype=ELEMENT_DTYPE)
    for start in range(0, count, CHUNK):
        part = slice(start, start + CHUNK)
        d = diffs[:, part]
        g, t = scratch[0, : d.shape[1]], scratch[1, : d.shape[1]]
        np.remainder(secrets[part], pv, out=g)
        for row in rows[:, part]:
            # G(u) = G(u-1) + dG(u-1), then each difference takes one step.
            steps = [(g, d[0], row)] + [(d[j], d[j + 1], d[j]) for j in range(len(d) - 1)]
            for x, y, out in steps:
                # Residues sum below 2**64, and min(r, r - p) reduces r, as
                # r - p wraps above r exactly when r < p.
                np.add(x, y, out=out)
                np.subtract(out, pv, out=t)
                np.minimum(out, t, out=out)
            g = row
    return [ShareVector(u, v) for u, v in zip(scheme.evaluation_points, rows)]


def lagrange_weights(
    points: Sequence[int], x: int, field: PrimeField
) -> list[int]:
    """Weights w_i with F(x) = sum_i y_i * w_i for any polynomial through
    the given points; w_i = prod_{j != i} (x - u_j) / (u_i - u_j).
    """
    p = field.p
    if len(set(points)) != len(points):
        raise DuplicatePoint("duplicate evaluation points")
    weights = []
    for i, ui in enumerate(points):
        num = 1
        den = 1
        for j, uj in enumerate(points):
            if j == i:
                continue
            num = num * (x - uj) % p
            den = den * (ui - uj) % p
        weights.append(num * field.inv(den) % p)
    return weights


def interpolate_vector(
    points: Sequence[int], rows: Sequence, x: int, field: PrimeField
) -> np.ndarray:
    """Evaluate at x, element by element, the polynomials through
    (points[i], rows[i][k]); exact for any row values below 2**64."""
    acc = None
    for w, row in zip(lagrange_weights(points, x, field), rows):
        acc = field.mul_scalar(np.asarray(row, dtype=ELEMENT_DTYPE), w, plus=acc)
    return acc


def reconstruct_vector(
    vectors: Sequence[ShareVector], scheme: ShareScheme
) -> list[int]:
    """Elementwise reconstruction across one ShareVector per server.

    The one guarded path back from shares: every vector must have the
    same length, at distinct points, and there must be at least l of them.
    """
    if len(vectors) < scheme.l:
        raise InsufficientShares(len(vectors), scheme.l)
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise LengthMismatch("vectors have different lengths")
    points = [v.point for v in vectors]
    if len(set(points)) != len(points):
        raise DuplicatePoint("duplicate evaluation points")
    return interpolate_vector(points, [v.values for v in vectors], 0, scheme.field).tolist()


_VEC_HEADER = struct.Struct(">QI")


def serialized_size(count: int) -> int:
    """Bytes `serialize_share_vector` produces for a `count`-element vector."""
    return _VEC_HEADER.size + count * ELEMENT_BYTES


def serialize_share_vector(v: ShareVector) -> bytes:
    """point(8B) | count(4B) | elements(8B each), big-endian."""
    header = _VEC_HEADER.pack(v.point, len(v))
    return header + v.values.astype(WIRE_DTYPE).tobytes()


def deserialize_share_vector(raw: bytes) -> ShareVector:
    if len(raw) < _VEC_HEADER.size:
        raise ValueError("share vector header truncated")
    point, count = _VEC_HEADER.unpack_from(raw)
    body = len(raw) - _VEC_HEADER.size
    if body != count * ELEMENT_BYTES:
        raise ValueError(
            f"share vector body has {body} bytes, expected {count * ELEMENT_BYTES}"
        )
    values = np.frombuffer(raw, dtype=WIRE_DTYPE, offset=_VEC_HEADER.size)
    return ShareVector(point, values.astype(ELEMENT_DTYPE))
