"""Pearson correlation computed piecewise over secret shares.

The correlation r = P / sqrt(Q * R) decomposes into three sums of
products over mean-centered vectors a, b:

    P = sum(a_k * b_k)    Q = sum(a_k * a_k)    R = sum(b_k * b_k)

Each cloud server holds one share of a and one share of b, multiplies
them elementwise (the single multiplication the sharing scheme allows),
and sums locally; one exact Gram matrix of the two share vectors
(`PrimeField.gram`) yields all three sums.  The resulting per-server
partial sums are themselves shares of P, Q, R at the doubled degree, so
a quorum of 2l-1 partials reconstructs the exact integer sums.  Only the final division and
square root happen in plaintext, on the reconstructing side.

All field values are exact fixed-point integers, so under the capacity
bound the reconstructed sums equal the plaintext sums bit for bit.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import PrimeField
from .fixedpoint import Centering, Scaling, capacity_check, encode_vector
from .prnu import DegenerateInput
from .sharing import (
    DegreeMismatch,
    DuplicatePoint,
    InsufficientShares,
    ShareScheme,
    ShareVector,
    check_product_operands,
    interpolate_vector,
    share_vector,
)


class NegativeSquareSum(ValueError):
    """A reconstructed sum of squares came out negative.

    Impossible for honest executions under the capacity bound; signals
    share tampering or an overflowing configuration.
    """


@dataclass
class EncryptedVector:
    """One server's share of a matrix, plus how to decode it later.

    max_abs is a public magnitude bound on the centered plaintext (with
    rounding slack folded in); it travels with the share so the server
    can re-run the capacity check before amplifying during centering.
    """

    share: ShareVector
    scaling: Scaling
    mode: Centering
    centered: bool
    max_abs: Optional[float] = None

    @property
    def point(self) -> int:
        return self.share.point


@dataclass(frozen=True)
class PartialCorrelation:
    """One server's contribution: shares of P, Q, R at degree 2l-2."""

    point: int
    p_share: int
    q_share: int
    r_share: int
    degree_hint: int


@dataclass(frozen=True)
class MatchResult:
    r: float
    p_val: float
    q_val: float
    r_val: float
    threshold: float
    matched: bool
    server_subset: tuple[int, ...] = ()

    def semantic_key(self) -> tuple:
        """Fields that must agree across runs; excludes provenance."""
        return (self.r, self.p_val, self.q_val, self.r_val, self.threshold, self.matched)


def prepare_vector(
    m: np.ndarray,
    s: Scaling,
    scheme: ShareScheme,
    mode: Centering = Centering.PLAINTEXT,
    rng: Optional[random.Random] = None,
) -> list[EncryptedVector]:
    """Encode a matrix into fixed point and split it into n share vectors.

    Plaintext centering subtracts the mean before encoding, so shares
    already represent the centered data.  Encrypted centering shares
    the raw encodings and leaves centering to center_shares; the
    capacity check then covers the element_count amplification that
    centering will apply.
    """
    flat = np.asarray(m, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot share an empty matrix")
    count = int(flat.size)
    centered = flat - flat.mean()
    max_centered = float(np.max(np.abs(centered)))
    if mode is Centering.PLAINTEXT:
        # Half a unit of rounding slack per element, in plaintext units.
        bound = max_centered + 0.5 / s.scale
        capacity_check(count, bound, s, scheme.field, mode)
        ints = encode_vector(centered, s, scheme.field)
        is_centered = True
    else:
        # Centering over integers leaves up to one full unit of slack.
        bound = max_centered + 1.0 / s.scale
        capacity_check(count, bound, s, scheme.field, mode)
        ints = encode_vector(flat, s, scheme.field)
        is_centered = False
    return [
        EncryptedVector(share=v, scaling=s, mode=mode, centered=is_centered, max_abs=bound)
        for v in share_vector(ints, scheme, rng)
    ]


def center_shares(
    v: EncryptedVector, element_count: int, scheme: ShareScheme
) -> EncryptedVector:
    """Server-side mean removal for encrypted-centering vectors.

    Forms the share of the mean as inv(element_count) times the share
    sum, subtracts it elementwise, then multiplies everything back by
    element_count.  The scalar steps cancel the rational denominator,
    so the result is shares of element_count * (x_k - mean), still at
    the fresh degree.
    """
    if v.mode is not Centering.ENCRYPTED:
        raise ValueError("center_shares applies only to encrypted-centering vectors")
    if v.centered:
        raise ValueError("vector is already centered")
    if v.share.degree_hint != scheme.fresh_degree:
        raise DegreeMismatch("centering must happen before any multiplication")
    if element_count != len(v.share):
        raise ValueError(
            f"element_count {element_count} does not match vector length {len(v.share)}"
        )
    if v.max_abs is not None:
        capacity_check(element_count, v.max_abs, v.scaling, scheme.field, v.mode)
    f = scheme.field
    mean_share = f.mul(f.sum_vec(v.share.values), f.inv(element_count))
    # element_count * (x - mean) = x * element_count - mean * element_count
    values = f.mul_scalar(
        v.share.values, element_count, plus=f.neg(f.mul(mean_share, element_count))
    )
    centered = ShareVector(v.share.point, values, v.share.degree_hint)
    return EncryptedVector(
        share=centered, scaling=v.scaling, mode=v.mode, centered=True, max_abs=v.max_abs
    )


def compute_partials(
    a: EncryptedVector, b: EncryptedVector, scheme: ShareScheme
) -> PartialCorrelation:
    """One server's local work: three sums of elementwise share products.

    Runs entirely on one server's pair of shares; no other server's
    data is involved.  Each sum uses exactly one share multiplication,
    so the outputs carry the doubled degree.  One Gram matrix of the two
    share vectors holds all three sums.
    """
    if not a.centered or not b.centered:
        raise ValueError("both vectors must be centered before correlation")
    if a.mode is not b.mode:
        raise ValueError("cannot mix centering modes within one correlation")
    if a.scaling != b.scaling:
        raise ValueError("cannot mix scalings within one correlation")
    check_product_operands(a.share, b.share, scheme)
    (aa, ab), (_, bb) = scheme.field.gram([a.share.values, b.share.values])
    return PartialCorrelation(
        point=a.share.point,
        p_share=ab,
        q_share=aa,
        r_share=bb,
        degree_hint=scheme.product_degree,
    )


def reconstruct_sum_ints(
    parts: Sequence[PartialCorrelation], scheme: ShareScheme
) -> tuple[int, int, int]:
    """Exact signed integer sums (P, Q, R) from a quorum of partials.

    The integer level is what consistency auditing compares: honest
    quorum subsets agree on these exactly, before any float decoding.
    """
    if len(parts) < scheme.quorum:
        raise InsufficientShares(len(parts), scheme.quorum)
    expected = scheme.product_degree
    if any(pc.degree_hint != expected for pc in parts):
        raise DegreeMismatch("partials must carry the doubled degree")
    points = [pc.point for pc in parts]
    if len(set(points)) != len(points):
        raise DuplicatePoint("duplicate server points among partials")
    f = scheme.field
    rows = [(pc.p_share, pc.q_share, pc.r_share) for pc in parts]
    p_int, q_int, r_int = (f.signed(int(v)) for v in interpolate_vector(points, rows, 0, f))
    return p_int, q_int, r_int


def reconstruct_partials(
    parts: Sequence[PartialCorrelation],
    scheme: ShareScheme,
    scaling: Scaling,
    mode: Centering,
    element_count: int,
) -> tuple[float, float, float]:
    """Three Lagrange reconstructions, decoded back to real sums.

    Products carry the squared scale; encrypted centering additionally
    multiplied each vector by element_count, so its products carry an
    element_count**2 factor as well.  Decoding is a single exact
    integer-by-integer division per sum.
    """
    p_int, q_int, r_int = reconstruct_sum_ints(parts, scheme)
    if q_int < 0 or r_int < 0:
        raise NegativeSquareSum(
            f"reconstructed Q={q_int}, R={r_int}; sums of squares cannot be negative"
        )
    denom = scaling.scale**2
    if mode is Centering.ENCRYPTED:
        denom *= element_count**2
    return p_int / denom, q_int / denom, r_int / denom


def finalize(
    p_val: float,
    q_val: float,
    r_val: float,
    threshold: float,
    server_subset: Sequence[int] = (),
) -> MatchResult:
    """The plaintext tail of the pipeline: r = P / sqrt(Q * R)."""
    if q_val <= 0.0 or r_val <= 0.0:
        raise DegenerateInput("zero-variance input; correlation undefined")
    r = p_val / math.sqrt(q_val * r_val)
    return MatchResult(
        r=r,
        p_val=p_val,
        q_val=q_val,
        r_val=r_val,
        threshold=threshold,
        matched=r >= threshold,
        server_subset=tuple(server_subset),
    )


_PARTIAL_WIRE = struct.Struct(">QQQQ")


def serialize_partial(pc: PartialCorrelation) -> bytes:
    """point | p_share | q_share | r_share, 8 bytes each, big-endian."""
    return _PARTIAL_WIRE.pack(pc.point, pc.p_share, pc.q_share, pc.r_share)


def deserialize_partial(raw: bytes, scheme: ShareScheme) -> PartialCorrelation:
    if len(raw) != _PARTIAL_WIRE.size:
        raise ValueError(f"partial correlation must be {_PARTIAL_WIRE.size} bytes")
    point, p_share, q_share, r_share = _PARTIAL_WIRE.unpack(raw)
    return PartialCorrelation(
        point=point,
        p_share=p_share,
        q_share=q_share,
        r_share=r_share,
        degree_hint=scheme.product_degree,
    )
