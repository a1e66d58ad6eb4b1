"""Pearson correlation computed piecewise over secret shares.

The correlation r = P / sqrt(Q * R) decomposes into three sums of
products over mean-centered vectors a, b:

    P = sum(a_k * b_k)    Q = sum(a_k * a_k)    R = sum(b_k * b_k)

Each cloud server holds one share of a and one share of b, multiplies
them elementwise (the single multiplication the sharing scheme allows),
and sums locally (`PrimeField.sum_products`); the stored share's Q
share does not depend on the query, so a server caches it.
The per-server partial sums are shares of P, Q, R at the doubled degree,
so a quorum of 2l-1 partials reconstructs the exact integer sums.  Only
the final division and square root happen in plaintext, on the
reconstructing side.

Centering happens in one of two places.  With plaintext centering the
data owner subtracts the mean before sharing.  With encrypted centering
the shares carry raw values and each server applies the moment identity

    N * sum(a_k * b_k) - sum(a_k) * sum(b_k)
        = N * sum((a_k - mean a) * (b_k - mean b))

to its sums of products and share sums, so P, Q, R arrive scaled by N.

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

from .fixedpoint import Centering, Scaling, capacity_check, encode_vector
from .prnu import DegenerateInput
from .sharing import (
    DegreeMismatch,
    ShareScheme,
    ShareVector,
    check_product_operands,
    reconstruct_vector,
    share_vector,
)


class NegativeSquareSum(ValueError):
    """A reconstructed sum of squares came out negative.

    Impossible for honest executions under the capacity bound; signals
    share tampering or an overflowing configuration.
    """


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
) -> list[ShareVector]:
    """Encode a matrix into fixed point and split it into n share vectors.

    Plaintext centering subtracts the mean before encoding, so shares
    already represent the centered data.  Encrypted centering shares
    the raw encodings and leaves centering to the moment identity in
    `compute_partials`; the capacity check then covers the element_count
    amplification that identity carries.
    """
    flat = np.asarray(m, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot share an empty matrix")
    mean = flat.mean()
    # max |x - mean| with no N-sized temporary: x - mean rounds
    # monotonically in x, so its extremes are those of the max and the min.
    max_centered = max(float(flat.max() - mean), float(mean - flat.min()))
    plaintext = mode is Centering.PLAINTEXT
    # Half a unit of rounding slack per element, in plaintext units;
    # centering over integers leaves up to one full unit.
    bound = max_centered + (0.5 if plaintext else 1.0) / s.scale
    capacity_check(int(flat.size), bound, s, scheme.field, mode)
    # The centered copy is freed before the share pass starts.
    secrets = encode_vector(flat - mean if plaintext else flat, s, scheme.field)
    return share_vector(secrets, scheme, rng)


def compute_partials(
    a: ShareVector, b: ShareVector, scheme: ShareScheme, mode: Centering, q: Optional[int] = None
) -> PartialCorrelation:
    """One server's local work: three sums of elementwise share products.

    Runs on one server's pair of shares alone.  `q` is a's Q share from
    an earlier partial, which a server caches; without it, Q is summed
    from the same limb split of a as P.  Under encrypted centering the
    moment identity N*sum(ab) - sum(a)*sum(b) equals
    N * sum((a - mean a)(b - mean b)); the share sums are fresh-degree, so
    each term is still one share multiplication, of the doubled degree.
    """
    check_product_operands(a, b, scheme)
    f = scheme.field
    encrypted = mode is Centering.ENCRYPTED
    sa, sb = (f.sum_vec(a.values), f.sum_vec(b.values)) if encrypted else (0, 0)

    def center(xy: int, sx: int, sy: int) -> int:
        return f.sub(f.mul(len(a), xy), f.mul(sx, sy)) if encrypted else xy

    if q is None:
        aa, bb, ab = f.sum_products([a.values, b.values], [(0, 0), (1, 1), (0, 1)])
        q = center(aa, sa, sa)
    else:
        bb, ab = f.sum_products([b.values, a.values], [(0, 0), (0, 1)])
    return PartialCorrelation(
        point=a.point,
        p_share=center(ab, sa, sb),
        q_share=q,
        r_share=center(bb, sb, sb),
        degree_hint=scheme.product_degree,
    )


def reconstruct_sum_ints(
    parts: Sequence[PartialCorrelation], scheme: ShareScheme
) -> tuple[int, int, int]:
    """Exact signed integer sums (P, Q, R) from a quorum of partials.

    The integer level is what consistency auditing compares: honest
    quorum subsets agree on these exactly, before any float decoding.
    The three shares of each partial form one product-degree
    `ShareVector`, so `reconstruct_vector` applies its point and quorum
    guards here too.
    """
    if any(pc.degree_hint != scheme.product_degree for pc in parts):
        raise DegreeMismatch("partials must carry the doubled degree")
    vectors = [
        ShareVector(pc.point, [pc.p_share, pc.q_share, pc.r_share], pc.degree_hint)
        for pc in parts
    ]
    p_int, q_int, r_int = (scheme.field.signed(v) for v in reconstruct_vector(vectors, scheme))
    return p_int, q_int, r_int


def reconstruct_partials(
    parts: Sequence[PartialCorrelation],
    scheme: ShareScheme,
    scaling: Scaling,
    mode: Centering,
    element_count: int,
) -> tuple[float, float, float]:
    """Three Lagrange reconstructions, decoded back to real sums.

    Products carry the squared scale; the moment identity of encrypted
    centering leaves an element_count factor in each sum as well.
    Decoding is a single exact integer-by-integer division per sum.
    """
    p_int, q_int, r_int = reconstruct_sum_ints(parts, scheme)
    if q_int < 0 or r_int < 0:
        raise NegativeSquareSum(
            f"reconstructed Q={q_int}, R={r_int}; sums of squares cannot be negative"
        )
    denom = scaling.scale**2
    if mode is Centering.ENCRYPTED:
        denom *= element_count
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
