"""Pearson correlation computed piecewise over secret shares.

The correlation r = P / sqrt(Q * R) decomposes into three sums of
products over a mean-centered fingerprint a and query residual b:

    P = sum(a_k * b_k)    Q = sum(a_k * a_k)    R = sum(b_k * b_k)

Q and R each involve one owner's input alone, and each owner holds its
input in the clear, so each takes its own square sum exactly from the
fixed-point integers it shares.  The querier keeps R (`prepare_vector`).
The fingerprint source shares Q with the fingerprint
(`prepare_fingerprint`): each stored share vector holds the N encoded
values followed by a share of Q, all at degree l-1.  Only P needs both
inputs.  Each server holds one share of a and one share of b,
multiplies them elementwise (the single multiplication the sharing
scheme allows) and sums locally (`PrimeField.dot`); its P share has the
doubled degree 2l-2, so a quorum of 2l-1 partials reconstructs the
exact integer sums.  A server sums no square and keeps no state beyond
its store.  The types allow no second multiplication:
`compute_partials` takes two fresh `ShareVector`s and returns a
`PartialCorrelation` of two scalars, and nothing turns a partial back
into a share vector.  Only the final division and square root happen in
plaintext, on the reconstructing side.

Each owner subtracts its own mean before anything is encoded or shared,
so the servers only ever sum products of centered values.

All field values are exact fixed-point integers.  Each owner holds its
square sum within (p-1)/2, and |P| <= sqrt(Q * R), so the reconstructed
sums equal the plaintext sums bit for bit.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .field import PrimeField
from .fixedpoint import CapacityExceeded, OutOfRange, Scaling, encode_vector, round_half_away
from .prnu import DegenerateInput
from .sharing import (
    InsufficientShares,
    LengthMismatch,
    PointMismatch,
    ShareScheme,
    ShareVector,
    lagrange_weights,
    share_vector,
)


class InconsistentSums(ValueError):
    """Reconstructed sums that no honest execution produces.

    Honest shares under the capacity bound reconstruct the exact integer
    sums, for which P*P <= Q*R (Cauchy-Schwarz).  A violation signals
    share tampering or an overflowing configuration.
    """


class NegativeSquareSum(InconsistentSums):
    """A reconstructed sum of squares came out negative."""


@dataclass(frozen=True)
class PartialCorrelation:
    """One server's contribution: its P share (degree 2l-2), its stored Q share (l-1)."""

    point: int
    p_share: int
    q_share: int


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


def _encode_checked(m: np.ndarray, s: Scaling, field: PrimeField) -> tuple[np.ndarray, int]:
    """Center a matrix and encode it into fixed point: the `uint64` field
    vector of the integers q, and their exact square sum, sum(q * q).

    Raises CapacityExceeded if that sum exceeds (p-1)/2 or
    N * max|q|**2 >= 2**64.
    """
    flat = np.asarray(m, dtype=np.float64).ravel()
    if flat.size == 0:
        raise ValueError("cannot share an empty matrix")
    # NaN, inf and float overflow raise OutOfRange below, with no warning.
    with np.errstate(invalid="ignore", over="ignore"):
        mean = float(flat.mean())
        if not math.isfinite(mean):  # a NaN or an inf anywhere
            bad = flat[~np.isfinite(flat)]
            raise OutOfRange(f"cannot encode {bad[0] if bad.size else 'an overflowing sum'}")
        hi, lo = float(flat.max()) - mean, float(flat.min()) - mean
        # The centered copy is freed before the share pass starts.
        secrets, squares = encode_vector(flat - mean, s, field)
    # x - mean, the scaling and the rounding are monotone, so the extreme
    # integers, which encode_vector has bounded, come from the max and the
    # min.  Below N * peak**2 < 2**64 the square sum mod 2**64 is exact.
    peak = max(round_half_away(hi * s.scale), -round_half_away(lo * s.scale))
    half, exact = field.half, flat.size * peak * peak < 2**64
    if not exact or squares > half:
        total = squares if exact else f"up to {flat.size * peak * peak}"
        raise CapacityExceeded(f"capacity bound violated: square sum {total}, bound {half}")
    return secrets, squares


def prepare_vector(
    m: np.ndarray,
    s: Scaling,
    scheme: ShareScheme,
    rng: Optional[random.Random] = None,
) -> tuple[list[ShareVector], int]:
    """The querier's side: n share vectors of a centered, encoded residual
    and its exact square sum R, under `_encode_checked`'s capacity bound."""
    secrets, squares = _encode_checked(m, s, scheme.field)
    return share_vector(secrets, scheme, rng), squares


def prepare_fingerprint(
    m: np.ndarray,
    s: Scaling,
    scheme: ShareScheme,
    rng: Optional[random.Random] = None,
) -> list[ShareVector]:
    """The fingerprint source's side: n share vectors of a centered, encoded
    fingerprint, each followed by a share of its exact square sum Q, under
    `_encode_checked`'s capacity bound."""
    secrets, squares = _encode_checked(m, s, scheme.field)
    return share_vector(np.append(secrets, np.uint64(squares)), scheme, rng)


def compute_partials(a: ShareVector, b: ShareVector, scheme: ShareScheme) -> PartialCorrelation:
    """One server's local work on a stored fingerprint share `a` (N values,
    then the Q share) and a query share `b` (N values): the P share, the
    sum of their elementwise products, beside `a`'s Q share.

    Runs on one server's pair of shares alone, which must be at the same
    point, with `a` one element longer than `b`.
    """
    if a.point != b.point:
        raise PointMismatch(f"points {a.point} and {b.point} differ")
    if len(a) != len(b) + 1:
        raise LengthMismatch(
            f"query has {len(b)} elements but the fingerprint was enrolled with {len(a) - 1}"
        )
    p_share = scheme.field.dot(a.values[:-1], b.values)
    return PartialCorrelation(point=a.point, p_share=p_share, q_share=int(a.values[-1]))


def reconstruct_sum_ints(
    parts: Sequence[PartialCorrelation], r_int: int, scheme: ShareScheme
) -> tuple[int, int, int]:
    """Exact signed integer sums (P, Q, R) from a quorum of partials and
    the querier's own R (`prepare_vector`).

    The integer level is what consistency auditing compares: honest
    quorum subsets agree on these exactly, before any float decoding.
    P and Q are interpolated at zero with the Lagrange weights of the
    partials' points, in Python ints.
    """
    if len(parts) < scheme.quorum:
        raise InsufficientShares(len(parts), scheme.quorum)
    f = scheme.field
    weights = lagrange_weights([pc.point for pc in parts], 0, f)
    p_int = f.signed(sum(w * pc.p_share for w, pc in zip(weights, parts)) % f.p)
    q_int = f.signed(sum(w * pc.q_share for w, pc in zip(weights, parts)) % f.p)
    return p_int, q_int, r_int


def reconstruct_partials(
    parts: Sequence[PartialCorrelation],
    r_int: int,
    scheme: ShareScheme,
    scaling: Scaling,
) -> tuple[float, float, float]:
    """Two Lagrange reconstructions and the querier's R, decoded back to
    real sums.

    Products carry the squared scale, so decoding is a single exact
    integer-by-integer division per sum.  Integer sums that break
    Q >= 0 or P*P <= Q*R raise InconsistentSums, so that a tampered
    share cannot yield |r| > 1.
    """
    p_int, q_int, r_int = reconstruct_sum_ints(parts, r_int, scheme)
    if q_int < 0:
        raise NegativeSquareSum(f"reconstructed Q={q_int}; a sum of squares cannot be negative")
    if p_int * p_int > q_int * r_int:
        raise InconsistentSums(
            f"reconstructed P={p_int}, Q={q_int}, R={r_int} break the"
            " Cauchy-Schwarz bound P*P <= Q*R"
        )
    denom = scaling.scale**2
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


_PARTIAL_WIRE = struct.Struct(">QQQ")


def serialize_partial(pc: PartialCorrelation) -> bytes:
    """point | p_share | q_share, 8 bytes each, big-endian."""
    return _PARTIAL_WIRE.pack(pc.point, pc.p_share, pc.q_share)


def deserialize_partial(raw: bytes) -> PartialCorrelation:
    if len(raw) != _PARTIAL_WIRE.size:
        raise ValueError(f"partial correlation must be {_PARTIAL_WIRE.size} bytes")
    return PartialCorrelation(*_PARTIAL_WIRE.unpack(raw))
