"""Fixed-point encoding of real-valued noise data into field elements.

Reals are scaled by 10**d, rounded to the nearest integer (ties away
from zero), and mapped into Z_p with negatives represented as p - |m|.
Products of two encoded values therefore carry a 10**(2d) scale, which
`correlation.reconstruct_partials` divides out after the signed lift
`PrimeField.signed`.  `encode_vector` also returns the sum of squares
of the signed integers: each owner's own Q or R, without share
arithmetic.  `correlation.prepare_fingerprint` and `prepare_vector`
subtract the mean before they encode, so the shared integers are
already centered.

All of the encrypted-domain arithmetic is exact as long as every
intermediate integer stays within the signed range (-(p-1)/2, (p-1)/2];
both check each owner's exact square sum against it before sharing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import ELEMENT_DTYPE, PrimeField


class OutOfRange(ValueError):
    """Value too large to encode at the requested scale."""


class CapacityExceeded(ValueError):
    """Raised when intermediate sums could leave the signed range."""


@dataclass(frozen=True)
class Scaling:
    """Decimal fixed-point parameters: keep d decimal places."""

    d: int = 4

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("scaling exponent d must be >= 1")

    @property
    def scale(self) -> int:
        return 10**self.d


def round_half_away(x: float) -> int:
    """Round to nearest integer with ties away from zero."""
    if x >= 0:
        return math.floor(x + 0.5)
    return math.ceil(x - 0.5)


def encode_vector(
    xs: np.ndarray, s: Scaling, field: PrimeField
) -> tuple[np.ndarray, int]:
    """Encode reals as m = round(x * 10**d) mod p, as a `uint64` vector.

    Rounding is `round_half_away` applied elementwise.  Negative values
    land at p - |m| so `PrimeField.signed` recovers them exactly.
    Raises OutOfRange unless every |m| is at most (p-1)/2.  Returns the
    vector with sum(m * m) of the signed integers, reduced mod 2**64: it
    is exact when the true sum lies below 2**64.
    """
    m = np.asarray(xs, dtype=np.float64) * s.scale
    # trunc(x + copysign(0.5, x)) is floor(x + 0.5) for x >= 0 and
    # ceil(x - 0.5) below, bit for bit.
    half = np.copysign(0.5, m)
    m += half
    np.trunc(m, out=m)
    # Every finite m is an integer-valued float, so int() of the peak
    # magnitude compares exactly against the signed range; a NaN makes
    # both the min and the max NaN.
    peak = max(-float(m.min()), float(m.max())) if m.size else 0.0
    if not math.isfinite(peak) or int(peak) > field.half:
        x = np.asarray(xs).flat[int(np.argmax(np.abs(m)))]
        raise OutOfRange(f"|{x}| scaled by 10^{s.d} exceeds the signed field range")
    q = m.astype(np.int64)
    # Before the lift: unsigned arithmetic wraps mod 2**64 by definition,
    # and an integer dot never calls BLAS.
    u = q.view(ELEMENT_DTYPE)
    squares = int(np.dot(u, u))
    # Signed lift: q + p for q < 0, as q >> 63 is all ones exactly there.
    lift = half.view(np.int64)
    np.right_shift(q, 63, out=lift)
    lift &= field.p
    q += lift
    return u, squares
