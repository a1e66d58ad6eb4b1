"""Exact arithmetic in a prime field Z_p.

Single field elements are canonical residues: plain Python ints in
[0, p).  The two scalar operations the protocol needs (`inv`, `signed`)
take and return them.

Share vectors are one-dimensional `uint64` ndarrays of canonical
residues; p < 2**63 keeps a residue, and the sum of two, below 2**64,
so share generation (`sharing.share_vector`) needs only additions.
Every per-element product runs on two exact kernels:

  * `mul_scalar`: (x * w + a) mod p for a vector x, a public scalar w
    and an optional canonical addend a, by Shoup's precomputed-quotient
    method.  With w' = floor(w * 2**64 / p) and q the high word of
    x * w', the wrapping difference x * w - q * p lies in [0, 2p), so one
    conditional subtract finishes it.  Exact for every p < 2**63, every
    w in [0, p) and every x < 2**64.
  * `dot`: the sum of products sum_k x_k * y_k mod p of two vectors,
    by 1-D integer `np.dot`s (no BLAS) of 21-bit limbs, each vector
    split once per chunk of columns; a limb that is zero in every
    element of its vector is not multiplied.  Each limb product is below
    2**42, so any chunk of up to 2**22 columns stays exact in `uint64`;
    chunks and limbs recombine in Python ints mod p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Mersenne prime: fast to reduce, fits in 8 bytes, and (p-1)/2 ~ 1.15e18
# leaves ample headroom for the fixed-point capacity bound.
DEFAULT_PRIME = 2**61 - 1

# Deterministic Miller-Rabin witness set, valid for all n < 3.3e24 (> 2**64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

ELEMENT_BYTES = 8
ELEMENT_DTYPE = np.dtype(np.uint64)
# Share vectors travel as big-endian 8-byte unsigned ints.
WIRE_DTYPE = np.dtype(">u8")

# 0-d arrays: as operands they cost numpy far less than scalars do.
_LO32 = np.array(0xFFFFFFFF, dtype=ELEMENT_DTYPE)
_SHIFT32 = np.array(32, dtype=ELEMENT_DTYPE)
_LIMB_BITS = 21
_LIMB_MASK = np.array((1 << _LIMB_BITS) - 1, dtype=ELEMENT_DTYPE)
_LIMB_SHIFT = np.array(_LIMB_BITS, dtype=ELEMENT_DTYPE)
# Elements per pass of the chunked kernels: `mul_scalar`, `dot` and
# share generation.  A chunk of limb dots is exact in uint64, as
# (2**21 - 1)**2 * CHUNK < 2**64.
CHUNK = 1 << 15


class FieldError(ValueError):
    """Base class for field arithmetic errors."""


class NotPrime(FieldError):
    """Raised when a modulus fails the primality check."""


class ZeroInverse(FieldError):
    """Raised when inverting the zero element."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _shoup(
    x: np.ndarray,
    multiplier: np.ndarray,
    pv: np.ndarray,
    plus: Optional[np.ndarray],
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """out = (x * w + plus) mod pv; `multiplier` stacks w and the low and
    high 32-bit halves of Shoup's quotient w' = floor(w * 2**64 / p)."""
    wv, wl, wh = multiplier
    xl, xh, t, u = scratch
    np.bitwise_and(x, _LO32, out=xl)
    np.right_shift(x, _SHIFT32, out=xh)
    # High word q of x * w' from four 32x32-bit partial products:
    # t = xh*wl + hi(xl*wl), u = xl*wh + lo(t), q = xh*wh + hi(t) + hi(u).
    np.multiply(xl, wl, out=t)
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(xh, wl, out=u)
    np.add(t, u, out=t)
    np.multiply(xl, wh, out=u)
    np.bitwise_and(t, _LO32, out=xl)
    np.add(u, xl, out=u)
    np.right_shift(t, _SHIFT32, out=t)
    np.right_shift(u, _SHIFT32, out=u)
    np.multiply(xh, wh, out=xh)
    np.add(xh, t, out=xh)
    np.add(xh, u, out=xh)
    # x * w - q * p wraps mod 2**64; its true value lies in [0, 2p).
    np.multiply(xh, pv, out=xh)
    np.multiply(x, wv, out=out)
    np.subtract(out, xh, out=out)
    # A value r in [0, 2p) reduces as min(r, r - p): r - p wraps above r
    # exactly when r < p.
    np.subtract(out, pv, out=u)
    np.minimum(out, u, out=out)
    if plus is not None:
        np.add(out, plus, out=out)
        np.subtract(out, pv, out=u)
        np.minimum(out, u, out=out)


def _limbs(x: np.ndarray) -> np.ndarray:
    """(3, n) array of the 21-bit limbs of x, low limb first; values must
    be below 2**63."""
    out = np.empty((3, len(x)), dtype=ELEMENT_DTYPE)
    np.bitwise_and(x, _LIMB_MASK, out=out[0])
    np.right_shift(x, _LIMB_SHIFT, out=out[1])
    np.bitwise_and(out[1], _LIMB_MASK, out=out[1])
    np.right_shift(x, _LIMB_SHIFT + _LIMB_SHIFT, out=out[2])
    return out


@dataclass(frozen=True)
class PrimeField:
    """Z_p with a validated prime modulus.

    The modulus must be prime and below 2**63 so every element
    serializes as an 8-byte unsigned integer.
    """

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if self.p >= 2**63:
            raise NotPrime(f"modulus {self.p} does not fit in 8 bytes")
        if not is_prime(self.p):
            raise NotPrime(f"modulus {self.p} is not prime")

    @property
    def half(self) -> int:
        """Largest magnitude representable as a signed residue: (p-1)/2."""
        return (self.p - 1) // 2

    def inv(self, a: int) -> int:
        """Multiplicative inverse by the extended Euclidean algorithm
        (`pow(a, -1, p)`), several times faster than Fermat's a**(p-2)."""
        if a % self.p == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow(a, -1, self.p)

    def signed(self, a: int) -> int:
        """Lift a canonical residue to the signed range (-(p-1)/2, (p-1)/2]."""
        return a if a <= self.half else a - self.p

    # -- share-vector kernels --------------------------------------------

    def random_vector(self, rng, count: int) -> np.ndarray:
        """`count` uniform elements from one RNG's byte stream.

        Each draw is 8 little-endian bytes masked to p.bit_length() bits;
        draws at or above p are rejected, so the survivors are uniform in
        [0, p).  Works for seeded `random.Random` (reproducible) and for
        `random.SystemRandom` (os.urandom) alike.
        """
        bits = self.p.bit_length()
        mask = np.array((1 << bits) - 1, dtype=ELEMENT_DTYPE)
        out = np.empty(count, dtype=ELEMENT_DTYPE)
        filled = 0
        while filled < count:
            need = count - filled
            # Enough draws to expect `need` survivors, plus a little slack.
            tries = (need << bits) // self.p + 8
            draw = np.frombuffer(rng.randbytes(8 * tries), dtype="<u8") & mask
            draw = draw[draw < self.p][:need]
            out[filled : filled + draw.size] = draw
            filled += draw.size
        return out

    def mul_scalar(
        self, x: np.ndarray, w: int, plus: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """(x * w + plus) mod p by Shoup's method, for a vector x of values
        below 2**64, a residue w and, if given, a vector `plus` of
        canonical residues."""
        p = self.p
        w = int(w) % p
        wq = (w << 64) // p
        # Shoup operands w, lo32(w'), hi32(w').
        multiplier = np.array([[w], [wq & 0xFFFFFFFF], [wq >> 32]], dtype=ELEMENT_DTYPE)
        out = np.empty(len(x), dtype=ELEMENT_DTYPE)
        if plus is not None:
            plus = np.asarray(plus, dtype=ELEMENT_DTYPE)
        # Column chunks keep the four scratch buffers cache-sized and
        # reused; fresh temporaries of share-vector size would cost a
        # page fault per page on every operation.
        cols = max(1, min(CHUNK, len(x)))
        scratch = np.empty((4, cols), dtype=ELEMENT_DTYPE)
        pv = np.array(p, dtype=ELEMENT_DTYPE)
        for start in range(0, len(x), cols):
            part = slice(start, start + cols)
            width = min(cols, len(x) - start)
            addend = None if plus is None else plus[part]
            _shoup(x[part], multiplier, pv, addend, out[part], scratch[:, :width])
        return out

    def dot(self, x: np.ndarray, y: np.ndarray) -> int:
        """sum_k x_k * y_k mod p, exactly, by 1-D integer dots of 21-bit
        limbs per chunk of CHUNK columns; each vector is split into limbs
        once per chunk, and limbs and chunks recombine in Python ints.
        Only the limbs that a vector's largest value needs are multiplied:
        against a vector below 2**21, a share costs 3 limb dots, not 9.
        """
        if len(x) != len(y):
            raise ValueError("vectors differ in length")
        if not len(x):
            return 0
        top_x, top_y = int(x.max()), int(y.max())
        if max(top_x, top_y) >= self.p:
            raise ValueError(f"vectors hold values outside Z_{self.p}")
        # Limbs above these are zero in every element.
        nx, ny = (-(-top.bit_length() // _LIMB_BITS) for top in (top_x, top_y))
        total = 0
        for start in range(0, len(x), CHUNK):
            xl, yl = _limbs(x[start : start + CHUNK]), _limbs(y[start : start + CHUNK])
            # Limb i weighs 2**(21 i).
            for i in range(nx):
                for j in range(ny):
                    total += int(np.dot(xl[i], yl[j])) << (_LIMB_BITS * (i + j))
        return total % self.p
