"""Shared oracles for the test suite.

The quantized oracle recomputes the correlation sums with plain Python
integers, completely outside the field/share machinery, then decodes
with the same single division the pipeline uses.  Under the capacity
bound the pipeline must reproduce these values bit for bit.

For encrypted centering the oracle centers each element explicitly as
N*m_k - sum(m), so it does not share the moment identity the servers
use; its sums then carry N**2 and are divided exactly by N.
"""

import math

import numpy as np

from sss_prnu import Centering, Scaling, round_half_away


def quantize(m: np.ndarray, scaling: Scaling) -> list[int]:
    return [round_half_away(float(v) * scaling.scale) for v in np.asarray(m, dtype=np.float64).ravel()]


def oracle_sums(
    x: np.ndarray, y: np.ndarray, scaling: Scaling, mode: Centering
) -> tuple[int, int, int, int]:
    """Exact integer (P, Q, R, denominator) for the quantized inputs."""
    fx = np.asarray(x, dtype=np.float64).ravel()
    fy = np.asarray(y, dtype=np.float64).ravel()
    count = fx.size
    if mode is Centering.PLAINTEXT:
        a = quantize(fx - fx.mean(), scaling)
        b = quantize(fy - fy.mean(), scaling)
        denom = scaling.scale**2
    else:
        ma = quantize(fx, scaling)
        mb = quantize(fy, scaling)
        sa, sb = sum(ma), sum(mb)
        a = [count * v - sa for v in ma]
        b = [count * v - sb for v in mb]
        denom = scaling.scale**2 * count
    sums = (
        sum(u * v for u, v in zip(a, b)),
        sum(u * u for u in a),
        sum(v * v for v in b),
    )
    if mode is Centering.ENCRYPTED:
        exact = [divmod(total, count) for total in sums]
        assert all(remainder == 0 for _, remainder in exact)
        sums = tuple(quotient for quotient, _ in exact)
    p_int, q_int, r_int = sums
    return p_int, q_int, r_int, denom


def oracle_correlation(
    x: np.ndarray, y: np.ndarray, scaling: Scaling, mode: Centering
) -> tuple[float, float, float, float]:
    """(r, P, Q, R) as the floats the pipeline must reproduce exactly."""
    p_int, q_int, r_int, denom = oracle_sums(x, y, scaling, mode)
    p_val = p_int / denom
    q_val = q_int / denom
    r_val = r_int / denom
    return p_val / math.sqrt(q_val * r_val), p_val, q_val, r_val
