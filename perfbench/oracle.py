"""The benchmark's correctness gate and its integer oracle.

The oracle recomputes the correlation sums of the quantized plaintext
with plain Python ints, outside `sss_prnu.field` and `sss_prnu.sharing`:
mean-center, scale by 10**d, round half away from zero, then
P = sum(a*b), Q = sum(a*a), R = sum(b*b).  Under the capacity bound the
encrypted pipeline must reproduce P, Q, R exactly and r bit for bit.

Every check returns None when the output is right and a one-line reason
when it is wrong; the run counts each reason as one failed operation.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Optional, Sequence

import numpy as np


def quantize(matrix: np.ndarray, scale: int) -> list[int]:
    """Mean-centered, scaled, rounded half away from zero, as Python ints."""
    flat = np.asarray(matrix, dtype=np.float64).ravel()
    scaled = (flat - flat.mean()) * scale
    rounded = np.floor(np.abs(scaled) + 0.5)
    return np.copysign(rounded, scaled).astype(np.int64).tolist()


class Reference:
    """Quantized fingerprint of one enrolled id, with its square sum."""

    def __init__(self, fingerprint: np.ndarray, scale: int) -> None:
        self.scale = scale
        self.ints = quantize(fingerprint, scale)
        self.square_sum = sum(map(mul, self.ints, self.ints))

    def sums(self, probe: list[int]) -> tuple[int, int, int]:
        """Exact (P, Q, R) against a quantized probe residual."""
        return (
            sum(map(mul, self.ints, probe)),
            self.square_sum,
            sum(map(mul, probe, probe)),
        )

    def correlation(self, probe: list[int]) -> tuple[float, float, float, float]:
        """(r, P, Q, R) decoded with the pipeline's single division."""
        p_int, q_int, r_int = self.sums(probe)
        denom = self.scale**2
        p_val, q_val, r_val = p_int / denom, q_int / denom, r_int / denom
        return p_val / math.sqrt(q_val * r_val), p_val, q_val, r_val


def check_query(result, expected: tuple[float, float, float, float], threshold: float) -> Optional[str]:
    r, p_val, q_val, r_val = expected
    got = (result.r, result.p_val, result.q_val, result.r_val)
    if got != (r, p_val, q_val, r_val):
        return f"r/P/Q/R {got!r} differ from the oracle's {expected!r}"
    if result.matched != (r >= threshold):
        return f"match decision {result.matched} disagrees with r={r!r}"
    return None


def check_identify(scores: Sequence[float], camera: int) -> Optional[str]:
    best = max(range(len(scores)), key=scores.__getitem__)
    if best != camera:
        return f"attributed to camera {best}, shot by camera {camera}"
    return None


def check_honest_verify(report, expected: tuple[int, int, int]) -> Optional[str]:
    if not report.consistent or report.suspects:
        return f"honest verify inconsistent, suspects {report.suspects}"
    wrong = {t for t in report.triples.values() if t != expected}
    if wrong:
        return f"subset triples {sorted(wrong)} differ from the oracle's {expected}"
    return None


def check_tampered_verify(report, tampered: int) -> Optional[str]:
    if report.consistent or report.suspects != (tampered,):
        return f"tampered server {tampered}, verify named {report.suspects}"
    return None
