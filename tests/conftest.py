"""Shared oracles for the test suite.

The quantized oracle recomputes the correlation sums with plain Python
integers, completely outside the field/share machinery, then decodes
with the same single division the pipeline uses.  Under the capacity
bound the pipeline must reproduce these values bit for bit.

Like each data owner, the oracle subtracts the mean in floating point
before it quantizes.

Every test also runs under a guard that fails it if it leaves a TcpLink
thread running.
"""

import math
import threading

import numpy as np
import pytest

from sss_prnu import Scaling, round_half_away


def quantize(m: np.ndarray, scaling: Scaling) -> list[int]:
    return [round_half_away(float(v) * scaling.scale) for v in np.asarray(m, dtype=np.float64).ravel()]


def oracle_sums(x: np.ndarray, y: np.ndarray, scaling: Scaling) -> tuple[int, int, int]:
    """Exact integer (P, Q, R) for the centered, quantized inputs."""
    fx = np.asarray(x, dtype=np.float64).ravel()
    fy = np.asarray(y, dtype=np.float64).ravel()
    a = quantize(fx - fx.mean(), scaling)
    b = quantize(fy - fy.mean(), scaling)
    return (
        sum(u * v for u, v in zip(a, b)),
        sum(u * u for u in a),
        sum(v * v for v in b),
    )


def oracle_correlation(
    x: np.ndarray, y: np.ndarray, scaling: Scaling
) -> tuple[float, float, float, float]:
    """(r, P, Q, R) as the floats the pipeline must reproduce exactly."""
    denom = scaling.scale**2
    p_val, q_val, r_val = (total / denom for total in oracle_sums(x, y, scaling))
    return p_val / math.sqrt(q_val * r_val), p_val, q_val, r_val


def _link_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("TcpLink-")}


@pytest.fixture(autouse=True)
def no_leaked_link_thread():
    """Fail the test that leaves a TcpLink thread running.  Every open
    TcpLink keeps the shared TcpLink-io thread alive, so a link a test
    forgets to close would otherwise fail a later, unrelated test."""
    before = _link_threads()
    yield
    leaked = _link_threads() - before
    names = sorted(t.name for t in leaked)
    assert not leaked, f"threads {names} outlive the test; close every TcpLink"
