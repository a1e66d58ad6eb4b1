import math
import random

import numpy as np
import pytest

from sss_prnu import (
    OutOfRange,
    PrimeField,
    Scaling,
    encode_vector,
    round_half_away,
)

FIELD = PrimeField()


def test_rounding_ties_away_from_zero():
    assert round_half_away(0.5) == 1
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(0.49999) == 0
    assert round_half_away(-0.49999) == 0


def encode(xs, s):
    return encode_vector(np.array(xs, dtype=np.float64), s, FIELD)[0].tolist()


def lift(e, s, denom_power=1):
    """The signed lift and division reconstruct_partials decodes with."""
    return FIELD.signed(e) / s.scale**denom_power


def test_encode_reference_value():
    # 0.53334999 at four digits lands on 5333, not 5334.
    assert encode([0.53334999], Scaling(4)) == [5333]


def test_encode_negative_wraps():
    s = Scaling(4)
    [e] = encode([-1.0], s)
    assert e == FIELD.p - 10_000
    assert lift(e, s) == -1.0


def test_roundtrip_table_value():
    # A correlation-sized value survives the encode/decode round trip.
    s = Scaling(4)
    assert lift(encode([0.4493], s)[0], s) == 0.4493


def test_roundtrip_random_quantized():
    s = Scaling(4)
    rng = random.Random(5)
    xs = [rng.randrange(-10**7, 10**7) / s.scale for _ in range(5000)]
    assert [lift(e, s) for e in encode(xs, s)] == xs


def test_denom_power_for_products():
    # Dyadic values keep every float step exact, so == is legitimate.
    s = Scaling(3)
    ea, eb = encode([1.25, -0.375], s)
    prod = ea * eb % FIELD.p
    assert lift(prod, s, denom_power=2) == -0.46875


def test_scaling_validation():
    with pytest.raises(ValueError):
        Scaling(0)
    assert Scaling(4).scale == 10_000


def test_encode_out_of_range():
    with pytest.raises(OutOfRange):
        encode([1e18], Scaling(4))


def test_exact_homomorphism_on_quantized_rationals():
    # For values already on the d-decimal grid, encoded addition and
    # multiplication recover the exact rational results; the reference
    # is computed with integer arithmetic to avoid float re-rounding.
    s = Scaling(2)
    rng = random.Random(11)
    ms = [rng.randrange(-10**6, 10**6) for _ in range(2000)]
    ks = [rng.randrange(-10**6, 10**6) for _ in range(2000)]
    eas, ebs = encode([m / s.scale for m in ms], s), encode([k / s.scale for k in ks], s)
    for m, k, ea, eb in zip(ms, ks, eas, ebs):
        assert ea == m % FIELD.p and eb == k % FIELD.p
        assert lift((ea + eb) % FIELD.p, s) == (m + k) / s.scale
        assert lift(ea * eb % FIELD.p, s, denom_power=2) == (m * k) / s.scale**2


def test_encode_vector_matches_scalar_rounding():
    s = Scaling(1)
    # Exact ties at +-.5 (dyadic, so x * 10 is exact), signed zero, and
    # values that round across zero.
    xs = [0.25, -0.25, 0.35, -0.35, 0.15, -0.15, 0.05, -0.05, 0.0, -0.0, 0.04, -0.04]
    rng = random.Random(12)
    xs += [rng.uniform(-1e6, 1e6) for _ in range(2000)]
    # Near the edge of the signed range the square sum passes 2**64; it
    # comes back reduced mod 2**64.
    xs += [rng.choice((-1, 1)) * rng.uniform(2**59, 0.99 * 2**60) / s.scale for _ in range(64)]
    got, squares = encode_vector(np.array(xs), s, FIELD)
    assert got.dtype == np.uint64
    ints = [round_half_away(x * s.scale) for x in xs]
    assert got.tolist() == [m % FIELD.p for m in ints]
    assert got[:4].tolist() == [3, FIELD.p - 3, 4, FIELD.p - 4]
    assert got[8] == 0 and got[9] == 0
    assert squares == sum(m * m for m in ints) % 2**64


def test_encode_vector_range_edge():
    # p = 257: the signed range ends at 128, so 12.8 fits and 12.9 does not.
    f257 = PrimeField(257)
    s = Scaling(1)
    assert encode_vector(np.array([12.8, -12.8]), s, f257)[0].tolist() == [128, 129]
    for x in (12.9, -12.9, math.inf, math.nan):
        with pytest.raises(OutOfRange):
            encode_vector(np.array([0.0, x]), s, f257)
    # Default prime: half = 2**60 - 1 has no float64 form, so the check
    # must compare integers; 2**60 (one past half) is exactly representable.
    assert FIELD.half == 2**60 - 1
    below = float(2**60 - 2**7) / 10
    assert encode_vector(np.array([below]), s, FIELD)[0].tolist() == [2**60 - 2**7]
    with pytest.raises(OutOfRange):
        encode_vector(np.array([float(2**60) / 10]), s, FIELD)
    with pytest.raises(OutOfRange):
        encode_vector(np.array([-float(2**60) / 10]), s, FIELD)


def encode_previous(xs, s, field):
    """The encoding by where(floor, ceil) rounding, an argmax range check
    and an np.mod lift: the reference that `encode_vector`'s
    trunc/copysign form must match bit for bit."""
    scaled = np.asarray(xs, dtype=np.float64) * s.scale
    m = np.where(scaled >= 0, np.floor(scaled + 0.5), np.ceil(scaled - 0.5))
    peak = abs(float(m[int(np.argmax(np.abs(m)))]))
    if not math.isfinite(peak) or int(peak) > field.half:
        raise OutOfRange("out of range")
    return np.mod(m.astype(np.int64), field.p).astype(np.uint64)


def test_encode_vector_matches_previous_formula():
    f257 = PrimeField(257)
    below_half = np.nextafter(0.5, 0.0)
    # x * 10 is exact for these, so each lands on a tie k + 0.5.
    ties = [k + 0.25 for k in range(-6, 6)] + [k * (2.0**40 + 0.75) for k in (-1, 1)]
    edge = float(2**60)  # one past the default field's half, 2**60 - 1
    cases = [
        (Scaling(1), FIELD, ties),
        (Scaling(4), FIELD, [0.0, -0.0, below_half / 1e4, -below_half / 1e4, below_half, -below_half]),
        (Scaling(1), f257, [12.8, -12.8, 12.84, -12.84, 12.849999999999998, -12.849999999999998]),
        (Scaling(1), FIELD, [float(2**60 - 2**7) / 10, -float(2**60 - 2**7) / 10]),
        (Scaling(3), FIELD, list(np.random.default_rng(4).normal(0, 1e6, 5000))),
    ]
    for s, field, xs in cases:
        got = encode_vector(np.array(xs), s, field)[0]
        assert got.dtype == np.uint64
        assert got.tolist() == encode_previous(xs, s, field).tolist()
    past = [
        (Scaling(1), f257, 12.85),
        (Scaling(1), f257, 12.9),
        (Scaling(1), FIELD, edge / 10),
        (Scaling(1), FIELD, np.nextafter(edge, math.inf) / 10),
    ]
    for s, field, x in past:
        for bad in (x, -x):
            for encode_fn in (encode_vector, encode_previous):
                with pytest.raises(OutOfRange):
                    encode_fn(np.array([0.0, bad, 1.0]), s, field)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfRange):
            encode_vector(np.array([1.0, bad, -1.0]), Scaling(4), FIELD)
        with pytest.raises(OutOfRange):
            encode_vector(np.array([bad] * 3), Scaling(4), FIELD)
