import math
import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from conftest import oracle_correlation, oracle_sums
from sss_prnu import (
    CapacityExceeded,
    DegenerateInput,
    InconsistentSums,
    InsufficientShares,
    LengthMismatch,
    NegativeSquareSum,
    OutOfRange,
    PointMismatch,
    PrimeField,
    Scaling,
    ShareScheme,
    compute_partials,
    deserialize_partial,
    encode_vector,
    finalize,
    prepare_fingerprint,
    prepare_vector,
    reconstruct_partials,
    reconstruct_sum_ints,
    reconstruct_vector,
    serialize_partial,
)

SCHEME = ShareScheme(l=2, n=4)
S4 = Scaling(4)


def run_pipeline(x, y, scaling, scheme=SCHEME, rng=None, subset=None):
    """Full encrypted path, returning (MatchResult, int sums)."""
    rng = rng if rng is not None else random.Random(0)
    ex = prepare_fingerprint(x, scaling, scheme, rng)
    ey, r_int = prepare_vector(y, scaling, scheme, rng)
    parts = [compute_partials(a, b, scheme) for a, b in zip(ex, ey)]
    chosen = parts[: scheme.quorum] if subset is None else [parts[i] for i in subset]
    ints = reconstruct_sum_ints(chosen, r_int, scheme)
    p_val, q_val, r_val = reconstruct_partials(chosen, r_int, scheme, scaling)
    return finalize(p_val, q_val, r_val, 0.5), ints


def test_pipeline_matches_quantized_oracle_exactly():
    gen = np.random.default_rng(10)
    for trial in range(5):
        x = gen.uniform(-1, 1, (16, 16))
        y = gen.uniform(-1, 1, (16, 16))
        result, ints = run_pipeline(x, y, S4, rng=random.Random(trial))
        assert ints == oracle_sums(x, y, S4)
        r_oracle, p_oracle, q_oracle, rr_oracle = oracle_correlation(x, y, S4)
        assert (result.p_val, result.q_val, result.r_val) == (p_oracle, q_oracle, rr_oracle)
        assert result.r == r_oracle


def test_prepare_zero_matrix_reconstructs_zero():
    vectors, r_int = prepare_vector(np.zeros((3, 3)), S4, SCHEME)
    assert reconstruct_vector(vectors[:2], SCHEME) == [0] * 9
    assert r_int == 0


def test_prepare_known_values_reconstruct_to_centered_encoding():
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    vectors, r_int = prepare_vector(m, S4, SCHEME, rng=random.Random(1))
    f = SCHEME.field
    got = [f.signed(v) for v in reconstruct_vector(vectors[:2], SCHEME)]
    assert got == [-1500, -500, 500, 1500]
    assert r_int == sum(v * v for v in got)


def test_prepare_fresh_randomness_differs():
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    a, r_a = prepare_vector(m, S4, SCHEME, rng=random.Random(5))
    b, r_b = prepare_vector(m, S4, SCHEME, rng=random.Random(6))
    assert any(x != y for x, y in zip(a, b))
    assert r_a == r_b


def test_prepare_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        prepare_vector(np.zeros((0, 4)), S4, SCHEME)
    huge = np.ones((64, 64)) * 1e6
    with pytest.raises(CapacityExceeded):
        prepare_vector(huge * np.random.default_rng(2).uniform(0.5, 1, (64, 64)), Scaling(8), SCHEME)


def test_prepare_names_a_non_finite_value():
    # Checked before any subtraction, so +inf beside -inf warns nowhere;
    # nor does a finite value whose scaling overflows.
    for values, message in (
        ([1.0, math.nan, -1.0], "cannot encode nan$"),
        ([1.0, math.inf, -1.0], "cannot encode inf$"),
        ([1.0, -math.inf, -1.0], "cannot encode -inf$"),
        ([math.inf, -math.inf], "cannot encode inf$"),
        ([1e305, -1e305], r"\|1e\+305\| scaled by 10\^4"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match=message):
                prepare_vector(np.array(values), S4, SCHEME)


def test_prepare_capacity_is_the_exact_square_sum():
    # With p = 257 the bound (p-1)/2 is 128.  At d = 1, [0.8, -0.8]
    # encodes to +-8, whose square sum 128 sits on the bound; +-1 more
    # makes 130.
    scheme = ShareScheme(l=2, n=4, field=PrimeField(257))
    _, r_int = prepare_vector(np.array([0.8, -0.8]), Scaling(1), scheme, random.Random(1))
    assert r_int == 128
    with pytest.raises(CapacityExceeded, match="square sum 130, bound 128$"):
        prepare_vector(np.array([0.8, -0.8, 0.1, -0.1]), Scaling(1), scheme)


def test_prepare_refuses_a_wrapped_square_sum():
    # +-2**32 squares to 2**64, so the uint64 square sum wraps to 0, but
    # N * max|q|**2 = 2**65 reaches 2**64 and refuses it.
    x = np.array([2**32 / 10, -(2**32) / 10])
    assert encode_vector(x, Scaling(1), SCHEME.field)[1] == 0
    with pytest.raises(CapacityExceeded, match=f"square sum up to {2**65}, bound"):
        prepare_vector(x, Scaling(1), SCHEME)


def test_constant_input_is_degenerate():
    # Mean removal turns a constant input into zeros, so its square sum is 0
    # and r is undefined, on the fingerprint's side as on the query's.
    m = np.full(5, 3.25)
    other = np.array([0.5, -1.0, 2.0, 0.25, -0.75])
    for x, y in ((m, other), (other, m)):
        with pytest.raises(DegenerateInput):
            run_pipeline(x, y, S4)


def self_partials(x, rng):
    """Every server's partial of x enrolled and queried against itself,
    with the querier's own R."""
    stored = prepare_fingerprint(x, S4, SCHEME, rng)
    sent, r_int = prepare_vector(x, S4, SCHEME, rng)
    return [compute_partials(a, b, SCHEME) for a, b in zip(stored, sent)], r_int


def test_compute_partials_guards_operands():
    a = prepare_fingerprint(np.array([0.5, -0.5]), S4, SCHEME, random.Random(7))
    q, _ = prepare_vector(np.array([0.5, -0.5]), S4, SCHEME, random.Random(8))
    b, _ = prepare_vector(np.array([0.5, -0.5, 1.0]), S4, SCHEME, random.Random(9))
    assert len(a[0]) == len(q[0]) + 1
    with pytest.raises(PointMismatch):
        compute_partials(a[0], q[1], SCHEME)
    with pytest.raises(LengthMismatch, match="query has 3 elements .* enrolled with 2"):
        compute_partials(a[0], b[0], SCHEME)
    with pytest.raises(LengthMismatch):
        compute_partials(a[0], a[0], SCHEME)


def test_all_zero_inputs_give_zero_sums():
    parts, r_int = self_partials(np.zeros(4), random.Random(10))
    assert reconstruct_sum_ints(parts[:3], r_int, SCHEME) == (0, 0, 0)


def test_self_correlation_p_equals_q_equals_r():
    gen = np.random.default_rng(12)
    x = gen.uniform(-1, 1, (6, 6))
    parts, r_int = self_partials(x, random.Random(11))
    p, q, r = reconstruct_sum_ints(parts[:3], r_int, SCHEME)
    assert p == q == r
    result, _ = run_pipeline(x, x, S4)
    assert result.r == 1.0 and result.matched


def test_hand_worked_two_by_two():
    # Centered encodings: a = (-1500, -500, 500, 1500), b likewise for
    # the second matrix; the sums of products are checked by hand.
    a_m = np.array([[0.1, 0.2], [0.3, 0.4]])
    b_m = np.array([[0.4, 0.3], [0.2, 0.1]])
    _, ints = run_pipeline(a_m, b_m, S4)
    a = [-1500, -500, 500, 1500]
    b = [1500, 500, -500, -1500]
    assert ints == (
        sum(x * y for x, y in zip(a, b)),
        sum(x * x for x in a),
        sum(y * y for y in b),
    )


def test_subset_independence():
    gen = np.random.default_rng(13)
    x = gen.uniform(-1, 1, (8, 8))
    y = gen.uniform(-1, 1, (8, 8))
    results = set()
    for subset in combinations(range(4), 3):
        result, ints = run_pipeline(x, y, S4, rng=random.Random(77), subset=subset)
        results.add((ints, result.r))
    assert len(results) == 1


def test_insufficient_partials():
    gen = np.random.default_rng(14)
    x = gen.uniform(-1, 1, (4, 4))
    parts, r_int = self_partials(x, random.Random(12))
    with pytest.raises(InsufficientShares):
        reconstruct_partials(parts[:2], r_int, SCHEME, S4)


def test_negative_square_sum_detection():
    gen = np.random.default_rng(16)
    x = gen.uniform(-1, 1, (4, 4))
    parts, r_int = self_partials(x, random.Random(14))
    f = SCHEME.field
    # Force the reconstructed Q negative by shifting one q_share.
    q_int = reconstruct_sum_ints(parts[:3], r_int, SCHEME)[1]
    bad = parts[0]
    bad = type(bad)(
        point=bad.point,
        p_share=bad.p_share,
        q_share=(bad.q_share - 3 * q_int) % f.p,
    )
    with pytest.raises(NegativeSquareSum):
        reconstruct_partials([bad] + parts[1:3], r_int, SCHEME, S4)


def test_cauchy_schwarz_violation_detection():
    gen = np.random.default_rng(17)
    x = gen.uniform(-1, 1, (4, 4))
    y = gen.uniform(-1, 1, (4, 4))
    ea = prepare_fingerprint(x, S4, SCHEME, rng=random.Random(15))
    eb, r_int = prepare_vector(y, S4, SCHEME, rng=random.Random(16))
    parts = [compute_partials(a, b, SCHEME) for a, b in zip(ea, eb)]
    p_int, q_int, _ = reconstruct_sum_ints(parts[:3], r_int, SCHEME)
    # The honest sums sit inside the bound; a shifted P share leaves it
    # while Q stays a valid, positive sum of squares.
    assert p_int * p_int <= q_int * r_int
    f = SCHEME.field
    bad = parts[0]
    bad = type(bad)(
        point=bad.point,
        p_share=(bad.p_share + 3 * q_int) % f.p,
        q_share=bad.q_share,
    )
    with pytest.raises(InconsistentSums, match="Cauchy-Schwarz") as exc:
        reconstruct_partials([bad] + parts[1:3], r_int, SCHEME, S4)
    assert not isinstance(exc.value, NegativeSquareSum)
    assert issubclass(NegativeSquareSum, InconsistentSums)


def test_finalize_reference_and_degenerate():
    res = finalize(1.0, 1.0, 1.0, 0.5)
    assert res.r == 1.0 and res.matched
    assert finalize(0.0, 2.0, 3.0, 0.5).r == 0.0
    with pytest.raises(DegenerateInput):
        finalize(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(DegenerateInput):
        finalize(1.0, 1.0, 0.0, 0.5)


def test_decision_scale_invariant_across_d():
    gen = np.random.default_rng(17)
    x = gen.uniform(-1, 1, (16, 16))
    y = 0.7 * x + 0.3 * gen.uniform(-1, 1, (16, 16))
    decisions = set()
    for d in (3, 4, 5, 6):
        result, _ = run_pipeline(x, y, Scaling(d))
        decisions.add(result.matched)
    assert decisions == {True}


def test_partial_serialization_roundtrip():
    gen = np.random.default_rng(18)
    x = gen.uniform(-1, 1, (4, 4))
    pc = self_partials(x, random.Random(15))[0][2]
    raw = serialize_partial(pc)
    assert len(raw) == 24
    assert raw[:8] == (pc.point).to_bytes(8, "big")
    assert raw[8:16] == pc.p_share.to_bytes(8, "big")
    assert raw[16:] == pc.q_share.to_bytes(8, "big")
    assert deserialize_partial(raw) == pc
    with pytest.raises(ValueError):
        deserialize_partial(raw[:-1])


def unit(side):
    """A +-1 checkerboard: unit-bounded data that pins the max."""
    i, j = np.indices((side, side))
    return np.where((i + j) % 2 == 0, 1.0, -1.0)


def test_querier_square_sum_matches_oracle():
    # The querier's own R against the Python-int oracle: small data, a
    # large offset that centering must remove as the oracle does, and a
    # large unit-bounded image.
    gen = np.random.default_rng(19)
    cases = [gen.uniform(-1, 1, (16, 16)), 1e4 + gen.uniform(-1, 1, (64, 64)), unit(327)]
    for y in cases:
        _, r_int = prepare_vector(y, S4, SCHEME, random.Random(20))
        assert r_int == oracle_sums(y, y, S4)[2]


def test_prepare_capacity_edge():
    # Unit-bounded, zero-mean data needs about N * (10**d)**2 <= (p-1)/2.
    # At d=8 that admits 114 elements and refuses 116; at d=4 a 328x328
    # image fits with room to spare.
    alternating = [np.where(np.arange(size) % 2 == 0, 1.0, -1.0) for size in (114, 116)]
    prepare_vector(alternating[0], Scaling(8), SCHEME, random.Random(17))
    with pytest.raises(CapacityExceeded):
        prepare_vector(alternating[1], Scaling(8), SCHEME, random.Random(18))
    shares, _ = prepare_vector(unit(328), S4, SCHEME, random.Random(16))
    assert len(shares[0]) == 328 * 328
