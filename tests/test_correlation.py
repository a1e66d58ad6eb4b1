import random
from itertools import combinations

import numpy as np
import pytest

from conftest import oracle_correlation, oracle_sums
from sss_prnu import (
    CapacityExceeded,
    Centering,
    DegenerateInput,
    EncryptedVector,
    InsufficientShares,
    NegativeSquareSum,
    PrimeField,
    Scaling,
    ShareScheme,
    ShareVector,
    center_shares,
    compute_partials,
    deserialize_partial,
    finalize,
    mul_shares,
    prepare_vector,
    reconstruct_partials,
    reconstruct_sum_ints,
    reconstruct_vector,
    serialize_partial,
)

SCHEME = ShareScheme(l=2, n=4)
S4 = Scaling(4)


def run_pipeline(x, y, scaling, mode, scheme=SCHEME, rng=None, subset=None):
    """Full encrypted path, returning (MatchResult, int sums)."""
    rng = rng if rng is not None else random.Random(0)
    ex = prepare_vector(x, scaling, scheme, mode, rng)
    ey = prepare_vector(y, scaling, scheme, mode, rng)
    count = len(ex[0].share)
    if mode is Centering.ENCRYPTED:
        ex = [center_shares(v, count, scheme) for v in ex]
        ey = [center_shares(v, count, scheme) for v in ey]
    parts = [compute_partials(a, b, scheme) for a, b in zip(ex, ey)]
    chosen = parts[: scheme.quorum] if subset is None else [parts[i] for i in subset]
    ints = reconstruct_sum_ints(chosen, scheme)
    p_val, q_val, r_val = reconstruct_partials(chosen, scheme, scaling, mode, count)
    return finalize(p_val, q_val, r_val, 0.5), ints


@pytest.mark.parametrize("mode", [Centering.PLAINTEXT, Centering.ENCRYPTED])
def test_pipeline_matches_quantized_oracle_exactly(mode):
    gen = np.random.default_rng(10)
    for trial in range(5):
        x = gen.uniform(-1, 1, (16, 16))
        y = gen.uniform(-1, 1, (16, 16))
        result, ints = run_pipeline(x, y, S4, mode, rng=random.Random(trial))
        op, oq, orr, denom = oracle_sums(x, y, S4, mode)
        assert ints == (op, oq, orr)
        r_oracle, p_oracle, q_oracle, rr_oracle = oracle_correlation(x, y, S4, mode)
        assert (result.p_val, result.q_val, result.r_val) == (p_oracle, q_oracle, rr_oracle)
        assert result.r == r_oracle


def test_prepare_zero_matrix_reconstructs_zero():
    vectors = [ev.share for ev in prepare_vector(np.zeros((3, 3)), S4, SCHEME)]
    assert reconstruct_vector(vectors[:2], SCHEME) == [0] * 9


def test_prepare_known_values_reconstruct_to_centered_encoding():
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    vectors = [ev.share for ev in prepare_vector(m, S4, SCHEME, rng=random.Random(1))]
    f = SCHEME.field
    got = [f.signed(v) for v in reconstruct_vector(vectors[:2], SCHEME)]
    assert got == [-1500, -500, 500, 1500]


def test_prepare_fresh_randomness_differs():
    m = np.array([[0.1, 0.2], [0.3, 0.4]])
    a = prepare_vector(m, S4, SCHEME, rng=random.Random(5))
    b = prepare_vector(m, S4, SCHEME, rng=random.Random(6))
    assert any(x.share != y.share for x, y in zip(a, b))


def test_prepare_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        prepare_vector(np.zeros((0, 4)), S4, SCHEME)
    huge = np.ones((64, 64)) * 1e6
    with pytest.raises(CapacityExceeded):
        prepare_vector(huge * np.random.default_rng(2).uniform(0.5, 1, (64, 64)), Scaling(8), SCHEME)


def test_center_shares_reference_example():
    # (1, -1) at d=0 with 2 elements centers to 2*(x - mean) = (2, -2).
    s0 = Scaling(1)  # d=1: values 1.0 and -1.0 encode to 10 and -10
    m = np.array([1.0, -1.0])
    vectors = prepare_vector(m, s0, SCHEME, Centering.ENCRYPTED, random.Random(2))
    centered = [center_shares(v, 2, SCHEME) for v in vectors]
    f = SCHEME.field
    got = [f.signed(v) for v in reconstruct_vector([c.share for c in centered[:2]], SCHEME)]
    assert got == [20, -20]  # 2 * (x_k - 0) in tenths


def test_center_shares_constant_vector_zeroes():
    m = np.full(5, 3.25)
    vectors = prepare_vector(m, S4, SCHEME, Centering.ENCRYPTED, random.Random(3))
    centered = center_shares(vectors[0], 5, SCHEME)
    others = [center_shares(v, 5, SCHEME) for v in vectors[1:3]]
    rec = reconstruct_vector([centered.share] + [c.share for c in others[:1]], SCHEME)
    assert rec == [0] * 5


def test_centered_values_sum_to_zero():
    gen = np.random.default_rng(11)
    m = gen.uniform(-2, 2, 7)
    vectors = prepare_vector(m, S4, SCHEME, Centering.ENCRYPTED, random.Random(4))
    centered = [center_shares(v, 7, SCHEME) for v in vectors]
    rec = reconstruct_vector([c.share for c in centered[:2]], SCHEME)
    f = SCHEME.field
    assert sum(f.signed(v) for v in rec) == 0


def test_center_shares_guards():
    m = np.array([1.0, 2.0])
    plain = prepare_vector(m, S4, SCHEME, Centering.PLAINTEXT, random.Random(5))
    with pytest.raises(ValueError):
        center_shares(plain[0], 2, SCHEME)
    enc = prepare_vector(m, S4, SCHEME, Centering.ENCRYPTED, random.Random(6))
    once = center_shares(enc[0], 2, SCHEME)
    with pytest.raises(ValueError):
        center_shares(once, 2, SCHEME)
    with pytest.raises(ValueError):
        center_shares(enc[1], 3, SCHEME)


def test_compute_partials_requires_centering_and_matching_config():
    m = np.array([0.5, -0.5])
    enc = prepare_vector(m, S4, SCHEME, Centering.ENCRYPTED, random.Random(7))
    with pytest.raises(ValueError):
        compute_partials(enc[0], enc[0], SCHEME)  # not yet centered
    plain_a = prepare_vector(m, S4, SCHEME, Centering.PLAINTEXT, random.Random(8))
    plain_b = prepare_vector(m, Scaling(3), SCHEME, Centering.PLAINTEXT, random.Random(9))
    with pytest.raises(ValueError):
        compute_partials(plain_a[0], plain_b[0], SCHEME)  # scaling differs


def test_all_zero_inputs_give_zero_sums():
    z = prepare_vector(np.zeros(4), S4, SCHEME, rng=random.Random(10))
    parts = [compute_partials(v, v, SCHEME) for v in z]
    assert reconstruct_sum_ints(parts[:3], SCHEME) == (0, 0, 0)


def test_self_correlation_p_equals_q_equals_r():
    gen = np.random.default_rng(12)
    x = gen.uniform(-1, 1, (6, 6))
    ex = prepare_vector(x, S4, SCHEME, rng=random.Random(11))
    parts = [compute_partials(v, v, SCHEME) for v in ex]
    p, q, r = reconstruct_sum_ints(parts[:3], SCHEME)
    assert p == q == r
    result, _ = run_pipeline(x, x, S4, Centering.PLAINTEXT)
    assert result.r == 1.0 and result.matched


def test_hand_worked_two_by_two():
    # Centered encodings: a = (-1500, -500, 500, 1500), b likewise for
    # the second matrix; the sums of products are checked by hand.
    a_m = np.array([[0.1, 0.2], [0.3, 0.4]])
    b_m = np.array([[0.4, 0.3], [0.2, 0.1]])
    _, ints = run_pipeline(a_m, b_m, S4, Centering.PLAINTEXT)
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
        result, ints = run_pipeline(
            x, y, S4, Centering.PLAINTEXT, rng=random.Random(77), subset=subset
        )
        results.add((ints, result.r))
    assert len(results) == 1


def test_insufficient_partials():
    gen = np.random.default_rng(14)
    x = gen.uniform(-1, 1, (4, 4))
    ex = prepare_vector(x, S4, SCHEME, rng=random.Random(12))
    parts = [compute_partials(v, v, SCHEME) for v in ex]
    with pytest.raises(InsufficientShares):
        reconstruct_partials(parts[:2], SCHEME, S4, Centering.PLAINTEXT, x.size)


def test_one_multiplication_discipline():
    gen = np.random.default_rng(15)
    x = gen.uniform(-1, 1, (4, 4))
    ex = prepare_vector(x, S4, SCHEME, rng=random.Random(13))
    prod = mul_shares(ex[0].share, ex[0].share, SCHEME)
    from sss_prnu import DegreeOverflow

    with pytest.raises(DegreeOverflow):
        mul_shares(prod, ex[0].share, SCHEME)


def test_negative_square_sum_detection():
    gen = np.random.default_rng(16)
    x = gen.uniform(-1, 1, (4, 4))
    ex = prepare_vector(x, S4, SCHEME, rng=random.Random(14))
    parts = [compute_partials(v, v, SCHEME) for v in ex]
    f = SCHEME.field
    # Force the reconstructed Q negative by shifting one q_share.
    q_int = reconstruct_sum_ints(parts[:3], SCHEME)[1]
    bad = parts[0]
    bad = type(bad)(
        point=bad.point,
        p_share=bad.p_share,
        q_share=f.sub(bad.q_share, f.element(3 * q_int)),
        r_share=bad.r_share,
        degree_hint=bad.degree_hint,
    )
    with pytest.raises(NegativeSquareSum):
        reconstruct_partials([bad] + parts[1:3], SCHEME, S4, Centering.PLAINTEXT, x.size)


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
        result, _ = run_pipeline(x, y, Scaling(d), Centering.PLAINTEXT)
        decisions.add(result.matched)
    assert decisions == {True}


def test_partial_serialization_roundtrip():
    gen = np.random.default_rng(18)
    x = gen.uniform(-1, 1, (4, 4))
    ex = prepare_vector(x, S4, SCHEME, rng=random.Random(15))
    pc = compute_partials(ex[2], ex[2], SCHEME)
    raw = serialize_partial(pc)
    assert len(raw) == 32
    assert raw[:8] == (pc.point).to_bytes(8, "big")
    assert deserialize_partial(raw, SCHEME) == pc
    with pytest.raises(ValueError):
        deserialize_partial(raw[:-1], SCHEME)


def test_encrypted_mode_needs_capacity_headroom():
    # 64x64 unit-bounded data fits with plaintext centering but not
    # with share-side centering at d=4.
    gen = np.random.default_rng(19)
    m = gen.uniform(-1, 1, (64, 64))
    m[0, 0] = 1.0  # pin the max so the bound is tight
    prepare_vector(m, S4, SCHEME, Centering.PLAINTEXT, random.Random(16))
    with pytest.raises(CapacityExceeded):
        prepare_vector(m, S4, SCHEME, Centering.ENCRYPTED, random.Random(17))
