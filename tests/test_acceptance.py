"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained and uses fixed seeds; `pytest -v` yields
one pass/fail line per criterion.
"""

import random
import threading
import time
from itertools import combinations

import numpy as np
import pytest
import scipy.stats

from conftest import oracle_correlation
from sss_prnu import (
    CloudServer,
    LocalCluster,
    PrimeField,
    ProtocolConfig,
    QuorumNotReached,
    Scaling,
    ShareScheme,
    ShareVector,
    SyntheticCamera,
    TcpCloudServer,
    TcpLink,
    compute_partials,
    enroll,
    estimate_fingerprint,
    flip_one_element,
    interpolate_vector,
    pearson,
    prepare_fingerprint,
    prepare_vector,
    query,
    query_residual,
    reconstruct_partials,
    reconstruct_vector,
    share_vector,
    verify_residual,
)
from sss_prnu.correlation import finalize

SCHEME = ShareScheme(l=2, n=4)
S4 = Scaling(4)


def encrypted_r(x, y, rng):
    """Correlation-layer pipeline: share, multiply under encryption,
    reconstruct from the first quorum."""
    ex = prepare_fingerprint(x, S4, SCHEME, rng)
    ey, r_int = prepare_vector(y, S4, SCHEME, rng)
    parts = [compute_partials(a, b, SCHEME) for a, b in zip(ex, ey)]
    p_val, q_val, r_val = reconstruct_partials(parts[: SCHEME.quorum], r_int, SCHEME, S4)
    return finalize(p_val, q_val, r_val, 0.0).r


def test_criterion_1_encrypted_r_is_bitwise_equal_to_quantized_oracle():
    gen = np.random.default_rng(2024)
    rng = random.Random(2024)
    started = time.monotonic()
    worst_float_gap = 0.0
    for _ in range(100):
        x = gen.uniform(-1, 1, (64, 64))
        y = gen.uniform(-1, 1, (64, 64))
        got = encrypted_r(x, y, rng)
        want, _, _, _ = oracle_correlation(x, y, S4)
        assert got == want  # bit-for-bit
        float_r = pearson(x, y)
        worst_float_gap = max(worst_float_gap, abs(got - float_r))
    elapsed = time.monotonic() - started
    print(f"criterion1_elapsed_s={elapsed:.2f} worst_float_gap={worst_float_gap:.2e}")
    assert worst_float_gap <= 5e-3
    assert elapsed < 30.0


def test_criterion_2_single_failures_harmless_double_failures_refused():
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5)
    cluster = LocalCluster(cfg)
    gen = np.random.default_rng(77)
    fp = gen.uniform(-1, 1, (16, 16))
    probe = 0.9 * fp + 0.1 * gen.uniform(-1, 1, (16, 16))
    enroll(fp, "cam", cfg, cluster.links, random.Random(1))
    baseline = query_residual(probe, "cam", cfg, cluster.links, random.Random(2))
    for down in SCHEME.evaluation_points:
        cluster.set_down([down])
        res = query_residual(probe, "cam", cfg, cluster.links, random.Random(down))
        assert res.semantic_key() == baseline.semantic_key()
    for downs in combinations(SCHEME.evaluation_points, 2):
        cluster.set_down(downs)
        with pytest.raises(QuorumNotReached):
            query_residual(probe, "cam", cfg, cluster.links, random.Random(9))


def test_criterion_3_tampered_server_identified_in_95_of_100_trials():
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5)
    cluster = LocalCluster(cfg)
    gen = np.random.default_rng(88)
    fp = gen.uniform(-1, 1, (8, 8))
    probe = 0.9 * fp + 0.1 * gen.uniform(-1, 1, (8, 8))
    enroll(fp, "cam", cfg, cluster.links, random.Random(1))
    pristine = {
        u: cluster.servers[u].store.get("cam") for u in SCHEME.evaluation_points
    }
    rng = random.Random(303)
    hits = 0
    for trial in range(100):
        target = SCHEME.evaluation_points[trial % 4]
        cluster.tamper_stored(target, "cam", flip_one_element(rng, SCHEME.field.p))
        report = verify_residual(probe, "cam", cfg, cluster.links, random.Random(trial))
        if not report.consistent and report.suspects == (target,):
            hits += 1
        cluster.servers[target].store.put("cam", pristine[target])
    print(f"criterion3_hits={hits}/100")
    assert hits >= 95


def test_criterion_4_product_needs_quorum_and_is_exact():
    f = SCHEME.field
    rng = random.Random(404)
    samples = 10_000
    a = [rng.randrange(f.p) for _ in range(samples)]
    b = [rng.randrange(f.p) for _ in range(samples)]
    sa = share_vector(a, SCHEME, rng)
    sb = share_vector(b, SCHEME, rng)
    # Each server's elementwise share products, in plain ints.
    prod = [
        ShareVector(
            x.point,
            [u * v % f.p for u, v in zip(x.values.tolist(), y.values.tolist())],
        )
        for x, y in zip(sa, sb)
    ]
    want = [x * y % f.p for x, y in zip(a, b)]
    assert reconstruct_vector(prod[: SCHEME.quorum], SCHEME) == want
    under = interpolate_vector(
        [prod[0].point, prod[1].point], [prod[0].values, prod[1].values], 0, f
    ).tolist()
    l_only_disagreements = sum(got != w for got, w in zip(under, want))
    assert l_only_disagreements > 9_900


def test_criterion_5_roundtrip_every_subset_and_uniform_marginals():
    f = SCHEME.field
    rng = random.Random(505)
    secrets = [rng.randrange(f.p) for _ in range(10_000)]
    vectors = share_vector(secrets, SCHEME, rng)
    for subset in combinations(vectors, SCHEME.l):
        assert reconstruct_vector(list(subset), SCHEME) == secrets

    small = ShareScheme(l=2, n=4, field=PrimeField(257))
    srng = random.Random(606)
    marginals = share_vector([srng.randrange(257) for _ in range(100_000)], small, srng)
    for vec in marginals:
        observed = np.bincount(vec.values.astype(np.int64), minlength=257)
        assert observed.size == 257
        check = scipy.stats.chisquare(observed)
        assert check.pvalue > 0.001, f"share marginal at point {vec.point} is not uniform"


def test_criterion_6_twelve_camera_separation_under_encryption():
    started = time.monotonic()
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.0)
    cluster = LocalCluster(cfg)
    cameras = [SyntheticCamera.create(64, 64, seed=9000 + i) for i in range(12)]
    queries = []
    for i, cam in enumerate(cameras):
        stack = [cam.shoot() for _ in range(20)]
        fp = estimate_fingerprint(stack, cfg.denoiser)
        enroll(fp, f"cam{i:02d}", cfg, cluster.links, random.Random(i))
        queries.append(cam.shoot())
    same, cross = [], []
    rng = random.Random(99)
    for qi, img in enumerate(queries):
        for ci in range(12):
            res = query(img, f"cam{ci:02d}", cfg, cluster.links, rng)
            (same if qi == ci else cross).append(res.r)
    elapsed = time.monotonic() - started
    print(
        f"criterion6_elapsed_s={elapsed:.1f} "
        f"min_same={min(same):.4f} max_cross={max(cross):.4f}"
    )
    assert min(same) > max(cross)
    assert elapsed < 300.0


def test_criterion_7_seeded_tcp_runs_produce_identical_traces():
    gen = np.random.default_rng(1234)
    fp = gen.uniform(-1, 1, (8, 8))
    probe = 0.9 * fp + 0.1 * gen.uniform(-1, 1, (8, 8))
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.0)

    def one_run():
        traces = {u: [] for u in SCHEME.evaluation_points}
        lock = threading.Lock()

        def observer(point, direction, frame):
            with lock:
                traces[point].append((direction, frame))

        servers, links = [], []
        try:
            for u in SCHEME.evaluation_points:
                srv = TcpCloudServer(("127.0.0.1", 0), CloudServer(u, cfg))
                threading.Thread(
                    target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
                ).start()
                servers.append(srv)
                links.append(TcpLink(u, srv.server_address, observer=observer))
            enroll(fp, "cam", cfg, links, random.Random(42))
            res = query_residual(probe, "cam", cfg, links, random.Random(43))
            # The query returns at quorum, before the last reply is read;
            # wait for every per-point stream to settle.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with lock:
                    if all(len(t) == 4 for t in traces.values()):
                        break
                time.sleep(0.005)
            return res.semantic_key(), traces
        finally:
            for link in links:
                link.close()
            for srv in servers:
                srv.shutdown()
                srv.server_close()

    key_a, trace_a = one_run()
    key_b, trace_b = one_run()
    assert key_a == key_b
    for u in SCHEME.evaluation_points:
        assert len(trace_a[u]) == 4, f"incomplete trace for server {u}"
        assert trace_a[u] == trace_b[u]
