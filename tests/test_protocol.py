import logging
import os
import random
import socket
import socketserver
import struct
import sys
import threading
import time
from concurrent.futures import Future
from itertools import combinations

import numpy as np
import pytest

from conftest import oracle_correlation, oracle_sums
from sss_prnu import (
    CloudServer,
    DimensionMismatch,
    EnrollTimeout,
    InconsistentSums,
    LocalCluster,
    LocalLink,
    NotApplicable,
    ProtocolConfig,
    QuorumNotReached,
    Scaling,
    ServerStore,
    ShareScheme,
    ShareVector,
    SyntheticCamera,
    TcpCloudServer,
    TcpLink,
    TransportError,
    UnknownFingerprint,
    compute_partials,
    deserialize_partial,
    deserialize_share_vector,
    enroll,
    estimate_fingerprint,
    extract_residual,
    fetch_share,
    flip_one_element,
    prepare_fingerprint,
    prepare_vector,
    query,
    query_residual,
    reconstruct_vector,
    serialize_share_vector,
    unpack_identified,
    verify_residual,
)
from sss_prnu import wire
from sss_prnu.protocol import _audit_stored_shares, _decode_errors
from sss_prnu.sharing import interpolate_vector, share_vector

SCHEME = ShareScheme(l=2, n=4)
CFG = ProtocolConfig(scheme=SCHEME, threshold=0.5)


def make_cluster(cfg=CFG, **kwargs):
    return LocalCluster(cfg, **kwargs)


def sample_pair(seed=0, shape=(8, 8)):
    gen = np.random.default_rng(seed)
    base = gen.uniform(-1, 1, shape)
    near = 0.8 * base + 0.2 * gen.uniform(-1, 1, shape)
    far = gen.uniform(-1, 1, shape)
    return base, near, far


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=0)
    assert CFG.quorum == 3


def test_enroll_stores_reconstructible_shares():
    cluster = make_cluster()
    base, _, _ = sample_pair()
    acked = enroll(base, "cam", CFG, cluster.links, random.Random(1))
    assert acked == (1, 2, 3, 4)
    fetched = [fetch_share("cam", link) for link in cluster.links[:2]]
    rec = reconstruct_vector(fetched, SCHEME)
    f = SCHEME.field
    centered = base.ravel() - base.mean()
    from sss_prnu import round_half_away

    expected = [round_half_away(float(v) * CFG.scaling.scale) for v in centered]
    assert [f.signed(v) for v in rec[:-1]] == expected


@pytest.mark.parametrize("l, n", [(2, 4), (3, 5)])
def test_stored_shares_end_with_a_share_of_the_oracle_q(l, n):
    scheme = ShareScheme(l=l, n=n)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    cluster = make_cluster(cfg)
    base, near, _ = sample_pair(37)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    last = [ShareVector(u, cluster.servers[u].store.get("cam").values[-1:]) for u in cluster.servers]
    for subset in combinations(last, l):
        assert reconstruct_vector(subset, scheme) == [oracle_sums(base, near, cfg.scaling)[1]]


@pytest.mark.parametrize("l, n", [(2, 4), (3, 5)])
def test_q_shares_of_a_quorum_lie_on_one_polynomial_of_degree_l_minus_1(l, n):
    # A server's Q share is the one the fingerprint source dealt, not a
    # sum of squared shares, whose degree would be 2l - 2.
    scheme = ShareScheme(l=l, n=n)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    cluster = make_cluster(cfg)
    base, near, _ = sample_pair(38)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    sent, _ = prepare_vector(near, cfg.scaling, scheme, random.Random(2))
    q = {vec.point: _server_partial(link, "cam", vec).q_share for link, vec in zip(cluster.links, sent)}
    for subset in combinations(sorted(q), scheme.quorum):
        base_points, rest = subset[:l], subset[l:]
        rows = [[q[u]] for u in base_points]
        for t in rest:
            assert interpolate_vector(base_points, rows, t, scheme.field).tolist() == [q[t]]


def test_enroll_requires_matching_links():
    cluster = make_cluster()
    base, _, _ = sample_pair()
    with pytest.raises(ValueError):
        enroll(base, "cam", CFG, cluster.links[:3], random.Random(1))


def test_enroll_rolls_back_on_partial_failure():
    cluster = make_cluster()
    cluster.set_down([3])
    base, _, _ = sample_pair()
    with pytest.raises(EnrollTimeout) as exc:
        enroll(base, "cam", CFG, cluster.links, random.Random(1))
    assert exc.value.points == (3,)
    assert "server 3 is unreachable" in str(exc.value)
    for server in cluster.servers.values():
        assert server.store.get("cam") is None
    # After the failure the id does not exist anywhere.
    cluster.set_down([])
    with pytest.raises(UnknownFingerprint):
        query_residual(base, "cam", CFG, cluster.links, random.Random(2))


class _LostAckLink(LocalLink):
    """Delivers every ENROLL to its server, then loses the reply."""

    def request(self, ftype, payload):
        reply = super().request(ftype, payload)
        if ftype == wire.MSG_ENROLL:
            raise TransportError(f"server {self.point}: connection reset")
        return reply


@pytest.mark.parametrize("fault", ["lost-ack", "refused-reenroll"])
def test_enroll_rolls_back_every_server(fault):
    # The delete marker must reach the servers that did not acknowledge
    # too: one whose ACK was lost stored the new share, and one that
    # refused a re-enroll still holds the old one.
    cluster = make_cluster()
    base, near, _ = sample_pair(9)
    links = list(cluster.links)
    if fault == "lost-ack":
        links[2] = _LostAckLink(cluster.servers[3])
        cause = "server 3: connection reset"
    else:
        enroll(near, "cam", CFG, links, random.Random(1))
        inner = cluster.servers[3].handle
        refusals = iter([(wire.MSG_ERROR, wire.pack_error(wire.ERR_INTERNAL, "disk full"))])
        cluster.servers[3].handle = lambda ftype, payload: (
            next(refusals, None) or inner(ftype, payload)
        )
        cause = "server 3: disk full (code 3)"
    with pytest.raises(EnrollTimeout) as exc:
        enroll(base, "cam", CFG, links, random.Random(2))
    assert exc.value.points == (3,)
    assert cause in str(exc.value)
    assert [u for u, s in cluster.servers.items() if s.store.get("cam") is not None] == []


def test_reenroll_replaces_previous_fingerprint():
    cluster = make_cluster()
    base, near, far = sample_pair(3)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    enroll(far, "cam", CFG, cluster.links, random.Random(2))
    res = query_residual(far, "cam", CFG, cluster.links, random.Random(3))
    assert res.r == 1.0


def test_query_matches_quantized_oracle():
    cluster = make_cluster()
    base, near, _ = sample_pair(4)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    res = query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    r, p_val, q_val, r_val = oracle_correlation(base, near, CFG.scaling)
    assert (res.r, res.p_val, res.q_val, res.r_val) == (r, p_val, q_val, r_val)
    assert res.matched == (res.r >= CFG.threshold)
    assert len(res.server_subset) == CFG.quorum
    assert set(res.server_subset) <= set(SCHEME.evaluation_points)


def test_query_unknown_id():
    cluster = make_cluster()
    base, _, _ = sample_pair(5)
    with pytest.raises(UnknownFingerprint):
        query_residual(base, "ghost", CFG, cluster.links, random.Random(1))


def test_query_of_another_size_is_a_dimension_error():
    cluster = make_cluster()
    base, _, _ = sample_pair(16)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    probe = np.random.default_rng(17).uniform(-1, 1, (8, 9))
    with pytest.raises(DimensionMismatch, match="query has 72 elements"):
        query_residual(probe, "cam", CFG, cluster.links, random.Random(2))
    with pytest.raises(DimensionMismatch, match="enrolled with 64"):
        verify_residual(probe, "cam", CFG, cluster.links, random.Random(3))


def test_fan_out_sends_every_query_past_the_quorum():
    # Queries fast enough to reach the quorum before the last request
    # starts must still deliver that request to its server.
    sent = {u: 0 for u in SCHEME.evaluation_points}
    lock = threading.Lock()

    def observer(point, direction, frame):
        if direction == "send" and frame[4] == wire.MSG_QUERY:
            with lock:
                sent[point] += 1

    cluster = make_cluster(observer=observer)
    base, near, _ = sample_pair(20)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    rng = random.Random(2)
    for _ in range(50):
        query_residual(near, "cam", CFG, cluster.links, rng)
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        with lock:
            if all(count == 50 for count in sent.values()):
                break
        time.sleep(0.005)
    assert sent == {u: 50 for u in SCHEME.evaluation_points}


def test_single_failure_leaves_result_identical():
    cluster = make_cluster()
    base, near, _ = sample_pair(6)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    baseline = query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    keys = {baseline.semantic_key()}
    for down in SCHEME.evaluation_points:
        cluster.set_down([down])
        res = query_residual(near, "cam", CFG, cluster.links, random.Random(down + 10))
        assert down not in res.server_subset
        keys.add(res.semantic_key())
    assert len(keys) == 1


def test_two_failures_break_quorum():
    cluster = make_cluster()
    base, near, _ = sample_pair(7)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    for downs in combinations(SCHEME.evaluation_points, 2):
        cluster.set_down(downs)
        with pytest.raises(QuorumNotReached) as exc:
            query_residual(near, "cam", CFG, cluster.links, random.Random(2))
        assert (exc.value.responded, exc.value.required) == (2, 3)
        for u in downs:
            assert f"server {u} is unreachable" in str(exc.value)
    cluster.set_down([])


def test_liveness_exhaustive_wider_scheme():
    scheme = ShareScheme(l=2, n=5)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    cluster = make_cluster(cfg)
    base, near, _ = sample_pair(8)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    keys = set()
    for k in range(0, scheme.n - scheme.quorum + 1):
        for downs in combinations(scheme.evaluation_points, k):
            cluster.set_down(downs)
            res = query_residual(near, "cam", cfg, cluster.links, random.Random(3))
            keys.add(res.semantic_key())
    assert len(keys) == 1
    for downs in combinations(scheme.evaluation_points, scheme.n - scheme.quorum + 1):
        cluster.set_down(downs)
        with pytest.raises(QuorumNotReached):
            query_residual(near, "cam", cfg, cluster.links, random.Random(4))


def test_verify_consistent_when_honest():
    cluster = make_cluster()
    base, near, _ = sample_pair(10)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    report = verify_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert report.consistent
    assert report.responding == (1, 2, 3, 4)
    assert len(report.triples) == 4
    assert len(set(report.triples.values())) == 1
    assert report.suspects == ()


def test_verify_identifies_tampered_store():
    cluster = make_cluster()
    base, near, _ = sample_pair(11)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    cluster.tamper_stored(2, "cam", flip_one_element(random.Random(5), SCHEME.field.p))
    report = verify_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert not report.consistent
    assert report.suspects == (2,)
    assert set(report.implicated[2]) == {(1, 2, 3), (1, 2, 4), (2, 3, 4)}


def test_query_refuses_a_tampered_store_instead_of_impossible_r():
    # One flipped element on server 2 used to reach `finalize` as
    # r = 412.8, reported as a MATCH.
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.01)
    cam = SyntheticCamera.create(128, 128, seed=1)
    fp = estimate_fingerprint([cam.shoot() for _ in range(8)], cfg.denoiser)
    cluster = make_cluster(cfg)
    enroll(fp, "cam", cfg, cluster.links, random.Random(1))
    cluster.tamper_stored(2, "cam", flip_one_element(random.Random(4), SCHEME.field.p))
    with pytest.raises(InconsistentSums, match="Cauchy-Schwarz"):
        query(cam.shoot(), "cam", cfg, cluster.links, random.Random(0))


def test_fine_scaling_round_trip_is_exact():
    # At d = 6 this fingerprint's exact square sum, 8.7e16, is 13x inside
    # (p-1)/2, while N * (10**d * max|x - mean|)**2 is past it: the guard
    # admits it, and r stays equal to the integer oracle.
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, scaling=Scaling(6))
    cam = SyntheticCamera.create(128, 128, seed=1)
    fp = estimate_fingerprint([cam.shoot() for _ in range(8)], cfg.denoiser)
    residual = extract_residual(cam.shoot(), cfg.denoiser)
    cluster = make_cluster(cfg)
    enroll(fp, "cam", cfg, cluster.links, random.Random(1))
    res = query_residual(residual, "cam", cfg, cluster.links, random.Random(2))
    assert (res.r, res.p_val, res.q_val, res.r_val) == oracle_correlation(fp, residual, cfg.scaling)
    assert res.matched


class LyingLink:
    """Delegates to a real link but flips one bit of each PARTIAL answer,
    at `byte`: 8-15 hold the P share, 16-23 the Q share."""

    def __init__(self, inner, byte):
        self.inner = inner
        self.byte = byte

    @property
    def point(self):
        return self.inner.point

    def send(self, ftype, payload, deadline):
        rtype, rpayload = self.inner.send(ftype, payload, deadline).result()
        if rtype == wire.MSG_PARTIAL:
            at = self.byte
            rpayload = rpayload[:at] + bytes([rpayload[at] ^ 0x40]) + rpayload[at + 1 :]
        lied = Future()
        lied.set_result((rtype, rpayload))
        return lied

    def close(self):
        self.inner.close()


def assert_liar_named(byte):
    cluster = make_cluster()
    base, near, _ = sample_pair(12)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    links = list(cluster.links)
    links[3] = LyingLink(links[3], byte)
    report = verify_residual(near, "cam", CFG, links, random.Random(2))
    assert not report.consistent
    assert report.suspects == (4,)
    assert set(report.implicated[4]) == {(1, 2, 4), (1, 3, 4), (2, 3, 4)}


def test_verify_identifies_lying_computation():
    assert_liar_named(12)


def test_verify_identifies_lying_q_share():
    assert_liar_named(20)


def leave_one_out_audit(fetched, scheme):
    """The stored-share audit as a plain leave-one-out loop, n*(n-l)
    full-vector interpolations: the reference for `_audit_stored_shares`."""
    f = scheme.field
    points = sorted(fetched)
    suspects = set()
    length = min(len(fetched[u]) for u in points)
    values = {u: fetched[u].values[:length] for u in points}
    for s in points:
        others = [u for u in points if u != s]
        if len(others) < scheme.l:
            continue
        base, rest = others[: scheme.l], others[scheme.l :]
        base_rows = [values[u] for u in base]
        deviating = [
            t
            for t in rest + [s]
            if not np.array_equal(interpolate_vector(base, base_rows, t, f), values[t])
        ]
        if deviating == [s]:
            suspects.add(s)
    return suspects


def tamper_patterns(gen, rows, p):
    """Seeded tamper patterns on the honest `rows`, each a list of
    (point, column, new value)."""
    points = sorted(rows)
    length = len(rows[points[0]])
    cols = list(range(length))
    yield []
    for servers in ([gen.choice(points)], gen.sample(points, 2)):
        yield [(u, gen.randrange(length), gen.randrange(p)) for u in servers]
        yield [(u, c, gen.randrange(p)) for u in servers for c in gen.sample(cols, 3)]
        yield [(u, c, gen.randrange(p)) for u in servers for c in cols]
    same = gen.randrange(length)
    yield [(u, same, gen.randrange(p)) for u in gen.sample(points, 2)]
    # Values past p, which a lying server can send but no share holds: one
    # random, and one that is its column's own residue plus p.
    yield [(gen.choice(points), gen.randrange(length), p + gen.randrange(2**63))]
    for u in points:
        col = gen.randrange(length)
        yield [(u, col, int(rows[u][col]) + p)]


@pytest.mark.parametrize("l, n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_audit_matches_leave_one_out(l, n):
    scheme = ShareScheme(l=l, n=n)
    p = scheme.field.p
    gen = random.Random(1000 * l + n)
    length = 24
    points = list(scheme.evaluation_points)
    subsets = [c for k in range(l, n + 1) for c in combinations(points, k)]
    named = 0
    for trial in range(4):
        secrets = [gen.randrange(p) for _ in range(length)]
        shares = share_vector(secrets, scheme, random.Random(trial))
        honest = {vec.point: vec.values for vec in shares}
        for pattern in tamper_patterns(gen, honest, p):
            rows = {u: v.copy() for u, v in honest.items()}
            for u, col, value in pattern:
                rows[u][col] = value
            for subset in subsets:
                fetched = {u: ShareVector(u, rows[u]) for u in subset}
                want = leave_one_out_audit(fetched, scheme)
                assert _audit_stored_shares(fetched, scheme) == want, (pattern, subset)
                named += bool(want)
    assert named > 0


def test_audit_of_shares_of_unequal_length_matches_leave_one_out():
    # Only the common prefix, here 6 elements, is compared.
    honest = share_vector(list(range(10)), SCHEME, random.Random(4))
    for col, named in ((2, {3}), (8, set())):
        rows = {vec.point: vec.values.copy() for vec in honest}
        rows[3][col] = int(rows[3][col]) ^ 1
        rows[1] = rows[1][:6]
        fetched = {u: ShareVector(u, v) for u, v in rows.items()}
        assert _audit_stored_shares(fetched, SCHEME) == leave_one_out_audit(fetched, SCHEME) == named


def on_one_polynomial(xs, ys, l, p):
    """Whether the points (xs[i], ys[i]), all values in Z_p, lie on one
    polynomial of degree l-1: plain Lagrange through the first l."""
    if any(y >= p for y in ys):
        return False
    for x, y in zip(xs[l:], ys[l:]):
        value = 0
        for i, (xi, yi) in enumerate(zip(xs[:l], ys[:l])):
            num = den = 1
            for xj in xs[:i] + xs[i + 1 : l]:
                num, den = num * (x - xj) % p, den * (xi - xj) % p
            value += yi * num * pow(den, -1, p)
        if value % p != y:
            return False
    return True


def brute_force_decode(points, columns, l, p):
    """Per column, the points outside the largest subset that lies on one
    polynomial, if at most (m - l) // 2 are; else None: the reference
    for `_decode_errors`."""
    m = len(points)
    located = set()
    for column in columns:
        largest = max(
            (
                subset
                for k in range(m + 1)
                for subset in combinations(range(m), k)
                if on_one_polynomial(
                    [points[i] for i in subset], [column[i] for i in subset], l, p
                )
            ),
            key=len,
        )
        if m - len(largest) > (m - l) // 2:
            return None
        located |= {points[i] for i in range(m) if i not in largest}
    return located


@pytest.mark.parametrize("l, n", [(2, 4), (2, 5), (3, 5), (3, 6)])
def test_probe_decoder_matches_brute_force(l, n):
    # Every subset of the n points as the responders; 0 wrong values up to
    # one more than the decodable (m - l) // 2, each in the P or the Q
    # column, some of them past p.
    f = SCHEME.field
    p = f.p
    gen = random.Random(100 * l + n)
    located = 0
    for m in range(n + 1):
        for responders in combinations(range(1, n + 1), m):
            t = (m - l) // 2
            for wrong in range(min(m, max(t, 0) + 1) + 1):
                polys = [[gen.randrange(p) for _ in range(l)] for _ in range(2)]
                columns = [
                    [sum(c * u**k for k, c in enumerate(poly)) % p for u in responders]
                    for poly in polys
                ]
                bad = gen.sample(range(m), wrong)
                for i in bad:
                    column = columns[gen.randrange(2)]
                    changed = (column[i] + 1 + gen.randrange(p - 1)) % p
                    column[i] = gen.choice([changed, column[i] + p])
                got = _decode_errors(responders, columns, l, f)
                assert got == brute_force_decode(responders, columns, l, p), (responders, bad)
                if wrong <= t:
                    assert got == {responders[i] for i in bad}
                    located += bool(got)
    assert located > 0


def test_verify_needs_spare_servers():
    scheme = ShareScheme(l=2, n=3)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    cluster = make_cluster(cfg)
    base, near, _ = sample_pair(13)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    with pytest.raises(NotApplicable):
        verify_residual(near, "cam", cfg, cluster.links, random.Random(2))


def test_tampered_store_named_with_one_server_down_at_n5():
    # One server down still leaves a spare when n is 5, so the tampered
    # one remains identifiable.
    scheme = ShareScheme(l=2, n=5)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    cluster = make_cluster(cfg)
    base, near, _ = sample_pair(14)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    cluster.set_down([5])
    cluster.tamper_stored(1, "cam", flip_one_element(random.Random(6), scheme.field.p))
    report = verify_residual(near, "cam", cfg, cluster.links, random.Random(2))
    assert report.responding == (1, 2, 3, 4)
    assert not report.consistent
    assert report.suspects == (1,)


def test_unparseable_partial_counts_as_a_transport_error():
    # Server 4 answers QUERY with a 31-byte PARTIAL; the three honest
    # servers still make a quorum, and without them the query has none.
    cluster = make_cluster()
    base, near, _ = sample_pair(21)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    honest = query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    cluster.servers[4].handle = lambda ftype, payload: (wire.MSG_PARTIAL, bytes(31))
    res = query_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert res.semantic_key() == honest.semantic_key()
    assert sorted(res.server_subset) == [1, 2, 3]
    report = verify_residual(near, "cam", CFG, cluster.links, random.Random(4))
    assert report.responding == (1, 2, 3)
    assert report.consistent
    cluster.set_down([1])
    with pytest.raises(QuorumNotReached):
        query_residual(near, "cam", CFG, cluster.links, random.Random(5))


def test_malformed_error_reply_counts_as_a_transport_error():
    # Server 4 answers QUERY with an ERROR frame too short for its code.
    cluster = make_cluster()
    base, near, _ = sample_pair(24)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    honest = query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    inner = cluster.servers[4].handle
    cluster.servers[4].handle = lambda ftype, payload: (
        (wire.MSG_ERROR, b"\x00") if ftype == wire.MSG_QUERY else inner(ftype, payload)
    )
    res = query_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert res.semantic_key() == honest.semantic_key()
    assert sorted(res.server_subset) == [1, 2, 3]
    report = verify_residual(near, "cam", CFG, cluster.links, random.Random(4))
    assert report.responding == (1, 2, 3)
    assert report.consistent


def test_malformed_share_reply_counts_as_a_transport_error():
    # Server 5 answers FETCH with a 2-byte SHARE; the four stores it
    # leaves still name the tampered one.
    scheme = ShareScheme(l=2, n=5)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    cluster = make_cluster(cfg)
    base, near, _ = sample_pair(25)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    cluster.tamper_stored(2, "cam", flip_one_element(random.Random(8), scheme.field.p))
    inner = cluster.servers[5].handle
    cluster.servers[5].handle = lambda ftype, payload: (
        (wire.MSG_SHARE, b"\x00\x01") if ftype == wire.MSG_FETCH else inner(ftype, payload)
    )
    with pytest.raises(TransportError, match="share vector header truncated"):
        fetch_share("cam", cluster.links[4])
    report = verify_residual(near, "cam", cfg, cluster.links, random.Random(2))
    assert report.responding == (1, 2, 3, 4, 5)
    assert not report.consistent
    assert report.suspects == (2,)


def fetch_observer():
    """An observer that records (point, time.monotonic()) of each FETCH sent."""
    fetches = []

    def observer(point, direction, frame):
        if direction == "send" and frame[4] == wire.MSG_FETCH:
            fetches.append((point, time.monotonic()))

    return fetches, observer


def lie_on_first_partial(cloud):
    """Make `cloud` flip one bit of the P share of its first PARTIAL only:
    it lies about a verify's QUERY and answers the probe after it
    honestly, so only the FETCH fallback can name it."""
    inner, lied = cloud.handle, []

    def handle(ftype, payload):
        rtype, rpayload = inner(ftype, payload)
        if rtype == wire.MSG_PARTIAL and not lied:
            lied.append(ftype)
            rpayload = rpayload[:12] + bytes([rpayload[12] ^ 0x40]) + rpayload[13:]
        return rtype, rpayload

    cloud.handle = handle


@pytest.mark.parametrize("column", [3, -1], ids=["fingerprint-element", "q-share"])
def test_probe_names_a_tampered_store_without_fetch(column):
    fetches, observer = fetch_observer()
    cluster = make_cluster(observer=observer)
    base, near, _ = sample_pair(11)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    assert verify_residual(near, "cam", CFG, cluster.links, random.Random(2)).audit == "none"
    store = cluster.servers[2].store
    values = store.get("cam").values.copy()
    values[column] = (int(values[column]) + 1) % SCHEME.field.p
    store.put("cam", ShareVector(2, values))
    report = verify_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert not report.consistent
    assert report.suspects == (2,)
    assert report.audit == "probe"
    assert set(report.implicated[2]) == {(1, 2, 3), (1, 2, 4), (2, 3, 4)}
    assert fetches == []


def test_fetch_fallback_names_a_liar_despite_a_malformed_share_reply():
    # The twin of the test above that reaches FETCH: every store is clean,
    # and server 2 lies only about the verify's QUERY, so the probe names
    # no store.  Server 5 answers FETCH with a 2-byte SHARE; the partials
    # audit still names server 2 from the four shares left.
    scheme = ShareScheme(l=2, n=5)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    fetches, observer = fetch_observer()
    cluster = make_cluster(cfg, observer=observer)
    base, near, _ = sample_pair(25)
    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    lie_on_first_partial(cluster.servers[2])
    inner = cluster.servers[5].handle
    cluster.servers[5].handle = lambda ftype, payload: (
        (wire.MSG_SHARE, b"\x00\x01") if ftype == wire.MSG_FETCH else inner(ftype, payload)
    )
    report = verify_residual(near, "cam", cfg, cluster.links, random.Random(2))
    assert report.responding == (1, 2, 3, 4, 5)
    assert not report.consistent
    assert report.suspects == (2,)
    assert report.audit == "fetch"
    assert sorted(u for u, _ in fetches) == [1, 2, 3, 4, 5]


def test_local_links_start_no_thread(monkeypatch):
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    cluster = make_cluster()
    base, near, _ = sample_pair(26)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert verify_residual(near, "cam", CFG, cluster.links, random.Random(3)).consistent
    cluster.tamper_stored(3, "cam", flip_one_element(random.Random(9), SCHEME.field.p))
    assert verify_residual(near, "cam", CFG, cluster.links, random.Random(4)).suspects == (3,)
    assert started == []


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_oversized_share_frame_is_refused_before_sending(transport, request, monkeypatch):
    links = make_cluster().links if transport == "local" else request.getfixturevalue("tcp_cluster")
    base, near, _ = sample_pair(22)
    enroll(base, "cam", CFG, links, random.Random(1))
    sent = []
    for link in links:
        link.observer = lambda point, direction, frame: sent.append(point)
    # An 8x8 query share vector under a 3-byte id makes a 530-byte frame;
    # the enrolled share's Q share adds 8 bytes.
    monkeypatch.setattr(wire, "MAX_FRAME", 200)
    with pytest.raises(wire.FrameError, match="frame of 538 bytes exceeds the 200-byte limit"):
        enroll(base, "new", CFG, links, random.Random(2))
    with pytest.raises(wire.FrameError, match="frame of 530 bytes exceeds the 200-byte limit"):
        query_residual(near, "cam", CFG, links, random.Random(3))
    assert sent == []
    monkeypatch.undo()
    for link in links:
        rtype, rpayload = link.request(wire.MSG_FETCH, wire.pack_identified("new"))
        assert rtype == wire.MSG_ERROR
        assert wire.unpack_error(rpayload)[0] == wire.ERR_UNKNOWN_ID


def test_servers_refuse_noncanonical_share_values():
    cluster = make_cluster()
    base, _, _ = sample_pair(23)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    link, store = cluster.links[0], cluster.servers[1].store
    before = store.get("cam")
    # 64 elements, the length of the enrolled 8x8 fingerprint's queries,
    # with the last one equal to p.
    bad = ShareVector(1, [0] * 63 + [SCHEME.field.p])
    for ftype, fid in ((wire.MSG_ENROLL, "cam"), (wire.MSG_ENROLL, "new"), (wire.MSG_QUERY, "cam")):
        rtype, rpayload = link.request(ftype, wire.pack_identified(fid, serialize_share_vector(bad)))
        assert rtype == wire.MSG_ERROR
        assert wire.unpack_error(rpayload)[0] == wire.ERR_MALFORMED
    assert store.ids() == ["cam"]
    assert store.get("cam") == before


def test_verify_single_quorum_of_responders_sees_nothing():
    # With only a bare quorum answering there is one subset and nothing
    # to cross-check; the report degenerates to a single triple.
    cluster = make_cluster()
    base, near, _ = sample_pair(19)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    cluster.tamper_stored(1, "cam", flip_one_element(random.Random(7), SCHEME.field.p))
    cluster.set_down([4])
    report = verify_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert report.responding == (1, 2, 3)
    assert len(report.triples) == 1
    assert report.consistent  # undetectable at this coverage, by design


def test_store_persistence(tmp_path):
    store = ServerStore(2, SCHEME.field, str(tmp_path))
    vec = ShareVector(2, [17, 0, 2**61 - 2])
    store.put("cam-a", vec)
    store.put("cam-b", ShareVector(2, [5]))
    store.delete("cam-b")
    reloaded = ServerStore(2, SCHEME.field, str(tmp_path))
    assert reloaded.get("cam-a") == vec
    assert reloaded.get("cam-b") is None
    assert reloaded.ids() == ["cam-a"]


def test_store_skips_unreadable_files(tmp_path, caplog):
    good = ShareVector(2, [3, 1, 4])
    ServerStore(2, SCHEME.field, str(tmp_path)).put("cam-a", good)
    truncated = "cam-b".encode("utf-8").hex() + ".share"
    (tmp_path / truncated).write_bytes(b"\x00\x01")
    (tmp_path / "not-hex.share").write_bytes(b"")
    (tmp_path / ("ff" + ".share")).write_bytes(b"")  # hex, but not utf-8
    # A readable share of another point, as ServerStore(3) writes it.
    other = "cam-c".encode("utf-8").hex() + ".share"
    (tmp_path / other).write_bytes(serialize_share_vector(ShareVector(3, [2, 7])))
    # A readable share of this point holding p, one past the field.
    outside = "cam-d".encode("utf-8").hex() + ".share"
    (tmp_path / outside).write_bytes(serialize_share_vector(ShareVector(2, [1, SCHEME.field.p])))
    # A share of this point in the older layout, with a degree byte after the
    # point: its body of 8 * count + 1 bytes never fits the header's count.
    old_layout = "cam-e".encode("utf-8").hex() + ".share"
    (tmp_path / old_layout).write_bytes(struct.pack(">QBI3Q", 2, 1, 3, 5, 6, 7))
    # An entry that cannot be opened as a file: root ignores file modes,
    # so a directory stands in for an unreadable file.
    directory = "cam-f".encode("utf-8").hex() + ".share"
    (tmp_path / directory).mkdir()
    with caplog.at_level("WARNING", logger="sss_prnu.protocol"):
        reloaded = ServerStore(2, SCHEME.field, str(tmp_path))
    assert reloaded.ids() == ["cam-a"]
    assert reloaded.get("cam-a") == good
    warned = " ".join(record.getMessage() for record in caplog.records)
    for name in (truncated, "not-hex.share", "ff.share", other, outside, old_layout, directory):
        assert name in warned


def test_store_removes_leftover_temporaries(tmp_path):
    # A put that crashed before its os.replace leaves a partial copy
    # beside the authoritative share, or beside nothing.
    good = ShareVector(2, [3, 1, 4])
    ServerStore(2, SCHEME.field, str(tmp_path)).put("cam-a", good)
    (tmp_path / ("cam-a".encode("utf-8").hex() + ".share.tmp")).write_bytes(b"\x00\x00")
    (tmp_path / ("cam-b".encode("utf-8").hex() + ".share.tmp")).write_bytes(b"\x00")
    reloaded = ServerStore(2, SCHEME.field, str(tmp_path))
    assert reloaded.ids() == ["cam-a"]
    assert reloaded.get("cam-a") == good
    assert [path.name for path in tmp_path.iterdir()] == ["cam-a".encode("utf-8").hex() + ".share"]


def test_failed_store_write_keeps_the_old_share(tmp_path, monkeypatch):
    store = ServerStore(2, SCHEME.field, str(tmp_path))
    old = ShareVector(2, [3, 1, 4])
    store.put("cam", old)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        store.put("cam", ShareVector(2, [2, 7, 1]))
    monkeypatch.undo()
    assert store.get("cam") == old
    assert [path.name for path in tmp_path.iterdir()] == ["63616d.share"]
    assert ServerStore(2, SCHEME.field, str(tmp_path)).get("cam") == old


def test_failed_store_delete_keeps_the_share(tmp_path, monkeypatch):
    # The share stays served in memory exactly as a reloaded store serves it.
    store = ServerStore(2, SCHEME.field, str(tmp_path))
    vec = ShareVector(2, [3, 1, 4])
    store.put("cam", vec)

    def refuse(path):
        raise OSError("read-only file system")

    monkeypatch.setattr(os, "remove", refuse)
    with pytest.raises(OSError, match="read-only"):
        store.delete("cam")
    monkeypatch.undo()
    assert store.get("cam") == vec
    assert ServerStore(2, SCHEME.field, str(tmp_path)).get("cam") == vec


def test_out_of_field_store_file_is_skipped_not_a_dimension_error(tmp_path):
    # One value of server 2's file set to 2**63, then server 1 down: the
    # file is skipped at load, so server 2 no longer knows the id.  It is
    # not reported as a query that does not fit the enrolled share.
    base, near, _ = sample_pair(33)
    enroll(base, "cam", CFG, make_cluster(store_root=str(tmp_path)).links, random.Random(1))
    [path] = (tmp_path / "server_2").iterdir()
    vec = deserialize_share_vector(path.read_bytes())
    values = vec.values.copy()
    values[5] = 2**63
    path.write_bytes(serialize_share_vector(ShareVector(vec.point, values)))
    cluster = make_cluster(store_root=str(tmp_path))
    assert cluster.servers[2].store.ids() == []
    cluster.set_down([1])
    with pytest.raises(UnknownFingerprint) as info:
        query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert info.value.points == (2,)
    cluster.set_down([])
    res = query_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert res.r == oracle_correlation(base, near, CFG.scaling)[0]


def _server_partial(link, fid, vec):
    """One QUERY straight to a server: its partial, or its error code."""
    rtype, rpayload = link.request(
        wire.MSG_QUERY, wire.pack_identified(fid, serialize_share_vector(vec))
    )
    if rtype == wire.MSG_ERROR:
        return wire.unpack_error(rpayload)[0]
    return deserialize_partial(rpayload)


def test_partials_follow_the_store(tmp_path):
    cfg = CFG
    cluster = make_cluster(store_root=str(tmp_path))
    server, link = cluster.servers[2], cluster.links[1]
    base, near, far = sample_pair(29)
    qvec = prepare_vector(near, cfg.scaling, SCHEME, random.Random(3))[0][1]

    def assert_fresh():
        fresh = compute_partials(server.store.get("cam"), qvec, SCHEME)
        assert _server_partial(link, "cam", qvec) == fresh

    enroll(base, "cam", cfg, cluster.links, random.Random(1))
    assert_fresh()
    assert_fresh()
    cluster.tamper_stored(2, "cam", flip_one_element(random.Random(5), SCHEME.field.p))
    assert_fresh()
    enroll(far, "cam", cfg, cluster.links, random.Random(6))
    assert_fresh()
    # Another store object rewrites the file; the server reloads it.
    directory = server.store.directory
    flip = flip_one_element(random.Random(8), SCHEME.field.p)
    ServerStore(2, SCHEME.field, directory).put("cam", flip(server.store.get("cam")))
    server.store = ServerStore(2, SCHEME.field, directory)
    assert_fresh()
    tombstone = ShareVector(2, [])
    rtype, _ = link.request(
        wire.MSG_ENROLL, wire.pack_identified("cam", serialize_share_vector(tombstone))
    )
    assert rtype == wire.MSG_ENROLL_ACK
    assert _server_partial(link, "cam", qvec) == wire.ERR_UNKNOWN_ID


def test_partials_under_racing_enrolls():
    # One writer re-enrolls two shares in turn while readers query the same
    # server; each partial must belong wholly to one of the two shares.
    cfg = CFG
    server = CloudServer(1, cfg)
    shares = [
        prepare_fingerprint(m, cfg.scaling, SCHEME, random.Random(i))[0]
        for i, m in enumerate(sample_pair(32)[::2])
    ]
    qvec = prepare_vector(sample_pair(32)[1], cfg.scaling, SCHEME, random.Random(9))[0][0]
    allowed = {compute_partials(v, qvec, SCHEME) for v in shares}
    enrolls = [wire.pack_identified("cam", serialize_share_vector(v)) for v in shares]
    query = wire.pack_identified("cam", serialize_share_vector(qvec))
    server.handle(wire.MSG_ENROLL, enrolls[0])
    stop = threading.Event()
    seen = []

    def reader():
        while not stop.is_set():
            rtype, rpayload = server.handle(wire.MSG_QUERY, query)
            seen.append(rtype == wire.MSG_PARTIAL and deserialize_partial(rpayload) in allowed)

    def writer():
        for i in range(400):
            server.handle(wire.MSG_ENROLL, enrolls[i % 2])
        stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen and all(seen)


def test_enroll_computes_no_dot_products(monkeypatch):
    # Dots are counted apart on the client and inside a server's handler.
    dots = {"client": 0, "server": 0}
    serving = []
    real_dot, real_handle = np.dot, CloudServer.safe_handle

    def counting_dot(*args, **kwargs):
        dots["server" if serving else "client"] += 1
        return real_dot(*args, **kwargs)

    def counting_handle(self, ftype, payload):
        serving.append(1)
        try:
            return real_handle(self, ftype, payload)
        finally:
            serving.pop()

    monkeypatch.setattr(np, "dot", counting_dot)
    monkeypatch.setattr(CloudServer, "safe_handle", counting_handle)
    cluster = make_cluster()
    base, near, _ = sample_pair(30)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    # The only one is the fingerprint's own square sum Q, in `encode_vector`,
    # which the fingerprint source checks and shares.
    assert dots == {"client": 1, "server": 0}
    # Every server answers inline, each query with the 9 limb dots of the
    # cross sum alone.  The querier sums its own square in one dot.
    query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert dots == {"client": 2, "server": SCHEME.n * 9}
    query_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert dots == {"client": 3, "server": SCHEME.n * 18}


def test_each_share_is_split_into_limbs_once_per_query(monkeypatch):
    # A server's one cross sum splits the stored share and the query share
    # into limbs once each.
    from sss_prnu import field

    splits = []
    real_limbs = field._limbs
    monkeypatch.setattr(field, "_limbs", lambda x: splits.append(len(x)) or real_limbs(x))
    cluster = make_cluster()
    base, near, _ = sample_pair(30)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert len(splits) == 2 * SCHEME.n
    query_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert len(splits) == 4 * SCHEME.n
    # So does the audit's replay.
    stored = cluster.servers[1].store.get("cam")
    sent, _ = prepare_vector(near, CFG.scaling, SCHEME)
    compute_partials(stored, sent[0], SCHEME)
    assert len(splits) == 4 * SCHEME.n + 2


def test_cluster_persistence_across_restart(tmp_path):
    base, near, _ = sample_pair(15)
    first = make_cluster(store_root=str(tmp_path))
    enroll(base, "cam", CFG, first.links, random.Random(1))
    before = query_residual(near, "cam", CFG, first.links, random.Random(2))
    fresh = make_cluster(store_root=str(tmp_path))
    after = query_residual(near, "cam", CFG, fresh.links, random.Random(3))
    assert before.semantic_key() == after.semantic_key()


def test_per_server_traffic_carries_only_own_point():
    frames: list[tuple[int, str, bytes]] = []
    cluster = make_cluster(observer=lambda *a: frames.append(a))
    base, near, _ = sample_pair(16)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert frames
    for point, direction, frame in frames:
        ftype = frame[4]
        body = frame[5:]
        if ftype in (wire.MSG_ENROLL, wire.MSG_QUERY):
            _, rest = unpack_identified(body)
            assert deserialize_share_vector(rest).point == point
        elif ftype == wire.MSG_PARTIAL:
            assert int.from_bytes(body[:8], "big") == point


def test_queries_with_different_randomness_send_different_shares():
    sent: dict[int, list[bytes]] = {u: [] for u in SCHEME.evaluation_points}

    def observer(point, direction, frame):
        if direction == "send" and frame[4] == wire.MSG_QUERY:
            sent[point].append(frame)

    cluster = make_cluster(observer=observer)
    base, near, _ = sample_pair(17)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    a = query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    b = query_residual(near, "cam", CFG, cluster.links, random.Random(3))
    assert a.semantic_key() == b.semantic_key()
    for point, observed in sent.items():
        if len(observed) == 2:
            assert observed[0] != observed[1]


# ---------------------------------------------------------------------------
# TCP transport.


@pytest.fixture
def tcp_cluster():
    cfg = CFG
    servers = []
    links = []
    for u in SCHEME.evaluation_points:
        cloud = CloudServer(u, cfg)
        srv = TcpCloudServer(("127.0.0.1", 0), cloud)
        threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        servers.append(srv)
        links.append(TcpLink(u, srv.server_address, timeout_ms=5000))
    yield links
    for link in links:
        link.close()
    for srv in servers:
        srv.shutdown()
        srv.server_close()


def test_tcp_end_to_end(tcp_cluster):
    base, near, _ = sample_pair(18)
    enroll(base, "cam", CFG, tcp_cluster, random.Random(1))
    res = query_residual(near, "cam", CFG, tcp_cluster, random.Random(2))
    local = make_cluster()
    enroll(base, "cam", CFG, local.links, random.Random(7))
    ref = query_residual(near, "cam", CFG, local.links, random.Random(8))
    assert res.semantic_key() == ref.semantic_key()


def test_tcp_closed_link_counts_as_a_dead_server(tcp_cluster):
    base, near, _ = sample_pair(18)
    enroll(base, "cam", CFG, tcp_cluster, random.Random(1))
    tcp_cluster[3].close()
    res = query_residual(near, "cam", CFG, tcp_cluster, random.Random(2))
    assert sorted(res.server_subset) == [1, 2, 3]
    tcp_cluster[2].close()
    with pytest.raises(QuorumNotReached) as exc:
        query_residual(near, "cam", CFG, tcp_cluster, random.Random(3))
    assert (exc.value.responded, exc.value.required) == (2, 3)
    for u in (3, 4):
        assert f"server {u}: link closed" in str(exc.value)


def test_tcp_closed_link_opens_no_socket(tcp_cluster, monkeypatch):
    base, _, _ = sample_pair(18)
    enroll(base, "cam", CFG, tcp_cluster, random.Random(1))
    link = tcp_cluster[0]
    link.close()
    connects = []
    monkeypatch.setattr(socket, "socket", lambda *a, **k: connects.append(a))
    with pytest.raises(TransportError, match="server 1: link closed"):
        fetch_share("cam", link)
    assert connects == []


def test_tcp_server_reports_errors_and_stays_usable(tcp_cluster):
    link = tcp_cluster[0]
    # Garbage payload on a known type.
    rtype, rpayload = link.request(wire.MSG_ENROLL, b"\xff")
    code, _ = wire.unpack_error(rpayload)
    assert rtype == wire.MSG_ERROR and code == wire.ERR_MALFORMED
    # Unknown frame type.
    rtype, rpayload = link.request(0x55, b"")
    code, _ = wire.unpack_error(rpayload)
    assert rtype == wire.MSG_ERROR and code == wire.ERR_MALFORMED
    # Unknown id once framing is fine again.
    rtype, rpayload = link.request(wire.MSG_FETCH, wire.pack_identified("ghost"))
    code, _ = wire.unpack_error(rpayload)
    assert rtype == wire.MSG_ERROR and code == wire.ERR_UNKNOWN_ID


def test_tcp_share_routing_rejected(tcp_cluster):
    # A share labeled for point 2 must be refused by server 1.
    vec = ShareVector(2, [1, 2, 3])
    payload = wire.pack_identified("cam", serialize_share_vector(vec))
    rtype, rpayload = tcp_cluster[0].request(wire.MSG_ENROLL, payload)
    code, _ = wire.unpack_error(rpayload)
    assert rtype == wire.MSG_ERROR and code == wire.ERR_MALFORMED


def test_tcp_unreachable_server_is_transport_error():
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=300)
    # Nothing listens on this freshly released port.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    link = TcpLink(1, ("127.0.0.1", dead_port), timeout_ms=300)
    try:
        with pytest.raises(TransportError):
            link.request(wire.MSG_FETCH, wire.pack_identified("x"))
    finally:
        link.close()


def start_server(cloud, cls=TcpCloudServer):
    srv = cls(("127.0.0.1", 0), cloud)
    threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    return srv


def stop(links, servers):
    for link in links:
        link.close()
    for srv in servers:
        srv.shutdown()
        srv.server_close()


def link_threads():
    return [t for t in threading.enumerate() if t.name.startswith("TcpLink-")]


def test_tcp_two_requests_in_flight_get_their_own_replies_in_order():
    cloud = CloudServer(1, CFG)
    cloud.store.put("a", ShareVector(1, [1, 2, 3]))
    cloud.store.put("b", ShareVector(1, [4, 5]))
    both_sent = threading.Event()
    inner = cloud.handle

    def held(ftype, payload):
        # The server answers "a" only once the client has sent "b" too.
        if ftype == wire.MSG_FETCH and unpack_identified(payload)[0] == "a":
            both_sent.wait(5)
        return inner(ftype, payload)

    cloud.handle = held
    srv = start_server(cloud)
    link = TcpLink(1, srv.server_address)
    try:
        deadline = time.monotonic() + 5
        first = link.send(wire.MSG_FETCH, wire.pack_identified("a"), deadline)
        second = link.send(wire.MSG_FETCH, wire.pack_identified("b"), deadline)
        assert not first.done() and not second.done()
        both_sent.set()
        for fut, values in ((first, [1, 2, 3]), (second, [4, 5])):
            rtype, rpayload = fut.result(timeout=5)
            assert rtype == wire.MSG_SHARE
            assert deserialize_share_vector(rpayload).values.tolist() == values
    finally:
        both_sent.set()
        stop([link], [srv])


def test_tcp_stragglers_are_read_without_another_request():
    # Server 4 answers each QUERY late, after the quorum query returned.
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=5000)
    counts = {"send": 0, "recv": 0}
    lock = threading.Lock()

    def observer(point, direction, frame):
        with lock:
            counts[direction] += 1

    servers = []
    for u in SCHEME.evaluation_points:
        cloud = CloudServer(u, cfg)
        if u == 4:
            inner = cloud.handle

            def slow_query(ftype, payload, inner=inner):
                if ftype == wire.MSG_QUERY:
                    time.sleep(0.2)
                return inner(ftype, payload)

            cloud.handle = slow_query
        servers.append(start_server(cloud))
    links = [
        TcpLink(u, srv.server_address, cfg.timeout_ms, observer=observer)
        for u, srv in zip(SCHEME.evaluation_points, servers)
    ]
    try:
        base, near, _ = sample_pair(34)
        enroll(base, "cam", cfg, links, random.Random(1))
        res = query_residual(near, "cam", cfg, links, random.Random(2))
        assert sorted(res.server_subset) == [1, 2, 3]
        with lock:
            assert counts["recv"] < counts["send"] == 8
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            with lock:
                if counts["recv"] == counts["send"]:
                    break
            time.sleep(0.005)
        assert counts == {"send": 8, "recv": 8}
    finally:
        stop(links, servers)


def test_tcp_concurrent_senders_each_get_their_own_reply():
    # More sender threads than cores, switching often, on two links that
    # share the TcpLink-io thread: a reply matched to the wrong request
    # shows as another id's share.
    clouds = [CloudServer(u, CFG) for u in (1, 2)]
    for cloud in clouds:
        for k in range(8):
            cloud.store.put(f"id{k}", ShareVector(cloud.point, [k] * (k + 1)))
    servers = [start_server(cloud) for cloud in clouds]
    links = [TcpLink(c.point, srv.server_address) for c, srv in zip(clouds, servers)]
    wrong = []

    def sender(seed):
        rng = random.Random(seed)
        for _ in range(40):
            link, k = rng.choice(links), rng.randrange(8)
            _, rpayload = link.request(wire.MSG_FETCH, wire.pack_identified(f"id{k}"))
            vec = deserialize_share_vector(rpayload)
            if (vec.point, vec.values.tolist()) != (link.point, [k] * (k + 1)):
                wrong.append((link.point, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=sender, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        stop(links, servers)
    assert wrong == []


def test_tcp_server_that_never_reads_costs_queries_no_wait():
    # A 512x512 QUERY frame is 2 MiB, more than the loopback socket
    # buffers take: the rest waits for a server that never accepts.
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=2000)
    servers = [start_server(CloudServer(u, cfg)) for u in SCHEME.evaluation_points]
    links = [
        TcpLink(u, srv.server_address, cfg.timeout_ms)
        for u, srv in zip(SCHEME.evaluation_points, servers)
    ]
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(1)
    try:
        base, near, _ = sample_pair(35, shape=(512, 512))
        enroll(base, "cam", cfg, links, random.Random(1))
        links[3].close()
        links[3] = TcpLink(4, silent.getsockname(), cfg.timeout_ms)
        for i in range(3):
            t0 = time.monotonic()
            res = query_residual(near, "cam", cfg, links, random.Random(2 + i))
            assert time.monotonic() - t0 < 0.5
            assert sorted(res.server_subset) == [1, 2, 3]
    finally:
        silent.close()
        stop(links, servers)


def test_tcp_server_that_cannot_accept_costs_queries_no_wait():
    # Server 4's accept queue is full, so its connect never completes: the
    # query frames wait behind the connect, not the caller.
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=2000)
    servers = [start_server(CloudServer(u, cfg)) for u in SCHEME.evaluation_points]
    links = [
        TcpLink(u, srv.server_address, cfg.timeout_ms)
        for u, srv in zip(SCHEME.evaluation_points, servers)
    ]
    full = socket.socket()
    full.bind(("127.0.0.1", 0))
    full.listen(0)
    queued = socket.create_connection(full.getsockname(), timeout=5)
    try:
        base, near, _ = sample_pair(39)
        enroll(base, "cam", cfg, links, random.Random(1))
        links[3].close()
        links[3] = TcpLink(4, full.getsockname(), cfg.timeout_ms)
        for i in range(3):
            t0 = time.monotonic()
            res = query_residual(near, "cam", cfg, links, random.Random(2 + i))
            assert time.monotonic() - t0 < 0.5
            assert sorted(res.server_subset) == [1, 2, 3]
    finally:
        queued.close()
        full.close()
        stop(links, servers)


def test_tcp_links_share_one_io_thread():
    scheme = ShareScheme(l=2, n=6)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5)
    servers = [start_server(CloudServer(u, cfg)) for u in scheme.evaluation_points]
    links = [
        TcpLink(u, srv.server_address, cfg.timeout_ms)
        for u, srv in zip(scheme.evaluation_points, servers)
    ]
    try:
        base, near, _ = sample_pair(36)
        enroll(base, "cam", cfg, links, random.Random(1))
        query_residual(near, "cam", cfg, links, random.Random(2))
        (io,) = link_threads()
        assert io.name == "TcpLink-io"
        for link in links[:-1]:
            link.close()
            assert io.is_alive()
        links[-1].close()
        assert not io.is_alive()
        assert link_threads() == []
    finally:
        stop(links, servers)


def test_tcp_request_fails_at_its_deadline_and_drops_the_connection():
    silent = socket.socket()
    silent.bind(("127.0.0.1", 0))
    silent.listen(1)
    silent.settimeout(5)
    hung_up = []

    def never_answer():
        conn, _ = silent.accept()
        with conn, conn.makefile("rb") as fh:
            conn.settimeout(5)
            wire.read_frame(fh)
            hung_up.append(conn.recv(1) == b"")

    script = threading.Thread(target=never_answer)
    script.start()
    link = TcpLink(1, silent.getsockname(), timeout_ms=5000)
    try:
        t0 = time.monotonic()
        fut = link.send(wire.MSG_FETCH, wire.pack_identified("x"), t0 + 0.2)
        with pytest.raises(TransportError, match="server 1: no reply by the deadline"):
            fut.result(timeout=2)
        assert time.monotonic() - t0 < 1.0
        script.join(5)
        assert not script.is_alive()
        assert hung_up == [True]
    finally:
        link.close()
        silent.close()


@pytest.mark.parametrize(
    "reply, failure",
    [
        (wire.encode_frame(wire.MSG_SHARE) * 2, None),  # one reply, one unsolicited
        (b"\x00\x00\x00\x00", "frame length must cover the type byte"),
    ],
    ids=["unsolicited", "bad-length"],
)
def test_tcp_bad_stream_fails_that_link_only(tcp_cluster, reply, failure):
    fake = socket.socket()
    fake.bind(("127.0.0.1", 0))
    fake.listen(1)
    fake.settimeout(5)
    hung_up = []

    def answer_once():
        conn, _ = fake.accept()
        with conn, conn.makefile("rb") as fh:
            conn.settimeout(5)
            wire.read_frame(fh)
            conn.sendall(reply)
            hung_up.append(conn.recv(1) == b"")

    script = threading.Thread(target=answer_once)
    script.start()
    odd = TcpLink(4, fake.getsockname())
    try:
        fut = odd.send(wire.MSG_FETCH, wire.pack_identified("x"), time.monotonic() + 5)
        if failure is None:
            assert fut.result(timeout=5) == (wire.MSG_SHARE, b"")
        else:
            with pytest.raises(TransportError, match=f"server 4: {failure}"):
                fut.result(timeout=5)
        script.join(5)
        assert not script.is_alive()
        assert hung_up == [True]
        for link in tcp_cluster:
            rtype, _ = link.request(wire.MSG_FETCH, wire.pack_identified("ghost"))
            assert rtype == wire.MSG_ERROR
    finally:
        odd.close()
        fake.close()


class _SerialTcpCloudServer(TcpCloudServer):
    """Serves one connection at a time on its serve_forever thread, so a
    hung request holds that thread and later connections wait unserved.
    A connection idle for 5 s is dropped, so that one a client leaks
    cannot keep the server from shutting down."""

    def get_request(self):
        sock, address = super().get_request()
        sock.settimeout(5.0)
        return sock, address

    def process_request(self, request, client_address):
        socketserver.TCPServer.process_request(self, request, client_address)


def test_tcp_tampered_verify_fetches_under_one_deadline():
    scheme = ShareScheme(l=2, n=6)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5, timeout_ms=300)
    release = threading.Event()
    clouds, servers = [], []
    for u in scheme.evaluation_points:
        cloud = CloudServer(u, cfg)
        if u >= 5:
            inner = cloud.handle

            def hung_on_fetch(ftype, payload, inner=inner):
                if ftype == wire.MSG_FETCH:
                    release.wait(30)
                return inner(ftype, payload)

            cloud.handle = hung_on_fetch
        srv = TcpCloudServer(("127.0.0.1", 0), cloud)
        threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        clouds.append(cloud)
        servers.append(srv)
    links = [TcpLink(c.point, s.server_address, cfg.timeout_ms) for c, s in zip(clouds, servers)]
    try:
        base, near, _ = sample_pair(31)
        enroll(base, "cam", cfg, links, random.Random(1))
        store = clouds[1].store
        store.put("cam", flip_one_element(random.Random(5), scheme.field.p)(store.get("cam")))
        t0 = time.monotonic()
        report = verify_residual(near, "cam", cfg, links, random.Random(2))
        elapsed = time.monotonic() - t0
        assert report.suspects == (2,)
        assert elapsed < 1.5 * cfg.timeout_ms / 1000.0
    finally:
        release.set()
        for link in links:
            link.close()
        for srv in servers:
            srv.shutdown()
            srv.server_close()


def test_tcp_probe_names_a_tampered_store_without_fetch():
    fetches, observer = fetch_observer()
    clouds = [CloudServer(u, CFG) for u in SCHEME.evaluation_points]
    servers = [start_server(cloud) for cloud in clouds]
    links = [
        TcpLink(c.point, s.server_address, observer=observer) for c, s in zip(clouds, servers)
    ]
    try:
        base, near, _ = sample_pair(31)
        enroll(base, "cam", CFG, links, random.Random(1))
        store = clouds[2].store
        store.put("cam", flip_one_element(random.Random(5), SCHEME.field.p)(store.get("cam")))
        report = verify_residual(near, "cam", CFG, links, random.Random(2))
        assert report.suspects == (3,)
        assert report.audit == "probe"
        assert fetches == []
    finally:
        stop(links, servers)


def test_tcp_fetch_fallback_runs_under_one_more_deadline():
    # The twin of the test above that reaches FETCH: server 2 lies only
    # about the verify's QUERY, so the probe names no store, and servers 5
    # and 6 hang on FETCH.  From the first FETCH on, the verify waits one
    # deadline, as before the probe.
    scheme = ShareScheme(l=2, n=6)
    cfg = ProtocolConfig(scheme=scheme, threshold=0.5, timeout_ms=300)
    release = threading.Event()
    fetches, observer = fetch_observer()
    clouds = [CloudServer(u, cfg) for u in scheme.evaluation_points]
    lie_on_first_partial(clouds[1])
    for cloud in clouds[4:]:
        inner = cloud.handle

        def hung_on_fetch(ftype, payload, inner=inner):
            if ftype == wire.MSG_FETCH:
                release.wait(30)
            return inner(ftype, payload)

        cloud.handle = hung_on_fetch
    servers = [start_server(cloud) for cloud in clouds]
    links = [
        TcpLink(c.point, s.server_address, cfg.timeout_ms, observer=observer)
        for c, s in zip(clouds, servers)
    ]
    try:
        base, near, _ = sample_pair(31)
        enroll(base, "cam", cfg, links, random.Random(1))
        report = verify_residual(near, "cam", cfg, links, random.Random(2))
        elapsed = time.monotonic() - min(t for _, t in fetches)
        assert report.suspects == (2,)
        assert report.audit == "fetch"
        assert sorted(u for u, _ in fetches) == [1, 2, 3, 4, 5, 6]
        assert elapsed < 1.5 * cfg.timeout_ms / 1000.0
    finally:
        release.set()
        stop(links, servers)


def test_tcp_hung_server_cannot_stall_enrollment():
    # Server 4 hangs on every ENROLL, the delete marker included: the
    # enroll waits one deadline for it and the rollback one more.  Once
    # released, server 4 may still store the share; that is the race the
    # `enroll` docstring names, so only the live servers are checked.
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=400)
    release = threading.Event()
    clouds, servers = [], []
    for u in SCHEME.evaluation_points:
        cloud = CloudServer(u, cfg)
        if u == 4:
            inner = cloud.handle

            def hung_on_enroll(ftype, payload, inner=inner):
                if ftype == wire.MSG_ENROLL:
                    release.wait(30)
                return inner(ftype, payload)

            cloud.handle = hung_on_enroll
        srv = TcpCloudServer(("127.0.0.1", 0), cloud)
        threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        clouds.append(cloud)
        servers.append(srv)
    links = [TcpLink(c.point, s.server_address, cfg.timeout_ms) for c, s in zip(clouds, servers)]
    try:
        base, _, _ = sample_pair(32)
        t0 = time.monotonic()
        with pytest.raises(EnrollTimeout) as exc:
            enroll(base, "cam", cfg, links, random.Random(1))
        elapsed = time.monotonic() - t0
        assert exc.value.points == (4,)
        assert elapsed < 2.5 * cfg.timeout_ms / 1000.0
        assert [c.point for c in clouds[:3] if c.store.get("cam") is not None] == []
        for link in links:
            link.close()
        assert not [t for t in threading.enumerate() if t.name.startswith("TcpLink-")]
    finally:
        release.set()
        for link in links:
            link.close()
        for srv in servers:
            srv.shutdown()
            srv.server_close()


def test_tcp_hung_server_costs_no_thread_per_query():
    cfg = ProtocolConfig(scheme=SCHEME, threshold=0.5, timeout_ms=300)
    release = threading.Event()
    servers = []
    for u in SCHEME.evaluation_points:
        cloud = CloudServer(u, cfg)
        if u == 4:
            inner = cloud.handle

            def hung_on_query(ftype, payload, inner=inner):
                if ftype == wire.MSG_QUERY:
                    release.wait(30)
                return inner(ftype, payload)

            cloud.handle = hung_on_query
            srv = _SerialTcpCloudServer(("127.0.0.1", 0), cloud)
        else:
            srv = TcpCloudServer(("127.0.0.1", 0), cloud)
        threading.Thread(
            target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        servers.append(srv)
    links = [
        TcpLink(u, srv.server_address, cfg.timeout_ms)
        for u, srv in zip(SCHEME.evaluation_points, servers)
    ]
    try:
        # Connect every link with a direct request, so that the baseline
        # holds each server's handler thread and the TcpLink-io thread.
        for link in links:
            rtype, _ = link.request(wire.MSG_FETCH, wire.pack_identified("ghost"))
            assert rtype == wire.MSG_ERROR
        baseline = threading.active_count()
        base, near, _ = sample_pair(27)
        enroll(base, "cam", cfg, links, random.Random(1))
        rng = random.Random(2)
        peak = baseline
        for _ in range(20):
            res = query_residual(near, "cam", cfg, links, rng)
            assert sorted(res.server_subset) == [1, 2, 3]
            peak = max(peak, threading.active_count())
        assert peak <= baseline + SCHEME.n
        t0 = time.monotonic()
        for link in links:
            link.close()
        assert time.monotonic() - t0 < 1.0
        assert threading.active_count() <= baseline
        assert not [t for t in threading.enumerate() if t.name.startswith("TcpLink-")]
    finally:
        release.set()
        for link in links:
            link.close()
        for srv in servers:
            srv.shutdown()
            srv.server_close()


# ---------------------------------------------------------------------------
# Refusals: what each server answers, and what each driver raises for it.


class _FailingStore(ServerStore):
    def get(self, fid):
        raise RuntimeError("disk gone")


def _query_payload(point, fid, values=(1, 2, 3)):
    return wire.pack_identified(fid, serialize_share_vector(ShareVector(point, list(values))))


REFUSALS = {
    "query-unknown-id": (
        ServerStore,
        (wire.MSG_QUERY, _query_payload(1, "ghost")),
        ("ERR_UNKNOWN_ID", "no share stored under id 'ghost'"),
    ),
    "fetch-unknown-id": (
        ServerStore,
        (wire.MSG_FETCH, wire.pack_identified("ghost")),
        ("ERR_UNKNOWN_ID", "no share stored under id 'ghost'"),
    ),
    "unexpected-type": (
        ServerStore,
        (0x55, b""),
        ("ERR_MALFORMED", "unexpected frame type 0x55"),
    ),
    "failing-store": (
        _FailingStore,
        (wire.MSG_FETCH, wire.pack_identified("cam")),
        ("ERR_INTERNAL", "disk gone"),
    ),
    "other-length": (
        ServerStore,
        (wire.MSG_QUERY, _query_payload(1, "cam", (1, 2))),
        ("ERR_LENGTH", "query has 2 elements but the fingerprint was enrolled with 3"),
    ),
}


@pytest.mark.parametrize("transport", ["local", "tcp"])
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_server_refusal_table(case, transport):
    store_cls, request, (code, message) = REFUSALS[case]
    store = store_cls(1, SCHEME.field)
    store.put("cam", ShareVector(1, [5, 6, 7, 8]))
    cloud = CloudServer(1, CFG, store)
    if transport == "local":
        link, servers = LocalLink(cloud), []
    else:
        servers = [start_server(cloud)]
        link = TcpLink(1, servers[0].server_address)
    try:
        rtype, rpayload = link.request(*request)
        assert rtype == wire.MSG_ERROR
        assert wire.unpack_error(rpayload) == (getattr(wire, code), message)
    finally:
        stop([link], servers)


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_server_logs_the_traceback_of_an_internal_failure_only(case, caplog):
    store_cls, request, (code, _) = REFUSALS[case]
    store = store_cls(1, SCHEME.field)
    store.put("cam", ShareVector(1, [5, 6, 7, 8]))
    with caplog.at_level(logging.DEBUG, logger="sss_prnu"):
        rtype, _ = LocalLink(CloudServer(1, CFG, store)).request(*request)
    assert rtype == wire.MSG_ERROR
    if code == "ERR_INTERNAL":
        (record,) = caplog.records
        assert record.levelno == logging.ERROR
        assert record.exc_info[0] is RuntimeError
        assert "Traceback" in caplog.text and "disk gone" in caplog.text
    else:
        assert caplog.records == []


def _cluster_with_failing_stores(points):
    cluster = make_cluster()
    for u in points:
        cluster.servers[u].store = _FailingStore(u, SCHEME.field)
    return cluster


def test_fetch_share_of_an_unknown_id_names_that_server():
    cluster = make_cluster()
    with pytest.raises(UnknownFingerprint) as info:
        fetch_share("ghost", cluster.links[2])
    assert info.value.points == (3,)


def test_fetch_share_from_a_failing_store_is_a_transport_error():
    cluster = _cluster_with_failing_stores([3])
    with pytest.raises(TransportError, match=r"^server 3: disk gone \(code 3\)$"):
        fetch_share("cam", cluster.links[2])


def test_query_with_two_failing_stores_loses_the_quorum():
    cluster = make_cluster()
    base, near, _ = sample_pair(34)
    enroll(base, "cam", CFG, cluster.links, random.Random(1))
    for u in (2, 4):
        cluster.servers[u].store = _FailingStore(u, SCHEME.field)
    with pytest.raises(QuorumNotReached) as info:
        query_residual(near, "cam", CFG, cluster.links, random.Random(2))
    assert (info.value.responded, info.value.required) == (2, 3)
    for u in (2, 4):
        assert f"server {u}: disk gone (code 3)" in str(info.value)


def test_tcp_misrouted_servers_lose_the_quorum_not_the_image():
    # Points 1 and 2 are given each other's address: each server refuses
    # the other's share.  The image fits; the query lost its quorum.
    clouds = [CloudServer(u, CFG) for u in SCHEME.evaluation_points]
    servers = [start_server(cloud) for cloud in clouds]
    addresses = [srv.server_address for srv in servers]
    addresses[0], addresses[1] = addresses[1], addresses[0]
    good = [TcpLink(u, srv.server_address) for u, srv in zip(SCHEME.evaluation_points, servers)]
    swapped = [TcpLink(u, a) for u, a in zip(SCHEME.evaluation_points, addresses)]
    try:
        base, near, _ = sample_pair(35, shape=(16, 16))
        enroll(base, "cam", CFG, good, random.Random(1))
        with pytest.raises(QuorumNotReached) as info:
            query_residual(near, "cam", CFG, swapped, random.Random(2))
        assert "share for point 1 at server 2" in str(info.value)
        assert "share for point 2 at server 1" in str(info.value)
    finally:
        stop(good + swapped, servers)
