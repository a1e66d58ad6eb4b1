import os

import numpy as np
import pytest

from sss_prnu import (
    DegenerateInput,
    DimensionMismatch,
    EmptySet,
    GaussianDenoiser,
    SyntheticCamera,
    denoise,
    estimate_fingerprint,
    extract_residual,
    match_decision,
    pearson,
    read_nmat,
    read_pgm,
    write_nmat,
    write_pgm,
)
from sss_prnu import prnu

D = GaussianDenoiser()


def test_denoiser_validation():
    with pytest.raises(ValueError):
        GaussianDenoiser(sigma=0.0)
    with pytest.raises(ValueError):
        GaussianDenoiser(radius=0)
    k = D.kernel()
    assert len(k) == 5
    assert k.sum() == pytest.approx(1.0)
    assert k[0] == k[4] and k[1] == k[3]  # symmetric
    assert k[2] == max(k)


def test_denoise_preserves_constants():
    img = np.full((12, 9), 77.0)
    out = denoise(img, D)
    assert out.shape == img.shape
    assert np.allclose(out, 77.0, atol=1e-10)


def test_denoise_impulse_matches_convolution_oracle():
    # A centered unit impulse reads the kernel back out.
    img = np.zeros((9, 9))
    img[4, 4] = 1.0
    out = denoise(img, D)
    k = D.kernel()
    expected = np.zeros((9, 9))
    expected[2:7, 2:7] = np.outer(k, k)
    assert np.array_equal(out, expected)


def test_denoise_preserves_interior_ramp():
    img = np.tile(np.arange(20.0), (10, 1))
    out = denoise(img, D)
    # Symmetric kernel has zero first moment, so a linear ramp passes
    # through untouched away from the replicated edges.
    assert np.allclose(out[:, 2:-2], img[:, 2:-2], atol=1e-9)


def test_residual_is_definitional_difference():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, (16, 16))
    res = extract_residual(img, D)
    assert np.array_equal(res, img - denoise(img, D))
    assert np.allclose(denoise(img, D) + res, img, atol=1e-10)


def test_residual_of_constant_is_zero():
    res = extract_residual(np.full((8, 8), 13.0), D)
    assert np.allclose(res, 0.0, atol=1e-10)


def test_residual_concentrates_at_impulse():
    rng = np.random.default_rng(1)
    clean = denoise(rng.uniform(80, 120, (16, 16)), GaussianDenoiser(sigma=3.0, radius=6))
    spiked = clean.copy()
    spiked[8, 8] += 50.0
    res = extract_residual(spiked, D)
    assert np.unravel_index(np.argmax(np.abs(res)), res.shape) == (8, 8)


def test_estimate_fingerprint_validation():
    with pytest.raises(EmptySet):
        estimate_fingerprint([], D)
    a = np.zeros((4, 4))
    b = np.zeros((4, 5))
    with pytest.raises(DimensionMismatch):
        estimate_fingerprint([a, b], D)


def test_estimate_fingerprint_single_and_repeated():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 255, (12, 12))
    single = estimate_fingerprint([img], D)
    assert np.array_equal(single, extract_residual(img, D))
    repeated = estimate_fingerprint([img, img, img], D)
    assert np.allclose(repeated, single, atol=1e-12)


def test_averaging_improves_pattern_recovery():
    cam = SyntheticCamera.create(32, 32, seed=500)
    imgs = [cam.shoot() for _ in range(20)]
    r_few = pearson(estimate_fingerprint(imgs[:2], D), cam.pattern)
    r_many = pearson(estimate_fingerprint(imgs, D), cam.pattern)
    assert r_many > r_few


def test_pearson_self_and_negation():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, (10, 10))
    assert pearson(x, x) == 1.0
    assert pearson(x, -x) == -1.0


def test_pearson_affine_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, (10, 10))
    assert pearson(x, 2.5 * x + 3.0) == pytest.approx(1.0, abs=1e-9)
    assert match_decision(pearson(x, 0.1 * x + 100.0), 0.99)


def test_pearson_symmetry_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(0, 1, (8, 8))
        y = rng.normal(0, 1, (8, 8))
        r = pearson(x, y)
        assert abs(r) <= 1.0 + 1e-12
        assert r == pytest.approx(pearson(y, x), abs=1e-12)


def test_pearson_degenerate_and_mismatch():
    x = np.ones((4, 4))
    y = np.random.default_rng(6).normal(0, 1, (4, 4))
    with pytest.raises(DegenerateInput):
        pearson(x, y)
    with pytest.raises(DegenerateInput):
        pearson(y, x)
    with pytest.raises(DimensionMismatch):
        pearson(y, np.zeros((4, 5)))


def test_match_decision_reference_points():
    assert match_decision(0.5333, 0.3)
    assert not match_decision(0.0019, 0.3)
    assert match_decision(0.3, 0.3)  # boundary is inclusive


def test_synthetic_cameras_separate():
    cams = [SyntheticCamera.create(32, 32, seed=1000 + i) for i in range(4)]
    prints = [estimate_fingerprint([c.shoot() for _ in range(10)], D) for c in cams]
    queries = [extract_residual(c.shoot(), D) for c in cams]
    same = [pearson(prints[i], queries[i]) for i in range(4)]
    cross = [
        pearson(prints[i], queries[j]) for i in range(4) for j in range(4) if i != j
    ]
    assert min(same) > max(cross)


def test_synthetic_camera_determinism_and_range():
    a = SyntheticCamera.create(16, 16, seed=42)
    b = SyntheticCamera.create(16, 16, seed=42)
    img_a, img_b = a.shoot(), b.shoot()
    assert np.array_equal(img_a, img_b)
    assert img_a.min() >= 0.0 and img_a.max() <= 255.0
    assert not np.array_equal(a.shoot(), img_a)  # next exposure differs


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    img = np.floor(rng.uniform(0, 256, (11, 7)))
    path = os.path.join(tmp_path, "img.pgm")
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == img.shape
    assert np.array_equal(back, img)


def test_pgm_header_comments(tmp_path):
    path = os.path.join(tmp_path, "c.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P5\n# a comment line\n3 2\n# another\n255\n" + bytes(range(6)))
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert np.array_equal(img.ravel(), np.arange(6.0))


def test_ppm_converts_to_luma(tmp_path):
    path = os.path.join(tmp_path, "c.ppm")
    with open(path, "wb") as fh:
        fh.write(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
    img = read_pgm(path)
    assert img.shape == (1, 2)
    assert img[0, 0] == pytest.approx(255 * 0.299)
    assert img[0, 1] == pytest.approx(255 * 0.587)


def test_pgm_rejects_bad_input(tmp_path):
    path = os.path.join(tmp_path, "bad.pgm")
    with open(path, "wb") as fh:
        fh.write(b"P4\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(path)
    with open(path, "wb") as fh:
        fh.write(b"P5\n2 2\n65535\n\x00\x00\x00\x00")
    with pytest.raises(ValueError):
        read_pgm(path)
    with open(path, "wb") as fh:
        fh.write(b"P5\n4 4\n255\n\x00")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_nmat_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    mat = rng.normal(0, 1, (5, 9))
    path = os.path.join(tmp_path, "m.nmat")
    write_nmat(path, mat)
    back = read_nmat(path)
    assert back.shape == mat.shape
    assert np.array_equal(back, mat)


def test_nmat_rejects_bad_input(tmp_path):
    path = os.path.join(tmp_path, "m.nmat")
    with open(path, "wb") as fh:
        fh.write(b"XXXX" + bytes(8))
    with pytest.raises(ValueError):
        read_nmat(path)
    write_nmat(path, np.zeros((2, 2)))
    with open(path, "rb") as fh:
        good = fh.read()
    with open(path, "wb") as fh:
        fh.write(good[:-5])
    with pytest.raises(ValueError):
        read_nmat(path)


class _ReadGuard:
    """A file object that fails any read asking for more bytes than the
    file holds, before it reaches the file."""

    def __init__(self, fh):
        self._fh = fh

    def read(self, size=-1):
        left = os.fstat(self._fh.fileno()).st_size - self._fh.tell()
        assert size <= left, f"read of {size} bytes with {left} left in the file"
        return self._fh.read(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()


@pytest.mark.parametrize(
    "reader, header, message",
    [
        (read_nmat, b"NMAT" + bytes.fromhex("0000ffff0000ffff"), "truncated matrix data"),
        (read_pgm, b"P5\n65535 65535\n255\n", "truncated PNM pixel data"),
    ],
    ids=["nmat", "pgm"],
)
def test_oversized_header_is_refused_before_reading(tmp_path, monkeypatch, reader, header, message):
    path = os.path.join(tmp_path, "huge")
    with open(path, "wb") as fh:
        fh.write(header + bytes(64))
    monkeypatch.setattr(prnu, "open", lambda *a, **k: _ReadGuard(open(*a, **k)), raising=False)
    with pytest.raises(ValueError, match=message):
        reader(path)
