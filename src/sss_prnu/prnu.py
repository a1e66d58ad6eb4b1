"""Plaintext PRNU pipeline: denoise, residual, fingerprint, correlation.

A camera sensor leaves a multiplicative noise pattern in every photo it
takes: the observed image is roughly scene * (1 + X) + noise, where X
is a fixed per-device pattern with magnitude well below 1.  Subtracting
a denoised copy of the image isolates an estimate of scene * X; the
mean of many such residuals is the camera fingerprint.  Attribution of
a query image then reduces to Pearson correlation between the query's
residual and the enrolled fingerprint.

Everything here operates on plain 2-D float64 arrays (row-major, shape
(height, width)) and is deterministic, which lets the same functions
double as the reference oracle for the encrypted pipeline.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np


class EmptySet(ValueError):
    """Fingerprint estimation over zero images."""


class DimensionMismatch(ValueError):
    """Matrices that should agree in shape do not."""


class DegenerateInput(ValueError):
    """Correlation of a zero-variance matrix is undefined."""


@dataclass(frozen=True)
class GaussianDenoiser:
    """Separable Gaussian low-pass filter with edge-replicated borders.

    The kernel is the sampled Gaussian exp(-i^2 / (2 sigma^2)) for
    i in [-radius, radius], normalized to sum 1, applied along rows
    then columns.  Deterministic and linear, so residual oracles can be
    computed by direct convolution.
    """

    sigma: float = 1.0
    radius: int = 2

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.radius < 1:
            raise ValueError("radius must be at least 1")

    def kernel(self) -> np.ndarray:
        offsets = np.arange(-self.radius, self.radius + 1, dtype=np.float64)
        k = np.exp(-(offsets**2) / (2.0 * self.sigma**2))
        return k / k.sum()


def _convolve_axis(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1-D correlation along one axis with edge replication.

    The kernel is symmetric, so correlation and convolution coincide.
    """
    r = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (r, r)
    padded = np.pad(arr, pad, mode="edge")
    out = np.zeros(arr.shape, dtype=np.float64)
    h, w = arr.shape
    for k, weight in enumerate(kernel):
        if axis == 0:
            out += weight * padded[k : k + h, :]
        else:
            out += weight * padded[:, k : k + w]
    return out


def denoise(img: np.ndarray, f: GaussianDenoiser = GaussianDenoiser()) -> np.ndarray:
    """Smoothed copy of the image, same shape as the input."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    k = f.kernel()
    return _convolve_axis(_convolve_axis(img, k, axis=1), k, axis=0)


def extract_residual(
    img: np.ndarray, f: GaussianDenoiser = GaussianDenoiser()
) -> np.ndarray:
    """High-frequency residual: the image minus its denoised copy.

    By construction img == denoise(img) + residual exactly.
    """
    img = np.asarray(img, dtype=np.float64)
    return img - denoise(img, f)


def estimate_fingerprint(
    imgs: Sequence[np.ndarray], f: GaussianDenoiser = GaussianDenoiser()
) -> np.ndarray:
    """Mean residual over an enrollment set.

    Averaging suppresses the additive shot noise (which is independent
    per exposure) while the multiplicative sensor pattern survives.
    """
    if len(imgs) == 0:
        raise EmptySet("fingerprint estimation needs at least one image")
    first = np.asarray(imgs[0], dtype=np.float64)
    acc = extract_residual(first, f)
    for img in imgs[1:]:
        img = np.asarray(img, dtype=np.float64)
        if img.shape != first.shape:
            raise DimensionMismatch(
                f"image shape {img.shape} differs from {first.shape}"
            )
        acc = acc + extract_residual(img, f)
    return acc / len(imgs)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of two matrices, flattened.

    r = sum(a*b) / sqrt(sum(a^2) * sum(b^2)) over mean-centered copies
    a, b.  The encrypted pipeline reproduces exactly this quantity, so
    the formula here is kept in the same P / sqrt(Q * R) shape.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"shapes {x.shape} and {y.shape} differ")
    a = x.ravel() - x.mean()
    b = y.ravel() - y.mean()
    q = float(np.dot(a, a))
    r_ = float(np.dot(b, b))
    if q == 0.0 or r_ == 0.0:
        raise DegenerateInput("constant matrix has no correlation")
    p = float(np.dot(a, b))
    return p / math.sqrt(q * r_)


def match_decision(r: float, threshold: float) -> bool:
    """True when the correlation reaches the threshold (inclusive)."""
    return r >= threshold


@dataclass
class SyntheticCamera:
    """Test-data generator that behaves like a noisy sensor.

    Holds a fixed multiplicative pattern and a private RNG; every call
    to shoot() renders a fresh smooth scene, imprints the pattern, and
    adds independent shot noise.  Images from the same seed sequence
    are bit-for-bit reproducible.
    """

    pattern: np.ndarray
    shot_noise_sigma: float
    rng: np.random.Generator

    @classmethod
    def create(
        cls,
        width: int,
        height: int,
        seed: int,
        pattern_std: float = 0.02,
        shot_noise_sigma: float = 2.0,
    ) -> "SyntheticCamera":
        rng = np.random.default_rng(seed)
        pattern = rng.normal(0.0, pattern_std, size=(height, width))
        return cls(pattern=pattern, shot_noise_sigma=shot_noise_sigma, rng=rng)

    def shoot(self) -> np.ndarray:
        """One exposure: smooth scene, multiplicative pattern, shot noise."""
        h, w = self.pattern.shape
        rough = self.rng.normal(0.0, 1.0, size=(h, w))
        # Heavy blur turns white noise into a plausible smooth scene.
        scene_blur = GaussianDenoiser(sigma=3.0, radius=6)
        scene = 128.0 + 40.0 * denoise(rough, scene_blur)
        raw = scene * (1.0 + self.pattern) + self.rng.normal(
            0.0, self.shot_noise_sigma, size=(h, w)
        )
        return np.clip(raw, 0.0, 255.0)


# ---------------------------------------------------------------------------
# File formats: binary PGM for images, NMAT for real matrices.

_BT601 = (0.299, 0.587, 0.114)


def _read_pnm_tokens(fh: BinaryIO, count: int) -> list[int]:
    """Read whitespace-separated header tokens, skipping # comments."""
    tokens: list[int] = []
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated PNM header")
        if ch.isspace():
            continue
        if ch == b"#":
            while ch not in (b"\n", b"\r", b""):
                ch = fh.read(1)
            continue
        tok = ch
        while True:
            ch = fh.read(1)
            if not ch or ch.isspace():
                break
            tok += ch
        if not tok.isdigit():
            raise ValueError(f"bad PNM header token {tok!r}")
        tokens.append(int(tok))
    return tokens


def _read_body(fh: BinaryIO, count: int, what: str) -> bytes:
    """The next `count` bytes of file `fh`.  A file that holds fewer is
    refused as truncated before the read, so that a header cannot make it
    ask for more memory than the file has bytes."""
    if os.fstat(fh.fileno()).st_size - fh.tell() < count:
        raise ValueError(f"truncated {what}")
    return fh.read(count)


def read_pgm(path: str) -> np.ndarray:
    """Load a binary PGM (P5) or PPM (P6) as a float64 luminance matrix.

    Color input is collapsed to luma with the BT.601 weights.
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise ValueError(f"unsupported PNM magic {magic!r}")
        width, height, maxval = _read_pnm_tokens(fh, 3)
        if maxval != 255:
            raise ValueError(f"only maxval 255 is supported, got {maxval}")
        channels = 1 if magic == b"P5" else 3
        body = _read_body(fh, width * height * channels, "PNM pixel data")
    data = np.frombuffer(body, dtype=np.uint8).astype(np.float64)
    if channels == 1:
        return data.reshape(height, width)
    rgb = data.reshape(height, width, 3)
    return rgb[:, :, 0] * _BT601[0] + rgb[:, :, 1] * _BT601[1] + rgb[:, :, 2] * _BT601[2]


def write_pgm(path: str, img: np.ndarray) -> None:
    """Store a matrix as binary PGM, rounding and clipping to [0, 255]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    h, w = img.shape
    quantized = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quantized.tobytes())


_NMAT_MAGIC = b"NMAT"
_NMAT_HEADER = struct.Struct(">II")


def write_nmat(path: str, mat: np.ndarray) -> None:
    """Store a float64 matrix: magic, width, height, big-endian values."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("expected a nonempty 2-D matrix")
    h, w = mat.shape
    with open(path, "wb") as fh:
        fh.write(_NMAT_MAGIC)
        fh.write(_NMAT_HEADER.pack(w, h))
        fh.write(np.ascontiguousarray(mat, dtype=">f8").tobytes())


def read_nmat(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _NMAT_MAGIC:
            raise ValueError(f"bad matrix magic {magic!r}")
        header = fh.read(_NMAT_HEADER.size)
        if len(header) != _NMAT_HEADER.size:
            raise ValueError("truncated matrix header")
        w, h = _NMAT_HEADER.unpack(header)
        body = _read_body(fh, w * h * 8, "matrix data")
    return np.frombuffer(body, dtype=">f8").astype(np.float64).reshape(h, w)
