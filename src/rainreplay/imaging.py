"""Image container, PPM output, quality metrics, and gradient-orientation descriptors.

Everything in this module is a pure function on immutable inputs, except the
border helpers that work in place and the optional output buffers of the
padding and Laplacian helpers; arrays are float64 in [0, 1] unless stated
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PSNR_CAP_DB = 100.0
_PSNR_MSE_FLOOR = 1e-10

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
# the normalized 1-D Gaussian whose outer product with itself is the window
_SSIM_GAUSSIAN = np.exp(-((np.arange(SSIM_WINDOW) - (SSIM_WINDOW - 1) / 2.0) ** 2)
                        / (2.0 * SSIM_SIGMA**2))
_SSIM_GAUSSIAN /= _SSIM_GAUSSIAN.sum()

HOG_CELL_SIZE = 8
HOG_BINS = 9
KL_EPS = 1e-8

# BT.601 luma weights
LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

LAPLACIAN_KERNEL = np.array(
    [[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]
)
# (k, l, coefficient) of each nonzero tap, in row-major order; Python floats,
# which take the dtype of the array they multiply (a float32 batch stays float32)
_LAPLACIAN_TAPS = [(k, l, float(c))
                   for (k, l), c in np.ndenumerate(LAPLACIAN_KERNEL) if c != 0.0]


class ShapeError(ValueError):
    """Operands have incompatible dimensions or channel counts."""


class WindowError(ValueError):
    """Image too small for the requested filter window."""


@dataclass(frozen=True)
class Image:
    """H x W x C grid of real intensities in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ShapeError(f"expected HxWx{{1,3}} array, got shape {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]

    def luma(self) -> np.ndarray:
        """Single-channel BT.601 luminance as a 2-D array."""
        if self.channels == 1:
            return self.data[:, :, 0]
        return self.data @ LUMA_WEIGHTS


@dataclass(frozen=True)
class HogDescriptor:
    """Global normalized orientation histogram (sums to 1)."""

    bins: int
    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if vals.shape != (self.bins,):
            raise ShapeError(f"expected {self.bins} values, got shape {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _check_same_shape(a: Image, b: Image):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"shape mismatch: {a.data.shape} vs {b.data.shape}")


def psnr(a: Image, b: Image) -> float:
    """Peak signal-to-noise ratio in dB on the [0, 1] range, capped at 100."""
    _check_same_shape(a, b)
    mse = float(np.mean((a.data - b.data) ** 2))
    if mse < _PSNR_MSE_FLOOR:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(1.0 / mse))


@lru_cache
def _gaussian_rows(n: int) -> np.ndarray:
    """(n - SSIM_WINDOW + 1) x n banded matrix, built once per n and read-only,
    whose row i holds ``_SSIM_GAUSSIAN`` in columns i .. i + SSIM_WINDOW - 1:
    ``rows @ x`` filters x's first axis at every valid window position."""
    i = np.arange(n - SSIM_WINDOW + 1)[:, None]
    rows = np.zeros((i.size, n))
    rows[i, i + np.arange(SSIM_WINDOW)] = _SSIM_GAUSSIAN
    rows.flags.writeable = False
    return rows


def ssim(a: Image, b: Image) -> float:
    """Mean structural similarity over valid 11x11 Gaussian windows, per channel.

    The window is the outer product of a 1-D Gaussian with itself, so each
    local mean is ``rows @ x @ cols.T``: two matrix products, made for the
    five maps a, b, a², b² and ab of every channel at once."""
    _check_same_shape(a, b)
    if a.height < SSIM_WINDOW or a.width < SSIM_WINDOW:
        raise WindowError(
            f"image {a.height}x{a.width} smaller than {SSIM_WINDOW}x{SSIM_WINDOW} window"
        )
    x, y = np.moveaxis(a.data, 2, 0), np.moveaxis(b.data, 2, 0)
    # one expression, so that each product's operand is freed as it is used
    mu_a, mu_b, e_aa, e_bb, e_ab = (
        _gaussian_rows(a.height) @ np.stack([x, y, x * x, y * y, x * y])
        @ _gaussian_rows(a.width).T)
    c1, c2 = SSIM_K1**2, SSIM_K2**2
    var_a = e_aa - mu_a**2
    var_b = e_bb - mu_b**2
    cov = e_ab - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return float(np.mean(np.mean(num / den, axis=(1, 2))))


def _unit_gradient(f: np.ndarray) -> np.ndarray:
    """``np.gradient`` along the first axis at unit spacing: central
    differences inside, one-sided ones at the two ends."""
    g = np.empty(f.shape)
    np.subtract(f[2:], f[:-2], out=g[1:-1])
    g[1:-1] /= 2.0
    np.subtract(f[1], f[0], out=g[0])
    np.subtract(f[-1], f[-2], out=g[-1])
    return g


def _orientation_votes(gray: np.ndarray, bins: int):
    """Magnitude-weighted orientation votes, linearly split between bins.

    Unsigned orientations in [0, 180); bin centers at (i + 0.5) * 180 / bins.
    The gradients are ``np.gradient``'s at unit spacing, the orientation is
    ``arctan2`` folded by ``% 180`` and the votes are summed in pixel order,
    low votes before high votes; each step is written out here so that it
    reuses its temporaries.
    """
    gy, gx = _unit_gradient(gray), _unit_gradient(gray.T).T
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx, out=gy), out=gy)
    del gx
    # % 180.0 on arctan2's range [-180, 180]: +-180 go to 0, negatives gain 180.
    ang[ang == 180.0] = 0.0
    np.add(ang, 180.0, out=ang, where=ang < 0.0)

    ang /= 180.0 / bins
    pos = np.subtract(ang, 0.5, out=ang)  # fractional bin index relative to centers
    floor = np.floor(pos)
    lo = floor.astype(np.intp)  # in [-1, bins - 1]
    frac = np.subtract(pos, floor, out=pos)
    del floor
    hi = lo + 1
    hi[hi == bins] = 0
    lo[lo < 0] += bins

    low = np.subtract(1.0, frac)
    low *= mag
    hist = np.bincount(lo.ravel(), weights=low.ravel(), minlength=bins)
    del lo, low
    frac *= mag
    np.add.at(hist, hi.ravel(), frac.ravel())
    return hist


def hog(img: Image) -> HogDescriptor:
    """Global HOG: all cell histograms summed into one normalized histogram."""
    if img.height < HOG_CELL_SIZE or img.width < HOG_CELL_SIZE:
        raise ShapeError(
            f"image {img.height}x{img.width} smaller than one {HOG_CELL_SIZE}px cell"
        )
    gray = img.luma()
    # Crop to whole cells so every vote belongs to a complete cell.
    h = (gray.shape[0] // HOG_CELL_SIZE) * HOG_CELL_SIZE
    w = (gray.shape[1] // HOG_CELL_SIZE) * HOG_CELL_SIZE
    hist = _orientation_votes(gray[:h, :w], HOG_BINS)

    total = hist.sum()
    if total < 1e-12:
        return HogDescriptor(
            bins=HOG_BINS, values=np.full(HOG_BINS, 1.0 / HOG_BINS), degenerate=True
        )
    return HogDescriptor(bins=HOG_BINS, values=hist / total)


def kl_divergence(p: HogDescriptor, q: HogDescriptor) -> float:
    """Smoothed KL divergence sum(p * log(p / q)); nonnegative."""
    if p.bins != q.bins:
        raise ShapeError(f"bin-count mismatch: {p.bins} vs {q.bins}")
    pv = p.values + KL_EPS
    qv = q.values + KL_EPS
    pv = pv / pv.sum()
    qv = qv / qv.sum()
    return float(np.sum(pv * np.log(pv / qv)))


def pad_replicate(x: np.ndarray, out=None) -> np.ndarray:
    """x padded by one replicated pixel on each side of its last two axes,
    written into ``out`` if given."""
    h, w = x.shape[-2:]
    xp = np.empty(x.shape[:-2] + (h + 2, w + 2)) if out is None else out
    xp[..., 1:-1, 1:-1] = x
    return fill_replicate_border(xp)


def fill_replicate_border(xp: np.ndarray) -> np.ndarray:
    """In place: set the one-pixel border of xp's last two axes to copies of
    the nearest interior pixels, so xp is ``pad_replicate`` of its interior.
    Returns xp."""
    xp[..., 0, 1:-1] = xp[..., 1, 1:-1]
    xp[..., -1, 1:-1] = xp[..., -2, 1:-1]
    xp[..., :, 0] = xp[..., :, 1]
    xp[..., :, -1] = xp[..., :, -2]
    return xp


def fold_replicate_border(dxp: np.ndarray) -> np.ndarray:
    """In place: the adjoint of ``fill_replicate_border``. Adds each border
    value of dxp's last two axes onto the interior pixel it was copied from,
    then zeroes the border, so the interior holds the gradient of the
    unpadded array. Returns dxp."""
    dxp[..., 1, 1:-1] += dxp[..., 0, 1:-1]
    dxp[..., -2, 1:-1] += dxp[..., -1, 1:-1]
    dxp[..., 1:-1, 1] += dxp[..., 1:-1, 0]
    dxp[..., 1:-1, -2] += dxp[..., 1:-1, -1]
    dxp[..., 1, 1] += dxp[..., 0, 0]
    dxp[..., 1, -2] += dxp[..., 0, -1]
    dxp[..., -2, 1] += dxp[..., -1, 0]
    dxp[..., -2, -2] += dxp[..., -1, -1]
    dxp[..., 0, :] = 0.0
    dxp[..., -1, :] = 0.0
    dxp[..., :, 0] = 0.0
    dxp[..., :, -1] = 0.0
    return dxp


def laplacian_batch(x: np.ndarray, out=None, *, padded=None, tmp=None) -> np.ndarray:
    """4-neighbor Laplacian over the last two axes, replicate-padded borders.

    The taps are summed in ``LAPLACIAN_KERNEL`` row-major order. Optional
    buffers: ``out`` for the result, ``padded`` for x's padded frame and
    ``tmp`` for one tap's term, shaped like x.
    """
    xp = pad_replicate(x, out=padded)
    h, w = x.shape[-2:]
    out = np.empty(x.shape) if out is None else out
    out.fill(0.0)
    tmp = np.empty(x.shape) if tmp is None else tmp
    for k, l, c in _LAPLACIAN_TAPS:
        out += np.multiply(xp[..., k : k + h, l : l + w], c, out=tmp)
    return out


def laplacian_batch_adjoint(dout: np.ndarray, out=None, *, tmp=None) -> np.ndarray:
    """Adjoint of ``laplacian_batch``, returned as the interior of a padded
    frame, ``out`` if given; ``tmp``, shaped like dout, may hold one tap's
    term."""
    h, w = dout.shape[-2:]
    dxp = np.empty(dout.shape[:-2] + (h + 2, w + 2)) if out is None else out
    dxp.fill(0.0)
    tmp = np.empty(dout.shape) if tmp is None else tmp
    for k, l, c in _LAPLACIAN_TAPS:
        dxp[..., k : k + h, l : l + w] += np.multiply(dout, c, out=tmp)
    return fold_replicate_border(dxp)[..., 1:-1, 1:-1]


def write_ppm(img: Image, path):
    magic = b"P6" if img.channels == 3 else b"P5"
    quantized = np.rint(np.clip(img.data, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (img.width, img.height))
        fh.write(quantized.tobytes())
