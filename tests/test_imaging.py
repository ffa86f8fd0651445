import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rainreplay import imaging
from rainreplay.imaging import (
    Image, ShapeError, WindowError,
    hog, kl_divergence, laplacian_batch, psnr, ssim, write_ppm,
)
from rainreplay.synthdata import render_rain_layer

import oracles
from conftest import rain_params, random_image
from oracles import PpmParseError, read_ppm


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------


def psnr_oracle(a, b):
    total = 0.0
    count = 0
    for y in range(a.height):
        for x in range(a.width):
            for c in range(a.channels):
                d = a.data[y, x, c] - b.data[y, x, c]
                total += d * d
                count += 1
    mse = total / count
    if mse < 1e-10:
        return 100.0
    return 10.0 * np.log10(1.0 / mse)


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    win = np.outer(g, g)
    return win / win.sum()


def ssim_oracle(a, b):
    """Direct per-window evaluation, one valid window position at a time."""
    win = _gaussian_window(11, 1.5)
    c1, c2 = 0.01**2, 0.03**2
    per_channel = []
    for c in range(a.channels):
        vals = []
        for y in range(a.height - 10):
            for x in range(a.width - 10):
                pa = a.data[y : y + 11, x : x + 11, c]
                pb = b.data[y : y + 11, x : x + 11, c]
                mu_a = np.sum(win * pa)
                mu_b = np.sum(win * pb)
                va = np.sum(win * pa * pa) - mu_a**2
                vb = np.sum(win * pb * pb) - mu_b**2
                cov = np.sum(win * pa * pb) - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (va + vb + c2)
                vals.append(num / den)
        per_channel.append(np.mean(vals))
    return float(np.mean(per_channel))


def kl_oracle(p, q):
    eps = 1e-8
    pv = [v + eps for v in p]
    qv = [v + eps for v in q]
    ps, qs = sum(pv), sum(qv)
    total = 0.0
    for a, b in zip(pv, qv):
        a, b = a / ps, b / qs
        total += a * np.log(a / b)
    return total


def laplacian_oracle(img):
    k = [[0, 1, 0], [1, -4, 1], [0, 1, 0]]
    out = np.zeros_like(img.data)
    h, w = img.height, img.width
    for c in range(img.channels):
        for y in range(h):
            for x in range(w):
                acc = 0.0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy = min(max(y + dy, 0), h - 1)
                        xx = min(max(x + dx, 0), w - 1)
                        acc += k[dy + 1][dx + 1] * img.data[yy, xx, c]
                out[y, x, c] = acc
    return out


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def test_psnr_identity_cap(rng):
    img = random_image(rng)
    assert psnr(img, img) == 100.0


def test_psnr_uniform_closed_form():
    a = Image(np.full((8, 8, 3), 0.5))
    b = Image(np.full((8, 8, 3), 0.6))
    assert psnr(a, b) == pytest.approx(20.0, abs=1e-9)


def test_psnr_matches_scalar_oracle(rng):
    a = random_image(rng)
    b = random_image(rng)
    assert psnr(a, b) == pytest.approx(psnr_oracle(a, b), abs=1e-9)


def test_psnr_symmetric(rng):
    a = random_image(rng)
    b = random_image(rng)
    assert psnr(a, b) == psnr(b, a)


def test_psnr_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        psnr(random_image(rng, 16, 16), random_image(rng, 16, 17))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------


def test_ssim_self_similarity(rng):
    img = random_image(rng, 16, 16)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images_hand_formula():
    # means 0 and 1, zero variances: SSIM = C1*C2 / ((1+C1)*C2) = C1/(1+C1)
    a = Image(np.zeros((16, 16, 1)))
    b = Image(np.ones((16, 16, 1)))
    c1 = 0.01**2
    expected = c1 / (1.0 + c1)
    assert ssim(a, b) == pytest.approx(expected, rel=1e-9)
    assert ssim(a, b) < 1e-3  # near zero for maximally different constants


def test_ssim_matches_window_oracle(rng):
    a = random_image(rng, 32, 32)
    b = random_image(rng, 32, 32)
    assert ssim(a, b) == pytest.approx(ssim_oracle(a, b), abs=1e-9)


def test_ssim_symmetric(rng):
    a = random_image(rng, 16, 16)
    b = random_image(rng, 16, 16)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def _ssim_operand(rng, shape, kind):
    if kind == "random":
        return Image(rng.uniform(0.0, 1.0, shape))
    if kind == "quantised":  # 8-bit levels, as read from a PPM
        return Image(rng.integers(0, 256, shape) / 255.0)
    return Image(np.broadcast_to(rng.uniform(0.0, 1.0, shape[-1]), shape))


@settings(max_examples=100, deadline=None)
@given(h=st.integers(11, 40), w=st.integers(11, 40), c=st.sampled_from([1, 3]),
       kinds=st.tuples(*[st.sampled_from(["random", "quantised", "constant"])] * 2),
       seed=st.integers(0, 2**32 - 1))
def test_ssim_matches_window_oracle_on_any_shape(h, w, c, kinds, seed):
    rng = np.random.default_rng(seed)
    a, b = (_ssim_operand(rng, (h, w, c), kind) for kind in kinds)
    assert abs(ssim(a, b) - ssim_oracle(a, b)) <= 1e-12
    assert abs(ssim(a, b) - ssim(b, a)) <= 1e-12


def test_ssim_allocates_under_one_mib_at_64px():
    # The five stacked maps of a 64 px RGB pair and their row-filtered
    # product take 0.86 MiB at once; copying every 11x11 window took 2.8 MiB.
    rng = np.random.default_rng(4)
    a, b = random_image(rng, 64, 64), random_image(rng, 64, 64)
    ssim(a, b)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_ssim_too_small():
    a = Image(np.zeros((8, 8, 1)))
    with pytest.raises(WindowError):
        ssim(a, a)


# ---------------------------------------------------------------------------
# HOG
# ---------------------------------------------------------------------------


def test_hog_constant_image_uniform():
    img = Image(np.full((16, 16, 1), 0.5))
    d = hog(img)
    assert d.degenerate
    assert np.allclose(d.values, 1.0 / 9.0)


def test_hog_vertical_ramp_90_degrees():
    # intensity increasing downward: gradient points at 90 degrees
    ramp = np.tile(np.linspace(0.0, 1.0, 32)[:, None], (1, 32))
    d = hog(Image(ramp[:, :, None]))
    bin_90 = int(90.0 // 20.0)  # bin spanning [80, 100)
    assert d.values[bin_90] >= 0.99


def test_hog_45_degree_streaks():
    layer = render_rain_layer(rain_params(angle=45.0, angle_std=0.5), 64, seed=9)
    d = hog(layer)
    argmax = int(np.argmax(d.values))
    lo, hi = argmax * 20.0, (argmax + 1) * 20.0
    assert lo <= 45.0 < hi


def test_hog_sums_to_one_and_shift_invariant(rng):
    img = random_image(rng, 24, 24, 1)
    d = hog(img)
    assert np.sum(d.values) == pytest.approx(1.0, abs=1e-9)
    shifted = Image(np.clip(img.data * 0.5 + 0.25, 0, 1) - 0.25 + 0.3)
    # same gradients after adding a constant to a half-scaled copy
    half = Image(img.data * 0.5)
    half_shift = Image(img.data * 0.5 + 0.2)
    assert np.allclose(hog(half).values, hog(half_shift).values, atol=1e-12)


def test_hog_rot90_permutes_argmax():
    for angle, rotated_angle in ((0.0, 90.0), (90.0, 0.0)):
        layer = render_rain_layer(rain_params(angle=angle, angle_std=0.5), 64, seed=4)
        rot = Image(np.rot90(layer.data[:, :, 0])[:, :, None])
        a1 = int(np.argmax(hog(layer).values))
        a2 = int(np.argmax(hog(rot).values))
        assert a1 * 20 <= angle < (a1 + 1) * 20
        assert a2 * 20 <= rotated_angle < (a2 + 1) * 20


def test_hog_too_small():
    with pytest.raises(ShapeError):
        hog(Image(np.zeros((4, 4, 1))))


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(h=st.integers(8, 64), w=st.integers(8, 64), bins=st.sampled_from([2, 9, 18]),
       levels=st.sampled_from([None, 1, 4]), view=st.sampled_from(["whole", "strided"]),
       seed=st.integers(0, 2**16))
def test_orientation_votes_equal_the_gradient_oracle(h, w, bins, levels, view, seed):
    """Quantised images add flat runs and exact 0, 45, 90 and 180 degree
    gradients to the random ones; a strided view is voted as it stands."""
    gray = np.random.default_rng(seed).uniform(0.0, 1.0, (h, w))
    if levels is not None:
        gray = np.round(gray * levels) / levels
    if view == "strided":
        gray = np.random.default_rng(seed).uniform(0.0, 1.0, (2 * h, w + 3))[::2, 3:]
    assert _same_bits(imaging._orientation_votes(gray, bins),
                      oracles.orientation_votes(gray, bins))


@pytest.mark.parametrize("bins", [2, 9, 18])
def test_orientation_votes_equal_the_oracle_on_flat_and_signed_zero_images(bins):
    flat = np.full((16, 16), 0.3)
    assert _same_bits(imaging._orientation_votes(flat, bins), np.zeros(bins))
    assert _same_bits(imaging._orientation_votes(flat, bins),
                      oracles.orientation_votes(flat, bins))
    # Pixels of 1.0, 0.0 and -0.0: gradients of -0.0, and voting pixels whose
    # arctan2 is exactly 180 (arctan2(0, -1)), exactly -180 and -0.0 degrees.
    signed = np.random.default_rng(1).choice(np.array([1.0, 0.0, -0.0]), (8, 8))
    gy, gx = np.gradient(signed)
    ang = np.degrees(np.arctan2(gy, gx))[np.hypot(gx, gy) > 0.0]
    assert np.signbit(gy[gy == 0.0]).any()
    assert (ang == 180.0).any() and (ang == -180.0).any()
    assert np.signbit(ang[ang == 0.0]).any()
    assert _same_bits(imaging._orientation_votes(signed, bins),
                      oracles.orientation_votes(signed, bins))


# ---------------------------------------------------------------------------
# KL divergence
# ---------------------------------------------------------------------------


def _descriptor(vals):
    vals = np.asarray(vals, dtype=float)
    return imaging.HogDescriptor(bins=len(vals), values=vals / vals.sum())


def test_kl_identity(rng):
    p = _descriptor(rng.uniform(0.1, 1.0, 9))
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)


def test_kl_closed_form_ln2():
    p = _descriptor([1.0, 1e-30])
    q = _descriptor([0.5, 0.5])
    assert kl_divergence(p, q) == pytest.approx(np.log(2), abs=1e-5)


def test_kl_matches_scalar_oracle(rng):
    p = rng.uniform(0.01, 1.0, 9)
    q = rng.uniform(0.01, 1.0, 9)
    dp = _descriptor(p)
    dq = _descriptor(q)
    assert kl_divergence(dp, dq) == pytest.approx(
        kl_oracle(dp.values, dq.values), abs=1e-12)


def test_kl_nonnegative_many_trials():
    rng = np.random.default_rng(777)
    for _ in range(10_000):
        p = _descriptor(rng.uniform(1e-6, 1.0, 9))
        q = _descriptor(rng.uniform(1e-6, 1.0, 9))
        assert kl_divergence(p, q) >= 0.0


def test_kl_bin_mismatch():
    with pytest.raises(ShapeError):
        kl_divergence(_descriptor(np.ones(9)), _descriptor(np.ones(8)))


# ---------------------------------------------------------------------------
# Laplacian
# ---------------------------------------------------------------------------


def planes(x):
    """An H x W x C array as the (C, H, W) view that ``laplacian_batch`` takes."""
    return np.moveaxis(x, 2, 0)


def test_laplacian_constant_is_zero():
    img = Image(np.full((8, 8, 3), 0.37))
    assert np.allclose(laplacian_batch(planes(img.data)), 0.0, atol=1e-14)


def test_laplacian_impulse_response():
    data = np.zeros((7, 7, 1))
    data[3, 3, 0] = 1.0
    out = laplacian_batch(planes(Image(data).data))[0]
    assert out[3, 3] == -4.0
    for y, x in ((2, 3), (4, 3), (3, 2), (3, 4)):
        assert out[y, x] == 1.0
    assert np.sum(np.abs(out)) == 8.0


def test_laplacian_matches_loop_oracle(rng):
    img = random_image(rng, 8, 8, 3)
    assert np.allclose(laplacian_batch(planes(img.data)),
                       planes(laplacian_oracle(img)), atol=1e-12)


# ---------------------------------------------------------------------------
# PPM output, read back by the reader in oracles.py
# ---------------------------------------------------------------------------


def test_ppm_roundtrip(rng, tmp_path):
    img = random_image(rng, 9, 13, 3)
    path = tmp_path / "img.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    quantized = np.rint(img.data * 255.0) / 255.0
    assert np.allclose(back.data, quantized, atol=1e-12)


def test_pgm_roundtrip(rng, tmp_path):
    img = random_image(rng, 5, 5, 1)
    path = tmp_path / "img.pgm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert back.channels == 1
    assert np.allclose(back.data, np.rint(img.data * 255.0) / 255.0)


@settings(max_examples=60, deadline=None)
@given(data=hnp.arrays(np.float64,
                       st.tuples(st.integers(1, 24), st.integers(1, 24),
                                 st.sampled_from([1, 3])),
                       elements=st.floats(0.0, 1.0)))
def test_ppm_roundtrip_quantizes_to_the_nearest_level(tmp_path_factory, data):
    """The file holds rint(clip(x) * 255) per sample, so reading it back gives
    that level over 255 exactly, within half a level of x. The half-level
    bound allows 1e-15 for the rounding of x * 255 and of the division."""
    img = Image(data)
    path = tmp_path_factory.mktemp("ppm") / "img.ppm"
    write_ppm(img, path)
    back = read_ppm(path)
    assert back.data.shape == img.data.shape
    assert np.array_equal(back.data,
                          np.rint(np.clip(img.data, 0.0, 1.0) * 255.0) / 255.0)
    assert np.abs(back.data - img.data).max() <= 0.5 / 255.0 + 1e-15


def test_ppm_minimal_file(tmp_path):
    path = tmp_path / "mini.ppm"
    path.write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
    img = read_ppm(path)
    assert (img.height, img.width, img.channels) == (2, 2, 3)
    assert img.data[0, 0, 1] == pytest.approx(1 / 255)


def test_ppm_truncated_payload(tmp_path):
    path = tmp_path / "trunc.ppm"
    path.write_bytes(b"P6 2 2 255\n" + bytes(5))
    with pytest.raises(PpmParseError, match="expected 12 bytes, got 5"):
        read_ppm(path)


def test_ppm_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3 2 2 255\n")
    with pytest.raises(PpmParseError):
        read_ppm(path)


def test_ppm_comment_in_header(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n# a comment\n2 1 255\n" + bytes(6))
    img = read_ppm(path)
    assert (img.height, img.width) == (1, 2)
