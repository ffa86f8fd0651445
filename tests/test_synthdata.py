from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainreplay import imaging, memgen, synthdata
from rainreplay.imaging import hog, kl_divergence
from rainreplay.synthdata import (
    ConfigError, DatasetSpec, gen_background, make_dataset, make_holdout,
    make_stream, render_rain_layer, streak_count,
)

import oracles
from conftest import dataset_spec, rain_params


def test_background_deterministic():
    a = gen_background(42, 32)
    b = gen_background(42, 32)
    assert np.array_equal(a.data, b.data)


def test_background_range():
    img = gen_background(3, 32)
    assert img.data.min() >= 0.1 - 1e-12
    assert img.data.max() <= 0.9 + 1e-12


@pytest.mark.parametrize("size", [16, 32, 64])
def test_background_matches_the_full_grid_oracle(size):
    """The separable gratings move a pixel by at most a few ulps. Each channel
    still runs from exactly 0.1 to 0.9, the top to within the one ulp by
    which 0.8 * span / span rounds."""
    for seed in range(200):
        got = gen_background(seed, size).data
        assert np.abs(got - oracles.gen_background(seed, size).data).max() <= 4e-15
        assert np.all(got.min(axis=(0, 1)) == 0.1)
        assert np.all(np.abs(got.max(axis=(0, 1)) - 0.9) <= np.spacing(0.9))


def test_background_seeds_differ():
    diffs = []
    for s in range(100):
        a = gen_background(2 * s, 16)
        b = gen_background(2 * s + 1, 16)
        diffs.append(np.mean(np.abs(a.data - b.data)))
    assert min(diffs) > 0.01


def test_rain_layer_zero_streaks():
    params = rain_params(density=0.001)  # rounds to zero streaks at size 32
    assert streak_count(params.density, 32) == 0
    layer = render_rain_layer(params, 32, 1)
    assert np.all(layer.data == 0.0)


def test_rain_layer_angle_argmax():
    layer = render_rain_layer(rain_params(angle=90.0, angle_std=0.0), 64, 7)
    d = hog(layer)
    argmax = int(np.argmax(d.values))
    assert argmax * 20 <= 90 < (argmax + 1) * 20


def test_rain_layer_deterministic():
    params = rain_params()
    a = render_rain_layer(params, 48, 5)
    b = render_rain_layer(params, 48, 5)
    assert np.array_equal(a.data, b.data)


def test_rain_layer_in_range():
    layer = render_rain_layer(rain_params(density=80.0, intensity=0.9), 32, 2)
    assert layer.data.min() >= 0.0
    assert layer.data.max() <= 1.0


def test_make_dataset_single_pair():
    ds = make_dataset(dataset_spec("a", 1, pairs=1))
    assert len(ds) == 1
    rainy, clean = ds.pairs[0]
    assert rainy.data.shape == clean.data.shape


def test_make_dataset_zero_rain_identity():
    spec = dataset_spec("a", 1, pairs=2, density=0.001)
    ds = make_dataset(spec)
    for rainy, clean in ds.pairs:
        assert np.array_equal(rainy.data, clean.data)


def test_make_dataset_additive():
    ds = make_dataset(dataset_spec("a", 9, pairs=4))
    for (rainy, clean), layer in zip(ds.pairs, ds.layers):
        assert np.all(rainy.data >= clean.data - 1e-6)
        recon = np.clip(clean.data + layer.data, 0.0, 1.0)
        assert np.allclose(rainy.data, recon, atol=1e-12)


def test_heavy_vs_light_mean_difference():
    heavy = make_dataset(dataset_spec("h", 5, pairs=50, size=24,
                                      density=45.0, intensity=0.75))
    light = make_dataset(dataset_spec("l", 5, pairs=50, size=24,
                                      density=8.0, intensity=0.3))
    mean_h = np.mean([np.mean(r.data - c.data) for r, c in heavy.pairs])
    mean_l = np.mean([np.mean(r.data - c.data) for r, c in light.pairs])
    assert mean_h > mean_l


def test_pair_generation_order_independent():
    spec = dataset_spec("a", 77, pairs=5)
    ds = make_dataset(spec)
    # regenerating pair 3 in isolation matches the batch result
    rainy, clean, layer = synthdata.make_pair(spec, 3)
    assert np.array_equal(rainy.data, ds.pairs[3][0].data)
    assert np.array_equal(clean.data, ds.pairs[3][1].data)


def test_make_stream_preserves_order():
    specs = [dataset_spec(i, n) for n, i in enumerate("abcd")]
    stream = make_stream(specs)
    assert len(stream) == 4
    assert [s.id for s in stream] == ["a", "b", "c", "d"]


def test_make_stream_duplicate_ids():
    with pytest.raises(ConfigError):
        make_stream([dataset_spec("a", 1), dataset_spec("a", 2)])


def test_make_stream_empty():
    with pytest.raises(ConfigError):
        make_stream([])


def test_angle_separation_kl():
    a = make_dataset(dataset_spec("a", 1, angle=45.0, pairs=10))
    b = make_dataset(dataset_spec("b", 2, angle=135.0, pairs=10))
    from rainreplay.pipeline import aggregate_hog
    ha = aggregate_hog(a.rainy_images)
    hb = aggregate_hog(b.rainy_images)
    assert kl_divergence(ha, hb) > 0.05


def test_holdout_disjoint_seed_and_valid():
    hold = make_holdout(123, pair_count=4, image_size=32)
    assert len(hold) == 4
    for rainy, clean in hold.pairs:
        assert rainy.data.min() >= 0.0 and rainy.data.max() <= 1.0


def test_export_dataset(tmp_path):
    ds = make_dataset(dataset_spec("exp", 4, pairs=2, size=16))
    synthdata.export_dataset(ds, tmp_path)
    d = tmp_path / "exp"
    assert (d / "spec.txt").exists()
    back = oracles.read_ppm(d / "0_rain.ppm")
    quantized = np.rint(ds.pairs[0][0].data * 255.0) / 255.0
    assert np.allclose(back.data, quantized)
    text = (d / "spec.txt").read_text()
    assert "id=exp" in text and "pair_count=2" in text


def test_export_spec_lines_in_field_order(tmp_path):
    ds = make_dataset(dataset_spec("exp", 4, pairs=2, size=16))
    synthdata.export_dataset(ds, tmp_path)
    lines = (tmp_path / "exp" / "spec.txt").read_text().splitlines()
    assert lines[:4] == ["id=exp", "pair_count=2", "image_size=16", "seed=4"]
    r = ds.spec.rain
    assert lines[4:] == [
        f"angle_mean={r.angle_mean}", f"angle_std={r.angle_std}",
        f"length_mean={r.length_mean}", f"length_std={r.length_std}",
        f"width={r.width}", f"density={r.density}",
        f"intensity_mean={r.intensity_mean}", f"intensity_std={r.intensity_std}"]


def test_spec_validation():
    with pytest.raises(ConfigError):
        DatasetSpec(id="x", pair_count=0, seed=1, rain=rain_params())
    with pytest.raises(ConfigError):
        DatasetSpec(id="x", pair_count=1, seed=1, image_size=8, rain=rain_params())
    with pytest.raises(ConfigError):
        rain_params(density=-1.0)


# ---------------------------------------------------------------------------
# the vectorised rasteriser
# ---------------------------------------------------------------------------


def _oracle_streak(canvas, cy, cx, angle_deg, length, width, intensity):
    """One streak at a time, written as a plain per-streak loop body; the
    vectorised draw_streak must match it bit for bit."""
    size_y, size_x = canvas.shape
    ang = np.radians(angle_deg)
    dy, dx = np.cos(ang), -np.sin(ang)
    half = length / 2.0
    y0, x0 = cy - dy * half, cx - dx * half
    y1, x1 = cy + dy * half, cx + dx * half

    margin = width / 2.0 + 1.5
    ylo = max(0, int(np.floor(min(y0, y1) - margin)))
    yhi = min(size_y, int(np.ceil(max(y0, y1) + margin)) + 1)
    xlo = max(0, int(np.floor(min(x0, x1) - margin)))
    xhi = min(size_x, int(np.ceil(max(x0, x1) + margin)) + 1)
    if ylo >= yhi or xlo >= xhi:
        return

    yy, xx = np.mgrid[ylo:yhi, xlo:xhi].astype(np.float64)
    vy, vx = y1 - y0, x1 - x0
    seg_len2 = vy * vy + vx * vx
    if seg_len2 < 1e-12:
        t = np.zeros_like(yy)
    else:
        t = np.clip(((yy - y0) * vy + (xx - x0) * vx) / seg_len2, 0.0, 1.0)
    dist = np.hypot(yy - (y0 + t * vy), xx - (x0 + t * vx))
    coverage = np.clip(width / 2.0 + 0.5 - dist, 0.0, 1.0)
    canvas[ylo:yhi, xlo:xhi] += intensity * coverage


def _oracle_layer(params, size, seed):
    rng = np.random.default_rng(seed)
    canvas = np.zeros((size, size))
    for _ in range(streak_count(params.density, size)):
        angle = rng.normal(params.angle_mean, params.angle_std) % 180.0
        length = float(np.clip(rng.normal(params.length_mean, params.length_std), 2.0, size))
        intensity = float(np.clip(rng.normal(params.intensity_mean, params.intensity_std),
                                  0.0, 1.0))
        cy = rng.uniform(0, size)
        cx = rng.uniform(0, size)
        _oracle_streak(canvas, cy, cx, angle, length, params.width, intensity)
    return np.clip(canvas, 0.0, 1.0)


def _oracle_sample(gen, z, size):
    rng = np.random.default_rng(memgen._latent_seed(z))
    canvas = np.zeros((size, size))
    bin_width = 180.0 / memgen.ANGLE_BINS
    for _ in range(streak_count(gen.density, size)):
        b = rng.choice(memgen.ANGLE_BINS, p=gen.angle_hist)
        angle = (b + rng.uniform()) * bin_width
        length = float(np.clip(rng.normal(gen.length_mean, gen.length_std), 2.0, size))
        intensity = float(np.clip(rng.normal(gen.intensity_mean, gen.intensity_std),
                                  0.0, 1.0))
        _oracle_streak(canvas, rng.uniform(0, size), rng.uniform(0, size),
                       angle, length, gen.width, intensity)
    return np.clip(canvas, 0.0, 1.0)


# Heavy rain, zero angle spread, wide streaks, and long streaks that cross the
# border at every size.
ORACLE_STYLES = {
    "heavy": rain_params(angle=30.0, density=60.0, intensity=0.85),
    "no-spread": rain_params(angle=90.0, angle_std=0.0, density=20.0),
    "wide": rain_params(angle=150.0, width=2.5, density=30.0),
    "long": rain_params(angle=60.0, length=40.0, density=12.0),
}


@pytest.mark.parametrize("style", sorted(ORACLE_STYLES))
@pytest.mark.parametrize("size", [16, 24, 48, 64])
def test_render_rain_layer_matches_per_streak_oracle(style, size):
    params = ORACLE_STYLES[style]
    if style == "heavy":
        assert streak_count(params.density, 64) > 200
    for seed in range(20):
        layer = render_rain_layer(params, size, seed)
        assert np.array_equal(layer.data[:, :, 0], _oracle_layer(params, size, seed))


@pytest.mark.parametrize("size", [16, 40, 64])
def test_sample_rain_matches_per_streak_oracle(size):
    hist = np.arange(1.0, memgen.ANGLE_BINS + 1.0)
    for width, density in ((1.0, 20.0), (2.5, 60.0)):
        gen = memgen.MemoryGenerator(
            id="g", angle_hist=hist / hist.sum(), length_mean=14.0, length_std=6.0,
            width=width, density=density, intensity_mean=0.6, intensity_std=0.3)
        rng = np.random.default_rng(size)
        for _ in range(20):
            z = rng.standard_normal(gen.latent_dim)
            layer = memgen.sample_rain(gen, z, size)
            assert np.array_equal(layer.data[:, :, 0], _oracle_sample(gen, z, size))


def test_draw_streak_scalar_call_and_zero_streaks():
    canvas = np.full((12, 10), 0.25)
    want = canvas.copy()
    _oracle_streak(want, 5.5, 4.0, 33.0, 7.0, 1.5, 0.8)
    synthdata.draw_streak(canvas, 5.5, 4.0, 33.0, 7.0, 1.5, 0.8)
    assert np.array_equal(canvas, want)
    empty = np.array([])
    synthdata.draw_streak(canvas, empty, empty, empty, empty, 1.5, empty)
    assert np.array_equal(canvas, want)


def test_draw_streak_long_and_degenerate_streaks():
    # Two streaks that each span several row blocks and pixel chunks, then
    # one of length 1e-7, which the zero-length guard draws as a dot.
    canvas = np.random.default_rng(0).uniform(0.0, 0.5, (128, 128))
    want = canvas.copy()
    streaks = [(64.0, 64.0, 45.0, 90.0, 0.7), (60.0, 70.0, 135.0, 90.0, 0.4),
               (64.3, 20.7, 10.0, 1e-7, 0.9)]
    for s in streaks:
        _oracle_streak(want, *s[:4], 6.0, s[4])
    cy, cx, ang, length, inten = np.array(streaks).T
    block, chunk = 16, 128
    with mock.patch.object(synthdata, "_ROW_BLOCK", block), \
            mock.patch.object(synthdata, "_PIXEL_CHUNK", chunk):
        synthdata.draw_streak(canvas, cy, cx, ang, length, 6.0, inten)
    # Each long streak covers at least its vertical extent in rows and its
    # length times its width in pixels.
    assert 90.0 * np.cos(np.radians(45.0)) > 2 * block and 90.0 * 6.0 > 2 * chunk
    assert np.array_equal(canvas, want)


_coord = st.floats(-40.0, 80.0, allow_nan=False)
_streak = st.tuples(_coord, _coord, st.floats(0.0, 360.0),
                    st.floats(0.0, 70.0) | st.sampled_from([0.0, 1e-7]),
                    st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(streaks=st.lists(_streak, min_size=1, max_size=12),
       width=st.floats(1.0, 4.0), chunk=st.sampled_from([1, 7, 100, None]),
       block=st.sampled_from([1, 5, 60, None]),
       view=st.sampled_from(["whole", "rows", "strided"]),
       seed=st.integers(0, 2**16))
def test_one_call_equals_streak_by_streak_calls(streaks, width, chunk, block, view, seed):
    """k streaks in one draw_streak call add up exactly as k one-streak calls,
    onto a non-zero canvas, a contiguous view or a strided view, at any chunk
    and row-block size; nothing outside the view changes."""
    base = np.random.default_rng(seed).uniform(0.0, 1.0, (70, 60))
    batch, single = base.copy(), base.copy()

    def canvas(a):
        return {"whole": a, "rows": a[10:50], "strided": a[5:65:2, 50:3:-3]}[view]

    cy, cx, ang, length, inten = np.array(streaks).T
    chunk = chunk or synthdata._PIXEL_CHUNK
    block = block or synthdata._ROW_BLOCK
    with mock.patch.object(synthdata, "_PIXEL_CHUNK", chunk), \
            mock.patch.object(synthdata, "_ROW_BLOCK", block):
        synthdata.draw_streak(canvas(batch), cy, cx, ang, length, width, inten)
        for s in streaks:
            synthdata.draw_streak(canvas(single), *s[:4], width, s[4])
    assert np.array_equal(batch, single)
    want = base.copy()
    for s in streaks:
        _oracle_streak(canvas(want), *s[:4], width, s[4])
    assert np.array_equal(batch, want)


# Angles at the axes and just short of 180 degrees, lengths of zero, of the
# zero-length guard's scale and up to past the canvas, centres far enough out
# that whole streaks miss the 70 x 60 canvas.
_box_streak = st.tuples(
    st.floats(-50.0, 120.0), st.floats(-50.0, 110.0),
    st.sampled_from([0.0, 90.0, 180.0 - 1e-9]) | st.floats(0.0, 180.0),
    st.sampled_from([0.0, 1e-7, 1e-6]) | st.floats(0.0, 90.0),
    st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(streaks=st.lists(_box_streak, max_size=16),
       width=st.sampled_from([1.0, 6.0]) | st.floats(1.0, 6.0),
       view=st.sampled_from(["whole", "strided"]), seed=st.integers(0, 2**16))
def test_draw_streak_equals_the_box_rasteriser(streaks, width, view, seed):
    """Cutting each box row to its span skips only pixels that add +0.0: the
    canvas equals the whole-box rasteriser's bit for bit."""
    base = np.random.default_rng(seed).uniform(0.0, 1.0, (70, 60))
    got, want = base.copy(), base.copy()

    def canvas(a):
        return a if view == "whole" else a[1:69:2, 58:0:-1]

    cy, cx, ang, length, inten = np.array(streaks, dtype=np.float64).reshape(-1, 5).T
    synthdata.draw_streak(canvas(got), cy, cx, ang, length, width, inten)
    oracles.draw_streak_box(canvas(want), cy, cx, ang, length, width, inten)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# the streak draws
# ---------------------------------------------------------------------------

DRAW_SIZES = [16, 23, 32, 47, 64]
# Criterion 6's three styles, and rain too sparse for a single streak.
DRAW_STYLES = {
    "heavy-30": rain_params(angle=30.0, density=60.0, intensity=0.85),
    "light-90": rain_params(angle=90.0, density=8.0, intensity=0.3),
    "light-150": rain_params(angle=150.0, density=10.0, intensity=0.35),
    "no-streaks": rain_params(density=0.01),
}


def _generator(hist, density):
    hist = np.asarray(hist, dtype=np.float64)
    return memgen.MemoryGenerator(
        id="g", angle_hist=hist / hist.sum(), length_mean=14.0, length_std=8.0,
        width=1.5, density=density, intensity_mean=0.6, intensity_std=0.4)


# Empty bins at both ends and between full ones; all mass in one bin; rain
# too sparse for a single streak. The wide length and intensity spreads make
# both clips bind.
DRAW_GENERATORS = {
    "zero-bins": _generator([0, 0, 3, 0, 1, 5, 0, 0, 2, 1, 0, 4, 0, 0, 1, 2, 0, 0], 30.0),
    "one-bin": _generator([0] * 7 + [1] + [0] * 10, 20.0),
    "no-streaks": _generator(np.ones(memgen.ANGLE_BINS), 0.01),
}


@pytest.mark.parametrize("style", sorted(DRAW_STYLES))
@pytest.mark.parametrize("size", DRAW_SIZES)
def test_render_rain_layer_equals_scalar_draws(style, size):
    params = DRAW_STYLES[style]
    assert (streak_count(params.density, size) == 0) == (style == "no-streaks")
    for seed in range(25):
        want = oracles.render_rain_layer_scalar(params, size, seed)
        assert np.array_equal(render_rain_layer(params, size, seed).data, want.data)


@pytest.mark.parametrize("name", sorted(DRAW_GENERATORS))
@pytest.mark.parametrize("size", DRAW_SIZES)
def test_sample_rain_equals_scalar_draws(name, size):
    gen = DRAW_GENERATORS[name]
    assert (streak_count(gen.density, size) == 0) == (name == "no-streaks")
    rng = np.random.default_rng(size)
    for _ in range(25):
        z = rng.standard_normal(gen.latent_dim)
        want = oracles.sample_rain_scalar(gen, z, size)
        assert np.array_equal(memgen.sample_rain(gen, z, size).data, want.data)
