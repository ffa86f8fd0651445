"""Procedural rain data: smooth backgrounds, parametric streak layers, dataset streams.

All generation is bit-deterministic given the spec/seed and per-pair seeded, so
pairs can be built in any order (or in parallel) with identical results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .imaging import Image, write_ppm

# Salt xor'ed into per-pair seeds so the rain stream never collides with the
# background stream of the same pair.
RAIN_SEED_SALT = 0x52A1


class ConfigError(ValueError):
    """Invalid dataset/stream configuration."""


@dataclass(frozen=True)
class RainParams:
    angle_mean: float  # degrees in [0, 180)
    angle_std: float
    length_mean: float  # pixels
    length_std: float
    width: float  # pixels
    density: float  # streaks per 1024 pixels
    intensity_mean: float
    intensity_std: float

    def __post_init__(self):
        if self.density <= 0:
            raise ConfigError("density must be > 0")
        if self.width < 1:
            raise ConfigError("width must be >= 1")


@dataclass(frozen=True)
class DatasetSpec:
    id: str
    pair_count: int
    rain: RainParams
    seed: int
    image_size: int = 64

    def __post_init__(self):
        if self.pair_count < 1:
            raise ConfigError("pair_count must be >= 1")
        if self.image_size < 16:
            raise ConfigError("image_size must be >= 16")


@dataclass
class RainDataset:
    """Ordered (rainy, clean) pairs plus the rain layers they were built from."""

    spec: DatasetSpec
    pairs: list  # list of (rainy: Image, clean: Image)
    layers: list = field(default_factory=list)  # 1-channel rain layers, same order

    def __len__(self):
        return len(self.pairs)

    @property
    def rainy_images(self):
        return [p[0] for p in self.pairs]

    @property
    def clean_images(self):
        return [p[1] for p in self.pairs]


@dataclass(frozen=True)
class DatasetStream:
    specs: tuple

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __getitem__(self, i):
        return self.specs[i]


def gen_background(seed: int, size: int) -> Image:
    """Smooth low-frequency RGB field: 4 random-phase gratings per channel,
    rescaled to [0.1, 0.9].

    A grating amp·sin(a·x + b·y + φ) is separable:
    sin(a·x + b·y + φ) = sin(b·y + φ)·cos(a·x) + cos(b·y + φ)·sin(a·x), so
    each channel is one (size × 8) @ (8 × size) product of 1-D factors, with
    the amplitudes folded into the row factors.
    """
    if size < 16:
        raise ConfigError("size must be >= 16")
    rng = np.random.default_rng(seed)
    # Per channel and grating, in this order: frequency, orientation, phase,
    # amplitude; one array call draws them as one scalar call each would.
    u_freq, theta, phase, amp = rng.uniform(
        (0.5, 0.0, 0.0, 0.5), (2.5, np.pi, 2.0 * np.pi, 1.0), (3, 4, 4)).T[..., None]
    omega = 2.0 * np.pi * (u_freq / size)
    coords = np.arange(size, dtype=np.float64)
    row_arg = omega * np.sin(theta) * coords + phase
    col_arg = omega * np.cos(theta) * coords
    rows = np.concatenate([amp * np.sin(row_arg), amp * np.cos(row_arg)])
    cols = np.concatenate([np.cos(col_arg), np.sin(col_arg)])
    data = np.empty((size, size, 3))
    for c in range(3):
        acc = rows[:, c].T @ cols[:, c]
        lo, hi = acc.min(), acc.max()
        if hi - lo < 1e-12:
            data[:, :, c] = 0.5
        else:
            data[:, :, c] = 0.1 + 0.8 * (acc - lo) / (hi - lo)
    return Image(data)


# Candidate rows cut to their spans, and span pixels rasterised, per
# vectorised step of draw_streak: larger blocks and chunks save Python
# overhead but hold more per-row and per-pixel temporaries at once.
_ROW_BLOCK = 1024
_PIXEL_CHUNK = 4096

# Slack added to the coverage radius when a row is cut to its span: far above
# the rounding of the span's arithmetic, far below a pixel.
_SPAN_SLACK = 1e-6


def streak_count(density: float, size: int) -> int:
    return int(round(density * size * size / 1024.0))


def draw_streak(canvas, cy, cx, angle_deg, length, width, intensity):
    """Accumulate anti-aliased line segments onto a 2-D canvas (in place).

    ``cy``, ``cx``, ``angle_deg``, ``length`` and ``intensity`` are scalars or
    1-D arrays with one entry per streak; ``width`` is shared. Coverage falls
    off linearly over one pixel past the half-width, computed from exact
    point-to-segment distance. Each streak is rasterised row by row, over the
    x-span of each row where that distance can be below ``width/2 + 0.5``;
    every pixel outside the spans would add +0.0. Every pixel sums its
    streaks in the order given, onto the canvas's own value, so one call over
    k streaks equals k one-streak calls bit for bit.
    """
    cy, cx, angle_deg, length, intensity = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=np.float64))
          for v in (cy, cx, angle_deg, length, intensity)))
    size_y, size_x = canvas.shape
    ang = np.radians(angle_deg)
    # angle_deg is the streak's gradient (normal) orientation; the segment
    # itself runs perpendicular to it. The HOG of a rendered layer peaks near
    # angle_deg, not always in its bin: the finite-difference gradients of
    # thin anti-aliased streaks lean towards the diagonals, so at 64 px a
    # 30 or 60 degree layer peaks in the 40-60 bin and a 120 or 150 degree
    # layer in the 120-140 bin.
    dy, dx = np.cos(ang), -np.sin(ang)
    half = length / 2.0
    y0, x0 = cy - dy * half, cx - dx * half
    y1, x1 = cy + dy * half, cx + dx * half
    vy, vx = y1 - y0, x1 - x0
    seg_len2 = vy * vy + vx * vx
    # A zero-length segment is its start point (t = 0 at every pixel), which
    # a zero direction over a unit length gives exactly.
    degenerate = seg_len2 < 1e-12
    vy, vx = np.where(degenerate, 0.0, vy), np.where(degenerate, 0.0, vx)
    seg_len2 = np.where(degenerate, 1.0, seg_len2)
    floats = np.stack([y0, x0, vy, vx, seg_len2, intensity])

    margin = width / 2.0 + 1.5
    ylo = np.maximum(0, np.floor(np.minimum(y0, y1) - margin).astype(np.int64))
    yhi = np.minimum(size_y, np.ceil(np.maximum(y0, y1) + margin).astype(np.int64) + 1)
    # The candidate rows, each streak's box rows, are numbered in streak
    # order and cut to their spans _ROW_BLOCK at a time. A block's pixels are
    # numbered in row order and rasterised _PIXEL_CHUNK at a time; a chunk
    # may split a row.
    rows = np.maximum(yhi - ylo, 0)
    first = np.cumsum(rows) - rows
    n_rows = int(rows.sum())
    cover = width / 2.0 + 0.5
    # add.at on a flat contiguous buffer is fast; a strided view is copied in
    # and written back, so any 2-D canvas works.
    work = np.ascontiguousarray(canvas)
    flat = work.reshape(-1)
    for j0 in range(0, n_rows, _ROW_BLOCK):
        j = np.arange(j0, min(j0 + _ROW_BLOCK, n_rows))
        k = np.searchsorted(first, j, side="right") - 1  # skips rowless streaks
        y = j - first[k] + ylo[k]
        k, y, xlo, row_w = _row_spans(floats, k, y, cover + _SPAN_SLACK, size_x)
        ends = np.cumsum(row_w)
        starts = ends - row_w
        offset = starts - xlo  # a pixel's number minus its x, along each row
        del j, row_w, xlo
        total = int(ends[-1]) if ends.size else 0
        for p0 in range(0, total, _PIXEL_CHUNK):
            p1 = min(p0 + _PIXEL_CHUNK, total)
            ks = slice(np.searchsorted(ends, p0, side="right"),
                       np.searchsorted(starts, p1, side="left"))
            counts = np.minimum(ends[ks], p1) - np.maximum(starts[ks], p0)
            _draw_pixels(flat, size_x, np.arange(p0, p1), counts, offset[ks], y[ks],
                         floats[:, k[ks]], cover)
    if work is not canvas:
        canvas[...] = work


def _row_spans(floats, k, y, radius, size_x):
    """Cut canvas rows to the x-spans that segments can cover.

    Row i is row ``y[i]`` of the segment ``floats[:, k[i]]``. Within a row,
    the pixels closer than ``radius`` to the segment form one run: the
    segment's capsule is the union of a disc at each end and the strip
    between them, so the run ends where the row crosses a disc or one of the
    strip's long sides. Returns each kept row's k, y, first x and pixel
    count; rows with no pixel on the canvas are dropped.
    """
    y0, x0, vy, vx, seg_len2 = floats[:5, k]
    d = y - y0  # each row's offset from its segment's start
    r2 = radius * radius
    # A row that misses a disc or a side gets NaN there, which fmin and
    # fmax pass over.
    with np.errstate(invalid="ignore", divide="ignore"):
        # The disc at the start, then the one at the end (y0 + vy, x0 + vx).
        reach = np.sqrt(r2 - d * d)
        lo, hi = x0 - reach, x0 + reach
        off = d - vy
        np.sqrt(r2 - off * off, out=reach)
        x1 = np.add(x0, vx, out=off)
        np.fmin(lo, x1 - reach, out=lo)
        np.fmax(hi, np.add(x1, reach, out=x1), out=hi)
        # The sides: the points at radius·n from the segment's point at t in
        # [0, 1], for the unit normal n = (vx, -vy) / |v| and its negative.
        side = radius / np.sqrt(seg_len2)
        for sign in (1.0, -1.0):
            t = (d - sign * side * vx) / vy
            t[(t < 0.0) | (t > 1.0)] = np.nan
            t *= vx
            t += x0
            t -= sign * side * vy
            np.fmin(lo, t, out=lo)
            np.fmax(hi, t, out=hi)
    del y0, x0, vy, vx, seg_len2, d, reach, off, x1, side, t
    np.maximum(np.ceil(lo, out=lo), 0.0, out=lo)
    np.minimum(np.floor(hi, out=hi), size_x - 1.0, out=hi)
    keep = hi >= lo  # False where both are NaN
    xlo = lo[keep].astype(np.int64)
    return k[keep], y[keep], xlo, hi[keep].astype(np.int64) - xlo + 1


def _draw_pixels(flat, size_x, pixels, counts, offset, y, floats, cover):
    """Add the coverage of numbered row pixels to a flat canvas (in place).

    ``counts`` gives how many of ``pixels`` lie on each row in turn. A
    pixel's x is its number minus its row's ``offset``, its y is its row's
    ``y``, and ``floats`` hold the rows' segments. Each per-pixel array is
    built just before its first use and freed on return, which keeps a
    chunk's peak memory near nine arrays of its size.
    """
    def per_pixel(values):
        return values.repeat(counts)

    y0, x0, vy, vx, seg_len2, intensity = floats
    ix = pixels - per_pixel(offset)
    del pixels
    iy = per_pixel(y)
    ky0, kvy = per_pixel(y0), per_pixel(vy)
    t = (iy - ky0) * kvy
    kx0, kvx = per_pixel(x0), per_pixel(vx)
    t += (ix - kx0) * kvx
    t /= per_pixel(seg_len2)
    np.clip(t, 0.0, 1.0, out=t)
    ky0 += t * kvy
    kx0 += t * kvx
    del kvy, kvx
    dist = np.hypot(np.subtract(iy, ky0, out=ky0), np.subtract(ix, kx0, out=kx0), out=t)
    del ky0, kx0
    coverage = np.clip(np.subtract(cover, dist, out=dist), 0.0, 1.0, out=dist)
    coverage *= per_pixel(intensity)
    iy *= size_x
    iy += ix
    # add.at is unbuffered and runs in index order, which is streak order, so
    # each pixel sums its streaks as a per-streak loop would.
    np.add.at(flat, iy, coverage)


def render_rain_layer(params: RainParams, size: int, seed: int) -> Image:
    """Rasterize a 1-channel additive streak layer, saturated at 1."""
    rng = np.random.default_rng(seed)
    # Per streak, in this order: three standard normals (angle, length,
    # intensity), then two uniforms (cy, cx). Drawn row by row into one
    # array, then mapped, so the streams match one scalar call per field.
    draws = np.empty((streak_count(params.density, size), 5))
    for row in draws:
        rng.standard_normal(out=row[:3])
        rng.random(out=row[3:])
    z_angle, z_length, z_intensity, u_cy, u_cx = draws.T
    angle = (params.angle_mean + params.angle_std * z_angle) % 180.0
    length = np.clip(params.length_mean + params.length_std * z_length, 2.0, size)
    intensity = np.clip(params.intensity_mean + params.intensity_std * z_intensity,
                        0.0, 1.0)
    canvas = np.zeros((size, size))
    draw_streak(canvas, size * u_cy, size * u_cx, angle, length, params.width, intensity)
    return Image(np.clip(canvas, 0.0, 1.0))


def make_pair(spec: DatasetSpec, m: int):
    clean = gen_background(spec.seed ^ m, spec.image_size)
    layer = render_rain_layer(spec.rain, spec.image_size, spec.seed ^ m ^ RAIN_SEED_SALT)
    rainy = Image(np.clip(clean.data + layer.data, 0.0, 1.0))
    return rainy, clean, layer


def make_dataset(spec: DatasetSpec) -> RainDataset:
    pairs, layers = [], []
    for m in range(spec.pair_count):
        rainy, clean, layer = make_pair(spec, m)
        pairs.append((rainy, clean))
        layers.append(layer)
    return RainDataset(spec=spec, pairs=pairs, layers=layers)


def make_stream(specs) -> DatasetStream:
    specs = tuple(specs)
    if not specs:
        raise ConfigError("empty spec list")
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate dataset ids in {ids}")
    return DatasetStream(specs=specs)


# Hold-out rain mixes parameters outside the boxes used by the training
# defaults below (angles between the usual 30/90/150 clusters, thinner and
# denser streaks).
HOLDOUT_RAIN = (
    RainParams(angle_mean=60.0, angle_std=6.0, length_mean=10.0, length_std=2.0,
               width=1.0, density=26.0, intensity_mean=0.55, intensity_std=0.12),
    RainParams(angle_mean=120.0, angle_std=6.0, length_mean=14.0, length_std=3.0,
               width=1.5, density=18.0, intensity_mean=0.45, intensity_std=0.1),
)


def make_holdout(seed: int, pair_count: int = 16, image_size: int = 64) -> RainDataset:
    """Unseen-style evaluation set mixing rain styles outside the training boxes."""
    pairs, layers = [], []
    for m in range(pair_count):
        rain = HOLDOUT_RAIN[m % len(HOLDOUT_RAIN)]
        clean = gen_background(seed ^ (m + 1) * 0x9E37, image_size)
        layer = render_rain_layer(rain, image_size, seed ^ (m + 1) * 0x9E37 ^ RAIN_SEED_SALT)
        rainy = Image(np.clip(clean.data + layer.data, 0.0, 1.0))
        pairs.append((rainy, clean))
        layers.append(layer)
    spec = DatasetSpec(id="holdout", pair_count=pair_count, rain=HOLDOUT_RAIN[0],
                       seed=seed, image_size=image_size)
    return RainDataset(spec=spec, pairs=pairs, layers=layers)


def export_dataset(ds: RainDataset, out_dir):
    """Write a dataset as PPM pairs plus a key=value spec file."""
    import os

    d = os.path.join(out_dir, ds.spec.id)
    os.makedirs(d, exist_ok=True)
    for m, (rainy, clean) in enumerate(ds.pairs):
        write_ppm(rainy, os.path.join(d, f"{m}_rain.ppm"))
        write_ppm(clean, os.path.join(d, f"{m}_clean.ppm"))
    spec = ds.spec
    lines = [f"id={spec.id}", f"pair_count={spec.pair_count}",
             f"image_size={spec.image_size}", f"seed={spec.seed}"]
    lines += [f"{k}={v}" for k, v in asdict(spec.rain).items()]
    with open(os.path.join(d, "spec.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
