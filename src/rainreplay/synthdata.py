"""Procedural rain data: smooth backgrounds, parametric streak layers, dataset streams.

All generation is bit-deterministic given the spec/seed and per-pair seeded, so
pairs can be built in any order (or in parallel) with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    rescaled to [0.1, 0.9]."""
    if size < 16:
        raise ConfigError("size must be >= 16")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    data = np.empty((size, size, 3))
    for c in range(3):
        acc = np.zeros((size, size))
        for _ in range(4):
            freq = rng.uniform(0.5, 2.5) / size
            theta = rng.uniform(0.0, np.pi)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            acc += amp * np.sin(
                2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase
            )
        lo, hi = acc.min(), acc.max()
        if hi - lo < 1e-12:
            data[:, :, c] = 0.5
        else:
            data[:, :, c] = 0.1 + 0.8 * (acc - lo) / (hi - lo)
    return Image(data)


def streak_count(density: float, size: int) -> int:
    return int(round(density * size * size / 1024.0))


def draw_streak(canvas, cy, cx, angle_deg, length, width, intensity):
    """Accumulate one anti-aliased line segment onto a 2-D canvas (in place).

    Coverage falls off linearly over one pixel past the half-width, computed
    from exact point-to-segment distance over the streak's bounding box.
    """
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


def render_rain_layer(params: RainParams, size: int, seed: int) -> Image:
    """Rasterize a 1-channel additive streak layer, saturated at 1."""
    rng = np.random.default_rng(seed)
    canvas = np.zeros((size, size))
    for _ in range(streak_count(params.density, size)):
        angle = rng.normal(params.angle_mean, params.angle_std) % 180.0
        length = float(np.clip(rng.normal(params.length_mean, params.length_std), 2.0, size))
        intensity = float(np.clip(rng.normal(params.intensity_mean, params.intensity_std), 0.0, 1.0))
        cy = rng.uniform(0, size)
        cx = rng.uniform(0, size)
        draw_streak(canvas, cy, cx, angle, length, params.width, intensity)
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
    r = ds.spec.rain
    lines = [
        f"id={ds.spec.id}",
        f"pair_count={ds.spec.pair_count}",
        f"image_size={ds.spec.image_size}",
        f"seed={ds.spec.seed}",
        f"angle_mean={r.angle_mean}",
        f"angle_std={r.angle_std}",
        f"length_mean={r.length_mean}",
        f"length_std={r.length_std}",
        f"width={r.width}",
        f"density={r.density}",
        f"intensity_mean={r.intensity_mean}",
        f"intensity_std={r.intensity_std}",
    ]
    with open(os.path.join(d, "spec.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
