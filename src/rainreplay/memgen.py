"""Per-dataset rain-memory generators, replay assembly, and the reuse cache.

A generator is fitted by moment estimation on the rain layers recovered from a
dataset, then sampled through a Gaussian latent that deterministically drives a
counter-based streak sampler. Replay slots are per prior dataset: a dataset
whose generator training was skipped is represented by its mapped generator,
which keeps the even-split bookkeeping exact in the stage index.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import ndimage

from .imaging import Image, ShapeError, _orientation_votes
from .synthdata import RainDataset, draw_streak, streak_count

ANGLE_BINS = 18
DEFAULT_LATENT_DIM = 8
COMPONENT_THRESHOLD = 0.05


class DegenerateFitError(ValueError):
    """Dataset has no recoverable rain content to fit."""


class StalenessError(RuntimeError):
    """Replay cache does not correspond to the previous stage."""


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class MemoryGenerator:
    id: str
    angle_hist: np.ndarray  # ANGLE_BINS bins over [0, 180), sums to 1
    length_mean: float
    length_std: float
    width: float
    density: float
    intensity_mean: float
    intensity_std: float
    latent_dim: int = DEFAULT_LATENT_DIM

    def __post_init__(self):
        h = np.asarray(self.angle_hist, dtype=np.float64).copy()
        if h.shape != (ANGLE_BINS,):
            raise ShapeError(f"angle histogram must have {ANGLE_BINS} bins")
        if not np.isclose(h.sum(), 1.0, atol=1e-9):
            raise ValueError("angle histogram must sum to 1")
        if self.length_std < 0 or self.intensity_std < 0:
            raise ValueError("stds must be >= 0")
        if self.density <= 0:
            raise ValueError("density must be > 0")
        h.flags.writeable = False
        object.__setattr__(self, "angle_hist", h)


def recover_rain_layer(rainy: Image, clean: Image) -> np.ndarray:
    """Rain layer estimate from a pair: nonnegative luma difference."""
    return np.maximum(rainy.luma() - clean.luma(), 0.0)


def fit_generator(ds: RainDataset) -> MemoryGenerator:
    layers = [recover_rain_layer(r, c) for r, c in ds.pairs]
    total_mass = sum(float(l.sum()) for l in layers)
    if total_mass < 1e-9:
        raise DegenerateFitError(f"dataset {ds.spec.id!r} has all-zero rain layers")

    hist = np.zeros(ANGLE_BINS)
    for layer in layers:
        hist += _orientation_votes(layer, ANGLE_BINS)
    if hist.sum() < 1e-12:
        raise DegenerateFitError(f"dataset {ds.spec.id!r} has no gradient content")
    hist = hist / hist.sum()

    lengths, widths, intensities, counts = [], [], [], []
    structure = np.ones((3, 3), dtype=bool)  # 8-connectivity
    for layer in layers:
        mask = layer > COMPONENT_THRESHOLD
        labels, n = ndimage.label(mask, structure=structure)
        counts.append(n)
        if n == 0:
            continue
        slices = ndimage.find_objects(labels)
        for k, sl in enumerate(slices):
            dy = sl[0].stop - sl[0].start
            dx = sl[1].stop - sl[1].start
            length = float(np.hypot(dy, dx))
            area = float(np.sum(labels[sl] == k + 1))
            lengths.append(length)
            widths.append(area / max(length, 1.0))
        intensities.append(layer[mask])

    size = layers[0].shape[0]
    density = max(float(np.mean(counts)) * 1024.0 / (size * size), 1e-6)
    if lengths:
        length_mean = float(np.mean(lengths))
        length_std = float(np.std(lengths))
        width = max(float(np.mean(widths)), 1.0)
    else:
        length_mean, length_std, width = 8.0, 2.0, 1.0
    vals = np.concatenate(intensities) if intensities else np.array([0.1])
    gen = MemoryGenerator(
        id=ds.spec.id,
        angle_hist=hist,
        length_mean=length_mean,
        length_std=length_std,
        width=width,
        density=density,
        intensity_mean=float(np.mean(vals)),
        intensity_std=float(np.std(vals)),
    )
    # Overlapping streaks merge into single components, so the count-based
    # density badly underestimates heavy rain. Calibrate it by matching the
    # mean rendered rain mass to the observed mean mass (mass is close to
    # linear in density until saturation).
    # saturation makes mass sub-linear in density, so iterate the correction
    observed_mass = total_mass / len(layers)
    for _ in range(3):
        probe = np.mean([
            sample_rain(gen, _probe_latent(gen, k), size).data.sum()
            for k in range(4)
        ])
        if probe < 1e-9:
            break
        scale = float(np.clip(observed_mass / probe, 0.2, 50.0))
        gen = replace(gen, density=max(gen.density * scale, 1e-6))
    return gen


def _probe_latent(gen, k):
    rng = np.random.default_rng((0xCA11B, k))
    return rng.standard_normal(gen.latent_dim)


def _latent_seed(z: np.ndarray) -> int:
    digest = hashlib.blake2b(
        np.ascontiguousarray(z, dtype=np.float64).tobytes(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def sample_rain(gen: MemoryGenerator, z: np.ndarray, size: int) -> Image:
    """Deterministic latent-to-rain-layer sampler (pure in (gen, z, size))."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (gen.latent_dim,):
        raise ShapeError(f"latent must have shape ({gen.latent_dim},), got {z.shape}")
    rng = np.random.default_rng(_latent_seed(z))
    # Per streak, in this order: two uniforms (angle bin, angle within the
    # bin), two standard normals (length, intensity), two uniforms (cy, cx).
    # The bin is the first uniform's place in the histogram's CDF, which is
    # how Generator.choice(p=...) picks with one uniform.
    draws = np.empty((streak_count(gen.density, size), 6))
    for row in draws:
        rng.random(out=row[:2])
        rng.standard_normal(out=row[2:4])
        rng.random(out=row[4:])
    u_bin, u_angle, z_length, z_intensity, u_cy, u_cx = draws.T
    cdf = gen.angle_hist.cumsum()
    cdf /= cdf[-1]
    angle = (cdf.searchsorted(u_bin, side="right") + u_angle) * (180.0 / ANGLE_BINS)
    length = np.clip(gen.length_mean + gen.length_std * z_length, 2.0, size)
    intensity = np.clip(gen.intensity_mean + gen.intensity_std * z_intensity, 0.0, 1.0)
    canvas = np.zeros((size, size))
    draw_streak(canvas, size * u_cy, size * u_cx, angle, length, gen.width, intensity)
    return Image(np.clip(canvas, 0.0, 1.0))


def even_split(total: int, k: int):
    """Split total into k integer counts, remainder to the lowest indices."""
    base, rem = divmod(total, k)
    return [base + 1 if i < rem else base for i in range(k)]


@dataclass
class ReplayDataset:
    """Replayed pairs plus the prior-dataset slot each pair came from."""

    pairs: list  # (rainy, clean)
    slot_ids: list  # slot index in [0, n-2] per pair

    def __len__(self):
        return len(self.pairs)

    def subset(self, slot: int):
        return [p for p, s in zip(self.pairs, self.slot_ids) if s == slot]


def _compose_pair(gen, z, current: RainDataset, bg_index: int):
    size = current.spec.image_size
    layer = sample_rain(gen, z, size)
    clean = current.pairs[bg_index][1]
    rainy = Image(np.clip(clean.data + layer.data, 0.0, 1.0))
    return rainy, clean


def _fresh_pair(gen, current, seed, slot, j):
    rng = np.random.default_rng((seed, slot, j))
    z = rng.standard_normal(gen.latent_dim)
    bg = int(rng.integers(len(current)))
    return _compose_pair(gen, z, current, bg)


def _assemble(entries, required, gens, current, seed):
    """Replay set of the first required[slot] pairs of each entries[slot].
    Fresh pairs are drawn past a slot's end as needed and appended to it
    (surpluses are kept, never evicted). Returns (ReplayDataset, fresh
    sampler calls made)."""
    pairs, slot_ids, calls = [], [], 0
    for slot, (gen, r) in enumerate(zip(gens, required)):
        for j in range(len(entries[slot]), r):
            entries[slot].append(_fresh_pair(gen, current, seed, slot, j))
            calls += 1
        pairs += entries[slot][:r]
        slot_ids += [slot] * r
    return ReplayDataset(pairs=pairs, slot_ids=slot_ids), calls


def build_replay_dataset(gens, current: RainDataset, seed: int) -> ReplayDataset:
    """Replay set of size |current|, evenly split across per-dataset slots."""
    if not gens:
        raise PreconditionError("need at least one prior generator")
    replay, _ = _assemble([[] for _ in gens], even_split(len(current), len(gens)),
                          gens, current, seed)
    return replay


def select_generator_training(s_hat: float, threshold: float, first_stage: bool = False) -> int:
    """Binary train-a-new-generator decision: 1 iff similarity score exceeds
    the threshold (strict), unconditionally 1 at the first stage."""
    if first_stage:
        return 1
    if not 0.0 <= s_hat <= 1.0:
        raise ValueError(f"normalized similarity must be in [0, 1], got {s_hat}")
    return int(s_hat > threshold)


@dataclass
class ReplayCache:
    stage: int = 1  # stage whose replay build the cache reflects
    entries: list = field(default_factory=list)  # per-slot list of (rainy, clean)


@dataclass(frozen=True)
class ReusePlan:
    stage: int
    required: tuple  # r_{i,n} per slot
    cached: tuple  # c_{i,n-1} per slot (0 for the new slot)
    delta: tuple  # max(0, r - c); delta[-1] = required[-1]


def reuse_plan(cache: ReplayCache, n: int, m_n: int) -> ReusePlan:
    if n < 2:
        raise PreconditionError("reuse planning starts at stage 2")
    if cache.stage != n - 1:
        raise StalenessError(f"cache is for stage {cache.stage}, expected {n - 1}")
    if len(cache.entries) != n - 2:
        raise StalenessError(
            f"cache has {len(cache.entries)} slots, expected {n - 2} at stage {n}"
        )
    required = even_split(m_n, n - 1)
    cached = [len(e) for e in cache.entries] + [0]
    delta = [max(0, r - c) for r, c in zip(required, cached)]
    return ReusePlan(stage=n, required=tuple(required), cached=tuple(cached),
                     delta=tuple(delta))


def apply_reuse(cache: ReplayCache, plan: ReusePlan, gens, current: RainDataset,
                seed: int):
    """Build the stage-n replay set reusing cached pairs; returns
    (ReplayDataset, updated cache, fresh sampler calls made)."""
    n = plan.stage
    if cache.stage != n - 1 or len(gens) != n - 1:
        raise StalenessError("plan, cache, and generator list disagree on stage")
    entries = [list(e) for e in cache.entries] + [[]]
    replay, calls = _assemble(entries, plan.required, gens, current, seed)
    return replay, ReplayCache(stage=n, entries=entries), calls


# ---------------------------------------------------------------------------
# Generator serialization (plain key=value text)
# ---------------------------------------------------------------------------


def save_generator(gen: MemoryGenerator, path):
    lines = [
        f"id={gen.id}",
        f"latent_dim={gen.latent_dim}",
        "angle_hist=" + ",".join(repr(float(v)) for v in gen.angle_hist),
        f"length_mean={float(gen.length_mean)!r}",
        f"length_std={float(gen.length_std)!r}",
        f"width={float(gen.width)!r}",
        f"density={float(gen.density)!r}",
        f"intensity_mean={float(gen.intensity_mean)!r}",
        f"intensity_std={float(gen.intensity_std)!r}",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_generator(path) -> MemoryGenerator:
    kv = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            kv[key] = val
    return MemoryGenerator(
        id=kv["id"],
        latent_dim=int(kv["latent_dim"]),
        angle_hist=np.array([float(v) for v in kv["angle_hist"].split(",")]),
        length_mean=float(kv["length_mean"]),
        length_std=float(kv["length_std"]),
        width=float(kv["width"]),
        density=float(kv["density"]),
        intensity_mean=float(kv["intensity_mean"]),
        intensity_std=float(kv["intensity_std"]),
    )
