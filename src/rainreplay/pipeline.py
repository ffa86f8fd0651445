"""Continual-learning orchestrator: replay-interleaved training with
consistency distillation, the similarity-based iteration speedup, selective
generator training, and the SF / Individual baselines.

The stage loop is strictly sequential; every random draw derives from the run
seed plus a purpose tag, so disabling a feature never perturbs the random
streams of the features that remain (this is what makes the SF-equivalence
oracle bit-exact).
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import imaging, memgen, restorer
from .imaging import HOG_BINS, hog, kl_divergence, psnr, ssim
from .synthdata import (
    ConfigError, DatasetStream, RainDataset, make_dataset, make_holdout,
)

TEST_FRACTION = 0.2

# The restorer trains in float32, which halves the bytes its small GEMMs move;
# images, metrics, HOG, the generators and the gradient checks stay float64.
TRAIN_DTYPE = np.float32

# Per-pixel FLOPs estimate for one forward pass of the restorer: each conv
# weight (the 4-d entries of LAYER_SHAPES) is one multiply-accumulate, 2 FLOPs,
# per output pixel; backward costs roughly twice the forward.
_MACS_PER_PIXEL = sum(math.prod(s) for _, s in restorer.LAYER_SHAPES if len(s) == 4)
FLOPS_PER_PIXEL_FWD = 2 * _MACS_PER_PIXEL
FLOPS_PER_PIXEL_STEP = 3 * FLOPS_PER_PIXEL_FWD


def derive_seed(seed: int, tag: str, n: int = 0) -> int:
    digest = hashlib.blake2b(f"{seed}:{tag}:{n}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class StageConfig:
    """Per-run training settings; every stage gets the same config.

    ``lr`` is the peak step size: each stage starts at ``lr`` and anneals it
    towards zero over that stage's iteration budget (see ``train_stage``).
    """

    iterations: int = 2000
    batch_size: int = 4
    lam: float = 1.0  # interleave-vs-consistency balance
    threshold: float = 0.4  # selective generator-training cutoff
    floor: float = 0.05  # minimum fraction of iterations under speedup
    speedup: bool = False
    selective: bool = False
    reuse: bool = False
    replay: bool = True
    lr: float = 1e-2
    seed: int = 0
    holdout_pairs: int = 8

    def __post_init__(self):
        for ok, rule in ((self.iterations >= 0, "iterations must be >= 0"),
                         (self.batch_size >= 1, "batch_size must be >= 1"),
                         (self.lam >= 0, "lam must be >= 0"),
                         (0.0 <= self.floor <= 1.0, "floor must be in [0, 1]"),
                         (0.0 < self.threshold < 1.0, "threshold must be in (0, 1)")):
            if not ok:
                raise ValueError(rule)


@dataclass(frozen=True)
class SimilarityReport:
    per_generator: tuple  # s_i per prior-dataset slot (None for empty slots)
    s_min: float | None  # min over populated slots; None at bootstrap
    s_hat: float  # 1 - exp(-s_min), or 1.0 at bootstrap

    @classmethod
    def bootstrap(cls):
        return cls(per_generator=(), s_min=None, s_hat=1.0)


@dataclass
class StreamReport:
    method: str
    dataset_ids: list
    memory: dict = field(default_factory=dict)  # (stage, dataset) -> (psnr, ssim)
    generalization: list = field(default_factory=list)  # per stage (psnr, ssim)
    iterations: list = field(default_factory=list)
    sampler_calls: list = field(default_factory=list)
    similarity: list = field(default_factory=list)  # per stage SimilarityReport
    deltas: list = field(default_factory=list)  # per stage generator-training flag
    replay_active: list = field(default_factory=list)  # per stage bool
    loss_logs: list = field(default_factory=list)  # per stage list of step dicts

    @property
    def n_stages(self):
        return len(self.iterations)

    def record(self, iterations, step: "ChainStep", log):
        """Append one stage's budget, memory-chain step and loss log."""
        self.iterations.append(iterations)
        self.sampler_calls.append(step.sampler_calls)
        self.similarity.append(step.similarity)
        self.deltas.append(step.delta)
        self.replay_active.append(step.replay is not None)
        self.loss_logs.append(log)

    def avg_memory_psnr(self, stage=None):
        stage = stage if stage is not None else self.n_stages
        vals = [self.memory[(stage, d)][0] for d in range(1, stage + 1)
                if (stage, d) in self.memory]
        return float(np.mean(vals))


def aggregate_hog(images):
    """Dataset-level descriptor: mean of per-image HOGs, renormalized."""
    vals = np.mean([hog(img).values for img in images], axis=0)
    return imaging.HogDescriptor(bins=HOG_BINS, values=vals / vals.sum())


def similarity(current_rainy, replay: memgen.ReplayDataset | None,
               n_priors: int) -> SimilarityReport:
    """Rain-pattern similarity between the incoming dataset and each prior
    slot's replayed subset; smaller KL means more similar."""
    if replay is None or n_priors == 0:
        return SimilarityReport.bootstrap()
    h_n = aggregate_hog(current_rainy)
    scores = []
    for slot in range(n_priors):
        subset = replay.subset(slot)
        if not subset:
            scores.append(None)
            continue
        h_i = aggregate_hog([r for r, _ in subset])
        scores.append(kl_divergence(h_i, h_n))
    populated = [s for s in scores if s is not None]
    if not populated:
        return SimilarityReport.bootstrap()
    s_min = min(populated)
    return SimilarityReport(per_generator=tuple(scores), s_min=s_min,
                            s_hat=1.0 - math.exp(-s_min))


def scaled_iterations(s_hat: float, iterations: int, floor: float) -> int:
    """Similarity-scaled iteration budget: round(s_hat * I), floored."""
    if not 0.0 <= s_hat <= 1.0:
        raise ValueError(f"normalized similarity must be in [0, 1], got {s_hat}")
    scaled = int(math.floor(s_hat * iterations + 0.5))
    floor_iters = int(math.floor(floor * iterations + 0.5))
    return min(iterations, max(scaled, floor_iters))


class _BatchSampler:
    """Cyclic shuffled-epoch batch drawing over a fixed pair list."""

    def __init__(self, pairs, batch_size, rng):
        self.pairs = pairs
        self.batch_size = batch_size
        self.rng = rng
        self.order = []

    def next_batch(self, x, y):
        """The next (x, y) batch, written into the buffers x and y, and the
        indices of the pairs it holds."""
        picked = []
        while len(picked) < self.batch_size:
            if not self.order:
                self.order = list(self.rng.permutation(len(self.pairs)))
            picked.append(self.order.pop(0))
        restorer.images_to_batch([self.pairs[i][0] for i in picked], out=x)
        restorer.images_to_batch([self.pairs[i][1] for i in picked], out=y)
        return x, y, picked


def _teacher_outputs(f_prev, pairs, batch_size):
    """The frozen network's output on every pair's rainy image, one forward
    per chunk of at most ``batch_size`` pairs (a larger batch would raise the
    step's peak memory). Each row equals, up to rounding, the output a
    per-step forward over any batch holding that pair would give (see the
    ``restorer`` module docstring)."""
    return np.concatenate([
        restorer.forward(f_prev, restorer.images_to_batch(
            [rainy for rainy, _ in pairs[i : i + batch_size]]))
        for i in range(0, len(pairs), batch_size)])


def train_stage(state, f_prev, new_pairs, replay_pairs, cfg: StageConfig,
                iterations, stage: int):
    """One stage of interleaved training; returns (state, per-step loss log).

    The SGD step size starts at ``cfg.lr`` (the peak) and decays towards zero
    on a half-cosine over this stage's ``iterations``: SGDR cosine annealing
    (Loshchilov & Hutter, 2017), restarted once per continual stage. A
    constant-step iterate never settles, so the network handed to evaluation
    and to the next stage's distillation would otherwise depend on where in
    its oscillation the budget happens to end.

    ``f_prev`` and the replay pairs stay fixed for the stage, so the
    distillation targets are computed once, before the first step, and each
    replay step indexes the ones of the batch it drew: the stored-logits
    replay of Buzzega et al. 2020 ("Dark Experience for General Continual
    Learning").

    Every batch of the stage has one shape, so its steps share one
    ``restorer.Workspace``, and the stage owns the buffers its batches and
    teacher rows are written into: the new batch is dead once its loss step
    returns, so the replay batch takes the same buffers. All of them have
    the state's dtype.
    """
    sampler_new = _BatchSampler(
        new_pairs, cfg.batch_size,
        np.random.default_rng(derive_seed(cfg.seed, "batch-new", stage)))
    sampler_replay = teacher_out = None
    if replay_pairs:
        sampler_replay = _BatchSampler(
            replay_pairs, cfg.batch_size,
            np.random.default_rng(derive_seed(cfg.seed, "batch-replay", stage)))
        if f_prev is not None and cfg.lam > 0:
            teacher_out = _teacher_outputs(f_prev, replay_pairs, cfg.batch_size)

    rainy = new_pairs[0][0]
    shape = (cfg.batch_size, 3, rainy.height, rainy.width)
    dtype = state.dtype
    ws = restorer.Workspace(shape, dtype=dtype)
    x_buf, y_buf = np.empty(shape, dtype), np.empty(shape, dtype)
    prev_out = np.empty(shape, dtype) if teacher_out is not None else None
    log = []
    for it in range(iterations):
        x_new, y_new, _ = sampler_new.next_batch(x_buf, y_buf)
        l_new, grads = restorer.restoration_loss_grads(state, x_new, y_new, ws=ws)

        l_replay, l_consist = 0.0, 0.0
        if sampler_replay is not None:
            x_rep, y_rep, picked = sampler_replay.next_batch(x_buf, y_buf)
            if prev_out is not None:
                np.take(teacher_out, picked, axis=0, out=prev_out)
            l_replay, l_consist, g_rep = restorer.replay_loss_grads(
                state, x_rep, y_rep, prev_out, cfg.lam, ws=ws)
            restorer.add_grads(grads, g_rep)

        l_interleave = l_replay + l_new
        l_total = l_interleave + cfg.lam * l_consist
        if not np.isfinite(l_total):
            raise restorer.NumericalFaultError(
                f"non-finite loss at stage {stage}, iteration {it}")
        lr = 0.5 * cfg.lr * (1.0 + math.cos(math.pi * it / iterations))
        state = restorer.sgd_step(state, grads, lr=lr)
        log.append({
            "l_new": l_new, "l_replay": l_replay, "l_consist": l_consist,
            "l_interleave": l_interleave, "l_total": l_total,
        })
    return state, log


def train_count(pair_count: int) -> int:
    """Training pairs of a dataset of ``pair_count`` pairs: the first ones,
    leaving ``TEST_FRACTION`` of them, and at least one, as test pairs."""
    return pair_count - max(1, int(round(TEST_FRACTION * pair_count)))


def _checked_train_count(spec) -> int:
    """``train_count`` of spec's dataset; ConfigError if it leaves none."""
    n_train = train_count(spec.pair_count)
    if n_train < 1:
        raise ConfigError(f"dataset {spec.id!r}: {spec.pair_count} pair "
                          f"leaves no training pair; raise its pair_count")
    return n_train


def split_train_test(ds: RainDataset):
    n_train = train_count(len(ds))
    train = RainDataset(spec=ds.spec, pairs=ds.pairs[:n_train],
                        layers=ds.layers[:n_train] if ds.layers else [])
    test = ds.pairs[n_train:]
    return train, test


def evaluate(state, pairs):
    """Mean PSNR/SSIM of clipped restorations over (rainy, clean) pairs.
    The pairs of one dataset share an image size, so their one-image
    forwards share one workspace, of the state's dtype."""
    ps, ss, ws = [], [], None
    for rainy, clean in pairs:
        if ws is None:
            ws = restorer.Workspace((1, 3, rainy.height, rainy.width),
                                    training=False, dtype=state.dtype)
        restored = restorer.restore_image(state, rainy, ws=ws)
        ps.append(psnr(restored, clean))
        ss.append(ssim(restored, clean))
    return float(np.mean(ps)), float(np.mean(ss))


class ChainStep(NamedTuple):
    """One stage of the memory chain."""

    replay: memgen.ReplayDataset | None  # None at stage 1 or without replay
    similarity: SimilarityReport
    delta: int  # 1 iff a generator was fitted to this dataset; 0 without replay
    generator: int | None  # index of the generator mapped to this dataset
    sampler_calls: int  # fresh replay samples drawn


def memory_chain(train_sets, cfg: StageConfig):
    """The generator / replay / similarity chain, one ``ChainStep`` per stage.

    Stage n replays the mapped generators of datasets 1..n-1 onto the
    incoming training set (through the reuse cache under ``cfg.reuse``),
    scores the training set against each replayed slot, then fits a
    generator to it unless the selective policy maps it onto the nearest
    existing one. The chain never reads the restorer, so it runs the same
    with or without training; steps are produced lazily, stage by stage.

    One stage is alive at a time: the chain keeps no reference to stage n's
    training set or replay set while it builds stage n+1's (only the reuse
    cache carries pairs on, and only what the next stage reuses). A consumer
    that drops each step before asking for the next one therefore holds a
    single replay set.
    """
    generators = []  # distinct fitted generators
    mapped = []  # per prior dataset: index into generators
    cache = memgen.ReplayCache(stage=1, entries=[])

    def step(n, train_ds):
        nonlocal cache
        replay, calls = None, 0
        if cfg.replay and n >= 2:
            seed = derive_seed(cfg.seed, "replay", n)
            slot_gens = [generators[g] for g in mapped]
            if cfg.reuse:
                plan = memgen.reuse_plan(cache, n, len(train_ds))
                replay, cache, calls = memgen.apply_reuse(
                    cache, plan, slot_gens, train_ds, seed)
            else:
                replay = memgen.build_replay_dataset(slot_gens, train_ds, seed)
                calls = len(replay)

        sim = similarity(train_ds.rainy_images, replay, n - 1)
        if not cfg.replay:
            return ChainStep(None, sim, 0, None, 0)
        delta = 1
        if cfg.selective:
            delta = memgen.select_generator_training(
                sim.s_hat, cfg.threshold, first_stage=(n == 1))
        if delta:
            generators.append(memgen.fit_generator(train_ds))
            mapped.append(len(generators) - 1)
        else:
            # skipped dataset is represented by its nearest generator
            nearest_slot = int(np.argmin(
                [s if s is not None else np.inf for s in sim.per_generator]))
            mapped.append(mapped[nearest_slot])
        return ChainStep(replay, sim, delta, mapped[-1], calls)

    # map holds neither its last training set nor its last step while it
    # draws the next training set, as a for loop's target would.
    return map(step, itertools.count(1), train_sets)


def require_training_pairs(stream: DatasetStream):
    """ConfigError if a dataset of the stream would have no training pair.
    Builds nothing, so callers check a stream before building any of it."""
    for spec in stream:
        _checked_train_count(spec)


def stream_splits(stream: DatasetStream):
    """Per dataset of the stream: (training set, test pairs). ConfigError
    before any dataset is built if one would have no training pair."""
    require_training_pairs(stream)
    return [split_train_test(make_dataset(spec)) for spec in stream]


def training_sets(stream: DatasetStream):
    """Each dataset's training split, built when it is reached and without
    its test pairs. Pairs are seeded one by one, so each split equals
    ``split_train_test(make_dataset(spec))[0]`` pair for pair."""
    for spec in stream:
        yield make_dataset(replace(spec, pair_count=_checked_train_count(spec)))


def _check_reuse_sizes(stream: DatasetStream, cfg: StageConfig):
    """ConfigError if replay runs through the reuse cache over datasets of
    different image sizes: the cache keeps replay pairs at the size they were
    drawn at, so a later stage would batch pairs of two sizes."""
    if not (cfg.replay and cfg.reuse):
        return
    first = stream[0]
    for spec in stream:
        if spec.image_size != first.image_size:
            raise ConfigError(
                f"replay with reuse needs one image size: dataset {first.id!r} "
                f"is {first.image_size} px but dataset {spec.id!r} is "
                f"{spec.image_size} px; run mixed sizes with --no-reuse")


def _setup(stream: DatasetStream, cfg: StageConfig, holdout):
    splits = stream_splits(stream)
    if holdout is None:
        holdout = make_holdout(derive_seed(cfg.seed, "holdout"),
                               pair_count=cfg.holdout_pairs,
                               image_size=stream[0].image_size)
    return splits, holdout


def run_stream(stream: DatasetStream, cfg: StageConfig, method="clgid",
               holdout: RainDataset | None = None) -> StreamReport:
    """Train on the stream stage by stage, following the memory chain.
    ConfigError before any dataset is built if a dataset would have no
    training pair, or if the reuse cache would replay pairs of two image
    sizes."""
    _check_reuse_sizes(stream, cfg)
    splits, holdout = _setup(stream, cfg, holdout)
    report = StreamReport(method=method, dataset_ids=[s.id for s in stream])
    state = restorer.RestorerState.random_init(derive_seed(cfg.seed, "init", 1),
                                               dtype=TRAIN_DTYPE)
    f_prev = None
    chain = memory_chain([train for train, _ in splits], cfg)
    for n, (train_ds, _) in enumerate(splits, start=1):
        step = next(chain)
        iterations = (scaled_iterations(step.similarity.s_hat, cfg.iterations,
                                        cfg.floor)
                      if cfg.speedup else cfg.iterations)
        state, log = train_stage(
            state, f_prev, train_ds.pairs,
            step.replay.pairs if step.replay is not None else None,
            cfg, iterations, n)
        f_prev = state.copy()

        for d in range(1, n + 1):
            report.memory[(n, d)] = evaluate(state, splits[d - 1][1])
        report.generalization.append(evaluate(state, holdout.pairs))
        report.record(iterations, step, log)
        del step  # so that the next stage's replay set is built without it
    return report


def baseline_sf(stream: DatasetStream, cfg: StageConfig,
                holdout: RainDataset | None = None) -> StreamReport:
    """Sequential fine-tuning: no replay, no distillation, no speedup."""
    sf_cfg = replace(cfg, replay=False, lam=0.0, speedup=False,
                     selective=False, reuse=False)
    return run_stream(stream, sf_cfg, method="sf", holdout=holdout)


def baseline_individual(stream: DatasetStream, cfg: StageConfig,
                        holdout: RainDataset | None = None) -> StreamReport:
    """Fresh network per dataset; diagonal-only memory matrix."""
    splits, holdout = _setup(stream, cfg, holdout)
    report = StreamReport(method="individual", dataset_ids=[s.id for s in stream])
    no_replay = ChainStep(None, SimilarityReport.bootstrap(), 0, None, 0)
    for n, (train_ds, test_pairs) in enumerate(splits, start=1):
        state = restorer.RestorerState.random_init(derive_seed(cfg.seed, "init", n),
                                                   dtype=TRAIN_DTYPE)
        state, log = train_stage(state, None, train_ds.pairs, None, cfg,
                                 cfg.iterations, n)
        report.memory[(n, n)] = evaluate(state, test_pairs)
        report.generalization.append(evaluate(state, holdout.pairs))
        report.record(cfg.iterations, no_replay, log)
    return report


def selective_chain(stream: DatasetStream, threshold: float, seed: int):
    """Per-stage train-a-generator flags of the selective memory chain.

    Fits, replays and scores on each dataset's training split, exactly as
    ``run_stream`` does, so the flags equal the ``deltas`` of ``run --method
    clgid --no-reuse`` at this threshold and seed. Cheap enough to sweep
    thresholds without touching the restorer.
    """
    cfg = StageConfig(selective=True, reuse=False, threshold=threshold, seed=seed)
    # map, unlike a comprehension's loop variable, keeps no step alive while
    # the chain builds the next one
    return list(map(attrgetter("delta"), memory_chain(training_sets(stream), cfg)))


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def _fmt(x):
    return "%.10g" % x


def stage_flops_estimate(cfg: StageConfig, image_size: int, iterations: int,
                         with_replay: bool) -> float:
    """Modelled FLOPs of a stage's training steps only, a new batch each plus a
    replay batch on replay stages; not evaluation, nor the once-per-stage teacher
    forward over the replay pairs (0.8% at 40 steps of 4 images, 8 pairs)."""
    pixels = cfg.batch_size * image_size * image_size
    batches = 2 if with_replay else 1
    return float(iterations * batches * pixels * FLOPS_PER_PIXEL_STEP)


def write_reports(report: StreamReport, cfg: StageConfig, out_dir,
                  image_sizes):
    """Write memory.csv, generalization.csv and cost.csv; ``image_sizes``
    holds each stage's dataset image size, which its FLOPs estimate uses."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "memory.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "dataset", "psnr", "ssim"])
        for stage in range(1, report.n_stages + 1):
            for d in range(1, stage + 1):
                if (stage, d) in report.memory:
                    p, s = report.memory[(stage, d)]
                    w.writerow([stage, d, _fmt(p), _fmt(s)])
    with open(os.path.join(out_dir, "generalization.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "psnr", "ssim"])
        for stage, (p, s) in enumerate(report.generalization, start=1):
            w.writerow([stage, _fmt(p), _fmt(s)])
    with open(os.path.join(out_dir, "cost.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "iterations", "sampler_calls", "flops_estimate"])
        for stage in range(1, report.n_stages + 1):
            fl = stage_flops_estimate(cfg, image_sizes[stage - 1],
                                      report.iterations[stage - 1],
                                      report.replay_active[stage - 1])
            w.writerow([stage, report.iterations[stage - 1],
                        report.sampler_calls[stage - 1], _fmt(fl)])
