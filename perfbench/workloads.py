"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed (``build``), computes
its oracles and makes its one-off checks (``prepare``), runs one pass through
the program's public API (``run``) and checks that pass (``check_pass``).
Import this module only after ``rainreplay`` is importable.
"""

from __future__ import annotations

from dataclasses import dataclass

from rainreplay import costs, pipeline, restorer, synthdata
from rainreplay.synthdata import DatasetSpec, RainParams, make_stream

import checks

STREAM_ITERATIONS = 40  # per stage
STREAM_SIZE = 32
STREAM_LR = 2e-2  # criterion 6's peak step
BATCH_SIZE = 4
GRAD_PROBES_PER_TENSOR = 3
CHAIN_PAIRS = 40
CHAIN_THRESHOLD = 0.4  # the CLI's default selective threshold


def _rain(angle, density, intensity, width=1.2, length=12.0):
    return RainParams(angle_mean=angle, angle_std=4.0, length_mean=length,
                      length_std=3.0, width=width, density=density,
                      intensity_mean=intensity, intensity_std=0.1)


# Criterion 6's reference stream: heavy 30 degree rain, then two light styles.
STREAM_STYLES = (_rain(30.0, 60.0, 0.85), _rain(90.0, 8.0, 0.3),
                 _rain(150.0, 10.0, 0.35))

# Six datasets. Datasets 2 and 3 are far from every earlier style (S_hat
# 0.53-0.65 over seeds 0-4), datasets 4 and 5 are variants of 2 and 3 and
# dataset 6 repeats dataset 1 (S_hat 0.06-0.27), so the selective policy makes
# the same decisions on every seed and a pass does the same work.
CHAIN_STYLES = (_rain(30.0, 60.0, 0.85), _rain(90.0, 20.0, 0.7),
                _rain(150.0, 20.0, 0.7), _rain(90.0, 16.0, 0.6, length=16.0),
                _rain(150.0, 16.0, 0.6, width=1.5), _rain(30.0, 60.0, 0.85))
CHAIN_REPEAT_INDEX = 5


def make_specs(styles, pairs, size, seed):
    """One dataset per style. Spec seeds are multiples of 16, so the per-pair
    seeds ``spec.seed ^ m`` (m < 16) of different workload seeds never meet."""
    return make_stream([
        DatasetSpec(id=f"d{d}", pair_count=pairs, image_size=size,
                    seed=16 * (1000 * d + seed), rain=rain)
        for d, rain in enumerate(styles, start=1)])


@dataclass
class StreamInputs:
    stream: object
    cfg: pipeline.StageConfig
    holdout: synthdata.RainDataset


@dataclass
class StreamOracle:
    train_sizes: list
    counted_fresh: int
    rainy_psnr: list  # per dataset, over its test pairs
    holdout_rainy_psnr: float


class StreamWorkload:
    """``run_stream`` (clgid) or ``baseline_sf`` (sf) on criterion 6's stream."""

    def __init__(self, name, method):
        self.name = name
        self.method = method

    def build(self, seed):
        cfg = pipeline.StageConfig(
            iterations=STREAM_ITERATIONS, batch_size=BATCH_SIZE, lam=1.0,
            threshold=0.4, floor=0.05, speedup=False, selective=True,
            reuse=True, replay=True, lr=STREAM_LR, seed=seed)
        holdout = synthdata.make_holdout(
            pipeline.derive_seed(seed, "holdout"), pair_count=cfg.holdout_pairs,
            image_size=STREAM_SIZE)
        return StreamInputs(make_specs(STREAM_STYLES, 10, STREAM_SIZE, seed), cfg, holdout)

    def run(self, inputs):
        if self.method == "sf":
            return pipeline.baseline_sf(inputs.stream, inputs.cfg, holdout=inputs.holdout)
        return pipeline.run_stream(inputs.stream, inputs.cfg, holdout=inputs.holdout)

    def prepare(self, inputs):
        cfg = inputs.cfg
        splits = [pipeline.split_train_test(synthdata.make_dataset(spec))
                  for spec in inputs.stream]
        train_sizes = [len(train) for train, _ in splits]
        oracle = StreamOracle(
            train_sizes=train_sizes,
            counted_fresh=costs.replay_cost_reuse_counted(train_sizes),
            rainy_psnr=[checks.mean_psnr_reference(test) for _, test in splits],
            holdout_rainy_psnr=checks.mean_psnr_reference(inputs.holdout.pairs))

        eps = restorer.CHARBONNIER_EPS
        state = restorer.RestorerState.random_init(pipeline.derive_seed(cfg.seed, "init", 1))
        probes = checks.gradient_probes(state.params, GRAD_PROBES_PER_TENSOR, cfg.seed)
        x, y = _first_batch(splits[0][0])
        _, grads = restorer.restoration_loss_grads(state, x, y)
        found = [
            checks.check_forward("forward_matches_reference",
                                 restorer.forward(state, x), state.params, x),
            checks.check_gradients(
                "restoration_grads_match_fd", grads, state.params,
                lambda p: checks.loss_reference(p, x, y, eps), probes),
        ]
        if self.method == "clgid":
            x_rep, y_rep = _first_batch(splits[1][0])
            teacher = restorer.RestorerState.random_init(
                pipeline.derive_seed(cfg.seed, "init", 2))
            prev_out, _ = checks.forward_reference(teacher.params, x_rep)
            _, _, grads = restorer.replay_loss_grads(state, x_rep, y_rep, prev_out, cfg.lam)
            found.append(checks.check_gradients(
                "replay_grads_match_fd", grads, state.params,
                lambda p: checks.loss_reference(p, x_rep, y_rep, eps, prev_out, cfg.lam),
                probes))
        return found, oracle

    def check_pass(self, inputs, oracle, report, view):
        found = [
            checks.check_budgets(report.iterations, report.loss_logs,
                                 inputs.cfg.iterations, len(inputs.stream)),
            checks.check_losses_finite(report.loss_logs),
            checks.check_loss_decreases(report.loss_logs),
            checks.check_psnr_gain("d1_psnr_gain_after_stage_1",
                                   report.memory[(1, 1)][0], oracle.rainy_psnr[0]),
        ]
        fits = view.count("memgen.fit_generator")
        if self.method == "sf":
            found.append(checks.check_no_replay_work(
                report.sampler_calls, view.count("memgen.sample_rain"), fits,
                view.count("restorer.forward", parent="pipeline.train_stage")))
            return found
        return found + [
            checks.check_psnr_gain("holdout_psnr_gain_final",
                                   report.generalization[-1][0],
                                   oracle.holdout_rainy_psnr),
            checks.check_reuse_counts(report.sampler_calls, oracle.train_sizes,
                                      oracle.counted_fresh),
            checks.check_fresh_sampler_calls(
                view.count("memgen.sample_rain", parent="memgen.apply_reuse"),
                report.sampler_calls),
            checks.check_first_delta(report.deltas),
            checks.check_fit_count(fits, report.deltas),
        ]

    def reference_figures(self, inputs, oracle, report):
        """Restoration quality of one pass: reference figures, not gated."""
        return {
            "memory_psnr": {f"{s},{d}": round(v[0], 4)
                            for (s, d), v in sorted(report.memory.items())},
            "holdout_psnr": [round(p, 4) for p, _ in report.generalization],
            "rainy_psnr": [round(p, 4) for p in oracle.rainy_psnr],
            "holdout_rainy_psnr": round(oracle.holdout_rainy_psnr, 4),
            "deltas": list(report.deltas),
            "fresh_samples": list(report.sampler_calls),
        }


def _first_batch(train):
    pairs = train.pairs[:BATCH_SIZE]
    return (restorer.images_to_batch([r for r, _ in pairs]),
            restorer.images_to_batch([c for _, c in pairs]))


@dataclass
class ChainInputs:
    stream: object
    threshold: float
    seed: int


class ChainWorkload:
    """``selective_chain`` on a six-dataset 64 px stream."""

    name = "memory-chain"

    def build(self, seed):
        return ChainInputs(make_specs(CHAIN_STYLES, CHAIN_PAIRS, 64, seed),
                           CHAIN_THRESHOLD, seed)

    def run(self, inputs):
        return pipeline.selective_chain(inputs.stream, inputs.threshold, inputs.seed)

    def prepare(self, inputs):
        return [], None

    def check_pass(self, inputs, oracle, deltas, view):
        n = len(inputs.stream)
        return [
            checks.check_synthesis(view.works("synthdata.make_dataset"), n),
            checks.check_replay_splits(view.works("memgen.build_replay_dataset"), n),
            checks.check_first_delta(deltas),
            checks.check_repeat_delta(deltas, CHAIN_REPEAT_INDEX),
            checks.check_fit_count(view.count("memgen.fit_generator"), deltas),
        ]

    def reference_figures(self, inputs, oracle, deltas):
        return {"deltas": list(deltas)}


WORKLOADS = {
    "clgid-stream": StreamWorkload("clgid-stream", "clgid"),
    "sf-stream": StreamWorkload("sf-stream", "sf"),
    "memory-chain": ChainWorkload(),
}
