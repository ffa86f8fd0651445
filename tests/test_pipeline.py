import csv
import hashlib
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from rainreplay import cli, memgen, pipeline, restorer, synthdata
from rainreplay.pipeline import (
    SimilarityReport, StageConfig, baseline_individual, baseline_sf,
    derive_seed, run_stream, scaled_iterations, selective_chain, similarity,
    split_train_test, training_sets, write_reports,
)
from rainreplay.synthdata import ConfigError, make_dataset, make_stream

from conftest import dataset_spec
from oracles import FreshBatchSampler
from test_acceptance import _reference_stream


def scaled_iterations_oracle(s_hat, iterations, floor):
    import decimal
    scaled = int(math.floor(s_hat * iterations + 0.5))
    lo = int(math.floor(floor * iterations + 0.5))
    return min(iterations, max(scaled, lo))


def _tiny_cfg(**kw):
    defaults = dict(iterations=6, batch_size=2, lr=1e-2, seed=3,
                    holdout_pairs=2)
    defaults.update(kw)
    return StageConfig(**defaults)


def _stream(angles, pairs=6, size=16, seed0=50, **kw):
    return make_stream([
        dataset_spec(f"d{i + 1}", seed0 + i, angle=a, pairs=pairs, size=size, **kw)
        for i, a in enumerate(angles)
    ])


# ---------------------------------------------------------------------------
# similarity and the iteration speedup
# ---------------------------------------------------------------------------


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
    seen = {derive_seed(s, t, n) for s in range(3)
            for t in ("a", "b") for n in range(3)}
    assert len(seen) == 18


def test_flops_per_pixel_pinned():
    # 2 FLOPs per weight of the 3->8->8->3 net; cost.csv prints these exactly.
    assert pipeline.FLOPS_PER_PIXEL_FWD == 2016
    assert pipeline.FLOPS_PER_PIXEL_STEP == 6048
    assert pipeline.stage_flops_estimate(_tiny_cfg(), 16, 3, True) == 3 * 2 * 2 * 256 * 6048


def test_similarity_bootstrap():
    sim = similarity([], None, 0)
    assert sim.s_hat == 1.0
    assert sim.s_min is None


def test_similarity_self_replay_is_zero():
    from rainreplay.synthdata import make_dataset
    ds = make_dataset(dataset_spec("a", 4, pairs=6, size=32))
    replay = memgen.ReplayDataset(pairs=list(ds.pairs), slot_ids=[0] * 6)
    sim = similarity(ds.rainy_images, replay, 1)
    assert sim.s_min == pytest.approx(0.0, abs=1e-9)
    assert sim.s_hat == pytest.approx(0.0, abs=1e-9)


def test_similarity_exponential_transform():
    from rainreplay.synthdata import make_dataset
    a = make_dataset(dataset_spec("a", 4, angle=30.0, pairs=6, size=32))
    b = make_dataset(dataset_spec("b", 5, angle=120.0, pairs=6, size=32))
    replay = memgen.ReplayDataset(pairs=list(b.pairs), slot_ids=[0] * 6)
    sim = similarity(a.rainy_images, replay, 1)
    assert sim.s_hat == pytest.approx(1.0 - math.exp(-sim.s_min), abs=1e-12)
    # s_min is the minimum over slots
    replay2 = memgen.ReplayDataset(
        pairs=list(b.pairs) + list(a.pairs), slot_ids=[0] * 6 + [1] * 6)
    sim2 = similarity(a.rainy_images, replay2, 2)
    assert sim2.s_min == min(s for s in sim2.per_generator)
    assert sim2.s_min <= 1e-9  # slot 1 replays the dataset itself


def test_scaled_iterations_examples():
    assert scaled_iterations(0.5, 2000, 0.05) == 1000
    assert scaled_iterations(1.0, 2000, 0.05) == 2000
    assert scaled_iterations(0.0, 2000, 0.05) == 100  # 5% floor
    assert scaled_iterations(0.25025, 1000, 0.05) == 250
    assert scaled_iterations(0.0005, 1000, 0.0) == 1  # round(0.5) -> 1
    assert scaled_iterations(0.0004, 1000, 0.0) == 0


def test_scaled_iterations_random_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        s = float(rng.uniform(0, 1))
        it = int(rng.integers(1, 5000))
        fl = float(rng.uniform(0, 0.2))
        assert scaled_iterations(s, it, fl) == scaled_iterations_oracle(s, it, fl)


def test_scaled_iterations_domain():
    with pytest.raises(ValueError):
        scaled_iterations(1.2, 100, 0.05)


def test_duplicate_stage_triggers_speedup():
    # stage 2 re-draws the same rain distribution: tiny similarity score
    stream = _stream([90.0, 90.0], pairs=8, size=32, seed0=70)
    cfg = _tiny_cfg(iterations=50, speedup=True)
    report = run_stream(stream, cfg)
    assert report.iterations[0] == 50
    assert report.iterations[1] <= 0.2 * 50


def test_disjoint_streams_high_similarity_score():
    stream = _stream([20.0, 90.0, 160.0], pairs=8, size=32, seed0=80,
                     angle_std=2.0)
    cfg = _tiny_cfg(iterations=4, speedup=True)
    report = run_stream(stream, cfg)
    for sim in report.similarity[1:]:
        assert sim.s_hat >= 0.5


# ---------------------------------------------------------------------------
# per-stage step-size schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("iterations", [1, 2, 5, 20, 100])
def test_train_stage_step_size_anneals(monkeypatch, iterations):
    seen = []
    real_step = pipeline.restorer.sgd_step

    def spy(state, grads, lr):
        seen.append(lr)
        return real_step(state, grads, lr=lr)

    monkeypatch.setattr(pipeline.restorer, "sgd_step", spy)
    ds = make_dataset(dataset_spec("a", 5, pairs=3, size=16))
    cfg = _tiny_cfg(lr=2e-2)
    state = pipeline.restorer.RestorerState.random_init(1)
    pipeline.train_stage(state, None, ds.pairs, None, cfg, iterations, 1)

    assert len(seen) == iterations
    assert seen[0] == cfg.lr  # a one-iteration stage still takes a full step
    assert all(b <= a for a, b in zip(seen, seen[1:]))
    assert all(lr > 0.0 for lr in seen)
    if iterations >= 20:
        assert seen[-1] < 0.01 * cfg.lr


# ---------------------------------------------------------------------------
# loss bookkeeping
# ---------------------------------------------------------------------------


def test_loss_identities_every_step():
    stream = _stream([30.0, 120.0], pairs=5)
    cfg = _tiny_cfg(iterations=8, lam=1.0)
    report = run_stream(stream, cfg)
    for log in report.loss_logs:
        for step in log:
            assert step["l_interleave"] == step["l_new"] + step["l_replay"]
            assert abs(step["l_total"] - (step["l_interleave"]
                                          + cfg.lam * step["l_consist"])) <= 1e-12


def test_stage_one_has_no_replay_terms():
    stream = _stream([30.0, 120.0], pairs=5)
    report = run_stream(stream, _tiny_cfg(iterations=8))
    for step in report.loss_logs[0]:
        assert step["l_replay"] == 0.0
        assert step["l_consist"] == 0.0
        assert step["l_total"] == step["l_new"]
    # replay terms are live from stage 2 on
    assert any(step["l_replay"] > 0.0 for step in report.loss_logs[1])


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_teacher_forward_only_when_distilling(monkeypatch, lam):
    forwards = []
    real_forward = pipeline.restorer.forward

    def spy(state, x):
        forwards.append(x.shape)
        return real_forward(state, x)

    monkeypatch.setattr(pipeline.restorer, "forward", spy)
    ds = make_dataset(dataset_spec("a", 5, pairs=3, size=16))
    cfg = _tiny_cfg(lam=lam)
    teacher = pipeline.restorer.RestorerState.random_init(2)
    state = pipeline.restorer.RestorerState.random_init(1)
    pipeline.train_stage(state, teacher, ds.pairs, ds.pairs, cfg, 5, 2)
    # with a teacher: one forward per batch_size chunk of the 3 replay pairs,
    # however many steps the stage takes
    assert len(forwards) == (0 if lam == 0.0 else 2)


def test_cached_teacher_output_matches_per_step_forward(monkeypatch):
    seen = []
    real_loss = pipeline.restorer.replay_loss_grads

    def spy(state, x, target, prev_out, lam, **kwargs):
        # copies: the stage writes every batch into the same buffers
        seen.append((x.copy(), prev_out.copy()))
        return real_loss(state, x, target, prev_out, lam, **kwargs)

    monkeypatch.setattr(pipeline.restorer, "replay_loss_grads", spy)
    ds = make_dataset(dataset_spec("a", 5, pairs=5, size=16))
    cfg = _tiny_cfg(batch_size=2, lam=1.0)
    teacher = pipeline.restorer.RestorerState.random_init(2)
    state = pipeline.restorer.RestorerState.random_init(1)
    pipeline.train_stage(state, teacher, ds.pairs, ds.pairs, cfg, 7, 2)
    assert len(seen) == 7
    for x_rep, prev_out in seen:
        want = pipeline.restorer.forward(teacher, x_rep)
        assert prev_out.shape == want.shape
        assert np.allclose(prev_out, want, rtol=0.0, atol=1e-12)


def _spy_loss_steps(monkeypatch):
    """Record the (x, target, prev_out) arrays of every loss step."""
    seen = []
    real_new = restorer.restoration_loss_grads
    real_replay = restorer.replay_loss_grads

    def spy_new(state, x, target, **kwargs):
        seen.append((x, target, None))
        return real_new(state, x, target, **kwargs)

    def spy_replay(state, x, target, prev_out, lam, **kwargs):
        seen.append((x, target, prev_out))
        return real_replay(state, x, target, prev_out, lam, **kwargs)

    monkeypatch.setattr(restorer, "restoration_loss_grads", spy_new)
    monkeypatch.setattr(restorer, "replay_loss_grads", spy_replay)
    return seen


def test_stage_batches_reuse_stage_owned_buffers(monkeypatch):
    seen = _spy_loss_steps(monkeypatch)
    ds = make_dataset(dataset_spec("a", 5, pairs=5, size=16))
    replay = make_dataset(dataset_spec("b", 6, angle=30.0, pairs=3, size=16))
    teacher = restorer.RestorerState.random_init(2)
    state = restorer.RestorerState.random_init(1)
    pipeline.train_stage(state, teacher, ds.pairs, replay.pairs,
                         _tiny_cfg(lam=1.0), 6, 2)
    assert len(seen) == 12
    # the new and the replay batches of every step share one x buffer and
    # one target buffer, and the teacher rows have a third buffer
    x0, y0, _ = seen[0]
    prev0 = seen[1][2]
    for x, y, prev_out in seen:
        assert np.shares_memory(x, x0) and np.shares_memory(y, y0)
        assert not np.shares_memory(x, y)
        if prev_out is not None:
            assert np.shares_memory(prev_out, prev0)
            assert not np.shares_memory(prev_out, x)
            assert not np.shares_memory(prev_out, y)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_stage_loss_log_equals_fresh_batch_oracle(monkeypatch, lam):
    ds = make_dataset(dataset_spec("a", 5, pairs=5, size=16))
    replay = make_dataset(dataset_spec("b", 6, angle=30.0, pairs=3, size=16))
    teacher = restorer.RestorerState.random_init(2)
    cfg = _tiny_cfg(lam=lam)

    def stage():
        return pipeline.train_stage(restorer.RestorerState.random_init(1),
                                    teacher, ds.pairs, replay.pairs, cfg, 9, 2)

    state, log = stage()
    monkeypatch.setattr(pipeline, "_BatchSampler", FreshBatchSampler)
    want_state, want_log = stage()
    assert log == want_log
    for n in want_state.params:
        assert np.array_equal(state.params[n], want_state.params[n])


def test_float32_stage_keeps_every_array_float32(monkeypatch):
    f32 = np.dtype(np.float32)
    seen = []

    def dtypes(*arrays):
        return {a.dtype for a in arrays if a is not None}

    def watch(real):
        def spy(state, x, target, *rest, ws):
            arrays = [x, target, *rest[:1], *ws.frames, ws.top, ws.pred,
                      ws.scratch]
            out = real(state, x, target, *rest, ws=ws)
            seen.append(dtypes(*arrays, *out[-1].values()))
            return out
        return spy

    real_step, real_teacher = restorer.sgd_step, pipeline._teacher_outputs

    def spy_step(state, grads, lr):
        new = real_step(state, grads, lr=lr)
        seen.append(dtypes(*new.params.values(), *new.momentum.values()))
        return new

    def spy_teacher(*args):
        rows = real_teacher(*args)
        seen.append(dtypes(rows))
        return rows

    for name in ("restoration_loss_grads", "replay_loss_grads"):
        monkeypatch.setattr(restorer, name, watch(getattr(restorer, name)))
    monkeypatch.setattr(restorer, "sgd_step", spy_step)
    monkeypatch.setattr(pipeline, "_teacher_outputs", spy_teacher)
    ds = make_dataset(dataset_spec("a", 5, pairs=5, size=16))
    replay = make_dataset(dataset_spec("b", 6, angle=30.0, pairs=3, size=16))
    teacher = restorer.RestorerState.random_init(2, dtype=np.float32)
    state = restorer.RestorerState.random_init(1, dtype=np.float32)
    state, log = pipeline.train_stage(state, teacher, ds.pairs, replay.pairs,
                                      _tiny_cfg(lam=1.0), 1, 2)
    # teacher rows, then one step: new and replay losses, SGD
    assert len(seen) == 4
    assert all(s == {f32} for s in seen)
    assert state.dtype == f32
    assert all(isinstance(v, float) for v in log[0].values())


# sha256 of a float64 stage's final parameters, momenta and loss log, as the
# float64-only restorer computed them (numpy 2.4.6, OpenBLAS 0.3.31) on the
# separable backgrounds of gen_background; another numpy or BLAS build may
# round differently.
FLOAT64_STAGE_DIGEST = (
    "455dbf2bce313e7a68c0b3401b21d3ff6bee6ef5534a1348e9c98f67e623d9b4")


def test_float64_stage_is_bit_identical_to_the_float64_restorer():
    ds = make_dataset(dataset_spec("a", 5, pairs=5, size=16))
    replay = make_dataset(dataset_spec("b", 6, angle=30.0, pairs=3, size=16))
    state, log = pipeline.train_stage(
        restorer.RestorerState.random_init(1), restorer.RestorerState.random_init(2),
        ds.pairs, replay.pairs, _tiny_cfg(lam=1.0), 9, 2)
    digest = hashlib.sha256()
    for part in (state.params, state.momentum):
        for n, _ in restorer.LAYER_SHAPES:
            assert part[n].dtype == np.float64
            digest.update(part[n].tobytes())
    digest.update(repr(log).encode())
    assert digest.hexdigest() == FLOAT64_STAGE_DIGEST


def test_runs_train_in_train_dtype(monkeypatch):
    seen = []
    real = pipeline.train_stage

    def spy(state, *args):
        seen.append(state.dtype)
        return real(state, *args)

    monkeypatch.setattr(pipeline, "train_stage", spy)
    stream = _stream([30.0, 120.0], pairs=5)
    cfg = _tiny_cfg(iterations=2)
    for run in (run_stream, baseline_sf, baseline_individual):
        report = run(stream, cfg)
        assert all(np.isfinite(p) for p, _ in report.generalization)
    assert seen == [np.dtype(pipeline.TRAIN_DTYPE)] * 6
    assert pipeline.TRAIN_DTYPE == np.float32


def test_lambda_zero_drops_consistency_from_total():
    stream = _stream([30.0, 120.0], pairs=5)
    report = run_stream(stream, _tiny_cfg(iterations=6, lam=0.0))
    for step in report.loss_logs[1]:
        assert step["l_total"] == step["l_interleave"]


# ---------------------------------------------------------------------------
# equivalence oracles
# ---------------------------------------------------------------------------


def _reports_identical(a, b):
    assert a.memory.keys() == b.memory.keys()
    for k in a.memory:
        assert a.memory[k] == b.memory[k]
    assert a.generalization == b.generalization
    assert a.iterations == b.iterations
    for la, lb in zip(a.loss_logs, b.loss_logs):
        assert la == lb


def test_replay_and_distill_off_equals_sf():
    stream = _stream([40.0, 100.0, 160.0], pairs=5)
    cfg = _tiny_cfg(iterations=7)
    ablated = run_stream(
        stream, StageConfig(iterations=7, batch_size=2, lr=1e-2, seed=3,
                            holdout_pairs=2, replay=False, lam=0.0))
    sf = baseline_sf(stream, cfg)
    _reports_identical(ablated, sf)


def test_single_dataset_stream_equals_individual():
    stream = _stream([75.0], pairs=6)
    cfg = _tiny_cfg(iterations=7)
    solo = run_stream(stream, cfg)
    ind = baseline_individual(stream, cfg)
    assert solo.memory[(1, 1)] == ind.memory[(1, 1)]
    assert solo.generalization == ind.generalization
    assert solo.loss_logs == ind.loss_logs


def test_run_stream_deterministic():
    stream = _stream([40.0, 140.0], pairs=5)
    a = run_stream(stream, _tiny_cfg(iterations=5))
    b = run_stream(stream, _tiny_cfg(iterations=5))
    _reports_identical(a, b)


def test_individual_memory_is_diagonal():
    stream = _stream([30.0, 90.0, 150.0], pairs=5)
    report = baseline_individual(stream, _tiny_cfg(iterations=5))
    assert set(report.memory) == {(1, 1), (2, 2), (3, 3)}


# ---------------------------------------------------------------------------
# training splits
# ---------------------------------------------------------------------------


def test_training_sets_build_only_the_training_pairs(monkeypatch):
    # 2, 5, 10, 11 and 13 pairs hold 1, 4, 8, 9 and 10 training pairs.
    stream = make_stream([
        dataset_spec(f"d{k}", 70 + k, angle=30.0 * k, pairs=pairs, size=16)
        for k, pairs in enumerate((2, 5, 10, 11, 13), start=1)])
    splits = [split_train_test(make_dataset(spec))[0] for spec in stream]
    assert [len(train) for train in splits] == [1, 4, 8, 9, 10]

    made = []
    make_pair = synthdata.make_pair

    def counted(spec, m):
        made.append((spec.id, m))
        return make_pair(spec, m)

    monkeypatch.setattr(synthdata, "make_pair", counted)
    built = training_sets(stream)
    first = next(built)
    assert made == [("d1", 0)]
    built = [first, *built]
    assert made == [(spec.id, m) for spec, train in zip(stream, splits)
                    for m in range(len(train))]
    for train, want in zip(built, splits, strict=True):
        assert train.spec.id == want.spec.id
        for got, ref in zip(train.pairs, want.pairs, strict=True):
            assert all(np.array_equal(a.data, b.data) for a, b in zip(got, ref))
        for got, ref in zip(train.layers, want.layers, strict=True):
            assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("run", [run_stream, baseline_sf, baseline_individual])
@pytest.mark.parametrize("pairs", [(1,), (2, 1)])
def test_stream_runs_reject_a_dataset_with_no_training_pair(run, pairs):
    stream = make_stream([dataset_spec(f"d{k}", 70 + k, pairs=n, size=16)
                          for k, n in enumerate(pairs, start=1)])
    bad = f"d{len(pairs)}"
    with pytest.raises(ConfigError, match=f"'{bad}': 1 pair leaves no training pair"):
        run(stream, _tiny_cfg(iterations=2))


def _mixed_size_stream():
    # d3 would reuse replay pairs drawn at d2's size
    return make_stream([dataset_spec(f"d{k}", 70 + k, angle=40.0 * k, pairs=5,
                                     size=size)
                        for k, size in enumerate((16, 24, 16), start=1)])


def test_run_stream_rejects_mixed_sizes_under_reuse(monkeypatch):
    made = []
    make_pair = synthdata.make_pair
    monkeypatch.setattr(synthdata, "make_pair",
                        lambda spec, m: made.append(spec.id) or make_pair(spec, m))
    with pytest.raises(ConfigError, match=r"dataset 'd1' is 16 px but dataset "
                                          r"'d2' is 24 px.*--no-reuse"):
        run_stream(_mixed_size_stream(), _tiny_cfg(iterations=2, reuse=True))
    assert made == []  # rejected before any dataset is built


@pytest.mark.parametrize("off", [dict(reuse=False), dict(replay=False)])
def test_mixed_sizes_run_without_the_reuse_cache(off):
    cfg = replace(_tiny_cfg(iterations=2, reuse=True), **off)
    assert run_stream(_mixed_size_stream(), cfg).n_stages == 3


def test_training_sets_reject_a_dataset_with_no_training_pair():
    stream = make_stream([dataset_spec("d1", 70, pairs=2, size=16),
                          dataset_spec("d2", 71, pairs=1, size=16)])
    built = training_sets(stream)
    assert len(next(built)) == 1
    with pytest.raises(ConfigError, match="'d2': 1 pair leaves no training pair"):
        next(built)


# ---------------------------------------------------------------------------
# data lifetimes: one stage of the memory chain alive at a time
# ---------------------------------------------------------------------------


def _watch_builds(monkeypatch, module, name, built, dead, pick=lambda out: out):
    """Wrap ``module.name`` so that each call first asserts that every
    object ``dead()`` lists has been freed, then keeps only a weakref to
    what the call returns (its part ``pick`` selects), in ``built``."""
    real = getattr(module, name)

    def build(*args):
        assert [ref for ref in dead() if ref() is not None] == []
        out = real(*args)
        built.append(weakref.ref(pick(out)))
        return out

    monkeypatch.setattr(module, name, build)


def test_selective_chain_holds_one_stage_at_a_time(monkeypatch):
    trains, replays = [], []
    # a training set is built before the replay set drawn onto it
    _watch_builds(monkeypatch, pipeline, "make_dataset", trains,
                  lambda: trains + replays)
    _watch_builds(monkeypatch, memgen, "build_replay_dataset", replays,
                  lambda: trains[:-1] + replays)
    stream = _stream([30.0, 120.0, 75.0, 30.0], pairs=6, size=32, seed0=60)
    assert len(selective_chain(stream, threshold=0.4, seed=1)) == 4
    assert (len(trains), len(replays)) == (4, 3)


def test_run_stream_holds_one_replay_set_at_a_time(monkeypatch):
    # run_stream still builds every split up front and keeps them to the end,
    # so only its replay sets are one at a time
    replays = []
    _watch_builds(monkeypatch, memgen, "build_replay_dataset", replays,
                  lambda: replays)
    stream = _stream([30.0, 120.0, 75.0, 30.0], pairs=5)
    report = run_stream(stream, _tiny_cfg(iterations=2, reuse=False))
    assert len(replays) == 3
    assert report.replay_active == [False, True, True, True]


def test_similarity_command_holds_one_replay_set_at_a_time(monkeypatch, tmp_path,
                                                           capsys):
    # ``rainreplay similarity`` runs the chain with the reuse cache, so each
    # replay set is the first of what apply_reuse returns
    replays = []
    _watch_builds(monkeypatch, memgen, "apply_reuse", replays, lambda: replays,
                  pick=lambda out: out[0])
    spec = tmp_path / "stream.txt"
    spec.write_text("datasets=a,b,c,d\nimage_size=16\npair_count=6\nseed=5\n"
                    + "".join(f"{d}.angle_mean={a}\n{d}.density=30\n"
                              for d, a in zip("abcd", (30, 120, 75, 30))))
    assert cli.main(["similarity", "--config", str(spec)]) == cli.EXIT_OK
    assert len(replays) == 3
    assert len(capsys.readouterr().out.splitlines()) == 4


# ---------------------------------------------------------------------------
# selective generator training
# ---------------------------------------------------------------------------


def test_selective_chain_first_stage_always_trains():
    stream = _stream([30.0, 150.0], pairs=6, size=32)
    deltas = selective_chain(stream, threshold=0.9, seed=1)
    assert deltas[0] == 1


def test_selective_chain_monotone_in_threshold():
    angles = [15.0, 45.0, 75.0, 105.0, 135.0, 165.0]
    stream = _stream(angles, pairs=6, size=32, seed0=90, angle_std=2.0)
    totals = []
    for t in np.arange(0.1, 0.95, 0.1):
        deltas = selective_chain(stream, threshold=float(t), seed=2)
        totals.append(sum(deltas))
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert totals[0] >= totals[-1]


@pytest.mark.parametrize("seed", range(5))
def test_selective_chain_predicts_no_reuse_run(seed):
    stream = _reference_stream(seed)
    cfg = StageConfig(iterations=1, selective=True, reuse=False,
                      threshold=0.4, seed=seed)
    assert selective_chain(stream, 0.4, seed) == run_stream(stream, cfg).deltas


def test_selective_run_skips_generator_for_duplicate():
    stream = _stream([90.0, 90.0, 90.0], pairs=8, size=32, seed0=70)
    cfg = _tiny_cfg(iterations=4, selective=True)
    report = run_stream(stream, cfg)
    assert report.deltas[0] == 1
    assert report.deltas[1] == 0  # near-duplicate rain: generator reused
    assert report.deltas[2] == 0


# ---------------------------------------------------------------------------
# reuse inside the orchestrator
# ---------------------------------------------------------------------------


def test_reuse_reduces_sampler_calls():
    stream = _stream([30.0, 90.0, 150.0, 60.0], pairs=8)
    with_reuse = run_stream(stream, _tiny_cfg(iterations=3, reuse=True))
    without = run_stream(stream, _tiny_cfg(iterations=3, reuse=False))
    assert sum(with_reuse.sampler_calls) < sum(without.sampler_calls)
    # 8 pairs minus the 2-pair test split leaves 6 training pairs per stage
    assert without.sampler_calls == [0, 6, 6, 6]
    # reuse: full build, then only the new slot (3), then only the new slot (2)
    assert with_reuse.sampler_calls == [0, 6, 3, 2]


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def test_write_reports_csvs(tmp_path):
    stream = _stream([45.0, 135.0], pairs=5)
    cfg = _tiny_cfg(iterations=4)
    report = run_stream(stream, cfg)
    write_reports(report, cfg, tmp_path, [16, 16])
    with open(tmp_path / "memory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # (1,1), (2,1), (2,2)
    assert {(int(r["stage"]), int(r["dataset"])) for r in rows} == \
        {(1, 1), (2, 1), (2, 2)}
    with open(tmp_path / "generalization.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    with open(tmp_path / "cost.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["iterations"]) for r in rows] == [4, 4]
    assert float(rows[1]["flops_estimate"]) == \
        2 * float(rows[0]["flops_estimate"])  # replay doubles the batch work
