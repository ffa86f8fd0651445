"""Each benchmark check accepts the program's real output and rejects a
deliberately broken one, so no check can pass vacuously.

    python3 -m pytest -q perfbench
"""

import numpy as np
import pytest

import run

run.pin_blas_threads()
run.import_program()

from rainreplay import costs, pipeline, restorer, synthdata  # noqa: E402
from rainreplay.imaging import Image  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EPS = restorer.CHARBONNIER_EPS


@pytest.fixture(scope="module")
def batch():
    ds = synthdata.make_dataset(workloads.make_specs(workloads.STREAM_STYLES, 4, 16, 3)[0])
    x = restorer.images_to_batch(ds.rainy_images)
    y = restorer.images_to_batch(ds.clean_images)
    state = restorer.RestorerState.random_init(11)
    return state, x, y


def test_forward_check_rejects_flipped_kernel(batch):
    state, x, _ = batch
    good = checks.check_forward("f", restorer.forward(state, x), state.params, x)
    flipped = state.copy()
    flipped.params["w2"] = flipped.params["w2"][:, :, ::-1, ::-1].copy()
    bad = checks.check_forward("f", restorer.forward(flipped, x), state.params, x)
    assert good.ok and not bad.ok


def _gradient_checks(state, grads, loss_at):
    probes = checks.gradient_probes(state.params, 3, seed=5)
    good = checks.check_gradients("g", grads, state.params, loss_at, probes)
    assert good.ok and good.detail.startswith(f"{len(probes)}/{len(probes)} ")
    for tensor, idx in probes[:4]:
        broken = {k: v.copy() for k, v in grads.items()}
        broken[tensor].flat[idx] *= 1.0 + 1e-3
        broken[tensor].flat[idx] += 1e-7
        assert not checks.check_gradients("g", broken, state.params, loss_at, probes).ok


def test_gradient_check_rejects_one_perturbed_entry(batch):
    state, x, y = batch
    _, grads = restorer.restoration_loss_grads(state, x, y)
    _gradient_checks(state, grads, lambda p: checks.loss_reference(p, x, y, EPS))


def test_replay_gradient_check_rejects_one_perturbed_entry(batch):
    state, x, y = batch
    prev, _ = checks.forward_reference(restorer.RestorerState.random_init(12).params, x)
    _, _, grads = restorer.replay_loss_grads(state, x, y, prev, 1.0)
    _gradient_checks(state, grads,
                     lambda p: checks.loss_reference(p, x, y, EPS, prev, 1.0))


def test_gradient_check_needs_enough_probes_off_kinks(batch):
    state, x, y = batch
    _, grads = restorer.restoration_loss_grads(state, x, y)
    probes = checks.gradient_probes(state.params, 1, seed=5)[: checks.MIN_PROBES - 1]
    assert not checks.check_gradients(
        "g", grads, state.params, lambda p: checks.loss_reference(p, x, y, EPS), probes).ok


@pytest.mark.parametrize("sizes", [[8, 8, 8], [40] * 6, [5, 9, 3, 12], [1, 7]])
def test_reuse_rule_matches_costs_and_rejects_off_by_one(sizes):
    fresh = checks.reuse_fresh_reference(sizes)
    counted = costs.replay_cost_reuse_counted(sizes)
    assert checks.check_reuse_counts(fresh, sizes, counted).ok
    assert not checks.check_reuse_counts(fresh[:-1] + [fresh[-1] + 1], sizes, counted).ok
    assert not checks.check_reuse_counts(fresh, sizes, counted + 1).ok


def test_synthesis_check_rejects_rainy_not_clip_of_clean_plus_layer():
    spec = workloads.make_specs(workloads.CHAIN_STYLES, 3, 16, 1)[0]
    ds = synthdata.make_dataset(spec)
    assert checks.check_synthesis([ds], 1).ok
    (_, clean), layer = ds.pairs[1], ds.layers[1]
    dimmed = list(ds.pairs)
    dimmed[1] = (Image(np.clip(clean.data + 0.9 * layer.data, 0.0, 1.0)), clean)
    assert not checks.check_synthesis(
        [synthdata.RainDataset(spec, dimmed, ds.layers)], 1).ok
    unclipped = list(ds.layers)
    unclipped[0] = Image(layer.data * 0.0 - 0.5)
    assert not checks.check_synthesis(
        [synthdata.RainDataset(spec, ds.pairs, unclipped)], 1).ok
    assert not checks.check_synthesis([ds], 2).ok


def test_replay_split_check_rejects_uneven_or_short_sets():
    good = [(5, [0] * 5), (5, [0, 0, 0, 1, 1]), (5, [0, 0, 1, 1, 2])]
    assert checks.check_replay_splits(good, 4).ok
    assert not checks.check_replay_splits(good, 5).ok
    assert not checks.check_replay_splits([(5, [0] * 5), (5, [0, 0, 1, 1, 1])], 3).ok
    assert not checks.check_replay_splits([(5, [0] * 4)], 2).ok


def _logs(n_stages=3, steps=20, start=1.0, end=0.5):
    return [[{"l_new": v, "l_replay": 0.0, "l_consist": 0.0, "l_interleave": v, "l_total": v}
             for v in np.linspace(start, end, steps)] for _ in range(n_stages)]


def test_stage_checks_reject_short_budget_nan_loss_and_rising_loss():
    logs = _logs()
    assert checks.check_budgets([20] * 3, logs, 20, 3).ok
    assert not checks.check_budgets([20, 19, 20], logs, 20, 3).ok
    assert not checks.check_budgets([20] * 3, logs[:2] + [logs[2][:-1]], 20, 3).ok
    assert checks.check_losses_finite(logs).ok
    broken = _logs()
    broken[1][4]["l_consist"] = float("nan")
    assert not checks.check_losses_finite(broken).ok
    assert checks.check_loss_decreases(logs).ok
    assert not checks.check_loss_decreases(logs[:2] + _logs(1, 20, 0.5, 0.5)).ok


def test_count_checks_reject_wrong_counts():
    assert checks.check_psnr_gain("p", 20.0, 19.0).ok
    assert not checks.check_psnr_gain("p", 19.0, 19.0).ok
    assert checks.check_first_delta([1, 0, 1]).ok
    assert not checks.check_first_delta([0, 0, 1]).ok
    assert checks.check_fit_count(2, [1, 0, 1]).ok
    assert not checks.check_fit_count(3, [1, 0, 1]).ok
    assert checks.check_repeat_delta([1, 1, 0], 2).ok
    assert not checks.check_repeat_delta([1, 1, 1], 2).ok
    assert checks.check_fresh_sampler_calls(12, [0, 8, 4]).ok
    assert not checks.check_fresh_sampler_calls(11, [0, 8, 4]).ok
    assert checks.check_no_replay_work([0, 0, 0], 0, 0, 0).ok
    assert not checks.check_no_replay_work([0, 0, 0], 0, 0, 1).ok
    assert not checks.check_no_replay_work([0, 1, 0], 0, 0, 0).ok


def test_span_check_rejects_child_outside_parent():
    good = [["pipeline.train_stage", -1, 0.0, 1.0, None],
            ["restorer.forward", 0, 0.2, 0.5, None]]
    assert run._check_span_nesting(tracing.SpanView(good), 1.5).ok
    bad = [good[0], ["restorer.forward", 0, 0.2, 1.2, None]]
    assert not run._check_span_nesting(tracing.SpanView(bad), 1.5).ok


def test_recorder_restores_bindings_and_names_imported_functions_once():
    originals = (pipeline.psnr, synthdata.draw_streak, restorer.forward)
    with tracing.Recorder(traced=True) as rec:
        assert pipeline.psnr is not originals[0]
        img = Image(np.full((16, 16, 3), 0.5))
        pipeline.psnr(img, img)
    assert (pipeline.psnr, synthdata.draw_streak, restorer.forward) == originals
    assert [s[0] for s in rec.spans] == ["imaging.psnr"]


def test_traced_pass_reports_every_declared_per_layer_metric():
    wl = workloads.WORKLOADS["sf-stream"]
    inputs = wl.build(0)
    inputs.cfg = pipeline.StageConfig(iterations=2, batch_size=2, seed=0)
    with tracing.Recorder(traced=True) as rec:
        wl.run(inputs)
    metrics = tracing.per_layer_metrics(tracing.SpanView(rec.spans), 1.0, 1.0, 1.0)
    declared = {name for name, unit in run.UNITS.items()} - {
        "setup_s", "pass_s", "peak_mb", "trace.overhead_s"}
    assert set(metrics) == declared
    assert metrics["pipeline.steps"] == 6 and metrics["restorer.teacher_forward_calls"] == 0
