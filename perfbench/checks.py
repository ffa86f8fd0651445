"""Oracles and checks for the benchmark.

Every oracle here is computed apart from the program: the network forward with
``scipy.ndimage.correlate``, the losses with their textbook formulas, the
reuse cache's fresh-sample counts with a separate even-split simulation, PSNR
from its definition. Each check returns a ``Check``; the benchmark's tests feed
each one a deliberately broken input to show it can fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])

FORWARD_ATOL = 1e-10
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-9
FD_STEP = 1e-6
MIN_PROBES = 8
PAIR_ATOL = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Reference network and losses
# ---------------------------------------------------------------------------


def conv_reference(h, w, b):
    """3x3 conv with replicate padding: one 2-D correlation per (out, in) pair."""
    out = np.empty((h.shape[0], w.shape[0]) + h.shape[2:])
    for o in range(w.shape[0]):
        acc = np.full((h.shape[0],) + h.shape[2:], float(b[o]))
        for c in range(w.shape[1]):
            acc += ndimage.correlate(h[:, c], w[o, c][None], mode="nearest")
        out[:, o] = acc
    return out


def forward_reference(params, x):
    """Restored batch x - conv3(relu(conv2(relu(conv1(x))))) and the ReLU
    on/off pattern of both hidden layers."""
    a1 = conv_reference(x, params["w1"], params["b1"])
    a2 = conv_reference(np.maximum(a1, 0.0), params["w2"], params["b2"])
    pred = x - conv_reference(np.maximum(a2, 0.0), params["w3"], params["b3"])
    return pred, (a1 > 0.0, a2 > 0.0)


def charbonnier_reference(d, eps):
    return float(np.mean(np.sqrt(d * d + eps * eps)))


def laplacian_reference(x):
    return ndimage.correlate(x, LAPLACIAN[None, None], mode="nearest")


def restoration_loss_reference(pred, target, eps):
    return (charbonnier_reference(pred - target, eps)
            + charbonnier_reference(laplacian_reference(pred - target), eps))


def loss_reference(params, x, target, eps, prev_out=None, lam=0.0):
    """Restoration loss (plus lam * L1 consistency against prev_out) of the
    reference forward, and the pattern of every kink the loss has."""
    pred, pattern = forward_reference(params, x)
    loss = restoration_loss_reference(pred, target, eps)
    if prev_out is not None:
        loss += lam * float(np.mean(np.abs(pred - prev_out)))
        pattern = pattern + (pred > prev_out,)
    return loss, pattern


def psnr_reference(a, b):
    return 10.0 * math.log10(1.0 / float(np.mean((a - b) ** 2)))


def mean_psnr_reference(pairs):
    """Mean PSNR of (rainy, clean) Image pairs."""
    return float(np.mean([psnr_reference(r.data, c.data) for r, c in pairs]))


def even_split_reference(total, k):
    counts = [total // k] * k
    for i in range(total % k):
        counts[i] += 1
    return counts


def reuse_fresh_reference(sizes):
    """Fresh replay samples per stage under the even-split reuse rule: stage n
    needs even_split(M_n, n - 1) pairs per prior slot and draws only what its
    slot's cache lacks; cached surpluses are kept."""
    cached, fresh = [], [0]
    for n in range(2, len(sizes) + 1):
        cached.append(0)
        drawn = 0
        for slot, need in enumerate(even_split_reference(sizes[n - 1], n - 1)):
            extra = max(0, need - cached[slot])
            cached[slot] += extra
            drawn += extra
        fresh.append(drawn)
    return fresh


# ---------------------------------------------------------------------------
# Checks made once before the timed passes
# ---------------------------------------------------------------------------


def check_forward(name, pred, params, x):
    ref, _ = forward_reference(params, x)
    err = float(np.max(np.abs(pred - ref)))
    return Check(name, err <= FORWARD_ATOL,
                 f"max |program - reference| = {err:.2e} (tol {FORWARD_ATOL:g})")


def gradient_probes(params, per_tensor, seed):
    """Parameter entries to probe: ``per_tensor`` random entries of each tensor."""
    rng = np.random.default_rng(seed)
    return [(name, int(i)) for name in sorted(params)
            for i in rng.choice(params[name].size, size=per_tensor, replace=False)]


def check_gradients(name, grads, params, loss_at, probes):
    """Central finite differences of ``loss_at`` against the program's grads.

    A probe is used only if no kink of the loss (ReLU or L1) changes side
    between the two probe points and the base point, since a difference
    quotient across a kink measures no derivative.
    """
    _, base_pattern = loss_at(params)
    worst, used = 0.0, 0
    for tensor, idx in probes:
        values = []
        for sign in (1.0, -1.0):
            moved = {k: v.copy() for k, v in params.items()}
            moved[tensor].flat[idx] += sign * FD_STEP
            loss, pattern = loss_at(moved)
            if not all(np.array_equal(a, b) for a, b in zip(pattern, base_pattern)):
                break
            values.append(loss)
        if len(values) != 2:
            continue
        used += 1
        fd = (values[0] - values[1]) / (2.0 * FD_STEP)
        g = float(grads[tensor].flat[idx])
        excess = abs(fd - g) - (GRAD_RTOL * max(abs(fd), abs(g)) + GRAD_ATOL)
        worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-300))
        if excess > 0:
            return Check(name, False,
                         f"{tensor}[{idx}]: program {g:.9e}, finite difference {fd:.9e}")
    ok = used >= MIN_PROBES
    return Check(name, ok, f"{used}/{len(probes)} probes off kinks, worst relative "
                 f"error {worst:.1e} (tol {GRAD_RTOL:g})")


# ---------------------------------------------------------------------------
# Checks on every pass of the stream workloads
# ---------------------------------------------------------------------------


def check_budgets(iterations, loss_logs, budget, n_stages):
    ok = (list(iterations) == [budget] * n_stages
          and [len(log) for log in loss_logs] == [budget] * n_stages)
    return Check("stage_budgets", ok, f"iterations {list(iterations)}, "
                 f"logged steps {[len(log) for log in loss_logs]}, want {budget} x {n_stages}")


def check_losses_finite(loss_logs):
    bad = [(s, i) for s, log in enumerate(loss_logs, start=1)
           for i, step in enumerate(log)
           if not all(math.isfinite(v) for v in step.values())]
    return Check("losses_finite", not bad,
                 f"first non-finite step (stage, step): {bad[0]}" if bad else "")


def check_loss_decreases(loss_logs):
    """Each stage's mean total loss over its last tenth of steps is below its
    first tenth."""
    details, ok = [], True
    for stage, log in enumerate(loss_logs, start=1):
        tenth = max(1, len(log) // 10)
        totals = [step["l_total"] for step in log]
        first, last = float(np.mean(totals[:tenth])), float(np.mean(totals[-tenth:]))
        ok = ok and last < first
        details.append(f"{first:.4f}->{last:.4f}")
    return Check("loss_decreases", ok, ", ".join(details))


def check_psnr_gain(name, restored_psnr, rainy_psnr):
    return Check(name, restored_psnr > rainy_psnr,
                 f"restored {restored_psnr:.2f} dB vs rainy input {rainy_psnr:.2f} dB")


def check_reuse_counts(calls, train_sizes, counted_total):
    """Fresh replay samples per stage against the even-split reuse rule, and
    their total against ``costs.replay_cost_reuse_counted``."""
    want = reuse_fresh_reference(train_sizes)
    ok = list(calls) == want and sum(calls) == counted_total
    return Check("reuse_fresh_samples", ok, f"program {list(calls)}, rule {want}, "
                 f"costs total {counted_total}")


def check_fresh_sampler_calls(sampled, calls):
    """Sampler calls made while building replay sets equal the fresh count."""
    return Check("sampler_calls_match", sampled == sum(calls),
                 f"sample_rain under replay assembly {sampled}, fresh {sum(calls)}")


def check_first_delta(deltas):
    return Check("delta_1_is_1", len(deltas) > 0 and deltas[0] == 1, f"deltas {list(deltas)}")


def check_fit_count(fits, deltas):
    return Check("fits_equal_sum_delta", fits == sum(deltas),
                 f"fit_generator calls {fits}, sum of deltas {sum(deltas)}")


def check_no_replay_work(sampler_calls, samples, fits, teacher_forwards):
    ok = sum(sampler_calls) == 0 and samples == 0 and fits == 0 and teacher_forwards == 0
    return Check("no_replay_work", ok,
                 f"fresh samples {sum(sampler_calls)}, sample_rain calls {samples}, "
                 f"generator fits {fits}, teacher forwards {teacher_forwards}")


# ---------------------------------------------------------------------------
# Checks on every pass of the memory-chain workload
# ---------------------------------------------------------------------------


def check_synthesis(datasets, n_datasets):
    """Every pair of the ``n_datasets`` synthesised datasets is
    rainy = clip(clean + layer), with the layer in [0, 1]."""
    pairs, worst, layer_ok = 0, 0.0, True
    for ds in datasets:
        for (rainy, clean), layer in zip(ds.pairs, ds.layers, strict=True):
            want = np.clip(clean.data + layer.data, 0.0, 1.0)
            worst = max(worst, float(np.max(np.abs(rainy.data - want))))
            layer_ok = layer_ok and 0.0 <= layer.data.min() and layer.data.max() <= 1.0
            pairs += 1
    ok = len(datasets) == n_datasets and pairs > 0 and worst <= PAIR_ATOL and layer_ok
    return Check("rainy_is_clip_clean_plus_layer", ok,
                 f"{len(datasets)} datasets, {pairs} pairs, max |rainy - clip(clean + "
                 f"layer)| = {worst:.1e}, layers in [0, 1]: {layer_ok}")


def check_replay_splits(splits, n_stages):
    """Stage n's replay set has as many pairs as the incoming dataset, split
    evenly over its n - 1 slots in slot order. ``splits`` holds (incoming
    size, slot id per pair) for stages 2..n_stages in order."""
    bad = []
    for slots, (incoming, slot_ids) in enumerate(splits, start=1):
        want = [s for s, cnt in enumerate(even_split_reference(incoming, slots))
                for _ in range(cnt)]
        if list(slot_ids) != want:
            bad.append(f"stage {slots + 1}: {len(slot_ids)} pairs for {incoming}")
    ok = len(splits) == n_stages - 1 and not bad
    return Check("replay_even_split", ok,
                 f"{len(splits)} replay sets" + (f"; wrong: {bad}" if bad else ""))


def check_repeat_delta(deltas, index):
    ok = len(deltas) > index and deltas[index] == 0
    return Check("repeated_style_delta_0", ok,
                 f"dataset {index + 1} repeats an earlier style; deltas {list(deltas)}")
