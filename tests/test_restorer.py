import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from rainreplay import restorer
from rainreplay.imaging import ShapeError
from rainreplay.restorer import (
    CHARBONNIER_EPS, LAYER_SHAPES, PARAM_COUNT, NumericalFaultError, Params,
    RestorerState, forward,
    images_to_batch, load_state, replay_loss_grads, restore_image,
    restoration_loss_grads, save_state, sgd_step,
)
from rainreplay.synthdata import make_dataset

from conftest import dataset_spec
from oracles import (
    backprop_alloc, backward, forward_cached_alloc, grad_check, guarded_frame,
    kink_margin, loss_grads_alloc, relu_padded_interior,
)


# A fixture with a comfortable distance from every ReLU / L1 kink, so central
# finite differences are trustworthy. Margin is checked explicitly below.
def _smooth_fixture(with_prev=True):
    state = RestorerState.random_init(5, scale=0.3)
    rng = np.random.default_rng(1001)
    x = rng.uniform(0.0, 1.0, (2, 3, 12, 12))
    target = rng.uniform(0.0, 1.0, (2, 3, 12, 12))
    prev = None
    if with_prev:
        prev_state = RestorerState.random_init(6, scale=0.3)
        prev = forward(prev_state, x)
    return state, x, target, prev


def charbonnier_oracle(pred, target, eps=CHARBONNIER_EPS):
    total = 0.0
    for v, t in zip(pred.ravel(), target.ravel()):
        d = v - t
        total += np.sqrt(d * d + eps * eps)
    return total / pred.size


def conv_oracle(x, w, b):
    """Scalar-loop 3x3 convolution with replicate padding (on nested lists,
    which index faster than numpy scalars)."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[0]
    xs, ws = x.tolist(), w.tolist()
    out = np.zeros((bsz, cout, h, wd))
    for n in range(bsz):
        for o in range(cout):
            for y in range(h):
                for xx in range(wd):
                    acc = float(b[o])
                    for c in range(cin):
                        for k in range(3):
                            row = xs[n][c][min(max(y + k - 1, 0), h - 1)]
                            for l in range(3):
                                zz = min(max(xx + l - 1, 0), wd - 1)
                                acc += ws[o][c][k][l] * row[zz]
                    out[n, o, y, xx] = acc
    return out


def conv_backward_oracle(x, w, dout):
    """Scalar-loop adjoint of ``conv_oracle``: (dw, db, dx)."""
    bsz, cin, h, wd = x.shape
    cout = w.shape[0]
    xs, ws, ds = x.tolist(), w.tolist(), dout.tolist()
    dw = np.zeros(w.shape).tolist()
    db = [0.0] * cout
    dx = np.zeros(x.shape).tolist()
    for n in range(bsz):
        for o in range(cout):
            for y in range(h):
                for xx in range(wd):
                    g = ds[n][o][y][xx]
                    db[o] += g
                    for c in range(cin):
                        for k in range(3):
                            yy = min(max(y + k - 1, 0), h - 1)
                            for l in range(3):
                                zz = min(max(xx + l - 1, 0), wd - 1)
                                dw[o][c][k][l] += g * xs[n][c][yy][zz]
                                dx[n][c][yy][zz] += g * ws[o][c][k][l]
    return np.array(dw), np.array(db), np.array(dx)


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_zero_init_is_identity(rng):
    state = RestorerState.zeros()
    x = rng.uniform(0, 1, (2, 3, 8, 8))
    assert np.array_equal(forward(state, x), x)


def test_forward_deterministic(rng):
    state = RestorerState.random_init(3)
    x = rng.uniform(0, 1, (1, 3, 10, 10))
    assert np.array_equal(forward(state, x), forward(state, x))


def test_forward_shape_checked(rng):
    with pytest.raises(ShapeError):
        forward(RestorerState.zeros(), rng.uniform(0, 1, (2, 1, 8, 8)))


# The conv kernels work on channel-major (C, B, H+2, W+2) frames: a
# replicate-padded input with its tap windows (``guarded_frame``), and
# gradients with a zero border.
def _grad_frame(a):
    bsz, c, h, wd = a.shape
    frame = np.zeros((c, bsz, h + 2, wd + 2))
    frame[:, :, 1:-1, 1:-1] = a.transpose(1, 0, 2, 3)
    return frame


def _interior(frame):
    return frame[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3)


def test_conv_matches_scalar_oracle(rng):
    x = rng.normal(0, 1, (3, 5, 7, 6))  # odd, non-square: B=3, C=5, 7x6
    w = rng.normal(0, 1, (4, 5, 3, 3))
    b = rng.normal(0, 1, 4)
    xp, taps = guarded_frame(x)
    out = restorer._conv3x3(xp, w, b, taps=taps)  # channel-major layout
    assert np.allclose(_interior(out), conv_oracle(x, w, b), atol=1e-12)


def test_conv_backward_matches_scalar_oracle(rng):
    x = rng.normal(0, 1, (3, 5, 7, 6))
    w = rng.normal(0, 1, (4, 5, 3, 3))
    dout = rng.normal(0, 1, (3, 4, 7, 6))
    xp, taps = guarded_frame(x)
    dw, db, dx = restorer._conv3x3_backward(xp, w, _grad_frame(dout), taps)
    want_dw, want_db, want_dx = conv_backward_oracle(x, w, dout)
    assert np.allclose(dw, want_dw, atol=1e-12)
    assert np.allclose(db, want_db, atol=1e-12)
    assert np.allclose(_interior(dx), want_dx, atol=1e-12)
    # dx was written over xp, so dW alone reads a fresh frame
    dw1, db1, none = restorer._conv3x3_backward(
        guarded_frame(x)[0], w, _grad_frame(dout))
    assert none is None
    assert np.array_equal(dw1, dw) and np.array_equal(db1, db)


def _check_conv_against_oracle(rng, bsz, c, o, h, wd):
    x = rng.normal(0, 1, (bsz, c, h, wd))
    w = rng.normal(0, 1, (o, c, 3, 3))
    b = rng.normal(0, 1, o)
    dout = rng.normal(0, 1, (bsz, o, h, wd))
    (xp, taps), dp = guarded_frame(x), _grad_frame(dout)
    out = restorer._conv3x3(xp, w, b, taps=taps)
    assert np.allclose(_interior(out), conv_oracle(x, w, b), atol=1e-12)
    dw, db, dx = restorer._conv3x3_backward(xp, w, dp, taps)
    want_dw, want_db, want_dx = conv_backward_oracle(x, w, dout)
    assert np.allclose(dw, want_dw, atol=1e-12)
    assert np.allclose(db, want_db, atol=1e-12)
    assert np.allclose(_interior(dx), want_dx, atol=1e-12)
    assert not dx[:, :, [0, -1]].any() and not dx[:, :, :, [0, -1]].any()
    # dx was written over xp, so dW alone reads a fresh frame
    dw1, db1, none = restorer._conv3x3_backward(guarded_frame(x)[0], w, dp)
    assert none is None
    assert np.array_equal(dw1, dw) and np.array_equal(db1, db)


# Batch 1 and 3 (the flat layout runs the images end to end), non-square
# frames, and both the stacked (3 input channels) and the shifted-GEMM forward.
@pytest.mark.parametrize("bsz", [1, 3])
@pytest.mark.parametrize("h, wd", [(5, 7), (33, 36)])
@pytest.mark.parametrize("c, o", [(3, 8), (8, 8), (8, 3)])
def test_conv_kernels_match_scalar_oracle_grid(rng, bsz, c, o, h, wd):
    _check_conv_against_oracle(rng, bsz, c, o, h, wd)


@settings(max_examples=40, deadline=None)
@given(bsz=st.integers(1, 3), c=st.integers(1, 9), o=st.integers(1, 9),
       h=st.integers(1, 9), wd=st.integers(1, 9), seed=st.integers(0, 2**16))
def test_conv_kernels_match_scalar_oracle_random_shapes(bsz, c, o, h, wd, seed):
    _check_conv_against_oracle(np.random.default_rng(seed), bsz, c, o, h, wd)


@pytest.mark.parametrize("shape", [(5, 3, 33, 36), (4, 3, 16, 16), (3, 3, 5, 7)])
def test_forward_rows_match_single_image_forward(shape):
    # the per-stage teacher cache stores batched outputs and reads them back
    # as single images
    state = RestorerState.random_init(7, scale=0.3)
    x = np.random.default_rng(8).uniform(0.0, 1.0, shape)
    batched = forward(state, x)
    for i in range(shape[0]):
        assert np.allclose(batched[i], forward(state, x[i : i + 1])[0],
                           rtol=0.0, atol=1e-12)


def _network_reference(params, x):
    """The restorer written out from its named layers: per image, scipy
    correlations with replicate ('nearest') padding."""
    def conv(a, w, b):
        return np.stack([
            [sum(ndimage.correlate(img[c], w[o, c], mode="nearest")
                 for c in range(w.shape[1])) + b[o] for o in range(w.shape[0])]
            for img in a])

    h1 = np.maximum(conv(x, params["w1"], params["b1"]), 0.0)
    h2 = np.maximum(conv(h1, params["w2"], params["b2"]), 0.0)
    return x - conv(h2, params["w3"], params["b3"])


@pytest.mark.parametrize("shape", [(2, 3, 9, 7), (3, 3, 16, 16)])
def test_forward_matches_named_layer_reference(shape):
    state = RestorerState.random_init(11, scale=0.3)
    x = np.random.default_rng(12).uniform(0.0, 1.0, shape)
    assert np.allclose(forward(state, x), _network_reference(state.params, x),
                       rtol=0.0, atol=1e-10)


def test_param_count():
    assert PARAM_COUNT == 1027
    state = RestorerState.zeros()
    for part in (state.params, state.momentum):
        assert part.flat.shape == (PARAM_COUNT,)
    assert sum(v.size for v in state.params.values()) == PARAM_COUNT


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_charbonnier_closed_forms(rng):
    a = rng.uniform(0, 1, (1, 3, 5, 5))
    eps = CHARBONNIER_EPS
    assert restorer._charbonnier_terms(a, a)[0] == pytest.approx(eps, abs=1e-15)
    b = a + 0.2
    assert restorer._charbonnier_terms(a, b)[0] == pytest.approx(
        np.sqrt(0.04 + eps * eps), abs=1e-15)


def test_charbonnier_matches_scalar_oracle(rng):
    a = rng.uniform(0, 1, (2, 3, 6, 6))
    b = rng.uniform(0, 1, (2, 3, 6, 6))
    assert restorer._charbonnier_terms(a, b)[0] == pytest.approx(
        charbonnier_oracle(a, b), abs=1e-12)


def test_edge_loss_constant_images():
    a = np.full((1, 3, 8, 8), 0.3)
    b = np.full((1, 3, 8, 8), 0.9)
    # both laplacians vanish, leaving the charbonnier floor
    assert restorer._edge_terms(a, b)[0] == pytest.approx(CHARBONNIER_EPS,
                                                          abs=1e-15)


def test_consistency_loss_closed_form(rng):
    a = rng.uniform(0, 1, (2, 3, 4, 4))
    assert restorer._consistency_terms(a, a)[0] == 0.0
    b = a.copy()
    b[0, 0, 0, 0] += 0.5
    assert restorer._consistency_terms(a, b)[0] == pytest.approx(0.5 / a.size,
                                                                 abs=1e-15)


def test_consistency_matches_scalar_oracle(rng):
    a = rng.uniform(0, 1, (2, 3, 4, 4))
    b = rng.uniform(0, 1, (2, 3, 4, 4))
    expected = sum(abs(x - y) for x, y in zip(a.ravel(), b.ravel())) / a.size
    assert restorer._consistency_terms(a, b)[0] == pytest.approx(expected,
                                                                 abs=1e-12)


def test_loss_shape_mismatch(rng):
    state = RestorerState.random_init(0)
    a = rng.uniform(0, 1, (1, 3, 4, 4))
    b = rng.uniform(0, 1, (1, 3, 4, 5))
    with pytest.raises(ShapeError):
        restoration_loss_grads(state, a, b)
    with pytest.raises(ShapeError):
        replay_loss_grads(state, a, a, b, 1.0)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def _input_grad_check(loss_fn, grad_fn, pred, *args, h=1e-4):
    analytic = grad_fn(pred, *args)
    rng = np.random.default_rng(0)
    idx = rng.choice(pred.size, size=60, replace=False)
    max_rel = 0.0
    for i in idx:
        v = pred.ravel().copy()
        v[i] += h
        lp = loss_fn(v.reshape(pred.shape), *args)
        v[i] -= 2 * h
        lm = loss_fn(v.reshape(pred.shape), *args)
        fd = (lp - lm) / (2 * h)
        g = analytic.ravel()[i]
        max_rel = max(max_rel, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    return max_rel


def test_charbonnier_input_gradient(rng):
    pred = rng.uniform(0, 1, (1, 3, 6, 6))
    target = rng.uniform(0, 1, (1, 3, 6, 6))
    err = _input_grad_check(
        lambda p, t: restorer._charbonnier_terms(p, t)[0],
        lambda p, t: restorer._charbonnier_terms(p, t)[1], pred, target)
    assert err < 1e-4


def test_edge_loss_input_gradient(rng):
    pred = rng.uniform(0, 1, (1, 3, 6, 6))
    target = rng.uniform(0, 1, (1, 3, 6, 6))
    err = _input_grad_check(
        lambda p, t: restorer._edge_terms(p, t)[0],
        lambda p, t: restorer._edge_terms(p, t)[1], pred, target)
    assert err < 1e-4


def test_consistency_input_gradient(rng):
    pred = rng.uniform(0, 1, (1, 3, 6, 6))
    other = pred + rng.uniform(0.05, 0.3, pred.shape)  # away from the kink
    err = _input_grad_check(
        lambda p, o: restorer._consistency_terms(p, o)[0],
        lambda p, o: restorer._consistency_terms(p, o)[1], pred, other)
    assert err < 1e-4


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                         (np.float64, np.uint64)])
def test_consistency_gradient_is_the_sign_over_special_values(dtype, bits):
    # NaN must stay NaN, so that sgd_step refuses a step on a NaN teacher row
    info = np.finfo(dtype)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
               info.smallest_subnormal, -info.smallest_subnormal, info.tiny,
               -info.tiny, info.max, -info.max]
    rng = np.random.default_rng(4)
    a = rng.normal(0.0, 1.0, (2, 3, 5, 5)).astype(dtype)
    a.flat[rng.choice(a.size, len(special), replace=False)] = special
    b = np.zeros_like(a)
    want = np.sign(a - b) / a.size
    grad, tmp = np.empty_like(a), np.empty_like(a)
    for got in (restorer._consistency_terms(a, b)[1],
                restorer._consistency_terms(a, b, grad, tmp)[1]):
        assert got.dtype == dtype
        assert np.array_equal(got.view(bits), want.view(bits))


def test_fixture_has_safe_kink_margin():
    state, x, target, prev = _smooth_fixture()
    assert kink_margin(state, x, prev) > 1e-3


def test_grad_check_restoration_terms():
    state, x, target, _ = _smooth_fixture(with_prev=False)
    assert grad_check(state, x, target) < 1e-4


def test_grad_check_total_with_consistency():
    state, x, target, prev = _smooth_fixture()
    assert grad_check(state, x, target, prev_out=prev, lam=1.0) < 1e-4


def test_fault_injection_detected():
    state, x, target, prev = _smooth_fixture()
    flat = backward(state, x, target, prev, lam=1.0)[1].flat
    i = int(np.argmax(np.abs(flat)))
    corrupted = 2.0 * flat[i]

    # central finite difference at the corrupted coordinate
    h = 1e-4
    base = state.params.flat

    def loss_at(vec):
        s = state.copy()
        s.params = Params(vec)
        l_rep, l_con, _ = replay_loss_grads(s, x, target, prev, 1.0)
        return l_rep + l_con

    v = base.copy()
    v[i] += h
    lp = loss_at(v)
    v[i] -= 2 * h
    lm = loss_at(v)
    fd = (lp - lm) / (2 * h)
    rel = abs(fd - corrupted) / max(abs(fd), abs(corrupted), 1e-8)
    assert rel > 0.4


def test_gradient_linear_in_lambda():
    state, x, target, prev = _smooth_fixture()
    _, _, g0 = replay_loss_grads(state, x, target, prev, 0.0)
    _, _, g1 = replay_loss_grads(state, x, target, prev, 1.0)
    _, _, g2 = replay_loss_grads(state, x, target, prev, 2.0)
    for n in g0:
        lhs = g2[n] - g0[n]
        rhs = 2.0 * (g1[n] - g0[n])
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_restoration_and_replay_grads_agree():
    state, x, target, _ = _smooth_fixture(with_prev=False)
    l_a, g_a = restoration_loss_grads(state, x, target)
    l_b, l_c, g_b = replay_loss_grads(state, x, target, None, 1.0)
    assert l_a == l_b and l_c == 0.0
    for n in g_a:
        assert np.array_equal(g_a[n], g_b[n])


# ---------------------------------------------------------------------------
# float32 training against the float64 oracles
# ---------------------------------------------------------------------------

# float32 keeps ~7 significant digits; over this fixture's three convs and
# loss terms the measured worst is ~2e-7 of a tensor's largest entry, and
# ~1e-5 on other inits.
F32_FORWARD_RTOL = 1e-5
F32_GRAD_RTOL = 1e-4


def _assert_close_to(got, want, rtol):
    """Every entry of got within rtol of want's largest entry."""
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_random_init_casts_float64_draws():
    s64 = RestorerState.random_init(5, scale=0.3)
    s32 = RestorerState.random_init(5, scale=0.3, dtype=np.float32)
    assert (s64.dtype, s32.dtype) == (np.float64, np.float32)
    for n, _ in LAYER_SHAPES:
        assert s32.params[n].dtype == s32.momentum[n].dtype == np.float32
        assert np.array_equal(s32.params[n], s64.params[n].astype(np.float32))
        assert not s32.momentum[n].any()
    # one draw of PARAM_COUNT normals equals the per-layer draws, concatenated
    rng = np.random.default_rng(5)
    per_layer = [rng.normal(0.0, 0.3, s).ravel() for _, s in LAYER_SHAPES]
    assert s64.params.flat.tobytes() == np.concatenate(per_layer).tobytes()
    assert sgd_step(s32, s32.params.copy(), lr=0.1).dtype == np.float32


def test_float32_forward_and_grads_match_float64():
    s64, x, target, prev = _smooth_fixture()
    s32 = RestorerState.random_init(5, scale=0.3, dtype=np.float32)
    x32, t32, p32 = (a.astype(np.float32) for a in (x, target, prev))
    pred = forward(s32, x32)
    assert pred.dtype == np.float32
    _assert_close_to(pred, forward(s64, x), F32_FORWARD_RTOL)
    for got, want in ((restoration_loss_grads(s32, x32, t32),
                       restoration_loss_grads(s64, x, target)),
                      (replay_loss_grads(s32, x32, t32, p32, 1.0)[::2],
                       replay_loss_grads(s64, x, target, prev, 1.0)[::2])):
        (loss, grads), (want_loss, want_grads) = got, want
        assert loss == pytest.approx(want_loss, rel=F32_GRAD_RTOL)
        for n, _ in LAYER_SHAPES:
            assert grads[n].dtype == np.float32
            _assert_close_to(grads[n], want_grads[n], F32_GRAD_RTOL)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_workspace_mask_holds_one_bool_per_hidden_pixel(dtype):
    for shape in [(4, 3, 32, 32), (1, 3, 5, 7), (3, 3, 16, 9)]:
        ws = restorer.Workspace(shape, dtype=dtype)
        bsz, _, h, w = shape
        assert ws.mask.dtype == bool
        assert ws.mask.size == restorer._HIDDEN * bsz * (h + 2) * (w + 2)
        assert ws.frames[0].dtype == ws.pred.dtype == ws.tmp.dtype == dtype


def test_workspace_of_another_dtype_is_rejected():
    x = np.random.default_rng(0).uniform(0.0, 1.0, (2, 3, 16, 16))
    for state_dtype, ws_dtype in ((np.float32, np.float64),
                                  (np.float64, np.float32)):
        state = RestorerState.random_init(1, dtype=state_dtype)
        ws = restorer.Workspace(x.shape, dtype=ws_dtype)
        with pytest.raises(TypeError, match="workspace holds"):
            restoration_loss_grads(state, x, x, ws=ws)
        with pytest.raises(TypeError, match="workspace holds"):
            replay_loss_grads(state, x, x, x, 1.0, ws=ws)
        with pytest.raises(TypeError, match="workspace holds"):
            forward(state, x, ws=restorer.Workspace(x.shape, training=False,
                                                    dtype=ws_dtype))


def test_float32_step_allocates_half_the_float64_iterator_buffers():
    # What a workspace step still allocates is numpy's ufunc iterator
    # buffers, sized in elements: a float32 step takes about half of the
    # float64 step's ~145 KiB.
    rng = np.random.default_rng(3)
    peaks = {}
    for dtype in (np.float64, np.float32):
        x, target, prev = rng.uniform(0.0, 1.0, (3, 4, 3, 32, 32)).astype(dtype)
        state = RestorerState.random_init(4, dtype=dtype)
        ws = restorer.Workspace(x.shape, dtype=dtype)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            restoration_loss_grads(state, x, target, ws=ws)
            replay_loss_grads(state, x, target, prev, 1.0, ws=ws)
            peaks[dtype] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[np.float32] <= 96 * 1024
    assert peaks[np.float32] < 0.6 * peaks[np.float64]


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------


def _assert_grads_equal(got, want):
    assert got.keys() == want.keys()
    for n in want:
        assert np.array_equal(got[n], want[n]), n


# Batch 1, 2 and 4, 16 and 32 px, and a non-square frame.
@pytest.mark.parametrize("shape", [(1, 3, 16, 16), (2, 3, 32, 32),
                                   (4, 3, 32, 32), (4, 3, 16, 16),
                                   (2, 3, 17, 23)])
def test_workspace_steps_equal_allocating_steps(shape):
    # One workspace serves a run of steps on different batches, as in a
    # training stage: each loss, gradient and prediction must equal, bit for
    # bit, the allocating step's. The teacher rows are C-contiguous, as
    # train_stage passes them.
    ws = restorer.Workspace(shape)
    rng = np.random.default_rng(sum(shape))
    for k in range(3):
        state = RestorerState.random_init(40 + k, scale=0.3)
        x, target = rng.uniform(0.0, 1.0, (2, *shape))
        prev = np.ascontiguousarray(
            forward(RestorerState.random_init(50 + k, scale=0.3), x))
        assert np.array_equal(forward(state, x), forward_cached_alloc(state, x)[0])
        loss, grads = restoration_loss_grads(state, x, target, ws=ws)
        want_loss, _, want_grads = loss_grads_alloc(state, x, target)
        assert loss == want_loss
        _assert_grads_equal(grads, want_grads)
        *losses, grads = replay_loss_grads(state, x, target, prev, 0.5 + k, ws=ws)
        *want_losses, want_grads = loss_grads_alloc(state, x, target, prev, 0.5 + k)
        assert losses == want_losses
        _assert_grads_equal(grads, want_grads)
        # backprop of any prediction gradient, with no loss step before it
        dpred = rng.normal(0.0, 1.0, shape)
        restorer._forward_cached(state, x, ws)
        _assert_grads_equal(
            restorer._backprop(state, ws, dpred),
            backprop_alloc(state, forward_cached_alloc(state, x)[1], dpred))


def test_workspace_step_allocates_only_parameter_sized_arrays():
    # A step on a (4, 3, 32, 32) batch has about 1.7 MiB of batch-sized
    # arrays; with a workspace it allocates only parameter-sized ones, and
    # the iterator buffers numpy takes for strided operands.
    rng = np.random.default_rng(3)
    x, target, prev = rng.uniform(0.0, 1.0, (3, 4, 3, 32, 32))
    state = RestorerState.random_init(4)
    ws = restorer.Workspace(x.shape)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        restoration_loss_grads(state, x, target, ws=ws)
        replay_loss_grads(state, x, target, prev, 1.0, ws=ws)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 192 * 1024


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32),
                                         (np.float64, np.uint64)])
def test_relu_padded_matches_interior_relu_whatever_the_border_holds(dtype, bits):
    rng = np.random.default_rng(8)
    frame = rng.standard_normal((8, 4, 34, 34)).astype(dtype)
    frame[..., 5, 7] = -0.0
    border = np.ones(frame.shape[-2:], bool)
    border[1:-1, 1:-1] = False
    garbage = [-np.inf, np.inf, np.nan, np.finfo(dtype).min, -1e30, 3.5]
    frame[..., border] = rng.choice(garbage, frame[..., border].shape)
    got = restorer._relu_padded(frame.copy())
    want = relu_padded_interior(frame.copy())
    assert np.array_equal(got.view(bits), want.view(bits))


def test_forward_result_holds_only_the_prediction():
    # The teacher forwards of a stage are all held until they are joined, so
    # a returned prediction must not keep its workspace's frames alive.
    x = np.random.default_rng(5).uniform(0.0, 1.0, (4, 3, 32, 32))
    state = RestorerState.random_init(6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pred = forward(state, x)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert pred.nbytes <= held <= pred.nbytes + 4096


@pytest.mark.parametrize("shape", [(2, 3, 32, 32), (4, 3, 32, 31), (4, 3, 16, 16)])
def test_workspace_rejects_a_batch_of_another_shape(shape):
    ws = restorer.Workspace((4, 3, 32, 32))
    x = np.random.default_rng(0).uniform(0.0, 1.0, shape)
    state = RestorerState.random_init(1)
    with pytest.raises(ShapeError, match="workspace holds batches of shape"):
        restoration_loss_grads(state, x, x, ws=ws)
    with pytest.raises(ShapeError, match="workspace holds batches of shape"):
        replay_loss_grads(state, x, x, x, 1.0, ws=ws)


def test_workspace_rejects_a_shape_that_is_not_a_batch():
    for shape in [(3, 32, 32), (4, 1, 32, 32)]:
        with pytest.raises(ShapeError, match=r"expected \(B, 3, H, W\) batch"):
            restorer.Workspace(shape)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_sgd_step_hand_computed():
    state = RestorerState.zeros()
    grads = Params(np.full(PARAM_COUNT, 2.0))
    s1 = sgd_step(state, grads, lr=0.1)
    assert np.allclose(s1.params["w1"], -0.2)
    assert np.allclose(s1.momentum["w1"], 2.0)
    s2 = sgd_step(s1, grads, lr=0.1)
    # v2 = 0.9*2 + 2 = 3.8; w2 = -0.2 - 0.38
    assert np.allclose(s2.momentum["w1"], 3.8)
    assert np.allclose(s2.params["w1"], -0.58)


def test_sgd_rejects_nonfinite():
    state = RestorerState.zeros()
    grads = Params(np.zeros(PARAM_COUNT))
    grads["w2"][0, 0, 0, 0] = np.nan
    with pytest.raises(NumericalFaultError, match="in w2;"):
        sgd_step(state, grads)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       lr=st.floats(1e-4, 1.0))
def test_sgd_step_equals_per_tensor_update(data, dtype, lr):
    def draw():
        return Params(data.draw(hnp.arrays(
            dtype, PARAM_COUNT,
            elements=st.floats(-1e3, 1e3, width=8 * np.dtype(dtype).itemsize))))

    state, grads = RestorerState(draw(), draw()), draw()
    new = sgd_step(state, grads, lr=lr)
    assert new.dtype == dtype
    for n, _ in LAYER_SHAPES:
        m = restorer.MOMENTUM * state.momentum[n] + grads[n]
        assert new.momentum[n].tobytes() == m.tobytes()
        assert new.params[n].tobytes() == (state.params[n] - lr * m).tobytes()


def test_training_descends():
    ds = make_dataset(dataset_spec("t", 8, pairs=4, size=24))
    x = images_to_batch([p[0] for p in ds.pairs])
    y = images_to_batch([p[1] for p in ds.pairs])
    state = RestorerState.random_init(2)
    losses = []
    for _ in range(200):
        loss, grads = restoration_loss_grads(state, x, y)
        losses.append(loss)
        state = sgd_step(state, grads, lr=1e-2)
    decreases = sum(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]
    assert decreases >= 0.95 * (len(losses) - 1)


def test_overfit_small_dataset():
    from rainreplay.imaging import psnr
    ds = make_dataset(dataset_spec("o", 4, pairs=4, size=24, density=20.0))
    x = images_to_batch([p[0] for p in ds.pairs])
    y = images_to_batch([p[1] for p in ds.pairs])
    state = RestorerState.random_init(1)
    for _ in range(800):
        _, grads = restoration_loss_grads(state, x, y)
        state = sgd_step(state, grads, lr=2e-2)
    scores = [psnr(restore_image(state, r), c) for r, c in ds.pairs]
    assert np.mean(scores) >= 25.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_state_roundtrip(tmp_path):
    state = RestorerState.random_init(9)
    state.momentum["w1"] += 0.5
    path = tmp_path / "state.bin"
    save_state(state, path)
    back = load_state(path)
    for n, _ in LAYER_SHAPES:
        assert np.array_equal(back.params[n], state.params[n])
        assert np.array_equal(back.momentum[n], state.momentum[n])


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_state_roundtrip_exact_any_values(tmp_path_factory, data):
    def draw():
        return Params(data.draw(hnp.arrays(np.float64, PARAM_COUNT,
                                           elements=st.floats())))

    state = RestorerState(params=draw(), momentum=draw())
    path = tmp_path_factory.mktemp("state") / "state.bin"
    save_state(state, path)
    back = load_state(path)
    for part in ("params", "momentum"):
        want, got = getattr(state, part), getattr(back, part)
        assert list(got) == list(want)
        for n, _ in LAYER_SHAPES:
            assert got[n].shape == want[n].shape
            assert got[n].tobytes() == want[n].tobytes()


def test_float32_state_roundtrips_exactly_through_f8_file(tmp_path):
    state = RestorerState.random_init(9, dtype=np.float32)
    state.momentum["w1"] += np.float32(1.0 / 3.0)
    path = tmp_path / "state.bin"
    save_state(state, path)
    back = load_state(path)
    assert back.dtype == np.float64  # the file is <f8, and so is what it loads
    for part in ("params", "momentum"):
        want, got = getattr(state, part), getattr(back, part)
        for n, _ in LAYER_SHAPES:
            assert np.array_equal(got[n], want[n])
            assert got[n].astype(np.float32).tobytes() == want[n].tobytes()


def test_params_entries_are_views_of_the_flat_vector(tmp_path):
    state = RestorerState.random_init(3)
    state.params["w1"][0, 0, 0, 0] = 7.0
    state.params["b3"] = [1.0, 2.0, 3.0]  # assigning writes into the view
    assert state.params.flat[0] == 7.0
    assert list(state.params.flat[-3:]) == [1.0, 2.0, 3.0]
    path = tmp_path / "state.bin"
    save_state(state, path)
    body = np.frombuffer(path.read_bytes(), "<f8", offset=16)
    assert body[0] == 7.0
    assert list(body[PARAM_COUNT - 3 : PARAM_COUNT]) == [1.0, 2.0, 3.0]


def test_state_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(ValueError):
        load_state(path)


def test_state_rejects_count_mismatch(tmp_path):
    import struct
    path = tmp_path / "count.bin"
    path.write_bytes(b"RRST" + struct.pack("<IQ", 1, 947) + bytes(947 * 16))
    with pytest.raises(ValueError, match="mismatch"):
        load_state(path)


def test_state_rejects_truncation(tmp_path):
    state = RestorerState.random_init(4)
    path = tmp_path / "trunc.bin"
    save_state(state, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_state(path)


@pytest.mark.parametrize("extra, kind", [(-8, "truncated"), (-3, "truncated"),
                                         (8, "over-long"), (5, "over-long")])
def test_state_names_a_bad_payload_length(tmp_path, extra, kind):
    path = tmp_path / "state.bin"
    save_state(RestorerState.random_init(4), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
    with pytest.raises(ValueError, match=f"^{kind} state payload: "
                       f"{16 * PARAM_COUNT + extra} bytes, expected"):
        load_state(path)
