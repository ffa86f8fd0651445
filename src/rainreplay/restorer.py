"""Small residual de-raining network with hand-derived forward/backward passes.

Architecture: conv3x3 (3->8) -> ReLU -> conv3x3 (8->8) -> ReLU -> conv3x3
(8->3), all replicate-padded; the head predicts the rain residual, so the
restored image is x - head(x). Zero-initialized weights give the identity.

Batches are channels-first float64 arrays of shape (B, 3, H, W). Inside the
network, activations are channel-major, (C, B, H, W), so that each conv is
one GEMM over all B*H*W pixels (Chellapilla et al. 2006): the forward pass
builds the 9C x BHW im2col matrix of its replicate-padded input and
multiplies it by the O x 9C weight matrix. The backward pass rebuilds those
columns rather than keeping them (they are the largest array of a step) and
runs one GEMM for dW and one for the column gradient, which a 9-slice col2im
folds back onto the input; the first layer skips the input gradient.

All forward and backward math is straight numpy, so runs are bit-reproducible
on one numpy/BLAS build; other builds may sum in another order and differ in
the last bits. Each output pixel of a conv GEMM reads only its own column, so
``forward(x)[i]`` equals ``forward(x[i:i+1])[0]`` up to rounding, and bit for
bit on the OpenBLAS builds tested.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .imaging import (
    Image, ShapeError, laplacian_batch, laplacian_batch_adjoint, pad_replicate,
    pad_replicate_adjoint,
)

CHARBONNIER_EPS = 1e-3

LAYER_SHAPES = (
    ("w1", (8, 3, 3, 3)), ("b1", (8,)),
    ("w2", (8, 8, 3, 3)), ("b2", (8,)),
    ("w3", (3, 8, 3, 3)), ("b3", (3,)),
)
PARAM_COUNT = sum(int(np.prod(s)) for _, s in LAYER_SHAPES)

STATE_MAGIC = b"RRST"
STATE_VERSION = 1


class NumericalFaultError(RuntimeError):
    """Non-finite value encountered where finiteness is required."""


@dataclass
class RestorerState:
    params: dict  # name -> ndarray per LAYER_SHAPES
    momentum: dict  # same shapes, SGD velocity buffers

    @classmethod
    def zeros(cls):
        return cls(
            params={n: np.zeros(s) for n, s in LAYER_SHAPES},
            momentum={n: np.zeros(s) for n, s in LAYER_SHAPES},
        )

    @classmethod
    def random_init(cls, seed: int, scale: float = 0.05):
        rng = np.random.default_rng(seed)
        return cls(
            params={n: rng.normal(0.0, scale, s) for n, s in LAYER_SHAPES},
            momentum={n: np.zeros(s) for n, s in LAYER_SHAPES},
        )

    def copy(self):
        return RestorerState(
            params={n: v.copy() for n, v in self.params.items()},
            momentum={n: v.copy() for n, v in self.momentum.items()},
        )

    def flat_params(self):
        return np.concatenate([self.params[n].ravel() for n, _ in LAYER_SHAPES])

    def set_flat_params(self, flat):
        pos = 0
        for n, s in LAYER_SHAPES:
            cnt = int(np.prod(s))
            self.params[n] = flat[pos : pos + cnt].reshape(s).copy()
            pos += cnt


# ---------------------------------------------------------------------------
# Channel-major convolution and its adjoint
# ---------------------------------------------------------------------------


def _im2col(x):
    """Columns of a (C, B, H, W) activation: a (9C, B*H*W) matrix whose rows
    run over (c, k, l), the order of ``w.reshape(O, 9C)``."""
    c, b, h, w = x.shape
    xp = pad_replicate(x)
    cols = np.empty((c, 3, 3, b, h, w))
    for k in range(3):
        for l in range(3):
            cols[:, k, l] = xp[:, :, k : k + h, l : l + w]
    return cols.reshape(9 * c, b * h * w)


def _conv3x3(x, w, b):
    """(C, B, H, W) -> (O, B, H, W) replicate-padded 3x3 conv: one GEMM."""
    out = w.reshape(w.shape[0], -1) @ _im2col(x)
    out += b[:, None]
    return out.reshape((w.shape[0],) + x.shape[1:])


def _conv3x3_backward(x, w, dout, need_dx=True):
    """(dw, db, dx) of ``_conv3x3(x, w, b)`` for output gradient dout; dx is
    None unless need_dx."""
    o = w.shape[0]
    d2 = dout.reshape(o, -1)
    dw = (d2 @ _im2col(x).T).reshape(w.shape)
    db = d2.sum(axis=1)
    if not need_dx:
        return dw, db, None
    c, bsz, h, wd = x.shape
    dcols = (w.reshape(o, -1).T @ d2).reshape(c, 3, 3, bsz, h, wd)
    dxp = np.zeros((c, bsz, h + 2, wd + 2))
    for k in range(3):
        for l in range(3):
            dxp[:, :, k : k + h, l : l + wd] += dcols[:, k, l]
    return dw, db, pad_replicate_adjoint(dxp)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _channel_major(x):
    return np.ascontiguousarray(x.transpose(1, 0, 2, 3))


def _forward_cached(state, x):
    """Prediction for a (B, 3, H, W) batch, as a (B, 3, H, W) view of a
    channel-major array, and the channel-major activations ``_backprop``
    reads."""
    p = state.params
    xc = _channel_major(x)
    a1 = _conv3x3(xc, p["w1"], p["b1"])
    h1 = np.maximum(a1, 0.0)
    a2 = _conv3x3(h1, p["w2"], p["b2"])
    h2 = np.maximum(a2, 0.0)
    residual = _conv3x3(h2, p["w3"], p["b3"])
    pred = xc - residual
    return pred.transpose(1, 0, 2, 3), (xc, a1, h1, a2, h2)


def forward(state: RestorerState, x: np.ndarray) -> np.ndarray:
    """Unclipped restored batch x - head(x); clip only at evaluation time."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"expected (B, 3, H, W) batch, got {x.shape}")
    pred, _ = _forward_cached(state, x)
    return pred


def _backprop(state, cache, dpred):
    """Parameter gradients for dpred, the (B, 3, H, W) gradient of the
    prediction."""
    x, a1, h1, a2, h2 = cache
    p = state.params
    dres = -_channel_major(dpred)  # pred = x - residual
    dw3, db3, dh2 = _conv3x3_backward(h2, p["w3"], dres)
    dh2 *= a2 > 0.0
    dw2, db2, dh1 = _conv3x3_backward(h1, p["w2"], dh2)
    dh1 *= a1 > 0.0
    dw1, db1, _ = _conv3x3_backward(x, p["w1"], dh1, need_dx=False)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}


def add_grads(acc, other, scale=1.0):
    for n in acc:
        acc[n] += scale * other[n]
    return acc


# ---------------------------------------------------------------------------
# Losses (value and gradient w.r.t. the first argument)
# ---------------------------------------------------------------------------


def _check_shapes(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def _charbonnier_terms(pred, target, eps=CHARBONNIER_EPS):
    """Charbonnier loss of pred against target and its gradient in pred."""
    d = pred - target
    s = np.sqrt(d * d + eps * eps)
    return float(np.mean(s)), d / (s * d.size)


def charbonnier(pred, target, eps=CHARBONNIER_EPS):
    _check_shapes(pred, target)
    return _charbonnier_terms(pred, target, eps)[0]


def _charbonnier_grad(pred, target, eps=CHARBONNIER_EPS):
    return _charbonnier_terms(pred, target, eps)[1]


def _edge_terms(pred, target, eps=CHARBONNIER_EPS):
    """Edge loss (Charbonnier of the Laplacians) of pred against target and
    its gradient in pred; each Laplacian is taken once."""
    loss, g_lap = _charbonnier_terms(laplacian_batch(pred), laplacian_batch(target), eps)
    return loss, laplacian_batch_adjoint(g_lap)


def edge_loss(pred, target, eps=CHARBONNIER_EPS):
    _check_shapes(pred, target)
    return _edge_terms(pred, target, eps)[0]


def _edge_loss_grad(pred, target, eps=CHARBONNIER_EPS):
    return _edge_terms(pred, target, eps)[1]


def consistency_loss(out_a, out_b):
    """Mean absolute difference between two network outputs (L1)."""
    _check_shapes(out_a, out_b)
    return float(np.mean(np.abs(out_a - out_b)))


def _consistency_grad(out_a, out_b):
    return np.sign(out_a - out_b) / out_a.size


def _restoration_terms(pred, target, eps=CHARBONNIER_EPS):
    """Charbonnier + edge loss of pred against target and its gradient in
    pred."""
    _check_shapes(pred, target)
    l_char, g_char = _charbonnier_terms(pred, target, eps)
    l_edge, g_edge = _edge_terms(pred, target, eps)
    return l_char + l_edge, g_char + g_edge


def _loss_grads(state, x, target, prev_out, lam):
    pred, cache = _forward_cached(state, x)
    loss, dpred = _restoration_terms(pred, target)
    l_consist = 0.0
    if prev_out is not None:
        l_consist = consistency_loss(pred, prev_out)
        dpred = dpred + lam * _consistency_grad(pred, prev_out)
    return loss, l_consist, _backprop(state, cache, dpred)


def restoration_loss_grads(state, x, target):
    """Charbonnier + edge loss of forward(state, x) against target, with
    parameter gradients."""
    loss, _, grads = _loss_grads(state, x, target, None, 0.0)
    return loss, grads


def replay_loss_grads(state, x, target, prev_out, lam):
    """Replay-batch losses: restoration terms plus the lam-weighted consistency
    term against the frozen previous network's output."""
    return _loss_grads(state, x, target, prev_out, lam)


def backward(state, x, target, prev_out=None, lam=0.0):
    """Gradients of the total per-batch loss (restoration + lam * consistency)."""
    l_replay, l_consist, grads = _loss_grads(state, x, target, prev_out, lam)
    return l_replay + lam * l_consist, grads


def sgd_step(state: RestorerState, grads, lr=1e-2, momentum=0.9) -> RestorerState:
    for n in grads:
        if not np.all(np.isfinite(grads[n])):
            raise NumericalFaultError(f"non-finite gradient in {n}; step refused")
    new = state.copy()
    for n, _ in LAYER_SHAPES:
        new.momentum[n] = momentum * new.momentum[n] + grads[n]
        new.params[n] = new.params[n] - lr * new.momentum[n]
    return new


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def kink_margin(state, x, prev_out=None):
    """Smallest distance of any ReLU pre-activation (and, if given, any L1
    difference against prev_out) from zero.

    Central finite differences are only meaningful when this margin exceeds
    the probe step times the local sensitivity; fixtures for gradient checks
    should be chosen with a comfortable margin.
    """
    pred, (_, a1, _, a2, _) = _forward_cached(state, x)
    margin = min(float(np.abs(a1).min()), float(np.abs(a2).min()))
    if prev_out is not None:
        margin = min(margin, float(np.abs(pred - prev_out).min()))
    return margin


def grad_check(state, x, target, prev_out=None, lam=0.0, n_samples=200,
               h=1e-4, seed=0):
    """Max relative error of analytic vs central finite-difference gradients
    over n_samples randomly chosen parameters."""
    _, grads = backward(state, x, target, prev_out, lam)
    flat_grads = np.concatenate([grads[n].ravel() for n, _ in LAYER_SHAPES])
    flat = state.flat_params()

    def loss_at(vec):
        s = state.copy()
        s.set_flat_params(vec)
        l_rep, l_con, _ = _loss_grads(s, x, target, prev_out, lam)
        return l_rep + lam * l_con

    rng = np.random.default_rng(seed)
    idx = rng.choice(flat.size, size=min(n_samples, flat.size), replace=False)
    max_rel = 0.0
    for i in idx:
        v = flat.copy()
        v[i] += h
        lp = loss_at(v)
        v[i] -= 2 * h
        lm = loss_at(v)
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(flat_grads[i]), 1e-8)
        max_rel = max(max_rel, abs(fd - flat_grads[i]) / denom)
    return max_rel


# ---------------------------------------------------------------------------
# Batch helpers and state serialization
# ---------------------------------------------------------------------------


def images_to_batch(images) -> np.ndarray:
    """Stack Images into a channels-first (B, 3, H, W) batch."""
    arrs = []
    for img in images:
        data = img.data
        if data.shape[2] == 1:
            data = np.repeat(data, 3, axis=2)
        arrs.append(np.transpose(data, (2, 0, 1)))
    return np.stack(arrs)


def batch_to_images(batch) -> list:
    return [Image(np.clip(np.transpose(b, (1, 2, 0)), 0.0, 1.0)) for b in batch]


def restore_image(state, img: Image) -> Image:
    pred = forward(state, images_to_batch([img]))
    return batch_to_images(pred)[0]


def save_state(state: RestorerState, path):
    header = STATE_MAGIC + struct.pack("<IQ", STATE_VERSION, PARAM_COUNT)
    flat_p = state.flat_params().astype("<f8")
    flat_m = np.concatenate(
        [state.momentum[n].ravel() for n, _ in LAYER_SHAPES]
    ).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(flat_p.tobytes())
        fh.write(flat_m.tobytes())


def load_state(path) -> RestorerState:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != STATE_MAGIC:
        raise ValueError("not a restorer state file")
    version, count = struct.unpack("<IQ", blob[4:16])
    if version != STATE_VERSION:
        raise ValueError(f"unsupported state version {version}")
    if count != PARAM_COUNT:
        raise ValueError(f"parameter count mismatch: file has {count}, expected {PARAM_COUNT}")
    body = np.frombuffer(blob[16:], dtype="<f8")
    if body.size != 2 * PARAM_COUNT:
        raise ValueError("truncated state payload")
    state = RestorerState.zeros()
    state.set_flat_params(body[:PARAM_COUNT].copy())
    pos = 0
    for n, s in LAYER_SHAPES:
        cnt = int(np.prod(s))
        state.momentum[n] = body[PARAM_COUNT + pos : PARAM_COUNT + pos + cnt].reshape(s).copy()
        pos += cnt
    return state
