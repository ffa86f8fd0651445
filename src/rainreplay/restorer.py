"""Small residual de-raining network with hand-derived forward/backward passes.

Architecture: the replicate-padded 3x3 convs of ``LAYER_SHAPES`` in order,
3->8 -> ReLU -> 8->8 -> ReLU -> 8->3, each stated there once as a (weight,
bias) pair; the forward and backward passes loop over them. The head predicts
the rain residual, so the restored image is x - head(x). Zero-initialized
weights give the identity. Training uses the fixed ``CHARBONNIER_EPS`` and
``MOMENTUM``; a state flattens to one vector in ``LAYER_SHAPES`` order, the
layout of ``flat_params`` and of the state file.

Batches are channels-first float64 arrays of shape (B, 3, H, W). Inside the
network, each activation is a channel-major replicate-padded frame,
(C, B, H+2, W+2), flattened to (C, B*(H+2)*(W+2)) for the GEMMs, so each tap
(k, l) of a 3x3 conv reads one contiguous slice at offset k*(W+2) + l. A conv
is nine shifted GEMMs accumulated into its output frame, with no 9C-row
im2col matrix: the "kn2row" form of Anderson, Vasudevan & Gregg 2017
("Low-memory GEMM-based convolution algorithms for deep neural networks").
The backward pass reads the cached input frames: per tap, one GEMM for dW
and one accumulated into the dX frame, whose border is then folded back onto
the edge pixels. Only the 3-channel first layer's forward stacks its slices
into one 27-row matrix, which measured faster there.

All forward and backward math is straight numpy, so runs are bit-reproducible
on one numpy/BLAS build; other builds may sum in another order and differ in
the last bits. Each output pixel reads only its own image, so
``forward(x)[i]`` equals ``forward(x[i:i+1])[0]`` up to rounding: a GEMM may
round an output column differently depending on where in the batch it lies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .imaging import (
    Image, ShapeError, fill_replicate_border, fold_replicate_border,
    laplacian_batch, laplacian_batch_adjoint, pad_replicate,
)

CHARBONNIER_EPS = 1e-3

LAYER_SHAPES = (
    ("w1", (8, 3, 3, 3)), ("b1", (8,)),
    ("w2", (8, 8, 3, 3)), ("b2", (8,)),
    ("w3", (3, 8, 3, 3)), ("b3", (3,)),
)
PARAM_COUNT = sum(int(np.prod(s)) for _, s in LAYER_SHAPES)
_NAMES = [n for n, _ in LAYER_SHAPES]
# (weight, bias) names of each conv, input to output
_CONVS = tuple(zip(_NAMES[::2], _NAMES[1::2]))

MOMENTUM = 0.9  # SGD momentum of every step

# Input channels up to which a conv's forward stacks its nine tap slices into
# one GEMM rather than running nine shifted GEMMs; with 9C = 27 rows the single
# GEMM measured faster.
_STACKED_MAX_CHANNELS = 3

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
        return _flatten(self.params)

    def set_flat_params(self, flat):
        self.params = _unflatten(flat)


def _flatten(arrays):
    """One vector of a name -> array dict, in LAYER_SHAPES order."""
    return np.concatenate([arrays[n].ravel() for n in _NAMES])


def _unflatten(flat):
    """Inverse of ``_flatten``: fresh arrays shaped per LAYER_SHAPES."""
    arrays, pos = {}, 0
    for n, s in LAYER_SHAPES:
        cnt = int(np.prod(s))
        arrays[n] = flat[pos : pos + cnt].reshape(s).copy()
        pos += cnt
    return arrays


# ---------------------------------------------------------------------------
# Channel-major convolution and its adjoint
# ---------------------------------------------------------------------------


def _flat_taps(xp):
    """A padded (C, B, H+2, W+2) frame flattened to (C, N); s and n, such that
    flat positions [s, s + n) hold every interior pixel; and the nine taps
    (k, l, offset): the output at position q reads tap (k, l) from
    q - s + offset, so over those positions it reads [offset, offset + n)."""
    c, _, _, wp = xp.shape
    xf = xp.reshape(c, -1)
    s = wp + 1
    taps = [(k, l, k * wp + l) for k in range(3) for l in range(3)]
    return xf, s, xf.shape[1] - 2 * s, taps


def _conv3x3(xp, w, b):
    """Replicate-padded 3x3 conv of a (C, B, H, W) activation x, given as its
    padded frame xp = pad_replicate(x). Returns an (O, B, H+2, W+2) frame
    whose interior is the conv output and whose border is unspecified.

    With 9C small (the 3-channel first layer) the nine tap slices are stacked
    into one (9C, n) matrix for a single GEMM, which is fastest; otherwise
    nine shifted GEMMs accumulate, and no 9C-row matrix is built."""
    c, bsz, hp, wp = xp.shape
    o = w.shape[0]
    xf, s, n, taps = _flat_taps(xp)
    out = np.zeros((o, xf.shape[1]))
    if c <= _STACKED_MAX_CHANNELS:
        cols = np.stack([xf[:, off : off + n] for _, _, off in taps], axis=1)
        cols = cols.reshape(9 * c, n)
        # One GEMM per image, so an image's output does not depend on the
        # batch it is in.
        m = hp * wp - 2 * s
        for i in range(0, bsz * hp * wp, hp * wp):
            np.matmul(w.reshape(o, 9 * c), cols[:, i : i + m],
                      out=out[:, s + i : s + i + m])
    else:
        for k, l, off in taps:
            out[:, s : s + n] += w[:, :, k, l] @ xf[:, off : off + n]
    out += b[:, None]
    return out.reshape(o, bsz, hp, wp)


def _conv3x3_backward(xp, w, dout, need_dx=True):
    """(dw, db, dx) of ``_conv3x3(xp, w, b)``. dout is the gradient of the
    output as an (O, B, H+2, W+2) frame with a zero border; dx, returned only
    if need_dx, is the gradient of x in the same form.

    The zero border makes the positions that are not output pixels
    contribute nothing: dW of a tap is one GEMM against that tap's input
    slice, and dX accumulates each tap's GEMM into the slice it read, then
    folds the padding back onto the edge pixels."""
    o = w.shape[0]
    xf, s, n, taps = _flat_taps(xp)
    d = dout.reshape(o, -1)[:, s : s + n]
    dw = np.empty(w.shape)
    for k, l, off in taps:
        dw[:, :, k, l] = d @ xf[:, off : off + n].T
    db = d.sum(axis=1)
    if not need_dx:
        return dw, db, None
    dxp = np.zeros(xf.shape)
    for k, l, off in taps:
        dxp[:, off : off + n] += w[:, :, k, l].T @ d
    return dw, db, fold_replicate_border(dxp.reshape(xp.shape))


def _relu_padded(frame):
    """In place: ReLU of a conv output frame's interior, with the border set
    to replicate it, which makes the frame the next conv's padded input."""
    inner = frame[:, :, 1:-1, 1:-1]
    np.maximum(inner, 0.0, out=inner)
    return fill_replicate_border(frame)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _forward_cached(state, x):
    """Prediction for a (B, 3, H, W) batch, as a (B, 3, H, W) view of a
    channel-major array, and what ``_backprop`` reads: the list of padded
    channel-major input frames, one per conv."""
    p = state.params
    xc = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    frames = [pad_replicate(xc)]
    for w, b in _CONVS[:-1]:
        frames.append(_relu_padded(_conv3x3(frames[-1], p[w], p[b])))
    w, b = _CONVS[-1]
    pred = xc - _conv3x3(frames[-1], p[w], p[b])[:, :, 1:-1, 1:-1]
    return pred.transpose(1, 0, 2, 3), frames


def forward(state: RestorerState, x: np.ndarray) -> np.ndarray:
    """Unclipped restored batch x - head(x); clip only at evaluation time."""
    if x.ndim != 4 or x.shape[1] != 3:
        raise ShapeError(f"expected (B, 3, H, W) batch, got {x.shape}")
    pred, _ = _forward_cached(state, x)
    return pred


def _backprop(state, frames, dpred):
    """Parameter gradients for dpred, the (B, 3, H, W) gradient of the
    prediction, from the cached input frames. The convs run in reverse, each
    taking the gradient frame of its output and leaving that of its input. A
    ReLU output is positive exactly where its input is, so the cached input
    frames give the ReLU masks; the gradient frames' zero borders stay zero
    under them."""
    p = state.params
    grads = dict.fromkeys(_NAMES)
    d = np.zeros(frames[0].shape)  # pred = x - residual
    np.negative(dpred.transpose(1, 0, 2, 3), out=d[:, :, 1:-1, 1:-1])
    for i in reversed(range(len(_CONVS))):
        w, b = _CONVS[i]
        grads[w], grads[b], d = _conv3x3_backward(frames[i], p[w], d,
                                                  need_dx=i > 0)
        if i > 0:
            d *= frames[i] > 0.0
    return grads


def add_grads(acc, other):
    for n in acc:
        acc[n] += other[n]
    return acc


# ---------------------------------------------------------------------------
# Losses (value and gradient w.r.t. the first argument)
# ---------------------------------------------------------------------------


def _check_shapes(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def _charbonnier_terms(pred, target):
    """Charbonnier loss of pred against target and its gradient in pred."""
    d = pred - target
    s = np.sqrt(d * d + CHARBONNIER_EPS * CHARBONNIER_EPS)
    return float(np.mean(s)), d / (s * d.size)


def charbonnier(pred, target):
    _check_shapes(pred, target)
    return _charbonnier_terms(pred, target)[0]


def _edge_terms(pred, target):
    """Edge loss (Charbonnier of the Laplacians) of pred against target and
    its gradient in pred; each Laplacian is taken once."""
    loss, g_lap = _charbonnier_terms(laplacian_batch(pred), laplacian_batch(target))
    return loss, laplacian_batch_adjoint(g_lap)


def edge_loss(pred, target):
    _check_shapes(pred, target)
    return _edge_terms(pred, target)[0]


def consistency_loss(out_a, out_b):
    """Mean absolute difference between two network outputs (L1)."""
    _check_shapes(out_a, out_b)
    return float(np.mean(np.abs(out_a - out_b)))


def _consistency_grad(out_a, out_b):
    return np.sign(out_a - out_b) / out_a.size


def _restoration_terms(pred, target):
    """Charbonnier + edge loss of pred against target and its gradient in
    pred."""
    _check_shapes(pred, target)
    l_char, g_char = _charbonnier_terms(pred, target)
    l_edge, g_edge = _edge_terms(pred, target)
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


def sgd_step(state: RestorerState, grads, lr=1e-2) -> RestorerState:
    for n in grads:
        if not np.all(np.isfinite(grads[n])):
            raise NumericalFaultError(f"non-finite gradient in {n}; step refused")
    new = state.copy()
    for n, _ in LAYER_SHAPES:
        new.momentum[n] = MOMENTUM * new.momentum[n] + grads[n]
        new.params[n] = new.params[n] - lr * new.momentum[n]
    return new


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


def restore_image(state, img: Image) -> Image:
    pred = forward(state, images_to_batch([img]))[0]
    return Image(np.clip(np.transpose(pred, (1, 2, 0)), 0.0, 1.0))


def save_state(state: RestorerState, path):
    header = STATE_MAGIC + struct.pack("<IQ", STATE_VERSION, PARAM_COUNT)
    with open(path, "wb") as fh:
        fh.write(header)
        for arrays in (state.params, state.momentum):
            fh.write(_flatten(arrays).astype("<f8").tobytes())


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
    return RestorerState(params=_unflatten(body[:PARAM_COUNT]),
                         momentum=_unflatten(body[PARAM_COUNT:]))
