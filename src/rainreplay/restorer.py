"""Small residual de-raining network with hand-derived forward/backward passes.

Architecture: the replicate-padded 3x3 convs of ``LAYER_SHAPES`` in order,
3->8 -> ReLU -> 8->8 -> ReLU -> 8->3, each stated there once as a (weight,
bias) pair; the forward and backward passes loop over them. The head predicts
the rain residual, so the restored image is x - head(x). Zero-initialized
weights give the identity. Training uses the fixed ``CHARBONNIER_EPS`` and
``MOMENTUM``; a state flattens to one vector in ``LAYER_SHAPES`` order, the
layout of the state file.

Batches are channels-first arrays of shape (B, 3, H, W). A pass computes in
the state's dtype (``RestorerState.dtype``), casting the batch into its first
frame. Training states are float32 (``pipeline.TRAIN_DTYPE``): the small
per-tap GEMMs below are bound by the bytes they move. The state file and the
finite-difference checks stay float64, since a difference quotient of float32
losses would measure rounding.

Inside the network, each activation is a channel-major replicate-padded
frame, (C, B, H+2, W+2), flattened to (C, B*(H+2)*(W+2)) for the GEMMs, so
each tap (k, l) of a 3x3 conv reads one contiguous slice at offset
k*(W+2) + l. A conv is nine shifted GEMMs accumulated into its output frame,
with no 9C-row im2col matrix: the "kn2row" form of Anderson, Vasudevan &
Gregg 2017 ("Low-memory GEMM-based convolution algorithms for deep neural
networks"). Only the 3-channel first layer stacks its nine tap slices, one
image at a time, into a 27-row block for one GEMM per image, which measured
faster.
The backward pass reads each conv's cached input frame twice, for dW (one
GEMM per tap) and for the ReLU mask, then writes the conv's input gradient
over it: per tap one GEMM accumulated into the slice it read, and the border
folded back onto the edge pixels.

Every batch-sized array of a step lives in a ``Workspace`` built for one
batch shape: the frames, the head's output frame (later its gradient), the
prediction (later its gradient), the per-tap GEMM products and three loss
temporaries, with arrays whose lifetimes do not overlap sharing memory (Chen
et al. 2016, "Training Deep Nets with Sublinear Memory Cost"). The loss step
takes the edge and consistency terms first, then writes the Charbonnier
gradient over the prediction, which nothing reads after it, and sums the
other two into it. A training stage keeps one workspace, so a step allocates
only parameter-sized arrays, and an evaluation keeps one for its one-image
forwards; ``forward`` and the loss functions called without one build a
throwaway workspace, ``forward``'s without the loss and backward buffers.

All forward and backward math is straight numpy, so runs are bit-reproducible
on one numpy/BLAS build; other builds may sum in another order and differ in
the last bits. Each output pixel reads only its own image, so
``forward(x)[i]`` equals ``forward(x[i:i+1])[0]`` up to rounding: a GEMM may
round an output column differently depending on where in the batch it lies.
"""

from __future__ import annotations

import math
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
# (input, output) channels of each conv; the channels of each conv's input
# frame and of the head's output frame; the widest hidden activation
_CHANNELS = tuple((s[1], s[0]) for n, s in LAYER_SHAPES[::2])
_FRAME_CHANNELS = tuple(ci for ci, _ in _CHANNELS) + _CHANNELS[-1][1:]
_HIDDEN = max(ci for ci, _ in _CHANNELS[1:])

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
    def random_init(cls, seed: int, scale: float = 0.05, dtype=np.float64):
        """Normal(0, scale) weights and zero momenta, drawn in float64 and
        cast to dtype, so every dtype rounds the same draws."""
        rng = np.random.default_rng(seed)
        return cls(
            params={n: rng.normal(0.0, scale, s).astype(dtype, copy=False)
                    for n, s in LAYER_SHAPES},
            momentum={n: np.zeros(s, dtype) for n, s in LAYER_SHAPES},
        )

    @property
    def dtype(self):
        """The dtype of the parameters, which every pass on them computes in."""
        return self.params[_NAMES[0]].dtype

    def copy(self):
        return RestorerState(
            params={n: v.copy() for n, v in self.params.items()},
            momentum={n: v.copy() for n, v in self.momentum.items()},
        )


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
# Workspace
# ---------------------------------------------------------------------------


class Workspace:
    """Every batch-sized array of a forward pass over (B, 3, H, W) batches
    and, if ``training``, of a loss-and-gradient step too. A training stage
    builds one and hands it to each step, so a step allocates only
    parameter-sized arrays.

    - ``frames[i]`` is conv i's padded channel-major input frame,
      (C, B, H+2, W+2). Conv i writes its output into ``frames[i + 1]``, and
      the head into ``top``; ``pred`` is x minus top's interior, and the
      loss step writes the prediction's gradient over it.
    - ``scratch`` holds what one kernel needs at a time: the first layer's
      stacked taps of one image, a conv's per-tap GEMM product, or the three
      (B, 3, H, W) loss temporaries, which live between the forward and the
      backward pass.
    - Between those passes ``top`` is free, and the edge loss uses it as
      ``padded``, a (B, 3, H+2, W+2) frame.
    - ``mask`` holds one ReLU mask of the backward pass.

    Every array but the mask has ``dtype``, which must be the state's: a
    float32 workspace halves the bytes each per-tap GEMM moves.
    """

    def __init__(self, shape, training=True, dtype=np.float64):
        shape = tuple(shape)
        if len(shape) != 4 or shape[1] != 3:
            raise ShapeError(f"expected (B, 3, H, W) batch, got {shape}")
        bsz, c, h, w = shape
        hp, wp = h + 2, w + 2
        pixels = bsz * hp * wp
        n = pixels - 2 * (wp + 1)  # flat positions a tap slice spans
        m = hp * wp - 2 * (wp + 1)  # the same within one image
        batch = bsz * c * h * w
        scratch = max(9 * ci * m if ci <= _STACKED_MAX_CHANNELS else o * n
                      for ci, o in _CHANNELS)
        dtype = np.dtype(dtype)
        mask = 0
        if training:
            scratch = max(scratch, _HIDDEN * n, 3 * batch)
            # elements that hold _HIDDEN * pixels one-byte bools
            mask = -(-_HIDDEN * pixels // dtype.itemsize)
        # One allocation, so that the allocator reuses it whole from one
        # workspace to the next instead of trimming and faulting in its
        # parts. The prediction is apart: the view that ``forward`` returns
        # keeps only it alive.
        sizes = [ci * pixels for ci in _FRAME_CHANNELS] + [scratch, mask]
        buf, parts = np.empty(sum(sizes), dtype), []
        for k in sizes:
            parts.append(buf[:k])
            buf = buf[k:]
        *self.frames, self.top = (a.reshape(ci, bsz, hp, wp)
                                  for a, ci in zip(parts, _FRAME_CHANNELS))
        self.shape = shape
        self.dtype = dtype
        self.pred = np.empty((c, bsz, h, w), dtype)
        self.scratch = parts[-2]
        if training:
            self.tmp, self.lap, self.lap_target = (
                self.scratch[k * batch : (k + 1) * batch].reshape(shape)
                for k in range(3))
            self.padded = self.top.reshape(bsz, c, hp, wp)
            self.mask = parts[-1].view(bool)


def _view(buf, shape, dtype):
    """The first entries of flat buffer buf as an array of the given shape,
    or a fresh array of the given dtype if buf is None."""
    if buf is None:
        return np.empty(shape, dtype)
    return buf[: math.prod(shape)].reshape(shape)


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


def _conv3x3(xp, w, b, out=None, scratch=None):
    """Replicate-padded 3x3 conv of a (C, B, H, W) activation x, given as its
    padded frame xp = pad_replicate(x). Returns an (O, B, H+2, W+2) frame,
    ``out`` if given, whose interior is the conv output and whose border is
    unspecified. ``scratch`` is an optional flat buffer for the taps.

    With 9C small (the 3-channel first layer) each image's nine tap slices
    are stacked into one (9C, m) block for a single GEMM, which is fastest;
    otherwise nine shifted GEMMs accumulate, and no 9C-row matrix is built."""
    c, bsz, hp, wp = xp.shape
    o = w.shape[0]
    xf, s, n, taps = _flat_taps(xp)
    if out is None:
        out = np.empty((o, bsz, hp, wp), w.dtype)
    of = out.reshape(o, -1)
    of.fill(0.0)
    if c <= _STACKED_MAX_CHANNELS:
        m = hp * wp - 2 * s
        cols = _view(scratch, (9 * c, m), w.dtype)
        # stacked[c, k, l, q] = xf[c, k*(W+2) + l + q], the nine tap slices:
        # a strided view of xf's memory, only read
        step = xf.strides[1]
        stacked = np.ndarray((c, 3, 3, n), xf.dtype, xf, 0,
                             (xf.strides[0], wp * step, step, step))
        # One GEMM per image, so an image's output does not depend on the
        # batch it is in.
        for i in range(0, bsz * hp * wp, hp * wp):
            np.copyto(cols.reshape(c, 3, 3, m), stacked[..., i : i + m])
            np.matmul(w.reshape(o, 9 * c), cols, out=of[:, s + i : s + i + m])
    else:
        prod = _view(scratch, (o, n), w.dtype)
        for k, l, off in taps:
            np.matmul(w[:, :, k, l], xf[:, off : off + n], out=prod)
            of[:, s : s + n] += prod
    of += b[:, None]
    return out


def _conv3x3_backward(xp, w, dout, need_dx=True, dx=None, scratch=None):
    """(dw, db, dx) of ``_conv3x3(xp, w, b)``. dout is the gradient of the
    output as an (O, B, H+2, W+2) frame with a zero border; dx, returned only
    if need_dx, is the gradient of x in the same form. It is written into
    the frame ``dx`` if given, which may be xp itself: xp is read for dw
    first. ``scratch`` is an optional flat buffer for the per-tap products.

    The zero border makes the positions that are not output pixels
    contribute nothing: dW of a tap is one GEMM against that tap's input
    slice, and dX accumulates each tap's GEMM into the slice it read, then
    folds the padding back onto the edge pixels."""
    o = w.shape[0]
    xf, s, n, taps = _flat_taps(xp)
    d = dout.reshape(o, -1)[:, s : s + n]
    dw = np.empty(w.shape, w.dtype)
    for k, l, off in taps:
        dw[:, :, k, l] = d @ xf[:, off : off + n].T
    db = d.sum(axis=1)
    if not need_dx:
        return dw, db, None
    if dx is None:
        dx = np.empty(xp.shape, w.dtype)
    dxf = dx.reshape(xf.shape)
    dxf.fill(0.0)
    prod = _view(scratch, (xf.shape[0], n), w.dtype)
    for k, l, off in taps:
        np.matmul(w[:, :, k, l].T, d, out=prod)
        dxf[:, off : off + n] += prod
    return dw, db, fold_replicate_border(dx)


def _relu_padded(frame):
    """In place: ReLU of a conv output frame's interior, with the border set
    to replicate it, which makes the frame the next conv's padded input. The
    ReLU covers the whole contiguous frame, which takes no iterator buffer."""
    np.maximum(frame, 0.0, out=frame)
    return fill_replicate_border(frame)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _forward_cached(state, x, ws=None):
    """Prediction for a (B, 3, H, W) batch, as a (B, 3, H, W) view of
    ``ws.pred``, and the workspace ``ws``, whose frames ``_backprop`` reads.
    Without ws, a training workspace of the state's dtype is built for x.
    x may have another dtype; it is cast into the first frame."""
    if ws is None:
        ws = Workspace(x.shape, dtype=state.dtype)
    if x.shape != ws.shape:
        raise ShapeError(f"workspace holds batches of shape {ws.shape}, "
                         f"got {x.shape}")
    if ws.dtype != state.dtype:  # mixed GEMMs run silently at float64 speed
        raise TypeError(f"workspace holds {ws.dtype} arrays, the state "
                        f"{state.dtype} parameters")
    p = state.params
    frames = ws.frames
    pad_replicate(x.transpose(1, 0, 2, 3), out=frames[0])
    for (w, b), xp, out in zip(_CONVS, frames, frames[1:]):
        _relu_padded(_conv3x3(xp, p[w], p[b], out, ws.scratch))
    w, b = _CONVS[-1]
    _conv3x3(frames[-1], p[w], p[b], ws.top, ws.scratch)
    np.subtract(x.transpose(1, 0, 2, 3), ws.top[:, :, 1:-1, 1:-1], out=ws.pred)
    return ws.pred.transpose(1, 0, 2, 3), ws


def forward(state: RestorerState, x: np.ndarray, *, ws=None) -> np.ndarray:
    """Unclipped restored batch x - head(x); clip only at evaluation time.
    ``ws`` is an optional ``Workspace`` for x's shape; the result is then a
    view into it, which its next pass overwrites."""
    if ws is None:
        ws = Workspace(x.shape, training=False, dtype=state.dtype)
    pred, _ = _forward_cached(state, x, ws)
    return pred


def _backprop(state, ws, dpred):
    """Parameter gradients for dpred, the (B, 3, H, W) gradient of the
    prediction, from the input frames that ``_forward_cached`` left in ws.
    The convs run in reverse, each taking the gradient frame of its output
    (for the head, ``ws.top``) and writing that of its input over its input
    frame, once dW and the ReLU mask are taken from it. A ReLU output is
    positive exactly where its input is, so the input frames give the ReLU
    masks; the gradient frames' zero borders stay zero under them."""
    p = state.params
    grads = dict.fromkeys(_NAMES)
    d = ws.top
    d.fill(0.0)
    # pred = x - residual
    np.negative(dpred.transpose(1, 0, 2, 3), out=d[:, :, 1:-1, 1:-1])
    for i in reversed(range(len(_CONVS))):
        w, b = _CONVS[i]
        xp = ws.frames[i]
        if i > 0:
            mask = np.greater(xp, 0.0, out=_view(ws.mask, xp.shape, bool))
        grads[w], grads[b], d = _conv3x3_backward(xp, p[w], d, need_dx=i > 0,
                                                  dx=xp, scratch=ws.scratch)
        if i > 0:
            d *= mask
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


def _charbonnier_terms(pred, target, grad=None, tmp=None):
    """Charbonnier loss of pred against target and its gradient in pred,
    written into ``grad`` (which may be pred or target) with ``tmp`` as
    scratch; either is a fresh array if not given."""
    d = np.subtract(pred, target, out=grad)
    s = np.multiply(d, d, out=tmp)
    s += CHARBONNIER_EPS * CHARBONNIER_EPS
    np.sqrt(s, out=s)
    loss = float(np.mean(s))
    s *= d.size
    d /= s
    return loss, d


def _edge_terms(pred, target, lap=None, lap_target=None, padded=None,
                tmp=None):
    """Edge loss (Charbonnier of the Laplacians) of pred against target and
    its gradient in pred, the interior of the frame ``padded``; each
    Laplacian is taken once, into ``lap`` and ``lap_target``. The buffers
    are optional."""
    lap = laplacian_batch(pred, lap, padded=padded, tmp=tmp)
    lap_target = laplacian_batch(target, lap_target, padded=padded, tmp=tmp)
    loss, g_lap = _charbonnier_terms(lap, lap_target, lap, lap_target)
    return loss, laplacian_batch_adjoint(g_lap, padded, tmp=tmp)


def _consistency_terms(out_a, out_b, grad=None, tmp=None):
    """Mean absolute difference between two network outputs (L1) and its
    gradient in out_a, written into ``grad`` with ``tmp`` as scratch."""
    d = np.subtract(out_a, out_b, out=grad)
    loss = float(np.mean(np.abs(d, out=tmp)))
    np.sign(d, out=d)
    d /= d.size
    return loss, d


def _loss_grads(state, x, target, prev_out, lam, ws):
    """Charbonnier + edge loss, the consistency loss against prev_out if
    given, and the parameter gradients of the lam-weighted total; every
    batch-sized array lives in ws, or in a fresh workspace if it is None.

    The edge gradient lands in ``ws.padded`` and the consistency gradient in
    ``ws.lap``; the Charbonnier term comes last and writes its gradient over
    the prediction, into which the other two are then summed."""
    pred, ws = _forward_cached(state, x, ws)
    _check_shapes(pred, target)
    l_edge, g_edge = _edge_terms(pred, target, ws.lap, ws.lap_target,
                                 ws.padded, ws.tmp)
    l_consist = 0.0
    if prev_out is not None:
        _check_shapes(pred, prev_out)
        l_consist, g_consist = _consistency_terms(pred, prev_out, ws.lap, ws.tmp)
        g_consist *= lam
    l_char, dpred = _charbonnier_terms(pred, target, pred, ws.tmp)
    dpred += g_edge
    if prev_out is not None:
        dpred += g_consist
    return l_char + l_edge, l_consist, _backprop(state, ws, dpred)


def restoration_loss_grads(state, x, target, *, ws=None):
    """Charbonnier + edge loss of forward(state, x) against target, with
    parameter gradients. ``ws`` is an optional ``Workspace`` for x's shape."""
    loss, _, grads = _loss_grads(state, x, target, None, 0.0, ws)
    return loss, grads


def replay_loss_grads(state, x, target, prev_out, lam, *, ws=None):
    """Replay-batch losses: restoration terms plus the lam-weighted consistency
    term against the frozen previous network's output. ``ws`` is an optional
    ``Workspace`` for x's shape."""
    return _loss_grads(state, x, target, prev_out, lam, ws)


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


def images_to_batch(images, out=None) -> np.ndarray:
    """Stack Images into a channels-first (B, 3, H, W) batch, written into
    ``out`` if given."""
    arrs = []
    for img in images:
        data = img.data
        if data.shape[2] == 1:
            data = np.repeat(data, 3, axis=2)
        arrs.append(np.transpose(data, (2, 0, 1)))
    return np.stack(arrs, out=out)


def restore_image(state, img: Image, *, ws=None) -> Image:
    """img restored and clipped; ``ws`` is an optional one-image workspace."""
    pred = forward(state, images_to_batch([img]), ws=ws)[0]
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
