"""Small residual de-raining network with hand-derived forward/backward passes.

Architecture: the replicate-padded 3x3 convs of ``LAYER_SHAPES`` in order,
3->8 -> ReLU -> 8->8 -> ReLU -> 8->3, each stated there once as a (weight,
bias) pair; the forward and backward passes loop over them. The head predicts
the rain residual, so the restored image is x - head(x). Zero-initialized
weights give the identity. Training uses the fixed ``CHARBONNIER_EPS`` and
``MOMENTUM``. Parameters, momenta and gradients are each one vector laid
out in ``LAYER_SHAPES`` order, the layout of the state file, which a
``Params`` reads as per-layer views, so a step updates whole vectors.

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

The 8-channel frames lie between zeroed guard bands of W+3 elements, the
farthest a tap reads from its output position, so each tap reads one
contiguous (B*(H+2)*(W+2), C) Fortran-ordered window of the frame's memory,
which spans the whole frame, border included. A ``Workspace`` builds the
nine windows once, and those convs run as nine scipy BLAS ``?gemm`` calls
with beta = 1, each accumulating its tap straight into the output frame, with
no per-tap product buffer or numpy add. Each output element still gets one
K-term dot product per tap, added once, as a GEMM into a buffer and an add
would give it. The windows also reach past the interior: there the forward
writes border outputs, which the ReLU's border fill overwrites and nothing
reads of the head's, and the backward adds products of the gradient frames'
zero border.
The backward pass reads each conv's cached input frame twice, for dW (one
GEMM per tap) and for the ReLU mask, then writes the conv's input gradient
over it: per tap one ``?gemm`` accumulating into the window it read, and
the border folded back onto the edge pixels.

Every batch-sized array of a step lives in a ``Workspace`` built for one
batch shape: the frames, the head's output frame (later its gradient), the
prediction (later its gradient), the first layer's stacked taps and three
loss temporaries, with arrays whose lifetimes do not overlap sharing memory
(Chen et al. 2016, "Training Deep Nets with Sublinear Memory Cost"). The
loss step takes the edge and consistency terms first, then writes the
Charbonnier gradient over the prediction, which nothing reads after it, and
sums the other two into it. A training stage keeps one workspace, so a step
allocates only parameter-sized arrays, and an evaluation keeps one for its
one-image forwards; ``forward`` and the loss functions called without one
build a throwaway workspace, ``forward``'s without the loss and backward
buffers.

All forward and backward math is numpy and scipy's BLAS, so runs are
bit-reproducible on one numpy/scipy build; other builds may sum in another
order and differ in the last bits. Each output pixel reads only its own
image, so ``forward(x)[i]`` equals ``forward(x[i:i+1])[0]`` up to rounding:
a GEMM may round an output column differently depending on where in the
batch it lies.
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
_STARTS = (0, *np.cumsum([math.prod(s) for _, s in LAYER_SHAPES]).tolist())
PARAM_COUNT = _STARTS[-1]
# The one parameter layout: each layer's (name, shape, slice) of the vector
_SLICES = tuple((n, s, slice(a, b))
                for (n, s), a, b in zip(LAYER_SHAPES, _STARTS, _STARTS[1:]))
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


class Params(dict):
    """Name -> array shaped per LAYER_SHAPES, each a view of ``flat``, one
    vector of PARAM_COUNT entries laid out by ``_SLICES``. Assigning an
    entry writes into its view, so ``flat`` always holds every entry."""

    __slots__ = ("flat",)

    def __init__(self, flat):
        if flat.shape != (PARAM_COUNT,):
            raise ShapeError(f"expected a vector of {PARAM_COUNT} parameters, "
                             f"got shape {flat.shape}")
        super().__init__((n, flat[sl].reshape(s)) for n, s, sl in _SLICES)
        self.flat = flat

    def __setitem__(self, name, value):
        self[name][...] = value

    def copy(self):
        return Params(self.flat.copy())


@dataclass
class RestorerState:
    params: Params
    momentum: Params  # SGD velocity buffers

    @classmethod
    def zeros(cls):
        return cls(Params(np.zeros(PARAM_COUNT)), Params(np.zeros(PARAM_COUNT)))

    @classmethod
    def random_init(cls, seed: int, scale: float = 0.05, dtype=np.float64):
        """Normal(0, scale) weights and zero momenta, drawn in float64 and
        cast to dtype, so every dtype rounds the same draws."""
        draws = np.random.default_rng(seed).normal(0.0, scale, PARAM_COUNT)
        return cls(Params(draws.astype(dtype, copy=False)),
                   Params(np.zeros(PARAM_COUNT, dtype)))

    @property
    def dtype(self):
        """The dtype of the parameters, which every pass on them computes in."""
        return self.params.flat.dtype

    def copy(self):
        return RestorerState(self.params.copy(), self.momentum.copy())


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
      the head into ``top``. Each frame lies between guard bands of W+3
      zeros, and ``taps[i]``, for every frame but the first, holds the GEMM
      of the dtype and the frame's nine tap windows (see ``_frame_taps``).
    - ``pred`` is x minus top's interior, batch-major like x, and the loss
      step writes the prediction's gradient over it.
    - ``scratch`` holds what one kernel needs at a time: the first layer's
      stacked taps of one image, or the three (B, 3, H, W) loss temporaries,
      which live between the forward and the backward pass.
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
        guard = wp + 1  # how far a tap reads from its output position
        m = hp * wp - 2 * guard  # flat positions one image's tap slice spans
        batch = bsz * c * h * w
        scratch = 9 * _CHANNELS[0][0] * m
        dtype = np.dtype(dtype)
        mask = 0
        if training:
            scratch = max(scratch, 3 * batch)
            # elements that hold _HIDDEN * pixels one-byte bools
            mask = -(-_HIDDEN * pixels // dtype.itemsize)
        # One allocation, so that the allocator reuses it whole from one
        # workspace to the next instead of trimming and faulting in its
        # parts: a guard, then each frame followed by a guard. Only the
        # guards are zeroed. The prediction is apart: the view that
        # ``forward`` returns keeps only it alive.
        *starts, end = guard + np.cumsum([0] + [ci * pixels + guard
                                                for ci in _FRAME_CHANNELS])
        buf = np.empty(end + scratch + mask, dtype)
        frames = []
        for ci, start in zip(_FRAME_CHANNELS, starts):
            buf[start - guard : start] = 0.0
            frames.append(buf[start : start + ci * pixels].reshape(ci, bsz, hp, wp))
        buf[end - guard : end] = 0.0
        *self.frames, self.top = frames
        # the first frame is read by the stacked GEMM and takes no gradient
        self.taps = [None] + [_frame_taps(buf, start, frame.shape)
                              for start, frame in zip(starts[1:], frames[1:-1])]
        self.shape = shape
        self.dtype = dtype
        self.pred = np.empty(shape, dtype)
        self.scratch = buf[end : end + scratch]
        if training:
            self.tmp, self.lap, self.lap_target = (
                self.scratch[k * batch : (k + 1) * batch].reshape(shape)
                for k in range(3))
            self.padded = self.top.reshape(bsz, c, hp, wp)
            self.mask = buf[end + scratch :].view(bool)


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


def _frame_taps(buf, start, shape):
    """(gemm, windows) of the (C, B, H+2, W+2) frame of the given shape that
    starts at flat position ``start`` of buf, between guards of W+3 zeros:
    the BLAS GEMM of buf's dtype, and for each tap (k, l), in ``_flat_taps``
    order, the (B*(H+2)*(W+2), C) Fortran-ordered window whose row q holds
    what the output at frame position q reads. The centre tap's window is the
    frame itself."""
    # only a process that builds a workspace loads scipy.linalg
    from scipy.linalg.blas import get_blas_funcs
    c, bsz, hp, wp = shape
    size = c * bsz * hp * wp
    windows = tuple(buf[start + d : start + d + size].reshape(c, -1).T
                    for d in (k * wp + l - (wp + 1)
                              for k in range(3) for l in range(3)))
    return get_blas_funcs("gemm", dtype=buf.dtype), windows


def _conv3x3(xp, w, b, out=None, scratch=None, taps=None):
    """Replicate-padded 3x3 conv of a (C, B, H, W) activation x, given as its
    padded frame xp = pad_replicate(x). Returns an (O, B, H+2, W+2) frame,
    ``out`` if given, whose interior is the conv output and whose border is
    unspecified. ``scratch`` is an optional flat buffer for the stacked
    taps.

    With 9C small (the 3-channel first layer) each image's nine tap slices
    are stacked into one (9C, m) block for a single GEMM, which is fastest;
    otherwise ``taps``, xp's ``_frame_taps``, must be given, and nine GEMMs
    accumulate one window each into the output frame, with no 9C-row matrix
    and no per-tap product."""
    c, bsz, hp, wp = xp.shape
    o = w.shape[0]
    if out is None:
        out = np.empty((o, bsz, hp, wp), w.dtype)
    of = out.reshape(o, -1)
    of.fill(0.0)
    if c <= _STACKED_MAX_CHANNELS:
        xf, s, n, _ = _flat_taps(xp)
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
        gemm, windows = taps
        # out^T += window @ w[:, :, k, l]^T, per tap. Each tap's weights are
        # contiguous, so the GEMM takes them without a copy.
        ot = of.T
        for window, wk in zip(windows, w.transpose(2, 3, 0, 1).reshape(9, o, c)):
            gemm(1.0, window, wk.T, 1.0, ot, overwrite_c=1)
    of += b[:, None]
    return out


def _conv3x3_backward(xp, w, dout, dx_taps=None):
    """(dw, db, dx) of ``_conv3x3(xp, w, b)``. dout is the gradient of the
    output as an (O, B, H+2, W+2) frame with a zero border; dx, returned only
    if ``dx_taps`` is given, is the gradient of x in the same form, written
    into the frame those ``_frame_taps`` belong to, which may be xp's own:
    xp is read for dw first.

    The zero border makes the positions that are not output pixels
    contribute nothing: dW of a tap is one GEMM against that tap's input
    slice, and dX accumulates each tap's GEMM into the window it read, then
    folds the padding back onto the edge pixels."""
    o, c = w.shape[:2]
    xf, s, n, taps = _flat_taps(xp)
    dof = dout.reshape(o, -1)
    d = dof[:, s : s + n]
    dw = np.empty(w.shape, w.dtype)
    for k, l, off in taps:
        dw[:, :, k, l] = d @ xf[:, off : off + n].T
    db = d.sum(axis=1)
    if dx_taps is None:
        return dw, db, None
    gemm, windows = dx_taps
    dxf = windows[4].T  # the centre tap's window: the frame
    dxf.fill(0.0)
    # window += dout^T @ w[:, :, k, l], per tap
    dt = dof.T
    for window, wk in zip(windows, w.transpose(2, 3, 1, 0).reshape(9, c, o)):
        gemm(1.0, dt, wk.T, 1.0, window, overwrite_c=1)
    return dw, db, fold_replicate_border(dxf.reshape(xp.shape))


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
    """Prediction for a (B, 3, H, W) batch, ``ws.pred``, and the workspace
    ``ws``, whose frames ``_backprop`` reads.
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
    for (w, b), xp, taps, out in zip(_CONVS, frames, ws.taps, frames[1:]):
        _relu_padded(_conv3x3(xp, p[w], p[b], out, ws.scratch, taps))
    w, b = _CONVS[-1]
    _conv3x3(frames[-1], p[w], p[b], ws.top, ws.scratch, ws.taps[-1])
    np.subtract(x, ws.top[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3), out=ws.pred)
    return ws.pred, ws


def forward(state: RestorerState, x: np.ndarray, *, ws=None) -> np.ndarray:
    """Unclipped restored batch x - head(x); clip only at evaluation time.
    ``ws`` is an optional ``Workspace`` for x's shape; the result is then
    its ``pred``, which its next pass overwrites."""
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
    masks; the gradient frames' zero borders stay zero under them. Made up
    front, the gradients' vector would add to a step's traced peak (the
    transposed negation's iterator buffers), so it is joined after the loop."""
    p = state.params
    grads = {}
    d = ws.top
    d.fill(0.0)
    # pred = x - residual
    np.negative(dpred.transpose(1, 0, 2, 3), out=d[:, :, 1:-1, 1:-1])
    for i in reversed(range(len(_CONVS))):
        w, b = _CONVS[i]
        xp = ws.frames[i]
        if i > 0:
            mask = np.greater(xp, 0.0, out=_view(ws.mask, xp.shape, bool))
        # the first frame has no taps, so the first conv takes no dx
        grads[w], grads[b], d = _conv3x3_backward(xp, p[w], d, ws.taps[i])
        if i > 0:
            d *= mask
    return Params(np.concatenate([grads[n].ravel() for n in _NAMES]))


def add_grads(acc, other):
    acc.flat += other.flat
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
    tmp = np.abs(d, out=tmp)
    loss = float(np.mean(tmp))
    # np.sign in place takes several times as long as into another array
    np.divide(np.sign(d, out=tmp), d.size, out=d)
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


def sgd_step(state: RestorerState, grads: Params, lr=1e-2) -> RestorerState:
    if not np.isfinite(grads.flat).all():
        bad = next(n for n, g in grads.items() if not np.isfinite(g).all())
        raise NumericalFaultError(f"non-finite gradient in {bad}; step refused")
    momentum = MOMENTUM * state.momentum.flat + grads.flat
    return RestorerState(Params(state.params.flat - lr * momentum),
                         Params(momentum))


# ---------------------------------------------------------------------------
# Batch helpers and state serialization
# ---------------------------------------------------------------------------


def images_to_batch(images, out=None) -> np.ndarray:
    """Stack Images into a channels-first (B, 3, H, W) batch, written into
    ``out`` if given, one image per row; a one-channel image fills all three
    channels."""
    rows = [np.transpose(img.data, (2, 0, 1)) for img in images]
    if out is None:
        return np.stack([np.broadcast_to(r, (3, *r.shape[1:])) for r in rows])
    for dst, src in zip(out, rows, strict=True):
        np.copyto(dst, src)
    return out


def restore_image(state, img: Image, *, ws=None) -> Image:
    """img restored and clipped; ``ws`` is an optional one-image workspace."""
    pred = forward(state, images_to_batch([img]), ws=ws)[0]
    return Image(np.clip(np.transpose(pred, (1, 2, 0)), 0.0, 1.0))


def save_state(state: RestorerState, path):
    header = STATE_MAGIC + struct.pack("<IQ", STATE_VERSION, PARAM_COUNT)
    with open(path, "wb") as fh:
        fh.write(header)
        for part in (state.params, state.momentum):
            fh.write(part.flat.astype("<f8").tobytes())


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
    got, size = len(blob) - 16, 16 * PARAM_COUNT  # parameters, momenta: <f8
    if got != size:
        kind = "truncated" if got < size else "over-long"
        raise ValueError(f"{kind} state payload: {got} bytes, expected {size}")
    body = np.frombuffer(blob, "<f8", offset=16).astype(np.float64)
    return RestorerState(Params(body[:PARAM_COUNT]), Params(body[PARAM_COUNT:]))
