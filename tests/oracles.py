"""Reference computations that only the tests use: finite-difference gradient
checks for the restorer, the allocating restorer step, with its ReLU on
frame interiors only, that the workspace step must match bit for bit, closed
forms for the replay-cache accounting, the one-scalar-call-per-field streak
draws of the rain renderers, the full-grid background, bounding-box
rasteriser and ``np.gradient`` HOG votes that the program's faster versions
must match, and the PPM/PGM reader that checks ``imaging.write_ppm``."""

import numpy as np

from rainreplay import memgen, restorer
from rainreplay.imaging import (
    LAPLACIAN_KERNEL, Image, fill_replicate_border, fold_replicate_border,
    pad_replicate,
)
from rainreplay.synthdata import ConfigError, draw_streak, streak_count


def backward(state, x, target, prev_out=None, lam=0.0):
    """Gradients of the total per-batch loss (restoration + lam * consistency)."""
    l_replay, l_consist, grads = restorer.replay_loss_grads(
        state, x, target, prev_out, lam)
    return l_replay + lam * l_consist, grads


def kink_margin(state, x, prev_out=None):
    """Smallest distance of any ReLU pre-activation (and, if given, any L1
    difference against prev_out) from zero.

    Central finite differences are only meaningful when this margin exceeds
    the probe step times the local sensitivity; fixtures for gradient checks
    should be chosen with a comfortable margin.
    """
    pred, ws = restorer._forward_cached(state, x)
    p = state.params
    margin = min(
        float(np.abs(restorer._conv3x3(xp, p[w], p[b], taps=taps)
                     [:, :, 1:-1, 1:-1]).min())
        for xp, taps, (w, b) in zip(ws.frames, ws.taps, restorer._CONVS[:-1]))
    if prev_out is not None:
        margin = min(margin, float(np.abs(pred - prev_out).min()))
    return margin


def guarded_frame(a):
    """(xp, taps): the replicate-padded channel-major frame of a (B, C, H, W)
    array, between guard bands of zeros as in a ``restorer.Workspace``, and
    the frame's ``restorer._frame_taps``, which the shifted-GEMM conv and
    every input gradient need."""
    bsz, c, h, w = a.shape
    guard = w + 3
    buf = np.zeros(c * bsz * (h + 2) * (w + 2) + 2 * guard)
    xp = buf[guard:-guard].reshape(c, bsz, h + 2, w + 2)
    pad_replicate(a.transpose(1, 0, 2, 3), out=xp)
    return xp, restorer._frame_taps(buf, guard, xp.shape)


def grad_check(state, x, target, prev_out=None, lam=0.0, n_samples=200,
               h=1e-4, seed=0):
    """Max relative error of analytic vs central finite-difference gradients
    over n_samples randomly chosen parameters."""
    flat_grads = backward(state, x, target, prev_out, lam)[1].flat
    flat = state.params.flat

    def loss_at(vec):
        s = state.copy()
        s.params = restorer.Params(vec)
        return backward(s, x, target, prev_out, lam)[0]

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


def replay_cost_reuse_retained(sizes) -> float:
    """Closed-form reuse cost under the cache's surplus-retention rule.

    Slot j (created at stage j+2) keeps its largest build, so its cumulative
    fresh calls are the running max of its real-valued requirement
    max_{n >= j+2} M_n/(n-1). For nondecreasing per-slot requirements this
    telescopes to the same value as replay_cost_reuse_closed; for
    shrink-then-grow streams the retained surplus makes it strictly smaller.
    """
    n_stages = len(sizes)
    total = 0.0
    for j in range(n_stages - 1):
        total += max(sizes[n - 1] / (n - 1) for n in range(j + 2, n_stages + 1))
    return total


def rounding_slack(n_stages: int) -> int:
    """Integer-split rounding slack: up to (n-1) per stage."""
    return sum(n - 1 for n in range(2, n_stages + 1))


def render_rain_layer_scalar(params, size: int, seed: int) -> Image:
    """``synthdata.render_rain_layer`` with one scalar RNG call per streak
    field, in the order the program draws them."""
    rng = np.random.default_rng(seed)
    streaks = []
    for _ in range(streak_count(params.density, size)):
        angle = rng.normal(params.angle_mean, params.angle_std) % 180.0
        length = float(min(max(rng.normal(params.length_mean, params.length_std), 2.0), size))
        intensity = min(max(rng.normal(params.intensity_mean, params.intensity_std), 0.0), 1.0)
        cy, cx = rng.uniform(0, size), rng.uniform(0, size)
        streaks.append((cy, cx, angle, length, intensity))
    cy, cx, angle, length, intensity = np.array(streaks, dtype=np.float64).reshape(-1, 5).T
    canvas = np.zeros((size, size))
    draw_streak(canvas, cy, cx, angle, length, params.width, intensity)
    return Image(np.clip(canvas, 0.0, 1.0))


def sample_rain_scalar(gen, z, size: int) -> Image:
    """``memgen.sample_rain`` with one scalar RNG call per streak field (the
    angle bin by ``Generator.choice``), in the order the program draws them."""
    rng = np.random.default_rng(memgen._latent_seed(np.asarray(z, dtype=np.float64)))
    bin_width = 180.0 / memgen.ANGLE_BINS
    streaks = []
    for _ in range(streak_count(gen.density, size)):
        b = rng.choice(memgen.ANGLE_BINS, p=gen.angle_hist)
        angle = (b + rng.uniform()) * bin_width
        length = float(min(max(rng.normal(gen.length_mean, gen.length_std), 2.0), size))
        intensity = min(max(rng.normal(gen.intensity_mean, gen.intensity_std), 0.0), 1.0)
        cy, cx = rng.uniform(0, size), rng.uniform(0, size)
        streaks.append((cy, cx, angle, length, intensity))
    cy, cx, angle, length, intensity = np.array(streaks, dtype=np.float64).reshape(-1, 5).T
    canvas = np.zeros((size, size))
    draw_streak(canvas, cy, cx, angle, length, gen.width, intensity)
    return Image(np.clip(canvas, 0.0, 1.0))


# ---------------------------------------------------------------------------
# The restorer step with a fresh array for every batch-sized value: the
# kernels, passes and loss terms as they were before the workspace.
# ---------------------------------------------------------------------------


def conv3x3_alloc(xp, w, b):
    c, bsz, hp, wp = xp.shape
    o = w.shape[0]
    xf, s, n, taps = restorer._flat_taps(xp)
    out = np.zeros((o, xf.shape[1]))
    if c <= restorer._STACKED_MAX_CHANNELS:
        cols = np.stack([xf[:, off : off + n] for _, _, off in taps], axis=1)
        cols = cols.reshape(9 * c, n)
        m = hp * wp - 2 * s
        for i in range(0, bsz * hp * wp, hp * wp):
            np.matmul(w.reshape(o, 9 * c), cols[:, i : i + m],
                      out=out[:, s + i : s + i + m])
    else:
        for k, l, off in taps:
            out[:, s : s + n] += w[:, :, k, l] @ xf[:, off : off + n]
    out += b[:, None]
    return out.reshape(o, bsz, hp, wp)


def conv3x3_backward_alloc(xp, w, dout, need_dx=True):
    o = w.shape[0]
    xf, s, n, taps = restorer._flat_taps(xp)
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


def relu_padded_interior(frame):
    """``restorer._relu_padded`` with the ReLU on the frame's interior only."""
    inner = frame[:, :, 1:-1, 1:-1]
    np.maximum(inner, 0.0, out=inner)
    return fill_replicate_border(frame)


def forward_cached_alloc(state, x):
    p = state.params
    xc = np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    frames = [pad_replicate(xc)]
    for w, b in restorer._CONVS[:-1]:
        frames.append(relu_padded_interior(conv3x3_alloc(frames[-1], p[w], p[b])))
    w, b = restorer._CONVS[-1]
    pred = xc - conv3x3_alloc(frames[-1], p[w], p[b])[:, :, 1:-1, 1:-1]
    return pred.transpose(1, 0, 2, 3), frames


def backprop_alloc(state, frames, dpred):
    p = state.params
    grads = {}
    d = np.zeros(frames[0].shape)
    np.negative(dpred.transpose(1, 0, 2, 3), out=d[:, :, 1:-1, 1:-1])
    for i in reversed(range(len(restorer._CONVS))):
        w, b = restorer._CONVS[i]
        grads[w], grads[b], d = conv3x3_backward_alloc(frames[i], p[w], d,
                                                       need_dx=i > 0)
        if i > 0:
            d *= frames[i] > 0.0
    return grads


def _laplacian_alloc(x):
    xp = pad_replicate(x)
    h, w = x.shape[-2:]
    out = np.zeros(x.shape)
    for k in range(3):
        for l in range(3):
            c = LAPLACIAN_KERNEL[k, l]
            if c != 0.0:
                out += c * xp[..., k : k + h, l : l + w]
    return out


def _laplacian_adjoint_alloc(dout):
    h, w = dout.shape[-2:]
    dxp = np.zeros(dout.shape[:-2] + (h + 2, w + 2))
    for k in range(3):
        for l in range(3):
            c = LAPLACIAN_KERNEL[k, l]
            if c != 0.0:
                dxp[..., k : k + h, l : l + w] += c * dout
    return fold_replicate_border(dxp.copy())[..., 1:-1, 1:-1]


def _charbonnier_alloc(pred, target):
    d = pred - target
    s = np.sqrt(d * d + restorer.CHARBONNIER_EPS * restorer.CHARBONNIER_EPS)
    return float(np.mean(s)), d / (s * d.size)


def loss_grads_alloc(state, x, target, prev_out=None, lam=0.0):
    """(loss, l_consist, grads) of ``restorer.replay_loss_grads``."""
    pred, frames = forward_cached_alloc(state, x)
    l_char, g_char = _charbonnier_alloc(pred, target)
    l_edge, g_lap = _charbonnier_alloc(_laplacian_alloc(pred), _laplacian_alloc(target))
    dpred = g_char + _laplacian_adjoint_alloc(g_lap)
    l_consist = 0.0
    if prev_out is not None:
        l_consist = float(np.mean(np.abs(pred - prev_out)))
        dpred = dpred + lam * (np.sign(pred - prev_out) / pred.size)
    return l_char + l_edge, l_consist, backprop_alloc(state, frames, dpred)


class FreshBatchSampler:
    """The draws of ``pipeline._BatchSampler``, each batch stacked into
    fresh arrays instead of the stage's buffers."""

    def __init__(self, pairs, batch_size, rng):
        self.pairs = pairs
        self.batch_size = batch_size
        self.rng = rng
        self.order = []

    def next_batch(self, x, y):
        picked = []
        while len(picked) < self.batch_size:
            if not self.order:
                self.order = list(self.rng.permutation(len(self.pairs)))
            picked.append(self.order.pop(0))
        x, y = (np.stack([self.pairs[i][k].data.transpose(2, 0, 1) for i in picked])
                for k in range(2))
        return x, y, picked


# ---------------------------------------------------------------------------
# Data synthesis and HOG votes as plain whole-array code: a full-grid sin per
# grating, a rasteriser over each streak's bounding box, np.gradient votes.
# ---------------------------------------------------------------------------


def gen_background(seed: int, size: int) -> Image:
    """``synthdata.gen_background`` with one full-grid ``sin`` per grating."""
    if size < 16:
        raise ConfigError("size must be >= 16")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    data = np.empty((size, size, 3))
    for c in range(3):
        acc = np.zeros((size, size))
        for _ in range(4):
            freq = rng.uniform(0.5, 2.5) / size
            theta = rng.uniform(0.0, np.pi)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            acc += amp * np.sin(
                2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase
            )
        lo, hi = acc.min(), acc.max()
        if hi - lo < 1e-12:
            data[:, :, c] = 0.5
        else:
            data[:, :, c] = 0.1 + 0.8 * (acc - lo) / (hi - lo)
    return Image(data)


BOX_PIXEL_CHUNK = 4096


def draw_streak_box(canvas, cy, cx, angle_deg, length, width, intensity):
    """``synthdata.draw_streak`` over each streak's whole bounding box.

    Every box pixel runs the program's coverage arithmetic, in streak order
    and row-major within a box; the pixels the program skips add +0.0 here.
    """
    cy, cx, angle_deg, length, intensity = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=np.float64))
          for v in (cy, cx, angle_deg, length, intensity)))
    size_y, size_x = canvas.shape
    ang = np.radians(angle_deg)
    dy, dx = np.cos(ang), -np.sin(ang)
    half = length / 2.0
    y0, x0 = cy - dy * half, cx - dx * half
    y1, x1 = cy + dy * half, cx + dx * half
    vy, vx = y1 - y0, x1 - x0
    seg_len2 = vy * vy + vx * vx
    degenerate = seg_len2 < 1e-12
    vy, vx = np.where(degenerate, 0.0, vy), np.where(degenerate, 0.0, vx)
    seg_len2 = np.where(degenerate, 1.0, seg_len2)

    margin = width / 2.0 + 1.5
    ylo = np.maximum(0, np.floor(np.minimum(y0, y1) - margin).astype(np.int64))
    yhi = np.minimum(size_y, np.ceil(np.maximum(y0, y1) + margin).astype(np.int64) + 1)
    xlo = np.maximum(0, np.floor(np.minimum(x0, x1) - margin).astype(np.int64))
    xhi = np.minimum(size_x, np.ceil(np.maximum(x0, x1) + margin).astype(np.int64) + 1)
    box_w = np.maximum(xhi - xlo, 0)
    npix = np.maximum(yhi - ylo, 0) * box_w
    ends = np.cumsum(npix)
    starts = ends - npix
    total = int(npix.sum())
    ints = np.stack([starts, box_w, ylo, xlo])
    floats = np.stack([y0, x0, vy, vx, seg_len2, intensity])
    work = np.ascontiguousarray(canvas)
    flat = work.reshape(-1)
    cover = width / 2.0 + 0.5
    for p0 in range(0, total, BOX_PIXEL_CHUNK):
        p1 = min(p0 + BOX_PIXEL_CHUNK, total)
        ks = slice(np.searchsorted(ends, p0, side="right"),
                   np.searchsorted(starts, p1, side="left"))
        counts = np.minimum(ends[ks], p1) - np.maximum(starts[ks], p0)
        _draw_box_pixels(flat, size_x, np.arange(p0, p1), counts, ints[:, ks],
                         floats[:, ks], cover)
    if work is not canvas:
        canvas[...] = work


def _draw_box_pixels(flat, size_x, pixels, counts, ints, floats, cover):
    def per_pixel(values):
        return values.repeat(counts)

    start, box_w, ylo, xlo = ints
    y0, x0, vy, vx, seg_len2, intensity = floats
    iy, ix = np.divmod(pixels - per_pixel(start), per_pixel(box_w))
    iy += per_pixel(ylo)
    ix += per_pixel(xlo)
    ky0, kvy = per_pixel(y0), per_pixel(vy)
    t = (iy - ky0) * kvy
    kx0, kvx = per_pixel(x0), per_pixel(vx)
    t += (ix - kx0) * kvx
    t /= per_pixel(seg_len2)
    np.clip(t, 0.0, 1.0, out=t)
    ky0 += t * kvy
    kx0 += t * kvx
    dist = np.hypot(iy - ky0, ix - kx0)
    coverage = np.clip(cover - dist, 0.0, 1.0) * per_pixel(intensity)
    np.add.at(flat, iy * size_x + ix, coverage)


def orientation_votes(gray, bins):
    """``imaging._orientation_votes`` through ``np.gradient``, ``% 180.0`` and
    one ``np.add.at`` for the low votes, then one for the high votes."""
    gy, gx = np.gradient(gray)
    mag = np.hypot(gx, gy)
    ang = np.degrees(np.arctan2(gy, gx)) % 180.0

    bin_width = 180.0 / bins
    pos = ang / bin_width - 0.5
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    hi = (lo + 1) % bins
    lo = lo % bins

    hist = np.zeros(bins)
    np.add.at(hist, lo.ravel(), ((1.0 - frac) * mag).ravel())
    np.add.at(hist, hi.ravel(), (frac * mag).ravel())
    return hist


# ---------------------------------------------------------------------------
# PPM / PGM input (binary P5 / P6, maxval 255): the reader of the files that
# ``imaging.write_ppm`` writes.
# ---------------------------------------------------------------------------


class PpmParseError(ValueError):
    """Malformed or truncated PPM/PGM file."""

    def __init__(self, message, byte_offset=None):
        if byte_offset is not None:
            message = f"{message} (at byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


def _read_token(buf: bytes, pos: int):
    """Read one whitespace-delimited header token, skipping '#' comments."""
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PpmParseError("unexpected end of header", byte_offset=pos)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_ppm(path) -> Image:
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_token(buf, 0)
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise PpmParseError(f"unsupported magic {magic!r}", byte_offset=0)
    fields = []
    for _ in range(3):
        tok, pos = _read_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PpmParseError(f"non-integer header field {tok!r}", byte_offset=pos)
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PpmParseError(f"invalid dimensions {width}x{height}", byte_offset=pos)
    if maxval != 255:
        raise PpmParseError(f"only maxval 255 supported, got {maxval}", byte_offset=pos)
    pos += 1  # single whitespace byte after maxval
    expected = width * height * channels
    payload = buf[pos : pos + expected]
    if len(payload) != expected:
        raise PpmParseError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}",
            byte_offset=pos,
        )
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(arr.astype(np.float64) / 255.0)
