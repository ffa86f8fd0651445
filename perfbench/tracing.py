"""Spans recorded at the program's public functions, from outside the program.

A ``Recorder`` replaces public module attributes of ``rainreplay`` with
wrappers for the duration of one pass and restores them afterwards. Each call
of a wrapped function records a span ``[name, parent, start, end, work]``;
``parent`` is the index of the innermost enclosing span (-1 for none) and
``work`` an optional value taken from the call (batch pixels, reused samples,
the dataset returned). A name that one module imports from another is wrapped
under every binding the program calls it through, with one span name, so
``pipeline.psnr`` records as ``imaging.psnr`` and ``memgen.draw_streak`` as
``synthdata.draw_streak``. Only public names are wrapped, so renaming a
private helper does not break the benchmark.

Untraced runs wrap only ``PROBES``: the few coarse boundaries the per-pass
checks count (at most one call per training step). Traced runs wrap every
binding in ``BINDINGS``.
"""

from __future__ import annotations

import importlib
import statistics
import time


def _batch_pixels(args, result):
    x = args[1]
    return x.shape[0] * x.shape[2] * x.shape[3]


def _reused_pairs(args, result):
    replay, _, fresh = result
    return len(replay) - fresh


def _replay_split(args, result):
    return len(args[1]), tuple(result.slot_ids)


def _returned(args, result):
    return result


# (module, attribute, span name, work function or None)
BINDINGS = (
    ("pipeline", "run_stream", "pipeline.run_stream", None),
    ("pipeline", "baseline_sf", "pipeline.baseline_sf", None),
    ("pipeline", "selective_chain", "pipeline.selective_chain", None),
    ("pipeline", "train_stage", "pipeline.train_stage", None),
    ("pipeline", "evaluate", "pipeline.evaluate", None),
    ("pipeline", "similarity", "pipeline.similarity", None),
    ("restorer", "forward", "restorer.forward", _batch_pixels),
    ("restorer", "restoration_loss_grads", "restorer.restoration_loss_grads",
     _batch_pixels),
    ("restorer", "replay_loss_grads", "restorer.replay_loss_grads", _batch_pixels),
    ("restorer", "add_grads", "restorer.add_grads", None),
    ("restorer", "sgd_step", "restorer.sgd_step", None),
    ("memgen", "fit_generator", "memgen.fit_generator", None),
    ("memgen", "build_replay_dataset", "memgen.build_replay_dataset", _replay_split),
    ("memgen", "apply_reuse", "memgen.apply_reuse", _reused_pairs),
    ("memgen", "reuse_plan", "memgen.reuse_plan", None),
    ("memgen", "sample_rain", "memgen.sample_rain", None),
    ("memgen", "draw_streak", "synthdata.draw_streak", None),
    ("pipeline", "make_dataset", "synthdata.make_dataset", _returned),
    ("synthdata", "make_dataset", "synthdata.make_dataset", _returned),
    ("synthdata", "render_rain_layer", "synthdata.render_rain_layer", None),
    ("synthdata", "draw_streak", "synthdata.draw_streak", None),
    ("pipeline", "psnr", "imaging.psnr", None),
    ("pipeline", "ssim", "imaging.ssim", None),
    ("pipeline", "hog", "imaging.hog", None),
    ("imaging", "psnr", "imaging.psnr", None),
    ("imaging", "ssim", "imaging.ssim", None),
    ("imaging", "hog", "imaging.hog", None),
)

# Boundaries the per-pass checks read in untraced runs.
PROBES = (
    "pipeline.train_stage", "pipeline.make_dataset", "restorer.forward",
    "memgen.fit_generator", "memgen.build_replay_dataset", "memgen.apply_reuse",
    "memgen.sample_rain",
)

LAYERS = ("pipeline", "restorer", "memgen", "synthdata", "imaging")
_STREAM_ROOTS = ("pipeline.run_stream", "pipeline.baseline_sf",
                 "pipeline.selective_chain")


class Recorder:
    """Context manager that wraps public program functions and keeps spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for module_name, attr, span_name, work in BINDINGS:
            if not self.traced and f"{module_name}.{attr}" not in PROBES:
                continue
            module = importlib.import_module(f"rainreplay.{module_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, work))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, result)
            return result

        return wrapper


class SpanView:
    """Queries over one pass's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                self.child_time[parent] += end - start

    def named(self, name):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def count(self, name, parent=None):
        return sum(1 for i in self.named(name)
                   if parent is None or self.parent_name(i) == parent)

    def parent_name(self, i):
        p = self.spans[i][1]
        return self.spans[p][0] if p >= 0 else None

    def has_ancestor(self, i, names):
        p = self.spans[i][1]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][1]
        return False

    def duration(self, i):
        return self.spans[i][3] - self.spans[i][2]

    def self_time(self, i):
        return self.duration(i) - self.child_time[i]

    def total(self, indices):
        return sum(self.duration(i) for i in indices)

    def mean(self, indices):
        return self.total(indices) / len(indices) if indices else 0.0

    def works(self, name):
        return [self.spans[i][4] for i in self.named(name)]

    def children(self, i, name):
        return [j for j, s in enumerate(self.spans) if s[1] == i and s[0] == name]

    def root_time(self):
        return sum(self.duration(i) for i, s in enumerate(self.spans) if s[1] < 0)


def layer_self_times(view: SpanView):
    """Self time per layer, i.e. per module the span names start with."""
    out = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(view.spans):
        out[span[0].split(".", 1)[0]] += view.self_time(i)
    return out


def per_layer_metrics(view: SpanView, pass_s: float, flops_fwd: float,
                      flops_step: float):
    """Per-layer metrics of one traced pass (see the README's table)."""
    v = view
    m = {}
    loss = v.named("restorer.restoration_loss_grads")
    replay_loss = v.named("restorer.replay_loss_grads")
    forwards = v.named("restorer.forward")
    teacher = [i for i in forwards if v.parent_name(i) == "pipeline.train_stage"]
    infer = [i for i in forwards if v.has_ancestor(i, ("pipeline.evaluate",))]
    m["restorer.loss_grads_ms"] = 1e3 * v.mean(loss)
    m["restorer.replay_loss_grads_ms"] = 1e3 * v.mean(replay_loss)
    m["restorer.sgd_step_us"] = 1e6 * v.mean(v.named("restorer.sgd_step"))
    m["restorer.teacher_forward_ms"] = 1e3 * v.mean(teacher)
    m["restorer.teacher_forward_calls"] = len(teacher)
    m["restorer.infer_forward_ms"] = 1e3 * v.mean(infer)
    m["restorer.infer_forward_calls"] = len(infer)
    flop = (sum(v.spans[i][4] for i in loss + replay_loss) * flops_step
            + sum(v.spans[i][4] for i in forwards) * flops_fwd)
    kernel_s = v.total(loss + replay_loss + forwards)
    m["restorer.modelled_gflop"] = flop / 1e9
    m["restorer.gflop_per_s"] = flop / 1e9 / kernel_s if kernel_s > 0 else 0.0

    stages = v.named("pipeline.train_stage")
    replay_s = plain_s = 0.0
    replay_steps = plain_steps = 0
    for i in stages:
        steps = len(v.children(i, "restorer.restoration_loss_grads"))
        if v.children(i, "restorer.replay_loss_grads"):
            replay_s, replay_steps = replay_s + v.duration(i), replay_steps + steps
        else:
            plain_s, plain_steps = plain_s + v.duration(i), plain_steps + steps
    m["pipeline.train_stage_s"] = v.total(stages)
    m["pipeline.train_self_s"] = sum(v.self_time(i) for i in stages)
    m["pipeline.replay_step_ms"] = 1e3 * replay_s / replay_steps if replay_steps else 0.0
    m["pipeline.plain_step_ms"] = 1e3 * plain_s / plain_steps if plain_steps else 0.0
    m["pipeline.steps"] = replay_steps + plain_steps
    m["pipeline.evaluate_s"] = v.total(v.named("pipeline.evaluate"))
    m["pipeline.similarity_s"] = v.total(v.named("pipeline.similarity"))
    m["pipeline.stream_self_s"] = sum(
        v.self_time(i) for name in _STREAM_ROOTS for i in v.named(name))

    samples = v.named("memgen.sample_rain")
    m["memgen.fit_s"] = v.total(v.named("memgen.fit_generator"))
    m["memgen.fit_calls"] = len(v.named("memgen.fit_generator"))
    m["memgen.replay_build_s"] = v.total(
        v.named("memgen.build_replay_dataset") + v.named("memgen.apply_reuse"))
    m["memgen.sample_rain_ms"] = 1e3 * v.mean(samples)
    m["memgen.fresh_samples"] = sum(
        1 for i in samples
        if v.has_ancestor(i, ("memgen.build_replay_dataset", "memgen.apply_reuse")))
    m["memgen.reused_samples"] = sum(v.works("memgen.apply_reuse"))

    m["synthdata.make_dataset_s"] = v.total(v.named("synthdata.make_dataset"))
    m["synthdata.render_ms"] = 1e3 * v.mean(v.named("synthdata.render_rain_layer"))
    m["synthdata.streaks"] = len(v.named("synthdata.draw_streak"))

    ssim_calls, hog_calls = v.named("imaging.ssim"), v.named("imaging.hog")
    m["imaging.ssim_ms"] = 1e3 * v.mean(ssim_calls)
    m["imaging.ssim_calls"] = len(ssim_calls)
    m["imaging.hog_ms"] = 1e3 * v.mean(hog_calls)
    m["imaging.hog_calls"] = len(hog_calls)
    m["imaging.psnr_us"] = 1e6 * v.mean(v.named("imaging.psnr"))

    for layer, seconds in layer_self_times(v).items():
        m[f"{layer}.self_s"] = seconds
    m["trace.outside_s"] = pass_s - v.root_time()
    return m


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
