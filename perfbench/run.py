#!/usr/bin/env python3
"""Benchmark of rainreplay's continual stream, end to end and per layer.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src``.
Without ``--workload`` all three workloads run in turn. ``--trace 0`` prints
the end-to-end metrics (setup_s, pass_s, peak_mb); ``--trace 1`` spends half
the time on untraced and half on traced passes and prints the per-layer
metrics. Each workload ends with one JSON line; details and, for traced runs,
the spans go to ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
BLAS_THREADS = 1  # at most nproc; one thread keeps a shared machine's timings steady
SETUP_REPEATS = 5
PROGRAM_MODULES = ("imaging", "synthdata", "memgen", "restorer", "pipeline", "costs")

# Metric names and units are declared once, in BENCHMARK.json.
with open(HERE.parent / "BENCHMARK.json") as _fh:
    _DECLARED = json.load(_fh)
UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"] + _DECLARED["per_layer"]}
WORKLOAD_NAMES = tuple(w["name"] for w in _DECLARED["workloads"])


def pin_blas_threads():
    """Fix the BLAS pool size; only effective before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import rainreplay from this checkout's src, once per process."""
    if "rainreplay" in sys.modules:
        return
    if not (SRC / "rainreplay" / "__init__.py").is_file():
        raise ImportError(f"no rainreplay package under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in PROGRAM_MODULES:
        importlib.import_module(f"rainreplay.{name}")
    origin = Path(sys.modules["rainreplay"].__file__).resolve()
    if not origin.is_relative_to(SRC):
        raise ImportError(f"rainreplay was imported from {origin}, not from {SRC}")


def _program_modules():
    return {m: mod for m, mod in sys.modules.items() if m.split(".")[0] == "rainreplay"}


def setup_sample(workload, seed):
    """Seconds to import rainreplay afresh and build the workload's inputs.

    numpy and scipy, the program's dependencies, stay loaded: no change to
    this repository moves their import time. The fresh module copies are
    dropped afterwards, so the run keeps using one set of module objects.
    """
    loaded = _program_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        start = time.perf_counter()
        for name in PROGRAM_MODULES:
            importlib.import_module(f"rainreplay.{name}")
        seconds = time.perf_counter() - start
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
    start = time.perf_counter()
    workload.build(seed)
    return seconds + time.perf_counter() - start


@dataclass
class Pass:
    """What one pass leaves behind; its outputs and spans' payloads are
    dropped so that later passes do not run with a growing heap."""

    traced: bool
    seconds: float | None = None
    checks: list = field(default_factory=list)
    error: str | None = None
    peak_mb: float | None = None
    reference: dict | None = None
    layer_metrics: dict | None = None
    spans: list = field(default_factory=list)

    @property
    def failed(self):
        return self.error is not None or not all(c.ok for c in self.checks)


def one_pass(workload, inputs, oracle, traced=False, measure_peak=False):
    """Run and check one pass. A pass that raises is returned as failed."""
    from rainreplay import pipeline

    done = Pass(traced)
    recorder = tracing.Recorder(traced)
    gc.collect()
    try:
        if measure_peak:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
        try:
            with recorder:
                start = time.perf_counter()
                output = workload.run(inputs)
                done.seconds = time.perf_counter() - start
            if measure_peak:
                done.peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            if measure_peak:
                tracemalloc.stop()
        view = tracing.SpanView(recorder.spans)
        done.checks = workload.check_pass(inputs, oracle, output, view)
        done.reference = workload.reference_figures(inputs, oracle, output)
        if traced:
            done.checks.append(_check_span_nesting(view, done.seconds))
            done.layer_metrics = tracing.per_layer_metrics(
                view, done.seconds, pipeline.FLOPS_PER_PIXEL_FWD,
                pipeline.FLOPS_PER_PIXEL_STEP)
            done.spans = [s[:4] for s in recorder.spans]
    except Exception:  # the run goes on; the pass counts as failed
        done.error = traceback.format_exc(limit=4)
    return done


def _check_span_nesting(view, pass_s):
    """Spans lie inside their parents, so self times plus the time outside any
    span add up to the pass."""
    import checks

    spans = view.spans
    nested = all(spans[p][2] <= s and e <= spans[p][3]
                 for _, p, s, e, _ in spans if p >= 0)
    total = sum(tracing.layer_self_times(view).values()) + (pass_s - view.root_time())
    ok = nested and abs(total - pass_s) <= 1e-6 * max(1.0, pass_s)
    return checks.Check("trace_self_times_add_up", ok,
                        f"spans nested: {nested}; self + outside {total:.6f} s "
                        f"vs pass {pass_s:.6f} s")


def timed_passes(workload, inputs, oracle, seconds, traced, between=None):
    """Whole passes until ``seconds`` have gone by (at least one); ``between``
    runs after each pass, outside its timing."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one_pass(workload, inputs, oracle, traced))
        if between is not None:
            between()
    return passes


def _median_seconds(passes):
    times = [p.seconds for p in passes if not p.failed]
    return statistics.median(times) if times else float("nan")


def measure(name, seed, seconds, trace):
    """Set up, check and time one workload; returns the result record.

    Set-up is sampled SETUP_REPEATS times before the first pass and once after
    every timed pass, so that its median spans the run as pass_s does.
    """
    import workloads

    workload = workloads.WORKLOADS[name]
    setup = [setup_sample(workload, seed) for _ in range(SETUP_REPEATS)]
    inputs = workload.build(seed)
    prechecks, oracle = workload.prepare(inputs)

    passes, metrics = [], {}
    if trace:
        plain = timed_passes(workload, inputs, oracle, seconds / 2, traced=False)
        traced = timed_passes(workload, inputs, oracle, seconds / 2, traced=True)
        passes = plain + traced
        ok_traced = [p.layer_metrics for p in traced if not p.failed]
        if ok_traced:
            metrics = tracing.median_metrics(ok_traced)
            metrics["trace.overhead_s"] = _median_seconds(traced) - _median_seconds(plain)
        spans = [(k, s) for k, p in enumerate(traced) for s in p.spans]
    else:
        peak = one_pass(workload, inputs, oracle, measure_peak=True)
        timed = timed_passes(workload, inputs, oracle, seconds, traced=False,
                             between=lambda: setup.append(setup_sample(workload, seed)))
        passes = [peak] + timed
        metrics = {"setup_s": statistics.median(setup), "pass_s": _median_seconds(timed),
                   "peak_mb": peak.peak_mb if peak.peak_mb is not None else float("nan")}
        spans = []

    reference = next((p.reference for p in passes if not p.failed), None)
    correct = (all(c.ok for c in prechecks)
               and all(c.ok for p in passes for c in p.checks))
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_seconds": setup,
        "pass_seconds": [p.seconds for p in passes],
        "traced": [p.traced for p in passes],
        "prechecks": [vars(c) for c in prechecks],
        "checks": _check_summary(passes),
        "errors": [p.error for p in passes if p.error],
        "reference": reference,
        "spans": spans,
        "result": {
            "correct": correct,
            "attempted": len(passes),
            "failed": sum(p.failed for p in passes),
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
    }


def _check_summary(passes):
    """Per check name: passes that held it, passes that ran it, one detail
    (the first failure's, else the last pass's)."""
    summary = {}
    for p in passes:
        for c in p.checks:
            held, ran, detail, failed_before = summary.get(c.name, (0, 0, "", False))
            if not failed_before:
                detail = c.detail
            summary[c.name] = (held + c.ok, ran + 1, detail, failed_before or not c.ok)
    return {k: {"held": h, "ran": r, "detail": d} for k, (h, r, d, _) in summary.items()}


def report(record):
    """Human-readable lines, then the one-line JSON result."""
    res = record["result"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"BLAS threads {BLAS_THREADS} of {os.cpu_count()} cores")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    times = " ".join(f"{t:.3f}" if t is not None else "-" for t in record["pass_seconds"])
    print(f"  passes: {res['attempted']} attempted, {res['failed']} failed; seconds: {times}")
    for c in record["prechecks"]:
        print(f"  check {c['name']:34s} {'pass' if c['ok'] else 'FAIL'}  {c['detail']}")
    for name, c in record["checks"].items():
        verdict = "pass" if c["held"] == c["ran"] else "FAIL"
        print(f"  check {name:34s} {verdict} {c['held']}/{c['ran']}  {c['detail']}")
    for error in record["errors"]:
        print("  error: " + error.strip().replace("\n", "\n    "))
    if record["reference"]:
        print(f"  reference figures (not gated): {json.dumps(record['reference'])}")
    print(json.dumps(res), flush=True)


def save(record):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans:
        with open(RESULTS / f"{stem}-spans.tsv", "w") as fh:
            fh.write("pass\tindex\tname\tparent\tstart\tend\n")
            index = {}
            for k, (name, parent, start, end) in spans:
                i = index[k] = index.get(k, -1) + 1
                fh.write(f"{k}\t{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")
    import numpy

    record["machine"] = {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                         "python": platform.python_version(), "numpy": numpy.__version__}
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="one workload (default: all three)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=_DECLARED["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        record = measure(name, args.seed, args.seconds, args.trace)
        report(record)
        save(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
