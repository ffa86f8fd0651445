"""Print the memory footprint of one pass of three stream entry points.

For clgid ``pipeline.run_stream``, ``pipeline.baseline_sf`` and
``pipeline.selective_chain``, prints the in-process ``tracemalloc`` peak of
one pass, in MiB above what was allocated before it, then the minor page
faults (``resource.getrusage``) of each of the next passes. scipy's BLAS is
loaded before the first pass, as perfbench's checks load it before its
traced pass. A change to the training step or to how long data live reports
both for the old and the new checkout:

    python3 tools/footprint.py [--seed 17] [--passes 4]

The streams are built here: three 10-pair 32 px datasets (criterion 6's
heavy 30 degree rain, then two light styles) for the two training runs, with
a prebuilt hold-out set, and six 40-pair 64 px datasets for the memory chain.
BLAS runs on one thread. The package is imported from the ``src/`` of the
checkout holding this script.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from rainreplay import pipeline, restorer, synthdata  # noqa: E402
from rainreplay.synthdata import DatasetSpec, RainParams, make_stream  # noqa: E402


def _rain(angle, density, intensity, width=1.2, length=12.0):
    return RainParams(angle_mean=angle, angle_std=4.0, length_mean=length,
                      length_std=3.0, width=width, density=density,
                      intensity_mean=intensity, intensity_std=0.1)


STREAM_STYLES = (_rain(30.0, 60.0, 0.85), _rain(90.0, 8.0, 0.3),
                 _rain(150.0, 10.0, 0.35))
# Two far styles, two variants of them and a repeat of the first, so the
# selective chain both fits and maps generators.
CHAIN_STYLES = (_rain(30.0, 60.0, 0.85), _rain(90.0, 20.0, 0.7),
                _rain(150.0, 20.0, 0.7), _rain(90.0, 16.0, 0.6, length=16.0),
                _rain(150.0, 16.0, 0.6, width=1.5), _rain(30.0, 60.0, 0.85))


def _stream(styles, pairs, size, seed):
    return make_stream([
        DatasetSpec(id=f"d{d}", pair_count=pairs, image_size=size,
                    seed=1000 * d + seed, rain=rain)
        for d, rain in enumerate(styles, start=1)])


def workloads(seed):
    """(name, one pass) of each measured entry point."""
    cfg = pipeline.StageConfig(iterations=40, batch_size=4, lam=1.0,
                               selective=True, reuse=True, lr=2e-2, seed=seed)
    stream = _stream(STREAM_STYLES, 10, 32, seed)
    holdout = synthdata.make_holdout(pipeline.derive_seed(seed, "holdout"),
                                     pair_count=cfg.holdout_pairs, image_size=32)
    chain = _stream(CHAIN_STYLES, 40, 64, seed)
    return (
        ("run_stream (clgid)",
         lambda: pipeline.run_stream(stream, cfg, holdout=holdout)),
        ("baseline_sf", lambda: pipeline.baseline_sf(stream, cfg, holdout=holdout)),
        ("selective_chain", lambda: pipeline.selective_chain(chain, 0.4, seed)),
    )


def traced_peak_mib(run):
    """tracemalloc peak of one call of run, above what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def minor_faults(run):
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--passes", type=int, default=4,
                   help="untraced passes whose page faults are counted")
    args = p.parse_args()
    # The first workspace loads scipy's BLAS; build one first, so that no
    # traced pass counts that one-off import as its own memory.
    restorer.Workspace((1, 3, 8, 8))
    print(f"{'entry point':<20} {'peak_mib':>9}  minor faults per pass")
    for name, run in workloads(args.seed):
        peak = traced_peak_mib(run)
        faults = [minor_faults(run) for _ in range(args.passes)]
        print(f"{name:<20} {peak:>9.3f}  {' '.join(map(str, faults))}", flush=True)


if __name__ == "__main__":
    main()
