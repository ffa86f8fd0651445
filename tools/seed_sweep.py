"""Run the benchmark's checks over a range of workload seeds.

For each seed in [START, STOP) and each perfbench workload, builds the
workload's inputs, makes its one-off checks (``prepare``) and runs one checked
pass, all in this process, through perfbench's ``workloads`` and
``run.one_pass``. Prints one line per failing seed, workload and check, then a
summary, and exits 1 if any check failed or any pass raised:

    python3 tools/seed_sweep.py 0 60 [--workload clgid-stream] [--figures]

``--figures`` also prints each pass's reference figures (the deltas, the fresh
replay samples and the PSNRs, rounded to 4 decimals) as one JSON line per seed
and workload, so the output of two checkouts can be diffed for the same
behaviour, not only the same failures. Capture stdout only, so that the
file's hash can be compared across checkouts and records:

    python3 tools/seed_sweep.py 0 100 --figures > sweep.txt
    sha256sum sweep.txt

Nothing is timed, so the sweep may share the machine with other work. BLAS
runs on perfbench's thread count, and the package is imported from the
``src/`` of the checkout holding this script, as perfbench does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import run  # noqa: E402  (perfbench/run.py)


def sweep_seed(workload, seed):
    """(check name, detail) of every check that failed at this seed, and the
    pass's reference figures (None if it did not get that far)."""
    inputs = workload.build(seed)
    try:
        prechecks, oracle = workload.prepare(inputs)
    except Exception:  # reported, and the sweep goes on
        return [("prepare", traceback.format_exc(limit=2).strip())], None
    done = run.one_pass(workload, inputs, oracle)
    failed = [(c.name, c.detail) for c in prechecks + done.checks if not c.ok]
    if done.error is not None:
        failed.append(("pass raised", done.error.strip()))
    return failed, done.reference


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    p.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append",
                   help="one workload (repeatable; default: all three)")
    p.add_argument("--figures", action="store_true",
                   help="print each pass's reference figures as a JSON line")
    args = p.parse_args(argv)
    run.pin_blas_threads()
    run.import_program()
    import workloads

    names = args.workload or run.WORKLOAD_NAMES
    failures = 0
    for seed in range(args.start, args.stop):
        for name in names:
            failed, figures = sweep_seed(workloads.WORKLOADS[name], seed)
            if args.figures:
                print(f"seed {seed} {name} figures: "
                      f"{json.dumps(figures, sort_keys=True)}", flush=True)
            for check, detail in failed:
                failures += 1
                detail = detail.replace("\n", "\n    ")
                print(f"seed {seed} {name} {check}: {detail}", flush=True)
    runs = (args.stop - args.start) * len(names)
    print(f"{failures} failed checks in {runs} seed-workload runs "
          f"(seeds {args.start}..{args.stop - 1}, {', '.join(names)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
