"""Run the benchmark's checks over a range of workload seeds.

For each seed in [START, STOP) and each perfbench workload, builds the
workload's inputs, makes its one-off checks (``prepare``) and runs one checked
pass, all in this process, through perfbench's ``workloads`` and
``run.one_pass``. Prints one line per failing seed, workload and check, then a
summary, and exits 1 if any check failed or any pass raised:

    python3 tools/seed_sweep.py 0 60 [--workload clgid-stream]

Nothing is timed, so the sweep may share the machine with other work. BLAS
runs on perfbench's thread count, and the package is imported from the
``src/`` of the checkout holding this script, as perfbench does.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))

import run  # noqa: E402  (perfbench/run.py)


def sweep_seed(workload, seed):
    """(check name, detail) of every check that failed at this seed."""
    inputs = workload.build(seed)
    try:
        prechecks, oracle = workload.prepare(inputs)
    except Exception:  # reported, and the sweep goes on
        return [("prepare", traceback.format_exc(limit=2).strip())]
    done = run.one_pass(workload, inputs, oracle)
    failed = [(c.name, c.detail) for c in prechecks + done.checks if not c.ok]
    if done.error is not None:
        failed.append(("pass raised", done.error.strip()))
    return failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("start", type=int)
    p.add_argument("stop", type=int)
    p.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append",
                   help="one workload (repeatable; default: all three)")
    args = p.parse_args(argv)
    run.pin_blas_threads()
    run.import_program()
    import workloads

    names = args.workload or run.WORKLOAD_NAMES
    failures = 0
    for seed in range(args.start, args.stop):
        for name in names:
            for check, detail in sweep_seed(workloads.WORKLOADS[name], seed):
                failures += 1
                detail = detail.replace("\n", "\n    ")
                print(f"seed {seed} {name} {check}: {detail}", flush=True)
    runs = (args.stop - args.start) * len(names)
    print(f"{failures} failed checks in {runs} seed-workload runs "
          f"(seeds {args.start}..{args.stop - 1}, {', '.join(names)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
