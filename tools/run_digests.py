"""Print SHA-256 digests of the run and gen outputs for a fixed small stream.

Runs ``rainreplay run`` on one fixed four-dataset spec for six method
configurations, and on the same spec with one dataset at another image size
for a seventh, and prints, per configuration, the digest of each of
``memory.csv``, ``generalization.csv``, ``cost.csv`` and ``manifest.txt``.
Then runs ``rainreplay gen`` on the first spec and prints the digest of every
file it writes (each dataset's ``spec.txt`` and PPM pairs), and the digest of
what ``rainreplay similarity`` prints for it. Last come the digests of what
``rainreplay cost`` prints for fixed sizes and constants, and of the CSV that
``rainreplay compare`` writes for the clgid and sf runs, so that every
subcommand is covered. A refactor that must not change results leaves every
printed digest unchanged:

    python3 tools/run_digests.py > before.txt   # on the old checkout
    python3 tools/run_digests.py > after.txt    # on the new checkout
    diff before.txt after.txt

The package is imported from the ``src/`` of the checkout holding this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from rainreplay import cli  # noqa: E402

# Three rain angles, then a repeat of the first: the selective policy fits
# generators for a and b and maps c and d onto them (deltas 1, 1, 0, 0).
SPEC = """\
datasets=a,b,c,d
image_size=16
pair_count=10
seed=5
a.angle_mean=30
a.density=30
b.angle_mean=120
b.density=30
c.angle_mean=75
c.density=30
d.angle_mean=30
d.density=30
"""

# The same stream with dataset b at 24 px, so one stage's batches have
# another shape than the rest. The reuse cache keeps replay pairs at the size
# they were drawn at, so the mixed stream runs without it.
MIXED_SPEC = SPEC + "b.image_size=24\n"

CONFIGS = (
    ("clgid", SPEC, ["--method", "clgid"]),
    ("clgid --no-reuse", SPEC, ["--method", "clgid", "--no-reuse"]),
    ("clgid --no-distill", SPEC, ["--method", "clgid", "--no-distill"]),
    ("clgid-fast", SPEC, ["--method", "clgid-fast"]),
    ("sf", SPEC, ["--method", "sf"]),
    ("individual", SPEC, ["--method", "individual"]),
    ("mixed --no-reuse", MIXED_SPEC, ["--method", "clgid", "--no-reuse"]),
)
RUN_FILES = ("memory.csv", "generalization.csv", "cost.csv", "manifest.txt")

# The toy constants of demos/replay_reuse_costs.py.
COST_CONSTANTS = """\
p_g=1e6
e_g=10
b_g=4
f_g_train=1e6
t_g_train=1e-3
f_r=1e5
t_r=1e-5
p_d=2e6
e_d=20
b_d=4
f_d_train=5e6
t_d_train=2e-3
"""


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _main(args):
    """``cli.main(args)``'s exit code and what it printed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return cli.main(args), out.getvalue()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, text, extra) in enumerate(CONFIGS):
            spec = os.path.join(tmp, f"stream{k}.txt")
            with open(spec, "w") as fh:
                fh.write(text)
            out = os.path.join(tmp, f"run{k}")
            code, _ = _main(["run", "--config", spec, "--out", out,
                             "--iterations", "30", "--batch-size", "2", *extra])
            if code != cli.EXIT_OK:
                raise SystemExit(f"{label}: exit code {code}")
            for name in RUN_FILES:
                print(f"{label:<20} {name:<20} {_digest(os.path.join(out, name))}")
        spec = os.path.join(tmp, "stream0.txt")
        data = os.path.join(tmp, "data")
        if _main(["gen", "--config", spec, "--out", data])[0] != cli.EXIT_OK:
            raise SystemExit("gen: nonzero exit code")
        for ds in sorted(os.listdir(data)):
            for name in sorted(os.listdir(os.path.join(data, ds))):
                print(f"{'gen':<20} {ds + '/' + name:<20} "
                      f"{_digest(os.path.join(data, ds, name))}")
        code, printed = _main(["similarity", "--config", spec])
        if code != cli.EXIT_OK:
            raise SystemExit("similarity: nonzero exit code")
        print(f"{'similarity':<20} {'stdout':<20} "
              f"{hashlib.sha256(printed.encode()).hexdigest()}")
        constants = os.path.join(tmp, "constants.txt")
        with open(constants, "w") as fh:
            fh.write(COST_CONSTANTS)
        code, printed = _main(["cost", "--sizes", "10,20,30,40",
                               "--constants", constants])
        if code != cli.EXIT_OK:
            raise SystemExit("cost: nonzero exit code")
        print(f"{'cost':<20} {'stdout':<20} "
              f"{hashlib.sha256(printed.encode()).hexdigest()}")
        table = os.path.join(tmp, "comparison.csv")
        runs = [os.path.join(tmp, f"run{k}") for k, (label, _, _) in
                enumerate(CONFIGS) if label in ("clgid", "sf")]
        if _main(["compare", *runs, "--out", table])[0] != cli.EXIT_OK:
            raise SystemExit("compare: nonzero exit code")
        print(f"{'compare':<20} {'comparison.csv':<20} {_digest(table)}")


if __name__ == "__main__":
    main()
