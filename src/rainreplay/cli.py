"""Command-line front end.

Subcommands: gen (materialize datasets), run (execute a method and write
CSVs), similarity (print the memory chain that ``run --method clgid`` follows
at its default flags: per stage the similarity scores, the generator-training
flag, the mapped generator and the fresh replay samples), cost (symbolic cost
simulation), compare (merge run outputs into one comparison CSV).

Config files are plain UTF-8 key=value lines with '#' comments; unknown keys
are rejected. Exit codes: 0 success; 2 malformed or unknown config key,
out-of-range option value, config file that is not UTF-8, run option given
beside ``run --manifest`` (which sets them all), or run CSV given to compare
with no rows or a malformed cell; 3 missing file; 4 unknown method; 1
anything else.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from . import __version__, costs, pipeline, synthdata
from .synthdata import DatasetSpec, RainParams, make_stream

EXIT_OK = 0
EXIT_GENERIC = 1
EXIT_BAD_KEY = 2
EXIT_MISSING_FILE = 3
EXIT_BAD_METHOD = 4

METHODS = ("clgid", "clgid-fast", "sf", "individual")

# run's options in manifest order, as (flag, dest, type, default). A flag's
# manifest key is its name with '_' for '-'; switches (type bool) are written
# as 0/1.
RUN_OPTIONS = (
    ("--iterations", "iterations", int, pipeline.StageConfig.iterations),
    ("--batch-size", "batch_size", int, pipeline.StageConfig.batch_size),
    ("--lambda", "lam", float, pipeline.StageConfig.lam),
    ("--threshold", "threshold", float, pipeline.StageConfig.threshold),
    ("--floor", "floor", float, pipeline.StageConfig.floor),
    ("--no-speedup", "no_speedup", bool, False),
    ("--no-reuse", "no_reuse", bool, False),
    ("--no-selective", "no_selective", bool, False),
    ("--no-replay", "no_replay", bool, False),
    ("--no-distill", "no_distill", bool, False),
)
# Every run option a manifest sets, as (flag, dest).
_MANIFEST_SET = (("--config", "config"), ("--seed", "seed"), ("--method", "method"),
                 *((flag, dest) for flag, dest, _, _ in RUN_OPTIONS))

_GLOBAL_KEYS = {"image_size", "pair_count", "seed", "datasets"}
_RAIN_DEFAULTS = {
    "angle_std": 4.0, "length_mean": 12.0, "length_std": 3.0,
    "width": 1.0, "density": 20.0, "intensity_mean": 0.5, "intensity_std": 0.1,
}
_DATASET_KEYS = {"angle_mean", *_RAIN_DEFAULTS, "pair_count", "image_size", "seed"}
_CONSTANT_KEYS = {f.name for f in dataclasses.fields(costs.CostConstants)}


class CliError(Exception):
    def __init__(self, message, code=EXIT_GENERIC):
        super().__init__(message)
        self.code = code


def parse_kv_file(path, allowed_check=None):
    """Parse a key=value file with '#' comments; preserves order."""
    if not os.path.exists(path):
        raise CliError(f"missing file: {path}", EXIT_MISSING_FILE)
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 at byte {exc.start}", EXIT_BAD_KEY) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"{path}:{lineno}: malformed line {raw.strip()!r}", EXIT_BAD_KEY)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if allowed_check is not None and not allowed_check(key):
            raise CliError(f"{path}:{lineno}: unknown key {key!r}", EXIT_BAD_KEY)
        out[key] = val
    return out


def _typed(path, key, value, convert):
    """``convert(value)``, or exit 2 naming the file and key it came from."""
    try:
        return convert(value)
    except ValueError:
        raise CliError(f"{path}: key {key!r} has malformed value {value!r}",
                       EXIT_BAD_KEY) from None


def _positive(convert):
    """``convert`` that also rejects values that are not > 0."""
    def parse(value):
        out = convert(value)
        if not out > 0:
            raise ValueError(value)
        return out
    return parse


def _spec_key_ok(key, ids):
    if key in _GLOBAL_KEYS:
        return True
    head, _, field = key.partition(".")
    return bool(field) and head in ids and field in _DATASET_KEYS


def parse_stream_spec(raw, path):
    """Stream spec from a parsed key=value mapping; ``path`` names its origin
    in error messages. Two passes: dataset ids first, then full key
    validation."""
    if "datasets" not in raw:
        raise CliError(f"{path}: missing required key 'datasets'", EXIT_BAD_KEY)
    ids = [d.strip() for d in raw["datasets"].split(",") if d.strip()]
    if not ids:
        raise CliError(f"{path}: 'datasets' lists no ids", EXIT_BAD_KEY)
    for key in raw:
        if not _spec_key_ok(key, set(ids)):
            raise CliError(f"{path}: unknown key {key!r}", EXIT_BAD_KEY)

    def value(key, default, convert):
        return _typed(path, key, raw.get(key, default), convert)

    g_seed = value("seed", 0, int)
    g_size = value("image_size", 64, int)
    g_pairs = value("pair_count", 10, int)

    def dval(ds_id, field, default, convert=float):
        return value(f"{ds_id}.{field}", default, convert)

    specs = []
    for idx, ds_id in enumerate(ids):
        if f"{ds_id}.angle_mean" not in raw:
            raise CliError(
                f"{path}: dataset {ds_id!r} missing required key "
                f"'{ds_id}.angle_mean'", EXIT_BAD_KEY)
        angle_mean = dval(ds_id, "angle_mean", None)
        rain = {k: dval(ds_id, k, v) for k, v in _RAIN_DEFAULTS.items()}
        pair_count = dval(ds_id, "pair_count", g_pairs, int)
        image_size = dval(ds_id, "image_size", g_size, int)
        seed = dval(ds_id, "seed", pipeline.derive_seed(g_seed, "dataset", idx), int)
        try:
            specs.append(DatasetSpec(
                id=ds_id, pair_count=pair_count, image_size=image_size, seed=seed,
                rain=RainParams(angle_mean=angle_mean, **rain),
            ))
        except synthdata.ConfigError as exc:
            raise CliError(f"{path}: dataset {ds_id!r}: {exc}", EXIT_BAD_KEY) from None
    try:
        return make_stream(specs), g_seed, raw
    except synthdata.ConfigError as exc:
        raise CliError(f"{path}: key 'datasets': {exc}", EXIT_BAD_KEY) from None


def _manifest_key(flag):
    return flag[2:].replace("-", "_")


def build_stage_config(args, seed):
    """The ``StageConfig`` of ``run``'s options, or exit 2 naming the option
    and its origin (the command line or the manifest) if a value breaks one
    of ``StageConfig``'s range rules. ``sf`` gets its flags from
    ``pipeline.baseline_sf`` and ``individual`` reads none of them."""
    for flag, dest, kind, _ in RUN_OPTIONS:
        try:
            if kind is not bool:
                pipeline.StageConfig(**{dest: getattr(args, dest)})
        except ValueError as exc:
            key = (f"{args.manifest}: key {_manifest_key(flag)!r}" if args.manifest
                   else f"command line: option {flag!r}")
            raise CliError(f"{key}: {exc}", EXIT_BAD_KEY) from None
    return pipeline.StageConfig(
        iterations=args.iterations,
        batch_size=args.batch_size,
        lam=0.0 if args.no_distill else args.lam,
        threshold=args.threshold,
        floor=args.floor,
        speedup=args.method == "clgid-fast" and not args.no_speedup,
        selective=not args.no_selective,
        reuse=not args.no_reuse,
        replay=not args.no_replay,
        seed=seed,
    )


def write_manifest(out_dir, args, seed, spec_raw):
    lines = [f"version={__version__}", f"method={args.method}", f"seed={seed}"]
    for flag, dest, kind, _ in RUN_OPTIONS:
        value = getattr(args, dest)
        lines.append(f"{_manifest_key(flag)}={int(value) if kind is bool else value}")
    lines += [f"spec.{k}={v}" for k, v in spec_raw.items()]
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_manifest_args(path, args):
    """Set ``args`` from a run manifest; returns its stream-spec mapping."""
    raw = parse_kv_file(path)

    def value(key, convert):
        if key not in raw:
            raise CliError(f"{path}: missing required key {key!r}", EXIT_BAD_KEY)
        return _typed(path, key, raw[key], convert)

    args.method = value("method", str)
    args.seed = value("seed", int)
    for flag, dest, kind, _ in RUN_OPTIONS:
        convert = (lambda v: bool(int(v))) if kind is bool else kind
        setattr(args, dest, value(_manifest_key(flag), convert))
    return {k[5:]: v for k, v in raw.items() if k.startswith("spec.")}


def reject_options_beside_manifest(argv):
    """Exit 2 naming each run option ``argv`` gives beside ``--manifest``,
    which sets them all. Parsed with no defaults, so a given option counts
    even at its default value."""
    given = vars(build_parser(run_defaults=False).parse_args(argv))
    flags = [flag for flag, dest in _MANIFEST_SET if dest in given]
    if flags:
        raise CliError(f"--manifest sets every run option; also given: "
                       f"{', '.join(flags)}", EXIT_BAD_KEY)


def cmd_gen(args):
    stream, _, _ = parse_stream_spec(parse_kv_file(args.config), args.config)
    os.makedirs(args.out, exist_ok=True)
    for spec in stream:
        ds = synthdata.make_dataset(spec)
        synthdata.export_dataset(ds, args.out)
        print(f"wrote {len(ds)} pairs for {spec.id} to {args.out}/{spec.id}")
    return EXIT_OK


def cmd_run(args):
    if args.manifest:
        spec_raw, origin = load_manifest_args(args.manifest, args), args.manifest
    else:
        spec_raw, origin = parse_kv_file(args.config), args.config
    if args.method not in METHODS:
        raise CliError(
            f"unknown method {args.method!r}; expected one of {METHODS}",
            EXIT_BAD_METHOD)
    stream, spec_seed, spec_raw = parse_stream_spec(spec_raw, origin)
    seed = args.seed if args.seed is not None else spec_seed
    cfg = build_stage_config(args, seed)
    try:
        if args.method == "individual":
            report = pipeline.baseline_individual(stream, cfg)
        elif args.method == "sf":
            report = pipeline.baseline_sf(stream, cfg)
        else:
            report = pipeline.run_stream(stream, cfg, method=args.method)
    except synthdata.ConfigError as exc:
        raise CliError(f"{origin}: {exc}", EXIT_BAD_KEY) from None
    os.makedirs(args.out, exist_ok=True)
    pipeline.write_reports(report, cfg, args.out,
                           [spec.image_size for spec in stream])
    write_manifest(args.out, args, seed, spec_raw)
    print(f"{args.method}: final avg memory PSNR "
          f"{report.avg_memory_psnr():.2f} dB; reports in {args.out}")
    return EXIT_OK


def cmd_similarity(args):
    stream, spec_seed, _ = parse_stream_spec(parse_kv_file(args.config), args.config)
    try:
        pipeline.require_training_pairs(stream)
    except synthdata.ConfigError as exc:
        raise CliError(f"{args.config}: {exc}", EXIT_BAD_KEY) from None
    seed = args.seed if args.seed is not None else spec_seed
    run_defaults = build_parser().parse_args(["run", "--out", os.devnull])
    cfg = build_stage_config(run_defaults, seed)
    chain = pipeline.memory_chain(pipeline.training_sets(stream), cfg)
    for n, spec in enumerate(stream, start=1):
        step = next(chain)
        sim = step.similarity
        if sim.s_min is None:
            scores = "bootstrap, S_hat=1"
        else:
            per = ", ".join(
                "s_%d=%.4f" % (i + 1, s) for i, s in enumerate(sim.per_generator)
                if s is not None)
            scores = f"{per}; S=%.4f S_hat=%.4f" % (sim.s_min, sim.s_hat)
        print(f"stage {n} ({spec.id}): {scores}; delta={step.delta} "
              f"generator=g{step.generator + 1} fresh={step.sampler_calls}")
        del step  # so that the next stage's replay set is built without it
    return EXIT_OK


def cmd_cost(args):
    sizes = [_typed("--sizes", f"M_{n}", s, _positive(int))
             for n, s in enumerate(args.sizes.split(","), start=1)]
    cc = None
    if args.constants:
        kv = parse_kv_file(args.constants,
                           allowed_check=lambda k: k in _CONSTANT_KEYS)
        missing = _CONSTANT_KEYS - set(kv)
        if missing:
            raise CliError(
                f"{args.constants}: missing constants {sorted(missing)}",
                EXIT_BAD_KEY)
        cc = costs.CostConstants(**{
            k: _typed(args.constants, k, v, _positive(float)) for k, v in kv.items()})
    naive = costs.replay_cost_naive(sizes)
    closed = costs.replay_cost_reuse_closed(sizes)
    counted = costs.replay_cost_reuse_counted(sizes)
    print(f"replay calls: naive={naive} closed={closed:.1f} counted={counted}")
    if len(set(sizes)) == 1 and len(sizes) >= 4:
        ok, worst, _ = costs.verify_log_bound(sizes[0], max_stages=len(sizes))
        print(f"harmonic bound check up to N={len(sizes)}: "
              f"{'pass' if ok else 'FAIL'} (worst ratio {worst:.3f})")
    if cc is not None:
        rep = costs.appendix_costs(cc, sizes)
        print(f"FLOPs_GAN={rep.flops_gan:.6g} T_GAN={rep.t_gan:.6g}")
        print(f"FLOPs_Replay={rep.flops_replay:.6g} T_Replay={rep.t_replay:.6g}")
        print(f"FLOPs_Dnet={rep.flops_dnet:.6g} T_Dnet={rep.t_dnet:.6g}")
        print(f"P_GAN={rep.p_gan:.6g} P_Dnet={rep.p_dnet:.6g}")
    return EXIT_OK


def _read_run_csv(path, columns):
    """Rows of a run CSV as tuples of ``columns`` (stage and dataset as int);
    exit 2 naming the file if it has no rows or a missing or malformed cell."""
    with open(path, newline="") as fh:
        try:
            rows = [tuple((int if c in ("stage", "dataset") else float)(r[c])
                          for c in columns) for r in csv.DictReader(fh)]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"{path}: malformed row ({exc})", EXIT_BAD_KEY) from None
    if not rows:
        raise CliError(f"{path}: no data rows", EXIT_BAD_KEY)
    return rows


def cmd_compare(args):
    rows = []
    for d in args.dirs:
        mem_path = os.path.join(d, "memory.csv")
        gen_path = os.path.join(d, "generalization.csv")
        man_path = os.path.join(d, "manifest.txt")
        for p in (mem_path, gen_path, man_path):
            if not os.path.exists(p):
                raise CliError(f"missing file: {p}", EXIT_MISSING_FILE)
        method = parse_kv_file(man_path).get("method", os.path.basename(d))
        mem = _read_run_csv(mem_path, ("stage", "dataset", "psnr", "ssim"))
        last_stage = max(stage for stage, *_ in mem)
        finals = {ds: (p, s) for stage, ds, p, s in mem if stage == last_stage}
        hold = _read_run_csv(gen_path, ("psnr", "ssim"))[-1]
        rows.append((method, finals, hold))

    n_datasets = max(max(f) for _, f, _ in rows)
    out = args.out or "comparison.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method"] + [f"d{d}_{m}" for d in range(1, n_datasets + 1)
                                 for m in ("psnr", "ssim")]
                   + ["avg_memory_psnr", "avg_memory_ssim",
                      "holdout_psnr", "holdout_ssim"])
        for method, finals, hold in rows:
            row = [method]
            for d in range(1, n_datasets + 1):
                row += map(pipeline._fmt, finals[d]) if d in finals else ["", ""]
            means = [np.mean(col) for col in zip(*(finals[d] for d in sorted(finals)))]
            w.writerow(row + [pipeline._fmt(v) for v in (*means, *hold)])
    print(f"wrote {out}")
    return EXIT_OK


def build_parser(run_defaults=True):
    """The command-line parser. With ``run_defaults=False`` the run options a
    manifest sets have no default, so a parse holds only those given."""
    p = argparse.ArgumentParser(prog="rainreplay", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, default=None):
        sp.add_argument("--config", default=default, help="stream spec file (key=value)")
        sp.add_argument("--seed", type=int, default=default)

    def run_default(value):
        return value if run_defaults else argparse.SUPPRESS

    g = sub.add_parser("gen", help="materialize datasets to PPM")
    add_common(g)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("run", help="execute a method and write reports")
    add_common(r, run_default(None))
    r.add_argument("--out", required=True)
    r.add_argument("--method", default=run_default("clgid"))
    r.add_argument("--manifest", help="rerun from a previously written manifest; "
                   "takes no other run option")
    for flag, dest, kind, default in RUN_OPTIONS:
        if kind is bool:
            r.add_argument(flag, dest=dest, action="store_true",
                           default=run_default(False))
        else:
            r.add_argument(flag, dest=dest, type=kind, default=run_default(default))
    r.set_defaults(func=cmd_run)

    s = sub.add_parser(
        "similarity", help="print the memory chain of run --method clgid")
    add_common(s)
    s.set_defaults(func=cmd_similarity)

    c = sub.add_parser("cost", help="symbolic cost simulation")
    c.add_argument("--sizes", required=True, help="comma-separated M_1..M_N")
    c.add_argument("--constants", help="cost-constants file (key=value)")
    c.set_defaults(func=cmd_cost)

    m = sub.add_parser("compare", help="merge run outputs into one CSV")
    m.add_argument("dirs", nargs="+")
    m.add_argument("--out")
    m.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None) is None and args.command in (
                "gen", "run", "similarity") and not getattr(args, "manifest", None):
            raise CliError("--config is required", EXIT_BAD_KEY)
        if getattr(args, "manifest", None):
            reject_options_beside_manifest(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GENERIC


if __name__ == "__main__":
    sys.exit(main())
