import argparse
import os
import re
import tempfile
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainreplay import cli, pipeline
from rainreplay.cli import (
    EXIT_BAD_KEY, EXIT_BAD_METHOD, EXIT_MISSING_FILE, EXIT_OK, main,
)
from rainreplay.synthdata import RainParams

SPEC = """\
# two-dataset stream
datasets=a,b
image_size=16
pair_count=5
seed=9
a.angle_mean=40
a.density=30
b.angle_mean=130
b.density=12
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "stream.txt"
    path.write_text(SPEC)
    return str(path)


def _run(spec_file, out, *extra):
    return main(["run", "--config", spec_file, "--out", out,
                 "--iterations", "4", "--batch-size", "2", *extra])


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_MISSING_FILE
    assert "nope.txt" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(SPEC + "lamda=1\n")  # typo for a config key
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_KEY
    assert "lamda" in capsys.readouterr().err


def test_malformed_line_rejected(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("datasets=a\njust some words\na.angle_mean=50\n")
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_BAD_KEY


def test_unknown_method(spec_file, tmp_path, capsys):
    code = _run(spec_file, str(tmp_path / "o"), "--method", "finetune")
    assert code == EXIT_BAD_METHOD
    assert "finetune" in capsys.readouterr().err


def test_missing_required_dataset_key(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("datasets=a\na.density=10\n")
    assert main(["gen", "--config", str(path),
                 "--out", str(tmp_path / "o")]) == EXIT_BAD_KEY


@pytest.mark.parametrize("line", ["a.angle_mean=abc", "b.density=lots",
                                  "a.pair_count=1.5", "seed=x"])
def test_non_numeric_spec_value_exits_2(tmp_path, capsys, line):
    path = tmp_path / "bad.txt"
    key = line.split("=")[0]
    path.write_text("\n".join(l for l in SPEC.splitlines()
                              if not l.startswith(key + "=")) + f"\n{line}\n")
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_KEY
    assert str(path) in err and repr(key) in err


@pytest.mark.parametrize("line, field", [
    ("a.density=0", "density"), ("a.width=0.5", "width"),
    ("a.pair_count=0", "pair_count"), ("image_size=8", "image_size"),
])
def test_out_of_range_spec_value_exits_2(tmp_path, capsys, line, field):
    path = tmp_path / "bad.txt"
    key = line.split("=")[0]
    path.write_text("\n".join(l for l in SPEC.splitlines()
                              if not l.startswith(key + "=")) + f"\n{line}\n")
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_KEY
    assert str(path) in err and "dataset 'a'" in err and field in err
    assert not (tmp_path / "o").exists()


def _single_pair_spec(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text(SPEC + "a.pair_count=1\n")
    return str(path)


@pytest.mark.parametrize("method", ["clgid", "sf"])
def test_run_with_single_pair_dataset_exits_2(tmp_path, capsys, method):
    path, out = _single_pair_spec(tmp_path), tmp_path / "o"
    assert _run(path, str(out), "--method", method) == EXIT_BAD_KEY
    err = capsys.readouterr().err
    assert path in err and "dataset 'a'" in err and "pair_count" in err
    assert not out.exists()


def test_similarity_with_single_pair_dataset_exits_2(tmp_path, capsys):
    path = _single_pair_spec(tmp_path)
    assert main(["similarity", "--config", path]) == EXIT_BAD_KEY
    err = capsys.readouterr().err
    assert path in err and "dataset 'a'" in err and "pair_count" in err


def _mixed_size_spec(tmp_path):
    # c would reuse replay pairs drawn at b's size
    path = tmp_path / "mixed.txt"
    path.write_text(SPEC.replace("datasets=a,b", "datasets=a,b,c")
                    + "b.image_size=24\nc.angle_mean=80\nc.density=20\n")
    return str(path)


@pytest.mark.parametrize("method", ["clgid", "clgid-fast"])
def test_run_mixed_sizes_under_reuse_exits_2(tmp_path, capsys, method):
    path, out = _mixed_size_spec(tmp_path), tmp_path / "o"
    assert _run(path, str(out), "--method", method) == EXIT_BAD_KEY
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "'a' is 16 px" in err and "'b' is 24 px" in err and "--no-reuse" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [("--method", "clgid", "--no-reuse"),
                                   ("--method", "sf"), ("--method", "individual")])
def test_run_mixed_sizes_without_reuse_exits_0(tmp_path, extra):
    assert _run(_mixed_size_spec(tmp_path), str(tmp_path / "o"), *extra) == EXIT_OK


def test_gen_accepts_single_pair_dataset(tmp_path):
    assert main(["gen", "--config", _single_pair_spec(tmp_path),
                 "--out", str(tmp_path / "o")]) == EXIT_OK


def test_duplicate_dataset_ids_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("datasets=a,a\na.angle_mean=30\n")
    code = main(["gen", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_KEY
    assert str(path) in err and "'datasets'" in err


MANIFEST = """\
method=clgid
seed=3
iterations=4
batch_size=2
lambda=1.0
threshold=0.4
floor=0.05
no_speedup=0
no_reuse=0
no_selective=0
no_replay=0
no_distill=0
""" + "".join(f"spec.{line}\n" for line in SPEC.splitlines()[1:])


@pytest.mark.parametrize("key, bad", [
    ("method", None), ("iterations", None), ("seed", "abc"),
    ("lambda", "one"), ("no_reuse", "yes"), ("spec.a.angle_mean", "abc"),
])
def test_malformed_manifest_exits_2(tmp_path, capsys, key, bad):
    lines = [l for l in MANIFEST.splitlines() if not l.startswith(key + "=")]
    if bad is not None:
        lines.append(f"{key}={bad}")
    path = tmp_path / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    code = main(["run", "--manifest", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == EXIT_BAD_KEY
    assert str(path) in err and repr(key.removeprefix("spec.")) in err
    assert not (tmp_path / "o").exists()


OUT_OF_RANGE = [("--iterations", "-3"), ("--batch-size", "0"),
                ("--threshold", "1.5"), ("--floor", "2"), ("--lambda", "-1")]


@pytest.mark.parametrize("extra", [
    ["--iterations", "1"], ["--iterations", "4"], ["--method", "sf"],
    ["--method", "clgid"], ["--seed", "3"], ["--config", "SPEC"],
    ["--lambda", "0.5"], ["--batch-size", "2"], ["--threshold", "0.4"],
    ["--floor", "0.05"], ["--no-replay"], ["--no-speedup"], ["--no-reuse"],
    ["--no-selective"], ["--no-distill"],
    ["--iterations", "1", "--method", "sf", "--no-replay"],
], ids=lambda extra: "_".join(extra))
def test_run_option_beside_manifest_exits_2(spec_file, tmp_path, capsys, extra):
    """--manifest sets every run option, so any option given beside it, even
    at the manifest's or the default value, exits 2 naming it."""
    path = tmp_path / "manifest.txt"
    path.write_text(MANIFEST)
    extra = [spec_file if a == "SPEC" else a for a in extra]
    out = tmp_path / "o"
    code = main(["run", "--manifest", str(path), "--out", str(out), *extra])
    assert code == EXIT_BAD_KEY
    err = capsys.readouterr().err
    assert all(flag in err for flag in extra if flag.startswith("--"))
    assert not out.exists()
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("flag, bad", OUT_OF_RANGE)
def test_out_of_range_option_exits_2(spec_file, tmp_path, capsys, flag, bad):
    out = tmp_path / "o"
    assert _run(spec_file, str(out), flag, bad) == EXIT_BAD_KEY
    err = capsys.readouterr().err
    assert "command line" in err and repr(flag) in err
    assert not out.exists()


@pytest.mark.parametrize("flag, bad", OUT_OF_RANGE)
def test_out_of_range_manifest_value_exits_2(tmp_path, capsys, flag, bad):
    key = flag[2:].replace("-", "_")
    path = tmp_path / "manifest.txt"
    path.write_text(re.sub(rf"(?m)^{key}=.*$", f"{key}={bad}", MANIFEST))
    out = tmp_path / "o"
    assert main(["run", "--manifest", str(path), "--out", str(out)]) == EXIT_BAD_KEY
    err = capsys.readouterr().err
    assert str(path) in err and repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "run", "similarity"])
def test_non_utf8_config_exits_2(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"datasets=a\n\xff\n")
    extra = [] if command == "similarity" else ["--out", str(tmp_path / "o")]
    assert main([command, "--config", str(path), *extra]) == EXIT_BAD_KEY
    assert str(path) in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200) | st.text(max_size=200).map(str.encode),
       strict=st.booleans())
def test_parse_kv_file_returns_mapping_or_cli_error(data, strict):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "any.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            out = cli.parse_kv_file(
                path, allowed_check=(lambda k: k.isidentifier()) if strict else None)
        except cli.CliError as exc:
            assert exc.code == EXIT_BAD_KEY and path in str(exc)
        else:
            assert all(isinstance(k, str) and isinstance(v, str)
                       for k, v in out.items())


def test_manifest_writer_reproduces_manifest(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text(MANIFEST)
    args = argparse.Namespace()
    spec_raw = cli.load_manifest_args(str(path), args)
    cli.write_manifest(str(tmp_path), args, args.seed, spec_raw)
    assert path.read_text() == f"version={cli.__version__}\n" + MANIFEST


def test_dataset_keys_are_the_rain_and_spec_fields():
    assert cli._DATASET_KEYS == {f.name for f in fields(RainParams)} | {
        "pair_count", "image_size", "seed"}


# ---------------------------------------------------------------------------
# the option table
# ---------------------------------------------------------------------------

SWITCHES = ("--no-speedup", "--no-reuse", "--no-selective", "--no-replay",
            "--no-distill")


def _old_build_stage_config(args, seed):
    """The per-method if/elif mapping that the option table replaced."""
    cfg = pipeline.StageConfig(
        iterations=args.iterations, batch_size=args.batch_size, lam=args.lam,
        threshold=args.threshold, floor=args.floor, seed=seed)
    if args.method == "clgid":
        cfg = replace(cfg, replay=not args.no_replay, speedup=False,
                      selective=not args.no_selective, reuse=not args.no_reuse)
    elif args.method == "clgid-fast":
        cfg = replace(cfg, replay=not args.no_replay,
                      speedup=not args.no_speedup,
                      selective=not args.no_selective, reuse=not args.no_reuse)
    elif args.method == "sf":
        cfg = replace(cfg, replay=False, lam=0.0, speedup=False,
                      selective=False, reuse=False)
    if args.no_distill:
        cfg = replace(cfg, lam=0.0)
    return cfg


def _as_trained(cfg, method):
    """The config a method trains with: ``baseline_sf`` sets SF's flags and
    ``baseline_individual`` reads none of them."""
    if method in ("sf", "individual"):
        return replace(cfg, replay=False, lam=0.0, speedup=False,
                       selective=False, reuse=False)
    return cfg


@pytest.mark.parametrize("switch", [None, *SWITCHES])
@pytest.mark.parametrize("method", cli.METHODS)
def test_build_stage_config_matches_per_method_mapping(method, switch):
    args = cli.build_parser().parse_args(
        ["run", "--out", "o", "--method", method, "--iterations", "3",
         "--batch-size", "2", "--lambda", "0.5", "--threshold", "0.3",
         "--floor", "0.1", *([switch] if switch else [])])
    expected = argparse.Namespace(
        method=method, iterations=3, batch_size=2, lam=0.5, threshold=0.3,
        floor=0.1, **{s[2:].replace("-", "_"): s == switch for s in SWITCHES})
    new = cli.build_stage_config(args, 7)
    old = _old_build_stage_config(expected, 7)
    assert _as_trained(new, method) == _as_trained(old, method)


def test_manifest_roundtrip_of_every_option(spec_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["run", "--config", spec_file, "--out", a, "--method", "clgid-fast",
            "--seed", "4", "--lambda", "0.5", "--threshold", "0.3",
            "--floor", "0.1", "--iterations", "3", "--batch-size", "3",
            *SWITCHES]
    first = cli.build_parser().parse_args(argv)
    for flag, dest, _, default in cli.RUN_OPTIONS:
        assert getattr(first, dest) != default, flag
    assert main(argv) == EXIT_OK

    manifest = os.path.join(a, "manifest.txt")
    rerun = argparse.Namespace()
    cli.load_manifest_args(manifest, rerun)
    for dest in ["method", "seed", *(d for _, d, _, _ in cli.RUN_OPTIONS)]:
        assert getattr(rerun, dest) == getattr(first, dest), dest
    assert main(["run", "--manifest", manifest, "--out", b]) == EXIT_OK
    for name in ("memory.csv", "generalization.csv", "cost.csv", "manifest.txt"):
        assert _read(os.path.join(a, name)) == _read(os.path.join(b, name))


# ---------------------------------------------------------------------------
# gen / similarity / cost
# ---------------------------------------------------------------------------


def test_gen_writes_ppm_pairs(spec_file, tmp_path):
    out = tmp_path / "data"
    assert main(["gen", "--config", spec_file, "--out", str(out)]) == EXIT_OK
    for ds in ("a", "b"):
        assert (out / ds / "spec.txt").exists()
        assert (out / ds / "0_rain.ppm").exists()
        assert (out / ds / "0_clean.ppm").exists()
        assert (out / ds / "4_clean.ppm").exists()


def test_similarity_prints_chain(spec_file, capsys):
    assert main(["similarity", "--config", spec_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "stage 1 (a): bootstrap" in out
    assert "stage 2 (b):" in out and "S_hat=" in out


def test_similarity_prints_the_clgid_run_chain(tmp_path, capsys):
    path = tmp_path / "stream.txt"
    path.write_text("datasets=a,b,c,d\nimage_size=16\npair_count=10\nseed=5\n"
                    + "".join(f"{d}.angle_mean={a}\n{d}.density=30\n"
                              for d, a in zip("abcd", (30, 120, 75, 30))))
    assert main(["similarity", "--config", str(path)]) == EXIT_OK
    printed = re.findall(r"delta=(\d) generator=g\d+ fresh=(\d+)",
                         capsys.readouterr().out)

    stream, seed, _ = cli.parse_stream_spec(cli.parse_kv_file(str(path)), str(path))
    args = cli.build_parser().parse_args(["run", "--out", str(tmp_path / "o")])
    cfg = replace(cli.build_stage_config(args, seed), iterations=1)
    report = pipeline.run_stream(stream, cfg)
    assert [(int(d), int(f)) for d, f in printed] == \
        list(zip(report.deltas, report.sampler_calls))
    assert 0 in report.deltas[1:] and 1 in report.deltas[1:]


def test_cost_command(tmp_path, capsys):
    consts = tmp_path / "c.txt"
    consts.write_text("\n".join(
        f"{k}=1.0" for k in sorted(cli._CONSTANT_KEYS)) + "\n")
    code = main(["cost", "--sizes", "100,100,100,100,100,100",
                 "--constants", str(consts)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "naive=500" in out
    assert "counted=228" in out
    assert "P_GAN=6" in out


def test_cost_missing_constant(tmp_path, capsys):
    consts = tmp_path / "c.txt"
    consts.write_text("p_g=1.0\n")
    assert main(["cost", "--sizes", "10,10",
                 "--constants", str(consts)]) == EXIT_BAD_KEY


@pytest.mark.parametrize("sizes, bad", [("4,x", "M_2"), ("4,0", "M_2"),
                                        ("-1,4", "M_1"), ("4,,4", "M_2")])
def test_cost_bad_size_exits_2_before_output(capsys, sizes, bad):
    assert main(["cost", f"--sizes={sizes}"]) == EXIT_BAD_KEY
    out, err = capsys.readouterr()
    assert out == ""
    assert "--sizes" in err and repr(bad) in err


@pytest.mark.parametrize("value", ["abc", "0", "-2.5", "nan"])
def test_cost_bad_constant_exits_2_before_output(tmp_path, capsys, value):
    consts = tmp_path / "c.txt"
    consts.write_text("".join(f"{k}={value if k == 'e_g' else 1.0}\n"
                              for k in sorted(cli._CONSTANT_KEYS)))
    assert main(["cost", "--sizes", "10,10",
                 "--constants", str(consts)]) == EXIT_BAD_KEY
    out, err = capsys.readouterr()
    assert out == ""
    assert str(consts) in err and "'e_g'" in err


def test_cost_csv_uses_each_stage_image_size(tmp_path):
    path = tmp_path / "sizes.txt"
    path.write_text(SPEC + "b.image_size=32\n")  # a keeps the global 16 px
    out = str(tmp_path / "o")
    assert main(["run", "--config", str(path), "--out", out, "--method", "sf",
                 "--iterations", "3", "--batch-size", "2"]) == EXIT_OK
    with open(os.path.join(out, "cost.csv")) as fh:
        flops = [row.split(",")[-1] for row in fh.read().splitlines()[1:]]
    # iterations * batch * pixels * FLOPs per pixel and step, at each size
    assert flops == [str(3 * 2 * 16 ** 2 * 6048), str(3 * 2 * 32 ** 2 * 6048)]


# ---------------------------------------------------------------------------
# run determinism and equivalences
# ---------------------------------------------------------------------------


def test_run_deterministic(spec_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(spec_file, a) == EXIT_OK
    assert _run(spec_file, b) == EXIT_OK
    for name in ("memory.csv", "generalization.csv", "cost.csv"):
        assert _read(os.path.join(a, name)) == _read(os.path.join(b, name))


def test_ablated_clgid_equals_sf(spec_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(spec_file, a, "--method", "clgid",
                "--no-replay", "--no-distill") == EXIT_OK
    assert _run(spec_file, b, "--method", "sf") == EXIT_OK
    for name in ("memory.csv", "generalization.csv", "cost.csv"):
        assert _read(os.path.join(a, name)) == _read(os.path.join(b, name))


def test_manifest_rerun_reproduces(spec_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(spec_file, a, "--method", "clgid-fast", "--seed", "17") == EXIT_OK
    assert main(["run", "--manifest", os.path.join(a, "manifest.txt"),
                 "--out", b]) == EXIT_OK
    for name in ("memory.csv", "generalization.csv", "cost.csv"):
        assert _read(os.path.join(a, name)) == _read(os.path.join(b, name))


def test_manifest_rerun_leaves_source_dir_unchanged(spec_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(spec_file, a) == EXIT_OK
    before = sorted(os.listdir(a))
    assert main(["run", "--manifest", os.path.join(a, "manifest.txt"),
                 "--out", b]) == EXIT_OK
    assert sorted(os.listdir(a)) == before


def test_run_individual(spec_file, tmp_path):
    out = str(tmp_path / "ind")
    assert _run(spec_file, out, "--method", "individual") == EXIT_OK
    with open(os.path.join(out, "memory.csv")) as fh:
        lines = fh.read().strip().splitlines()
    # header plus the two diagonal entries
    assert len(lines) == 3


def test_compare_merges_runs(spec_file, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(spec_file, a, "--method", "clgid") == EXIT_OK
    assert _run(spec_file, b, "--method", "sf") == EXIT_OK
    out = str(tmp_path / "comparison.csv")
    assert main(["compare", a, b, "--out", out]) == EXIT_OK
    with open(out) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("method,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "clgid"
    assert lines[2].split(",")[0] == "sf"


def test_compare_missing_dir(tmp_path):
    assert main(["compare", str(tmp_path / "ghost")]) == EXIT_MISSING_FILE


def _run_dir_with(tmp_path, spec_file, name, text):
    out = str(tmp_path / "r")
    assert _run(spec_file, out) == EXIT_OK
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(text)
    return out, path


@pytest.mark.parametrize("name, text", [
    ("memory.csv", "stage,dataset,psnr,ssim\n"),
    ("memory.csv", "stage,dataset,psnr,ssim\n1,1,abc,0.5\n"),
    ("memory.csv", "stage,dataset,psnr\n1,1,20.0\n"),
    ("generalization.csv", "stage,psnr,ssim\n"),
    ("generalization.csv", "stage,psnr,ssim\n1,20.0\n"),
], ids=["memory-header-only", "memory-non-numeric", "memory-missing-column",
        "holdout-header-only", "holdout-short-row"])
def test_compare_malformed_run_csv_exits_2(spec_file, tmp_path, capsys, name, text):
    run_dir, path = _run_dir_with(tmp_path, spec_file, name, text)
    out = tmp_path / "cmp.csv"
    assert main(["compare", run_dir, "--out", str(out)]) == EXIT_BAD_KEY
    assert path in capsys.readouterr().err
    assert not out.exists()
