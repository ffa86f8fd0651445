import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainreplay import costs, memgen
from rainreplay.imaging import ShapeError
from rainreplay.memgen import (
    ANGLE_BINS, DegenerateFitError, MemoryGenerator, PreconditionError,
    ReplayCache, StalenessError, apply_reuse, build_replay_dataset, even_split,
    fit_generator, load_generator, recover_rain_layer, reuse_plan, sample_rain,
    save_generator, select_generator_training,
)
from rainreplay.pipeline import aggregate_hog
from rainreplay.synthdata import make_dataset

from conftest import dataset_spec


def reuse_calls_oracle(sizes):
    """Scalar simulation of the cache: fresh calls are whatever the even split
    requires beyond what each slot already holds."""
    cached = []
    total = 0
    for n in range(2, len(sizes) + 1):
        cached.append(0)
        base, rem = divmod(sizes[n - 1], n - 1)
        required = [base + (1 if i < rem else 0) for i in range(n - 1)]
        for i, r in enumerate(required):
            extra = max(0, r - cached[i])
            total += extra
            cached[i] += extra
    return total


# ---------------------------------------------------------------------------
# recovery and fitting
# ---------------------------------------------------------------------------


def test_recover_rain_layer_nonnegative_and_localized():
    ds = make_dataset(dataset_spec("a", 3, pairs=2))
    for (rainy, clean), layer in zip(ds.pairs, ds.layers):
        rec = recover_rain_layer(rainy, clean)
        assert rec.min() >= 0.0
        # recovered mass concentrates where the true layer has rain
        on = rec[layer.data[:, :, 0] > 0.05]
        off = rec[layer.data[:, :, 0] == 0.0]
        assert on.mean() > 10 * max(off.mean(), 1e-6)


def test_fit_angle_histogram_peaks_near_true_angle():
    ds = make_dataset(dataset_spec("a", 11, angle=30.0, pairs=6, size=48,
                                   angle_std=1.0))
    gen = fit_generator(ds)
    centers = (np.arange(ANGLE_BINS) + 0.5) * (180.0 / ANGLE_BINS)
    # bulk of the orientation mass lies within 15 degrees of the true angle
    near = np.abs(centers - 30.0) <= 15.0
    assert gen.angle_hist[near].sum() > 0.5


def test_fit_deterministic():
    ds = make_dataset(dataset_spec("a", 4, pairs=3))
    g1 = fit_generator(ds)
    g2 = fit_generator(ds)
    assert np.array_equal(g1.angle_hist, g2.angle_hist)
    for f in ("length_mean", "length_std", "width", "density",
              "intensity_mean", "intensity_std"):
        assert getattr(g1, f) == getattr(g2, f)


def test_fit_degenerate_rainless():
    ds = make_dataset(dataset_spec("a", 4, pairs=2, density=0.001))
    with pytest.raises(DegenerateFitError):
        fit_generator(ds)


def test_fit_heavier_rain_gives_larger_mass():
    heavy = fit_generator(make_dataset(
        dataset_spec("h", 6, pairs=4, density=45.0, intensity=0.75)))
    light = fit_generator(make_dataset(
        dataset_spec("l", 6, pairs=4, density=8.0, intensity=0.3)))
    mh = np.mean([sample_rain(heavy, np.full(8, 0.1 * k), 32).data.sum()
                  for k in range(4)])
    ml = np.mean([sample_rain(light, np.full(8, 0.1 * k), 32).data.sum()
                  for k in range(4)])
    assert mh > 2 * ml


def test_fit_mass_calibration_close():
    ds = make_dataset(dataset_spec("a", 6, pairs=6, density=24.0))
    gen = fit_generator(ds)
    observed = np.mean([recover_rain_layer(r, c).sum() for r, c in ds.pairs])
    rng = np.random.default_rng(5)
    sampled = np.mean([
        sample_rain(gen, rng.standard_normal(gen.latent_dim), 32).data.sum()
        for _ in range(16)
    ])
    assert 0.4 * observed < sampled < 2.5 * observed


def test_generator_validation():
    good = np.full(ANGLE_BINS, 1.0 / ANGLE_BINS)
    with pytest.raises(ShapeError):
        MemoryGenerator(id="x", angle_hist=np.ones(5) / 5, length_mean=8.0,
                        length_std=1.0, width=1.0, density=10.0,
                        intensity_mean=0.5, intensity_std=0.1)
    with pytest.raises(ValueError):
        MemoryGenerator(id="x", angle_hist=good * 2, length_mean=8.0,
                        length_std=1.0, width=1.0, density=10.0,
                        intensity_mean=0.5, intensity_std=0.1)
    with pytest.raises(ValueError):
        MemoryGenerator(id="x", angle_hist=good, length_mean=8.0,
                        length_std=1.0, width=1.0, density=0.0,
                        intensity_mean=0.5, intensity_std=0.1)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _toy_generator(angle_bin=9, density=20.0):
    hist = np.full(ANGLE_BINS, 1e-9)
    hist[angle_bin] = 1.0
    hist = hist / hist.sum()
    return MemoryGenerator(id="toy", angle_hist=hist, length_mean=12.0,
                           length_std=2.0, width=1.2, density=density,
                           intensity_mean=0.6, intensity_std=0.1)


def test_sample_rain_deterministic_in_latent():
    gen = _toy_generator()
    z = np.arange(8, dtype=float) / 8.0
    a = sample_rain(gen, z, 32)
    b = sample_rain(gen, z, 32)
    assert np.array_equal(a.data, b.data)
    c = sample_rain(gen, z + 1e-9, 32)
    assert not np.array_equal(a.data, c.data)


def test_sample_rain_latent_shape_checked():
    with pytest.raises(ShapeError):
        sample_rain(_toy_generator(), np.zeros(7), 32)


def test_sample_rain_range():
    img = sample_rain(_toy_generator(density=80.0), np.zeros(8), 32)
    assert img.data.min() >= 0.0
    assert img.data.max() <= 1.0


def test_sampled_orientation_matches_generator():
    # generator concentrated on the bin containing 95 degrees
    gen = _toy_generator(angle_bin=9)  # [90, 100)
    rng = np.random.default_rng(17)
    layers = [sample_rain(gen, rng.standard_normal(8), 48) for _ in range(12)]
    h = aggregate_hog(layers)
    argmax = int(np.argmax(h.values))
    lo, hi = argmax * 20.0, (argmax + 1) * 20.0
    assert lo <= 95.0 < hi


# ---------------------------------------------------------------------------
# replay assembly
# ---------------------------------------------------------------------------


def test_even_split_examples():
    assert even_split(100, 3) == [34, 33, 33]
    assert even_split(10, 1) == [10]
    assert even_split(7, 4) == [2, 2, 2, 1]
    rng = np.random.default_rng(2)
    for _ in range(200):
        total = int(rng.integers(1, 500))
        k = int(rng.integers(1, 12))
        parts = even_split(total, k)
        assert sum(parts) == total
        assert max(parts) - min(parts) <= 1
        assert parts == sorted(parts, reverse=True)


def test_build_replay_counts_and_slots():
    ds = make_dataset(dataset_spec("cur", 8, pairs=10, size=16))
    gens = [_toy_generator(b) for b in (2, 8, 14)]
    rep = build_replay_dataset(gens, ds, seed=99)
    assert len(rep) == 10
    assert [len(rep.subset(s)) for s in range(3)] == [4, 3, 3]
    for rainy, clean in rep.pairs:
        assert np.all(rainy.data >= clean.data - 1e-6)


def test_build_replay_single_prior():
    ds = make_dataset(dataset_spec("cur", 8, pairs=5, size=16))
    rep = build_replay_dataset([_toy_generator()], ds, seed=1)
    assert len(rep) == 5
    assert rep.slot_ids == [0] * 5


def test_build_replay_deterministic():
    ds = make_dataset(dataset_spec("cur", 8, pairs=6, size=16))
    gens = [_toy_generator(3), _toy_generator(12)]
    a = build_replay_dataset(gens, ds, seed=7)
    b = build_replay_dataset(gens, ds, seed=7)
    for (ra, _), (rb, _) in zip(a.pairs, b.pairs):
        assert np.array_equal(ra.data, rb.data)
    c = build_replay_dataset(gens, ds, seed=8)
    assert not np.array_equal(a.pairs[0][0].data, c.pairs[0][0].data)


def test_build_replay_equals_apply_reuse_on_empty_cache():
    ds = make_dataset(dataset_spec("cur", 8, pairs=7, size=16))
    gens = [_toy_generator(b) for b in (2, 8, 14)]
    n = len(gens) + 1
    built = build_replay_dataset(gens, ds, seed=99)
    empty = ReplayCache(stage=n - 1, entries=[[] for _ in range(n - 2)])
    reused, _, calls = apply_reuse(empty, reuse_plan(empty, n, len(ds)), gens,
                                   ds, seed=99)
    assert calls == len(built) == len(reused)
    assert reused.slot_ids == built.slot_ids
    for (ra, ca), (rb, cb) in zip(reused.pairs, built.pairs):
        assert np.array_equal(ra.data, rb.data)
        assert np.array_equal(ca.data, cb.data)


def test_build_replay_requires_generators():
    ds = make_dataset(dataset_spec("cur", 8, pairs=4, size=16))
    with pytest.raises(PreconditionError):
        build_replay_dataset([], ds, seed=0)


@given(total=st.integers(0, 10_000), k=st.integers(1, 50))
def test_even_split_properties(total, k):
    parts = even_split(total, k)
    assert len(parts) == k and sum(parts) == total
    assert all(a >= b for a, b in zip(parts, parts[1:]))
    assert max(parts) - min(parts) <= 1


# ---------------------------------------------------------------------------
# selective generator training
# ---------------------------------------------------------------------------


def test_select_generator_strict_threshold():
    assert select_generator_training(0.4, 0.4) == 0  # boundary is exclusive
    assert select_generator_training(0.4 + 1e-12, 0.4) == 1
    assert select_generator_training(0.0, 0.4) == 0
    assert select_generator_training(1.0, 0.4) == 1
    assert select_generator_training(0.0, 0.4, first_stage=True) == 1


def test_select_generator_domain():
    with pytest.raises(ValueError):
        select_generator_training(1.5, 0.4)
    with pytest.raises(ValueError):
        select_generator_training(-0.1, 0.4)


# ---------------------------------------------------------------------------
# replay-reuse cache
# ---------------------------------------------------------------------------


def test_reuse_plan_examples():
    # stage 2: nothing cached, all fresh
    plan = reuse_plan(ReplayCache(stage=1, entries=[]), 2, 10)
    assert plan.required == (10,)
    assert plan.cached == (0,)
    assert plan.delta == (10,)

    # stage 3 with 10 cached in slot 0: per-slot need is 5, so only the new
    # slot requires fresh samples
    cache = ReplayCache(stage=2, entries=[[("r", "c")] * 10])
    plan = reuse_plan(cache, 3, 10)
    assert plan.required == (5, 5)
    assert plan.delta == (0, 5)

    # growing stream forces top-ups of old slots too
    cache = ReplayCache(stage=2, entries=[[("r", "c")] * 6])
    plan = reuse_plan(cache, 3, 20)
    assert plan.required == (10, 10)
    assert plan.delta == (4, 10)
    assert sum(plan.delta) == 14


def test_reuse_plan_staleness():
    with pytest.raises(StalenessError):
        reuse_plan(ReplayCache(stage=1, entries=[]), 3, 10)
    with pytest.raises(StalenessError):
        reuse_plan(ReplayCache(stage=2, entries=[[], []]), 3, 10)
    with pytest.raises(PreconditionError):
        reuse_plan(ReplayCache(stage=1, entries=[]), 1, 10)


def _run_reuse_chain(sizes, seed=5):
    """Drive the cache across a stream; returns per-stage fresh-call counts."""
    cache = ReplayCache(stage=1, entries=[])
    gens = []
    calls = []
    for n, m in enumerate(sizes, start=1):
        ds = make_dataset(dataset_spec(f"d{n}", 100 + n, pairs=m, size=16))
        if n >= 2:
            plan = reuse_plan(cache, n, m)
            rep, cache, c = apply_reuse(cache, plan, gens, ds, seed + n)
            calls.append(c)
            assert len(rep) == m
            # cache never shrinks
            assert all(len(e) >= r for e, r in zip(cache.entries, plan.required))
        gens.append(_toy_generator((3 * n) % ANGLE_BINS))
    return calls


def test_apply_reuse_matches_counted_oracle():
    for sizes in ([10, 10, 10, 10], [8, 12, 6, 10, 9], [5, 20, 5]):
        calls = _run_reuse_chain(sizes)
        assert sum(calls) == reuse_calls_oracle(sizes)


@pytest.fixture(scope="module")
def backgrounds():
    return make_dataset(dataset_spec("bg", 31, pairs=2, size=16))


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=6))
def test_reuse_fresh_calls_match_counted_cost(backgrounds, sizes):
    # reuse_plan takes each stage's size; the backgrounds need not match it
    cache = ReplayCache(stage=1, entries=[])
    gens = [_toy_generator(3 * i % ANGLE_BINS, density=5.0) for i in range(len(sizes))]
    calls = 0
    for n, m in enumerate(sizes[1:], start=2):
        plan = reuse_plan(cache, n, m)
        rep, cache, c = apply_reuse(cache, plan, gens[: n - 1], backgrounds, seed=n)
        assert len(rep) == m and c == sum(plan.delta)
        calls += c
    assert calls == costs.replay_cost_reuse_counted(sizes)


def test_apply_reuse_reused_pairs_identical_to_cached():
    sizes = [10, 10, 10]
    cache = ReplayCache(stage=1, entries=[])
    gens = [_toy_generator(4)]
    ds2 = make_dataset(dataset_spec("d2", 102, pairs=10, size=16))
    plan = reuse_plan(cache, 2, 10)
    rep2, cache, _ = apply_reuse(cache, plan, gens, ds2, seed=77)
    gens.append(_toy_generator(10))
    ds3 = make_dataset(dataset_spec("d3", 103, pairs=10, size=16))
    plan = reuse_plan(cache, 3, 10)
    rep3, cache, calls = apply_reuse(cache, plan, gens, ds3, seed=78)
    # slot 0 at stage 3 is fully served from the stage-2 cache
    assert calls == 5
    for (r3, c3), (r2, c2) in zip(rep3.subset(0), rep2.subset(0)):
        assert np.array_equal(r3.data, r2.data)
        assert np.array_equal(c3.data, c2.data)


def test_apply_reuse_stage_consistency_checked():
    cache = ReplayCache(stage=1, entries=[])
    ds = make_dataset(dataset_spec("d", 1, pairs=4, size=16))
    plan = reuse_plan(cache, 2, 4)
    with pytest.raises(StalenessError):
        apply_reuse(ReplayCache(stage=2, entries=[[]]), plan,
                    [_toy_generator()], ds, seed=0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_generator_roundtrip(tmp_path):
    ds = make_dataset(dataset_spec("rt", 21, pairs=3))
    gen = fit_generator(ds)
    path = tmp_path / "gen.txt"
    save_generator(gen, path)
    back = load_generator(path)
    assert back.id == gen.id
    assert back.latent_dim == gen.latent_dim
    assert np.array_equal(back.angle_hist, gen.angle_hist)
    for f in ("length_mean", "length_std", "width", "density",
              "intensity_mean", "intensity_std"):
        assert getattr(back, f) == getattr(gen, f)
    # identical samples from the reloaded generator
    z = np.linspace(-1, 1, gen.latent_dim)
    assert np.array_equal(sample_rain(gen, z, 24).data,
                          sample_rain(back, z, 24).data)
