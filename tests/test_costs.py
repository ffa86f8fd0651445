import math

import numpy as np
import pytest

from rainreplay.costs import (
    CostConstants, DomainError, appendix_costs, harmonic_bound,
    replay_cost_naive, replay_cost_reuse_closed, replay_cost_reuse_counted,
    verify_log_bound,
)

from oracles import replay_cost_reuse_retained, rounding_slack


def _constants(**kw):
    vals = dict(p_g=1e6, e_g=50.0, b_g=16.0, f_g_train=2e9, t_g_train=0.01,
                f_r=5e7, t_r=1e-3, p_d=2e6, e_d=100.0, b_d=8.0,
                f_d_train=3e9, t_d_train=0.02)
    vals.update(kw)
    return CostConstants(**vals)


# ---------------------------------------------------------------------------
# symbolic stage costs
# ---------------------------------------------------------------------------


def test_generator_training_flops_example():
    # 3 stages of 100 samples, E=10 epochs, B=4, F=1e6 per batch:
    # each stage costs 10 * 25 * 1e6, totalling 7.5e8
    c = _constants(e_g=10.0, b_g=4.0, f_g_train=1e6)
    rep = appendix_costs(c, [100, 100, 100])
    assert rep.per_stage_flops_gan[0] == pytest.approx(2.5e8, rel=1e-12)
    assert rep.flops_gan == pytest.approx(7.5e8, rel=1e-12)


def test_costs_scale_linearly_in_sizes():
    c = _constants()
    a = appendix_costs(c, [100, 200, 300])
    b = appendix_costs(c, [200, 400, 600])
    assert b.flops_gan == pytest.approx(2 * a.flops_gan, rel=1e-12)
    assert b.flops_dnet == pytest.approx(2 * a.flops_dnet, rel=1e-12)
    assert b.t_replay == pytest.approx(2 * a.t_replay, rel=1e-12)


def test_deltas_mask_generator_terms():
    c = _constants()
    full = appendix_costs(c, [100, 100, 100], deltas=[1, 1, 1])
    masked = appendix_costs(c, [100, 100, 100], deltas=[1, 0, 1])
    assert masked.per_stage_flops_gan[1] == 0.0
    assert masked.per_stage_t_gan[1] == 0.0
    assert masked.flops_gan == pytest.approx(2 * full.flops_gan / 3, rel=1e-12)
    assert masked.p_gan == pytest.approx(2 * c.p_g, rel=1e-12)
    # restorer terms are untouched by the generator policy
    assert masked.flops_dnet == full.flops_dnet


def test_no_replay_cost_at_first_stage():
    rep = appendix_costs(_constants(), [100])
    assert rep.flops_replay == 0.0
    assert rep.t_replay == 0.0
    rep2 = appendix_costs(_constants(), [100, 50])
    assert rep2.per_stage_flops_replay == [0.0, 50 * _constants().f_r]


def test_deltas_length_checked():
    with pytest.raises(DomainError):
        appendix_costs(_constants(), [10, 10], deltas=[1])


def test_constants_domain():
    with pytest.raises(DomainError):
        _constants(b_g=0.0)
    with pytest.raises(DomainError):
        _constants(t_r=-1.0)


# ---------------------------------------------------------------------------
# replay-call accounting
# ---------------------------------------------------------------------------


def test_naive_cost():
    assert replay_cost_naive([100] * 6) == 500
    assert replay_cost_naive([7]) == 0
    assert replay_cost_naive([3, 9, 5]) == 14


def test_reference_reuse_example():
    # six equal stages of 100: 100 + 50 + 34 + 25 + 19 = 228 reuse calls
    counted = replay_cost_reuse_counted([100] * 6)
    assert abs(counted - 228) <= 5
    assert counted < 0.5 * replay_cost_naive([100] * 6)


def test_closed_form_equal_sizes_exact():
    # with equal sizes the closed form telescopes to M * H_{N-1}
    m, n = 60, 5
    expected = m * sum(1.0 / k for k in range(1, n))
    assert replay_cost_reuse_closed([m] * n) == pytest.approx(expected, rel=1e-12)


def test_counted_matches_closed_for_divisible_sizes():
    # sizes chosen so every even split is exact: no rounding slack at all
    sizes = [840] * 8  # 840 divisible by 1..7
    assert replay_cost_reuse_counted(sizes) == \
        pytest.approx(replay_cost_reuse_closed(sizes), abs=1e-9)


def test_counted_within_rounding_slack_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 17))
        sizes = [int(rng.integers(1, 400)) for _ in range(n)]
        counted = replay_cost_reuse_counted(sizes)
        closed = replay_cost_reuse_closed(sizes)
        retained = replay_cost_reuse_retained(sizes)
        # exact against the retention-aware closed form; the plain closed form
        # overestimates shrink-then-grow streams (retained surplus is free)
        assert abs(counted - retained) <= rounding_slack(n)
        assert counted <= closed + rounding_slack(n)
        assert counted <= replay_cost_naive(sizes)


def test_retained_equals_closed_for_monotone_requirements():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        # constant-size streams have nonincreasing per-slot requirements
        sizes = [int(rng.integers(10, 300))] * n
        assert replay_cost_reuse_retained(sizes) == \
            pytest.approx(replay_cost_reuse_closed(sizes), rel=1e-12)


def test_decreasing_sizes_only_new_slot_costs():
    # shrinking stream: cached slots always oversupply, only new slots fill
    sizes = [100, 90, 60, 30]
    counted = replay_cost_reuse_counted(sizes)
    assert counted == 90 + 30 + 10  # stage-2 build, then new-slot shares


def test_harmonic_bound_equal_sizes():
    for n in (4, 8, 16, 32, 64):
        cost = replay_cost_reuse_counted([100] * n)
        assert cost / 100 <= math.log(n - 1) + 2


def test_verify_log_bound():
    ok, worst, ratios = verify_log_bound(100, max_stages=64)
    assert ok
    assert worst <= 1.1
    assert set(ratios) == set(range(4, 65))


def test_rounding_slack_formula():
    assert rounding_slack(2) == 1
    assert rounding_slack(5) == 1 + 2 + 3 + 4
