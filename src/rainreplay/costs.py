"""Symbolic cost accounting for the full framework and empirical verification
of the harmonic replay-cost bound.

These are model evaluations, not wall-clock measurements: the formulas are
exact in their symbolic constants, and the reuse cost is cross-checked against
an actual call counter from the replay cache simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .memgen import even_split


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class CostConstants:
    """Per-component symbolic constants (all strictly positive).

    Generator: parameters, epochs, batch size, per-batch training FLOPs/time.
    Replay: per-sample FLOPs/time. Restorer: same structure as the generator.
    """

    p_g: float
    e_g: float
    b_g: float
    f_g_train: float
    t_g_train: float
    f_r: float
    t_r: float
    p_d: float
    e_d: float
    b_d: float
    f_d_train: float
    t_d_train: float

    def __post_init__(self):
        for name, val in vars(self).items():
            if val <= 0:
                raise DomainError(f"constant {name} must be > 0, got {val}")


@dataclass
class CostReport:
    per_stage_flops_gan: list
    per_stage_t_gan: list
    per_stage_flops_replay: list
    per_stage_t_replay: list
    per_stage_flops_dnet: list
    per_stage_t_dnet: list
    p_gan: float
    p_dnet: float

    @property
    def flops_gan(self):
        return sum(self.per_stage_flops_gan)

    @property
    def t_gan(self):
        return sum(self.per_stage_t_gan)

    @property
    def flops_replay(self):
        return sum(self.per_stage_flops_replay)

    @property
    def t_replay(self):
        return sum(self.per_stage_t_replay)

    @property
    def flops_dnet(self):
        return sum(self.per_stage_flops_dnet)

    @property
    def t_dnet(self):
        return sum(self.per_stage_t_dnet)


def appendix_costs(constants: CostConstants, sizes, deltas=None) -> CostReport:
    """Evaluate the per-stage and total symbolic cost formulas.

    deltas are the per-stage generator-training indicators; a 0 zeroes that
    stage's generator-training terms and its parameter contribution.
    """
    n = len(sizes)
    if deltas is None:
        deltas = [1] * n
    if len(deltas) != n:
        raise DomainError("deltas must match sizes in length")
    c = constants
    fg, tg, fr, tr, fd, td = [], [], [], [], [], []
    for stage, m in enumerate(sizes, start=1):
        d = deltas[stage - 1]
        fg.append(d * c.e_g * (m / c.b_g) * c.f_g_train)
        tg.append(d * c.e_g * (m / c.b_g) * c.t_g_train)
        replay_m = m if stage >= 2 else 0  # no replay at the first stage
        fr.append(replay_m * c.f_r)
        tr.append(replay_m * c.t_r)
        fd.append(c.e_d * (m / c.b_d) * c.f_d_train)
        td.append(c.e_d * (m / c.b_d) * c.t_d_train)
    return CostReport(
        per_stage_flops_gan=fg, per_stage_t_gan=tg,
        per_stage_flops_replay=fr, per_stage_t_replay=tr,
        per_stage_flops_dnet=fd, per_stage_t_dnet=td,
        p_gan=sum(deltas) * c.p_g, p_dnet=c.p_d,
    )


def replay_cost_naive(sizes) -> int:
    """Total sampler calls without reuse: every stage regenerates its full
    replay set."""
    return sum(sizes[1:])


def replay_cost_reuse_closed(sizes) -> float:
    """Closed-form reuse cost with real-valued even splits:
    sum over stages of (n-2) * max(0, M_n/(n-1) - M_{n-1}/(n-2)) + M_n/(n-1)."""
    total = 0.0
    for n in range(2, len(sizes) + 1):
        m_n = sizes[n - 1]
        r = m_n / (n - 1)
        if n == 2:
            total += r
        else:
            c_prev = sizes[n - 2] / (n - 2)
            total += (n - 2) * max(0.0, r - c_prev) + r
    return total


def replay_cost_reuse_counted(sizes) -> int:
    """Integer-split cache simulation: exactly the calls the replay cache makes
    (surplus cached samples are retained across stages)."""
    cached = []
    total = 0
    for n in range(2, len(sizes) + 1):
        required = even_split(sizes[n - 1], n - 1)
        cached.append(0)  # slot for the newly introduced generator
        for i, r in enumerate(required):
            delta = max(0, r - cached[i])
            total += delta
            cached[i] += delta
    return total


def harmonic_bound(m: float, n_stages: int) -> float:
    """Bound M * (ln(N-1) + 1) on the reuse cost for equal-size streams."""
    if n_stages < 2:
        return float(m)
    return m * (math.log(n_stages - 1) + 1.0)


def verify_log_bound(m: int, max_stages: int = 64, tolerance: float = 1.1):
    """Check that the reuse cost stays within tolerance of the harmonic bound
    for equal-size streams of every length 4..max_stages.

    Returns (passed, worst_ratio, per-N ratios)."""
    ratios = {}
    for n in range(4, max_stages + 1):
        cost = replay_cost_reuse_counted([m] * n)
        ratios[n] = cost / harmonic_bound(m, n)
    worst = max(ratios.values())
    return worst <= tolerance, worst, ratios
