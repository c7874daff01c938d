"""First-passage-under-restart analytics.

Composes an underlying process with a restart specification and computes
the restarted hitting time's PGF, hitting probability, mean, and the
beneficial-restart criteria for the geometric and sharp families.

Every renewal sum comes from the restart law's ``renewal`` method: closed
forms on the model's PGF for geometric restart, else finite sums up to the
clock's last epoch, whose flat tail of residual mass, if any, closes on the
model's PGF and mean; the exact law is the clock's ``closed_form_law`` (sharp)
or else divides the series of ``renewal_terms``.
The renewal denominator is accumulated from nonnegative terms rather than
as "1 minus a sum", so it stays accurate even when the straightforward form
would cancel catastrophically, and it is exactly 0 only for a preemptive
pair.  Closed-form means come from the restart law's ``closed_form_mean``.
Each formula reads its parameters by building the model or clock they belong to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .series import AT_INFINITY, TRUNCATION, TruncatedPMF, _check_z, _fsum, _index, series_divide
from .models import BiasedWalk, CycleTrap, GeometricRestart, ProcessModel, RestartSpec, SharpRestart

# Classification labels for sharp restart on the cycle trap.
BENEFICIAL = "beneficial"
EQUAL = "equal"
WORSE = "worse"
PREEMPTIVE = "preemptive"

# Default search grid when scanning for a beneficial geometric rate:
# beneficial windows can hug either endpoint, so the grid is log-spaced
# and reaches close to both 0 and 1.
RHO_GRID_POINTS = 400
RHO_GRID_LO = 1e-4
RHO_GRID_HI = 1.0 - 1e-4


@dataclass(frozen=True)
class FpurReport:
    """Summary of one (process, restart) composition."""

    hit_prob: float
    mean_T: float
    p_restart_wins: float
    expected_restarts: float
    preemptive: bool


def _at_one(model: ProcessModel, spec: RestartSpec) -> tuple[float, float, float, float]:
    """(P(T < infinity), P(R <= U), E[T], d = P(R > U)) from one renewal
    call at z = 1.  E[T] = E[min(U, R)] / d when T surely hits, else
    infinity.  d adds N(1) = sum u(n) P(R > n) to the mass on which
    neither clock ever fires, both nonnegative, so it is 0 exactly when R
    always fires first: the pair is preemptive and never hits."""
    nu, _, head = spec.renewal(model, 1.0)
    d = (1.0 - model.hit_prob()) * (1.0 - spec.hit_prob()) + nu
    if d == 0.0:
        return 0.0, 1.0, math.inf, d
    hit = nu / d
    return hit, max(0.0, 1.0 - d), head / d if hit == 1.0 else math.inf, d


def p_restart_wins(model: ProcessModel, spec: RestartSpec) -> float:
    """P(R <= U), the probability a restart epoch arrives no later than the
    underlying first passage; 1 minus this is the renewal denominator."""
    return _at_one(model, spec)[1]


def hitting_prob_T(model: ProcessModel, spec: RestartSpec) -> float:
    """P(T < infinity) for the restarted process; 0 for preemptive pairs."""
    return _at_one(model, spec)[0]


def fpur_pgf(model: ProcessModel, spec: RestartSpec, z: float) -> float:
    """PGF of the restarted hitting time from the restart law's renewal sums.

    Numerator: sum_n z^n u(n) P(R > n).  Denominator: 1 - sum_i z^i r(i)
    P(U >= i).  At z=1 this reduces to (and is answered by) hitting_prob_T.
    """
    _check_z(z)
    if z == 1.0:
        return hitting_prob_T(model, spec)
    numerator, wins, _ = spec.renewal(model, z)
    return numerator / (1.0 - wins)


def fpur_pmf(model: ProcessModel, spec: RestartSpec, t_max: int) -> TruncatedPMF:
    """Mass function of the restarted hitting time on 0..t_max.

    The restart law's ``closed_form_law`` where it has one (sharp), else
    the formal power-series division of the numerator terms u(n) P(R > n)
    by delta(n=0) - r(n) P(U >= n), both from ``spec.renewal_terms``; below
    U's smallest support point the law is all zeros.
    """
    t_max = _index(t_max, "t_max must be an integer >= 0", 0)
    law, total = spec.closed_form_law(model, t_max), None
    if law is None:
        num, wins, _ = spec.renewal_terms(model, t_max)
        den = -wins[: t_max + 1]
        den[0] = 1.0
        quot = series_divide(num[: t_max + 1], den, t_max)
        # One sum of the quotient sets its residual and is its mass check.
        total = _fsum(quot)
        law = quot, max(0.0, 1.0 - total)
    # The tag's renewal sums read a prefix of the U masses held for the law.
    kind = AT_INFINITY if _at_one(model, spec)[0] < 1.0 else TRUNCATION
    return TruncatedPMF._summed(*law, kind, total)


def mean_T_generic(model: ProcessModel, spec: RestartSpec, t_max: int | None = None) -> float:
    """E[T] by the renewal identity E[min(U, R)] / P(R > U), both from the
    restart law's renewal sums.  Returns infinity for preemptive pairs and
    whenever the restarted process is defective.  ``t_max`` is ignored.
    """
    return _at_one(model, spec)[2]


def mean_T(model: ProcessModel, spec: RestartSpec) -> float:
    """E[T] by the family's closed form where one exists (geometric,
    sharp), else by the renewal identity of :func:`mean_T_generic`."""
    closed = spec.closed_form_mean(model)
    return mean_T_generic(model, spec) if closed is None else closed


def mean_T_geometric(model: ProcessModel, rho: float) -> float:
    """E[T] under geometric restart: (1 - u~(1-rho)) / (rho u~(1-rho))."""
    return GeometricRestart(rho).closed_form_mean(model)


def mean_T_sharp(model: ProcessModel, n_restart: int) -> float:
    """E[T] under sharp restart at N via partial sums:
    (sum_{n<N} n u(n) + N P(U > N-1)) / P(U <= N-1); infinity if preemptive."""
    return SharpRestart(n_restart).closed_form_mean(model)


def cycle_trap_sharp_mean(p: float, L: int, M: int, n_restart: int) -> float:
    """Closed-form E[T] for the cycle trap under sharp restart at N."""
    trap, n = CycleTrap(p, L, M), SharpRestart(n_restart).n_restart
    p, L, M, q = trap.p, trap.L, trap.M, trap.q
    if n <= L:
        return math.inf
    k = (n - 1 - L) // (M + 1)
    q_hi = q ** (k + 1)
    bracket = k * q_hi - (k + 1) * q**k + 1.0
    return L + (q_hi * n + (q / p) * (M + 1) * bracket) / (1.0 - q_hi)


def cycle_trap_sharp_drop(p: float, L: int, M: int, a: int) -> float:
    """E[T](N) - E[T](N+1) for the cycle trap under sharp restart at the
    support point N = L + a(M+1), a >= 1, where the passage through a
    cycles starts to beat the epoch:
    q^a [p L + q M (1 - q^a)] / ((1 - q^a)(1 - q^(a+1)))."""
    trap, a = CycleTrap(p, L, M), _index(a, "a must be an integer >= 1", 1)
    p, L, M, q = trap.p, trap.L, trap.M, trap.q
    q_a = q**a
    return q_a * (p * L + q * M * (1.0 - q_a)) / ((1.0 - q_a) * (1.0 - q_a * q))


def derivative_criterion_D(model: ProcessModel) -> float:
    """(2 E[U]^2 - u~''(1)) / 2; negative values guarantee a beneficial
    low-rate geometric window.  Inapplicable to defective or infinite-moment
    processes."""
    if model.hit_prob() < 1.0:
        raise ValueError("criterion requires a process that hits with probability 1")
    mean = model.mean()
    sfm = model.second_factorial_moment()
    if not (math.isfinite(mean) and math.isfinite(sfm)):
        raise ValueError("criterion requires finite first and second moments")
    return (2.0 * mean * mean - sfm) / 2.0


def cycle_trap_geometric_threshold(L: int, M: int) -> float:
    """Bias threshold p* below which geometric restart helps the cycle trap.

    Nonpositive (no beneficial interval) whenever M <= 2L; the denominator
    factors as (M-L)(M-L+1), so M in {L-1, L} degenerates to -infinity.
    """
    trap = CycleTrap(1.0, L, M)  # p does not enter
    L, M = trap.L, trap.M
    num = (M + 1) * (M - 2 * L)
    den = num + L * (L + 1)
    if den == 0:
        return -math.inf
    return num / den


def brw_geometric_threshold_p(m: int) -> float:
    """Bias threshold p* below which geometric restart helps the walk."""
    m = BiasedWalk(0.5, m).m  # p does not enter
    return (4.0 - m + math.sqrt(m * m + 8.0)) / 8.0


def brw_geometric_threshold_m(p: float) -> float:
    """Starting-point threshold m* below which geometric restart helps."""
    if not 0.5 < p < 1.0:
        raise ValueError("threshold is defined only for downward bias p > 1/2")
    return (8.0 * p * (1.0 - p) - 1.0) / (2.0 * p - 1.0)


def cycle_trap_sharp_classify(L: int, M: int, n_restart: int) -> str:
    """Classify sharp restart at N on the cycle trap against no restart.

    The sign of (N-1-M) - (M+1) floor((N-1-L)/(M+1)) decides, independent
    of the bias p.
    """
    trap, n = CycleTrap(1.0, L, M), SharpRestart(n_restart).n_restart  # p does not enter
    L, M = trap.L, trap.M
    if n <= L:
        return PREEMPTIVE
    sign = (n - 1 - M) - (M + 1) * ((n - 1 - L) // (M + 1))
    if sign > 0:
        return WORSE
    if sign == 0:
        return EQUAL
    return BENEFICIAL


def brw_geometric_mean(p: float, m: int, rho: float) -> float:
    """Closed-form E[T] = (b^m - 1) / rho for the biased walk under geometric
    restart, b = (1 + root) / (2px) with root = sqrt(1 - 4pqx^2), x = 1 - rho."""
    walk, rho = BiasedWalk(p, m), GeometricRestart(rho).rho
    p, m, x = walk.p, walk.m, 1.0 - rho
    # b - 1 = (d + root) / (2px) with d = 1 - 2px, which cancels where d < 0;
    # there (d + root)(root - d) = 4px rho gives b - 1 = 2 rho / (root - d).
    # 2px rounding to 0 is an overflow too.
    root = math.sqrt(1.0 - 4.0 * p * (1.0 - p) * x * x)
    d = 1.0 - 2.0 * p * x
    try:
        return math.expm1(m * math.log1p(2.0 * rho / (root - d) if d < 0.0 else (d + root) / (2.0 * p * x))) / rho
    except (OverflowError, ZeroDivisionError):
        return math.inf


def default_rho_grid() -> np.ndarray:
    """Log-spaced restart-rate grid used when scanning for beneficial rates."""
    return np.geomspace(RHO_GRID_LO, RHO_GRID_HI, RHO_GRID_POINTS)


def best_geometric_rho(model: ProcessModel, grid=None) -> tuple[float, float]:
    """Grid-minimize the geometric-restart mean; returns (rho, mean)."""
    if grid is None:
        grid = default_rho_grid()
    best = (math.nan, math.inf)
    for rho in grid:
        value = mean_T_geometric(model, float(rho))
        if value < best[1]:
            best = (float(rho), value)
    return best


def analyze(model: ProcessModel, spec: RestartSpec) -> FpurReport:
    """Full report for one (process, restart) pair; its mean is the one
    :func:`mean_T` picks."""
    hit, wins, mean, d = _at_one(model, spec)
    closed = spec.closed_form_mean(model)
    return FpurReport(
        hit_prob=hit,
        mean_T=mean if closed is None else closed,
        p_restart_wins=wins,
        expected_restarts=math.inf if d == 0.0 else wins / d,
        preemptive=d == 0.0,
    )
