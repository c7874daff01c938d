"""Restart composition analytics: renewal identities, closed forms,
beneficial-restart criteria."""

import decimal
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartfp import (
    AT_INFINITY,
    BENEFICIAL,
    EQUAL,
    PREEMPTIVE,
    TRUNCATION,
    WORSE,
    BiasedWalk,
    CycleTrap,
    ExplicitProcess,
    ExplicitRestart,
    GeometricRestart,
    ProcessModel,
    RestartSpec,
    SharpRestart,
    SimConfig,
    TruncatedPMF,
    TwoPoint,
    analyze,
    best_geometric_rho,
    brw_geometric_mean,
    brw_geometric_threshold_m,
    brw_geometric_threshold_p,
    cycle_trap_geometric_threshold,
    cycle_trap_sharp_classify,
    cycle_trap_sharp_drop,
    cycle_trap_sharp_mean,
    default_rho_grid,
    derivative_criterion_D,
    fpur,
    fpur_pgf,
    fpur_pmf,
    hitting_prob_T,
    mean_T,
    mean_T_generic,
    mean_T_geometric,
    mean_T_sharp,
    models,
    p_restart_wins,
    series_divide,
    simulate_fpur,
)
import exact_laws
from conftest import assert_generator_moments, random_explicit_pair, sums_of

TP_FAST = TwoPoint(1, 0.75, 20)
TP_SLOW = TwoPoint(1, 0.25, 20)


def defective_pair():
    u = ExplicitProcess(
        TruncatedPMF.from_masses({1: 0.5}, residual=0.5, residual_kind=AT_INFINITY)
    )
    r = ExplicitRestart(
        TruncatedPMF.from_masses({2: 0.5}, residual=0.5, residual_kind=AT_INFINITY)
    )
    return u, r


class TestRestartWinsProbability:
    def test_preemptive_sharp(self):
        assert p_restart_wins(CycleTrap(0.25, 7, 5), SharpRestart(7)) == 1.0
        assert p_restart_wins(CycleTrap(0.25, 7, 5), SharpRestart(3)) == 1.0

    def test_sharp_one_path_short_of_restart(self):
        value = p_restart_wins(CycleTrap(0.25, 7, 5), SharpRestart(8))
        assert value == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize(
        "model", [CycleTrap(0.5, 2, 4), BiasedWalk(0.3, 1), TP_FAST], ids=lambda m: m.describe()
    )
    def test_geometric_is_never_preemptive(self, model, rho):
        assert p_restart_wins(model, GeometricRestart(rho)) < 1.0


class TestHittingProbability:
    def test_proper_restart_forces_hit(self):
        assert hitting_prob_T(BiasedWalk(0.3, 1), GeometricRestart(0.2)) == 1.0

    def test_preemptive_is_zero(self):
        assert hitting_prob_T(CycleTrap(0.5, 4, 2), SharpRestart(4)) == 0.0

    def test_doubly_defective_pair(self):
        u, r = defective_pair()
        # One renewal round: win 0.5, restart 0.25, stuck forever 0.25.
        renewal = 0.5 / (1 - 0.25)
        assert hitting_prob_T(u, r) == pytest.approx(renewal, abs=1e-12)


class TestFpurPgf:
    PAIRS = [
        (TP_FAST, GeometricRestart(0.1)),
        (CycleTrap(0.25, 5, 10), SharpRestart(8)),
        (BiasedWalk(0.3, 1), GeometricRestart(0.5)),
        defective_pair(),
        (CycleTrap(0.5, 4, 2), SharpRestart(4)),
    ]

    @pytest.mark.parametrize("model,spec", PAIRS)
    def test_at_one_equals_hitting_probability(self, model, spec):
        assert fpur_pgf(model, spec, 1.0) == hitting_prob_T(model, spec)

    @pytest.mark.parametrize("z", [0.5, 0.9])
    def test_two_point_geometric_closed_form(self, z):
        rho = 0.1
        x = (1 - rho) * z
        u_tilde = TP_FAST.pgf(x)
        closed = u_tilde / (1 - rho * z * (1 - u_tilde) / (1 - x))
        assert fpur_pgf(TP_FAST, GeometricRestart(rho), z) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("z", [0.3, 0.5, 0.9])
    def test_cycle_trap_sharp_closed_form(self, z):
        trap = CycleTrap(0.25, 5, 10)
        n_restart = 8
        mass_below = 0.25  # only the direct path is shorter than 8
        closed = 0.25 * z**5 / (1 - z**8 * (1 - mass_below))
        assert fpur_pgf(trap, SharpRestart(n_restart), z) == pytest.approx(closed, abs=1e-10)

    def test_preemptive_at_one_is_zero(self):
        assert fpur_pgf(CycleTrap(0.5, 4, 2), SharpRestart(4), 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            fpur_pgf(TP_FAST, GeometricRestart(0.1), 1.2)


class TestFpurPmf:
    def test_trap_sharp_renewal_law(self):
        dist = fpur_pmf(CycleTrap(0.25, 5, 10), SharpRestart(8), 61)
        # Each round: hit at 5 with prob 0.25, else restart after 8 steps.
        for k in range(7):
            assert dist.coefficients[5 + 8 * k] == pytest.approx(0.25 * 0.75**k, rel=1e-12)
        mask = np.ones(62, dtype=bool)
        mask[5:62:8] = False
        assert np.all(dist.coefficients[mask] == 0.0)
        assert dist.residual_kind == TRUNCATION
        assert dist.residual == pytest.approx(0.75**8, rel=1e-9)

    @pytest.mark.parametrize("z", [0.3, 0.9])
    def test_matches_pgf_route(self, z):
        model, spec = TP_FAST, GeometricRestart(0.1)
        dist = fpur_pmf(model, spec, 400)
        assert dist.evaluate(z) == pytest.approx(fpur_pgf(model, spec, z), abs=1e-10)

    def test_mean_matches_closed_form(self):
        dist = fpur_pmf(TP_FAST, GeometricRestart(0.1), 600)
        assert dist.mean() == pytest.approx(mean_T_geometric(TP_FAST, 0.1), rel=1e-9)

    def test_preemptive_all_mass_at_infinity(self):
        dist = fpur_pmf(CycleTrap(0.25, 7, 5), SharpRestart(6), 50)
        assert np.all(dist.coefficients == 0.0)
        assert dist.residual == 1.0
        assert dist.residual_kind == AT_INFINITY

    def test_defective_pair_tagged_at_infinity(self):
        u, r = defective_pair()
        dist = fpur_pmf(u, r, 200)
        assert dist.residual_kind == AT_INFINITY
        assert dist.cumulative(200) == pytest.approx(2 / 3, abs=1e-9)

    def test_divided_law_keeps_the_quotient(self, monkeypatch):
        # The law holds the array series_divide built, read-only, not a copy.
        built = []
        divide = fpur.series_divide
        monkeypatch.setattr(fpur, "series_divide", lambda *args: built.append(divide(*args)) or built[-1])
        dist = fpur_pmf(TP_FAST, GeometricRestart(0.1), 400)
        assert len(built) == 1 and dist.coefficients is built[0]
        assert not dist.coefficients.flags.writeable


TRAP, WALK = CycleTrap(0.75, 2, 14), BiasedWalk(0.55, 3)

# Laws long enough that the series division runs many blocks: the 16k-step
# cycle trap and the 8k-step walk under both restart families.
LONG_LAWS = [
    pytest.param(TRAP, GeometricRestart(0.2), 16000, lambda: mean_T_geometric(TRAP, 0.2), id="trap-geometric"),
    pytest.param(TRAP, SharpRestart(13), 16000, lambda: cycle_trap_sharp_mean(0.75, 2, 14, 13), id="trap-sharp"),
    pytest.param(WALK, GeometricRestart(0.02), 8000, lambda: mean_T_geometric(WALK, 0.02), id="walk-geometric"),
    pytest.param(WALK, SharpRestart(21), 8000, lambda: mean_T_sharp(WALK, 21), id="walk-sharp"),
]


class TestLongFpurPmf:
    @pytest.mark.parametrize("model, spec, t_max, reference", LONG_LAWS)
    def test_mean_and_mass(self, model, spec, t_max, reference):
        dist = fpur_pmf(model, spec, t_max)
        assert dist.t_max == t_max
        assert math.fsum(dist.coefficients) + dist.residual == pytest.approx(1.0, abs=1e-9)
        assert dist.mean() == pytest.approx(reference(), rel=1e-9)

    @pytest.mark.parametrize("model, spec, t_max, reference", LONG_LAWS)
    def test_moments_equal_generator_form(self, model, spec, t_max, reference):
        assert_generator_moments(fpur_pmf(model, spec, t_max))

    def test_walk_pmf_moments_equal_generator_form(self):
        assert_generator_moments(BiasedWalk(0.55, 3).pmf(3000))

    @pytest.mark.parametrize(
        "model, spec, t_max",
        [
            (WALK, GeometricRestart(0.1), 2000),
            (TRAP, GeometricRestart(0.15), 4000),
            (BiasedWalk(0.8, 3), ExplicitRestart(TruncatedPMF.from_masses({3: 0.5, 12: 0.5})), 300),
            (BiasedWalk(0.8, 3), ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75)), 300),
            (TRAP, SharpRestart(13), 4000),
            (TP_SLOW, GeometricRestart(0.1), 2000),
            (ExplicitProcess(TruncatedPMF.from_masses({1: 0.125, 3: 0.375, 4: 0.0625, 9: 0.4375})),
             GeometricRestart(0.2), 1000),
        ],
        ids=["walk-geometric", "trap-geometric", "walk-explicit", "walk-leaky", "trap-sharp", "two-point-geometric",
             "explicit-geometric"],
    )
    def test_law_is_summed_once(self, model, spec, t_max, fsum_calls):
        # One fsum sets a divided law's residual and is its mass check; a
        # sharp law's residual comes from the cycle, so its one sum is the check.
        dist = fpur_pmf(model, spec, t_max)
        assert sums_of(fsum_calls, dist.coefficients) == 1
        if not isinstance(spec, SharpRestart):
            assert dist.residual == max(0.0, 1.0 - math.fsum(dist.coefficients.tolist()))


# Dyadic masses: their exact sum is 1, so the explicit process is proper in
# exact arithmetic too.
EXPLICIT_DYADIC = ExplicitProcess(TruncatedPMF.from_masses({1: 0.125, 3: 0.375, 4: 0.0625, 9: 0.4375}))
RATIONAL_MODELS = [CycleTrap(0.25, 5, 10), TRAP, TwoPoint(3, 0.4, 9), TP_SLOW, EXPLICIT_DYADIC]


def dense_law(model, spec, t_max):
    """The law divided from the default series of ``renewal_terms``."""
    return series_divide(*RestartSpec.law_series(spec, model, t_max), t_max)


class TestRationalGeometricLaw:
    """Geometric laws of models whose PGF is rational divide a short
    denominator, never the t_max-long one of ``renewal_terms``."""

    @pytest.mark.parametrize("model", RATIONAL_MODELS, ids=lambda m: m.describe())
    def test_never_expands(self, model, monkeypatch):
        def refuse(self, t_max=None):
            raise AssertionError("the law expanded the underlying PMF")

        monkeypatch.setattr(type(model), "pmf", refuse)
        monkeypatch.setattr(RestartSpec, "renewal_terms", refuse)
        law = fpur_pmf(model, GeometricRestart(0.1), 3000)
        assert law.residual_kind == TRUNCATION
        assert law.mean() == pytest.approx(mean_T_geometric(model, 0.1), rel=1e-9)

    @pytest.mark.parametrize("model", RATIONAL_MODELS, ids=lambda m: m.describe())
    def test_short_denominator(self, model):
        # max(deg P, deg D) + 1 terms: Q_0 = 1, every other term <= 0.
        poly, den = model.rational_pgf()
        num, short = GeometricRestart(0.1).law_series(model, 3000)
        assert den[0] == 1.0
        assert num.size == short.size == max(poly.size, den.size)
        assert short[0] == 1.0 and np.all(short[1:] <= 0.0)

    @pytest.mark.parametrize("model", RATIONAL_MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize("t_max", [0, 5, 400])
    def test_agrees_with_the_dense_route(self, model, t_max):
        # The same law as the renewal terms' dense series: zeros where it has
        # them, and the rest within the two routes' error budgets
        # (TestGeometricLawOracle).
        spec = GeometricRestart(0.1)
        got, want = fpur_pmf(model, spec, t_max).coefficients, dense_law(model, spec, t_max)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert got == pytest.approx(want, rel=(t_max + 1) * 2**-52, abs=0.0)

    @pytest.mark.parametrize(
        "model",
        [WALK, ExplicitProcess(TruncatedPMF.from_masses({2: 0.5, 7: 0.25}, residual=0.25, residual_kind=AT_INFINITY))],
        ids=lambda m: m.describe(),
    )
    def test_other_models_divide_renewal_terms(self, model, monkeypatch):
        # The walk's PGF is algebraic, and a process with mass at infinity
        # states none: both divide the renewal terms' dense series.
        horizons = []
        terms = RestartSpec.renewal_terms

        def record(self, model, t_max=None):
            horizons.append(t_max)
            return terms(self, model, t_max)

        monkeypatch.setattr(RestartSpec, "renewal_terms", record)
        spec = GeometricRestart(0.1)
        law = fpur_pmf(model, spec, 300)
        assert horizons == [300]
        assert law.coefficients.tobytes() == dense_law(model, spec, 300).tobytes()

    def test_trap_ratio_converges_to_the_root_of_q(self):
        # Q has Q(0) = 1 and every other coefficient <= 0, so it falls on
        # z > 0 and has one positive root z*, a simple pole of T(z): the
        # law's coefficient ratio P(T = n) / P(T = n + 1) tends to z*.
        trap, rho = TRAP, 0.15
        p, q, L, M, x = trap.p, trap.q, trap.L, trap.M, 1.0 - rho

        def short(z):
            w = x * z
            tail = p * sum(w**k for k in range(L)) + q * sum(w**k for k in range(M + 1))
            return 1.0 - q * w ** (M + 1) - rho * z * tail

        lo, hi = 1.0, 2.0
        assert short(lo) > 0.0 > short(hi)
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if short(mid) > 0.0 else (lo, mid)
        assert lo == pytest.approx(1.15191479929863, rel=1e-14)
        law = fpur_pmf(trap, GeometricRestart(rho), 2000).coefficients
        assert law[1000:2000] / law[1001:2001] == pytest.approx(np.full(1000, lo), rel=1e-12)


# Oracle pairs, each law checked to n = 2500 against exact_laws.
ORACLE_PAIRS = [(TRAP, 0.15), (CycleTrap(0.25, 5, 10), 0.2), (TP_SLOW, 0.1), (EXPLICIT_DYADIC, 0.2)]
# |err| <= 2**-1074 + ORACLE_GEOMETRIC_R (n + 1) 2**-53 |exact|.  The worst
# ratio was 0.112 (trap (0.75, 2, 14), rho 0.15), 0.060 (trap (0.25, 5, 10),
# rho 0.2), 0.204 (two-point) and 0.458 (explicit); the dense route's, which
# rounds 1 - rho to a double, was 0.679, 0.557, 0.305 and 0.887, and its
# error at n = 2500 was 8.9, 36, 49 and 270 times this route's.
ORACLE_GEOMETRIC_R = 0.5


class TestGeometricLawOracle:
    @pytest.mark.parametrize("model, rho", ORACLE_PAIRS, ids=lambda v: getattr(v, "describe", lambda: str(v))())
    def test_within_budget_and_no_worse_than_dense(self, model, rho):
        exact = exact_laws.geometric_law(model, rho, 2500)
        spec = GeometricRestart(rho)
        short = exact_laws.errors(fpur_pmf(model, spec, 2500).coefficients, exact)
        dense = exact_laws.errors(dense_law(model, spec, 2500), exact)
        assert exact_laws.budget_ratio(short, exact) <= ORACLE_GEOMETRIC_R
        assert all(a <= b for a, b in zip(short, dense))


class TestMeanGeneric:
    def test_small_rate_limit(self):
        assert mean_T_generic(TP_FAST, GeometricRestart(1e-6)) == pytest.approx(5.75, rel=1e-3)

    def test_defective_walk_with_geometric(self):
        value = mean_T_generic(BiasedWalk(0.3, 1), GeometricRestart(0.2))
        assert value == pytest.approx(12.5, rel=1e-9)

    def test_preemptive_is_infinite(self):
        assert mean_T_generic(CycleTrap(0.5, 4, 2), SharpRestart(4)) == math.inf

    def test_defective_restarted_process_is_infinite(self):
        u, r = defective_pair()
        assert mean_T_generic(u, r) == math.inf

    def test_matches_sharp_closed_form(self):
        trap = CycleTrap(0.25, 7, 5)
        assert mean_T_generic(trap, SharpRestart(8)) == pytest.approx(31.0, rel=1e-9)

    def test_explicit_restart_route(self):
        # Sharp restart rebuilt as an explicit clock must agree with the
        # analytic-tail routes.
        trap = CycleTrap(0.25, 7, 5)
        sharp_as_pmf = ExplicitRestart(TruncatedPMF.from_masses({8: 1.0}))
        assert mean_T_generic(trap, sharp_as_pmf) == pytest.approx(31.0, rel=1e-9)

    def test_equals_conditional_decomposition(self):
        # E[T] = E[U | R>U] + (p_r/(1-p_r)) E[R | R<=U] on random pairs.
        rng = np.random.default_rng(20260814)
        for trial in range(20):
            model, spec = random_explicit_pair(
                rng, u_proper=bool(trial % 2), r_proper=True
            )
            u = model.pmf()
            surv_r = np.array([spec.survival(n) for n in range(u.t_max + 1)])
            nu = math.fsum(u.coefficients * surv_r)
            win_time = math.fsum(np.arange(u.t_max + 1) * u.coefficients * surv_r)
            r_arr = spec.pmf_array(spec.dist.t_max)
            lose_time = math.fsum(
                i * r_arr[i] * u.survival(i - 1) for i in range(1, r_arr.size)
            )
            p_r = 1.0 - nu
            decomposition = win_time / nu + (p_r / nu) * (lose_time / p_r)
            assert mean_T_generic(model, spec) == pytest.approx(decomposition, rel=1e-9)


# The sharp law's closed form against the same clock's division: over the
# normal coefficients |closed - division| <= r (k + 1) 2**-53 |division| at
# t = kN + j, and the residuals within an absolute budget, since the
# division's is 1 - fsum.  Measured worst on TestSharpLaw's pairs: r 1.998
# (BiasedWalk(0.5, 1), N = 2, t = 2000) and 1.1e-15 for the residual
# (BiasedWalk(0.3, 2), N = 3, t = 2000: 4.8e-28 against 1.1e-15).
DIVISION_R, DIVISION_RESIDUAL = 4.0, 4e-15


def assert_division_agrees(model, n_restart, t_max):
    """The sharp law against ExplicitRestart({N: 1}), which still divides:
    the same zero pattern and tag, the mass identity, and the budget above."""
    a = fpur_pmf(model, SharpRestart(n_restart), t_max)
    b = fpur_pmf(model, ExplicitRestart(TruncatedPMF.from_masses({n_restart: 1.0})), t_max)
    assert np.array_equal(a.coefficients != 0.0, b.coefficients != 0.0)
    assert a.residual_kind == b.residual_kind
    assert abs(math.fsum(a.coefficients) + a.residual - 1.0) <= 1e-15
    normal = b.coefficients >= 2.0**-1022
    budget = DIVISION_R * (np.arange(t_max + 1) // n_restart + 1) * 2.0**-53 * b.coefficients
    assert np.all(np.abs(a.coefficients - b.coefficients)[normal] <= budget[normal])
    assert abs(a.residual - b.residual) <= DIVISION_RESIDUAL
    return a


class TestSharpAsExplicitClock:
    """Sharp restart and the explicit clock with all mass at N run the same
    finite-support formulas, so every z-evaluation agrees exactly.  The
    sharp law is closed-form and the explicit one divides, so the laws agree
    within :func:`assert_division_agrees`' budget."""

    @pytest.mark.parametrize(
        "model",
        [CycleTrap(0.25, 5, 10), BiasedWalk(0.55, 3), TwoPoint(3, 0.4, 9)],
        ids=lambda m: m.describe(),
    )
    @pytest.mark.parametrize("n_restart", [2, 4, 8, 13, 30])
    def test_values_identical(self, model, n_restart):
        sharp = SharpRestart(n_restart)
        explicit = ExplicitRestart(TruncatedPMF.from_masses({n_restart: 1.0}))
        for fn in (hitting_prob_T, p_restart_wins, mean_T_generic):
            assert fn(model, sharp) == fn(model, explicit), fn.__name__
        for z in (0.0, 0.4, 0.9, 0.99, 1.0):
            assert fpur_pgf(model, sharp, z) == fpur_pgf(model, explicit, z)
        # Both clocks feed the same renewal series to a law on 0..80; the
        # sharp law closes in form on them, the explicit one divides.
        for a, b in zip(sharp.renewal_terms(model, 80), explicit.renewal_terms(model, 80)):
            assert np.array_equal(a, b)
        assert_division_agrees(model, n_restart, 80)


LEAKY_MODELS = [CycleTrap(0.5, 2, 4), CycleTrap(0.75, 2, 14), TwoPoint(3, 0.4, 9), BiasedWalk(0.8, 3),
                BiasedWalk(0.5, 1), BiasedWalk(0.3, 2)]
LEAKY_CLOCKS = [
    ExplicitRestart(TruncatedPMF.from_masses(masses, residual=residual, residual_kind=kind))
    for masses, residual in (({6: 0.25}, 0.75), ({3: 0.4, 40: 0.2}, 0.4), ({1: 0.25, 3: 0.5}, 0.25))
    for kind in (AT_INFINITY, TRUNCATION)
]

HORIZON_MODELS = [CycleTrap(0.25, 5, 10), BiasedWalk(0.5, 1), BiasedWalk(0.3, 2), TwoPoint(3, 0.4, 9)]


class TestRenewalHorizon:
    """How far each restart family expands the underlying PMF."""

    @pytest.mark.parametrize("model", HORIZON_MODELS, ids=lambda m: m.describe())
    def test_geometric_never_expands(self, model, monkeypatch):
        def refuse(self, t_max=None):
            raise AssertionError("geometric restart expanded the underlying PMF")

        monkeypatch.setattr(type(model), "pmf", refuse)
        spec = GeometricRestart(0.1)
        report = analyze(model, spec)
        assert report.hit_prob == hitting_prob_T(model, spec) == 1.0
        assert report.mean_T == mean_T_geometric(model, 0.1)
        assert 0.0 < fpur_pgf(model, spec, 0.9) < 1.0
        assert 0.0 < p_restart_wins(model, spec) < 1.0
        assert mean_T_generic(model, spec) == pytest.approx(report.mean_T, rel=1e-12)

    @pytest.mark.parametrize("model", HORIZON_MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize("n_restart", [2, 8, 30])
    def test_sharp_expands_to_epoch_minus_one(self, model, n_restart, monkeypatch):
        horizons = []
        pmf = type(model).pmf

        def record(self, t_max=None):
            horizons.append(t_max)
            return pmf(self, t_max)

        monkeypatch.setattr(type(model), "pmf", record)
        spec = SharpRestart(n_restart)
        for fn in (hitting_prob_T, p_restart_wins, mean_T_generic):
            fn(model, spec)
        fpur_pgf(model, spec, 0.9)
        assert horizons == [max(n_restart - 1, model.min_support())] * 4

    def test_fpur_pmf_expands_once(self, prefix_horizons, atom_ranges):
        # The sharp law reads U only to N - 1, however long the law, and the
        # residual tag's renewal sums read the same prefix: one extension,
        # to N - 1 or a block past nothing, whichever is further.
        for n_restart, t_max in ((3000, 3000), (8, 16000)):
            model, spec = BiasedWalk(0.55, 3), SharpRestart(n_restart)
            tag = AT_INFINITY if hitting_prob_T(BiasedWalk(0.55, 3), spec) < 1.0 else TRUNCATION
            prefix_horizons.clear()
            atom_ranges.clear()
            law = fpur_pmf(model, spec, t_max)
            assert prefix_horizons == [n_restart - 1] * 3
            assert atom_ranges == [(0, max(n_restart, models._BLOCK))]
            assert law.residual_kind == tag

    @pytest.mark.parametrize("model", HORIZON_MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize(
        "spec",
        [
            SharpRestart(8),
            SharpRestart(30),
            ExplicitRestart(TruncatedPMF.from_masses({3: 0.5, 9: 0.5})),
            # Spent at 6, six epochs before its last.
            ExplicitRestart(TruncatedPMF(np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5] + [0.0] * 6))),
        ],
        ids=lambda s: s.describe(),
    )
    def test_spent_clock_numerator_sums_to_renewal_n(self, model, spec):
        # fpur_pmf's numerator below the last epoch, once the clock has
        # fired by t_max, is the renewal N(1).
        for t_max in (6, spec.last_epoch(), 100, 1000):
            if spec.survival(t_max) == 0.0:
                num = model.pmf(t_max).coefficients * spec.survival_array(t_max + 1)
                assert math.fsum(num[: spec.last_epoch()]) == spec.renewal(model, 1.0)[0]

    def test_horizon_below_support_is_raised(self):
        # A law horizon below U's smallest support point, 40, reads U to 40,
        # the horizon the clock alone fixes; also for a clock with mass past
        # its last epoch.
        model = BiasedWalk(0.55, 40)
        leaky = ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75, residual_kind=AT_INFINITY))
        for spec in (SharpRestart(10), leaky):
            expected = [terms.tolist() for terms in spec.renewal_terms(model)]
            assert len(expected[0]) == 41
            for t_max in (0, 18, 39):
                assert [terms.tolist() for terms in spec.renewal_terms(model, t_max)] == expected

    @pytest.mark.parametrize(
        "spec, kind", [(SharpRestart(10), AT_INFINITY), (GeometricRestart(0.1), TRUNCATION)], ids=str
    )
    @pytest.mark.parametrize("t_max", [0, 5, 10, 39])
    def test_law_below_support_is_zeros(self, spec, kind, t_max):
        # Nothing hits before U's smallest support point, 40; the sharp
        # pair is preemptive, so its residual is mass at infinity.
        law = fpur_pmf(BiasedWalk(0.55, 40), spec, t_max)
        assert law.coefficients.tolist() == [0.0] * (t_max + 1)
        assert (law.residual, law.residual_kind) == (1.0, kind)

    @pytest.mark.parametrize("spec", [SharpRestart(10), GeometricRestart(0.1)], ids=str)
    def test_negative_law_horizon_is_rejected(self, spec):
        with pytest.raises(ValueError, match="t_max must be an integer >= 0"):
            fpur_pmf(BiasedWalk(0.55, 40), spec, -1)

    @pytest.mark.parametrize(
        "spec, t_max, horizon",
        [
            (SharpRestart(10), None, 40),
            (SharpRestart(10), 5, 40),
            (SharpRestart(60), 5, 59),
            (SharpRestart(60), 100, 100),
            (GeometricRestart(0.1), 5, 40),
            (GeometricRestart(0.1), None, 40),
            (ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75)), None, 40),
            (ExplicitRestart(TruncatedPMF.from_masses({60: 0.25}, residual=0.75)), 5, 59),
        ],
        ids=str,
    )
    def test_renewal_terms_horizon(self, spec, t_max, horizon):
        # The one horizon rule for every clock: the largest of t_max, U's
        # smallest support point and the last epoch minus one.
        model = BiasedWalk(0.55, 40)
        num, wins, heads = spec.renewal_terms(model, t_max)
        assert (num.size, wins.size, heads.size) == (horizon + 1, horizon + 2, horizon + 1)
        u = model.pmf(horizon)
        assert num.tolist() == (u.coefficients * spec.survival_array(horizon + 1)).tolist()
        # renewal reads U at the clock's own horizon; geometric is closed-form.
        if t_max is not None or spec.last_epoch() is None:
            return
        zn = 0.9 ** np.arange(horizon + 2)
        sums = [math.fsum(num * zn[:-1]), math.fsum(wins * zn), math.fsum(heads)]
        s = spec.survival(horizon + 1)
        if s > 0.0:
            # Past h the clock keeps its residual s: N and H add U's rest.
            sums[0] += s * max(0.0, model.pgf(0.9) - math.fsum(u.coefficients * zn[:-1]))
            sums[2] += s * max(0.0, model.mean() - math.fsum(u.survival_array()))
        assert spec.renewal(model, 0.9) == tuple(sums)

    def test_z_evaluations_take_no_horizon(self):
        # Only a law has a length; a z-evaluation reads U as far as the
        # clock fixes.  mean_T_generic's third parameter is accepted and
        # ignored, so a caller that still passes a horizon gets the same value.
        evaluations = [
            RestartSpec.renewal, GeometricRestart.renewal, RestartSpec.closed_form_mean,
            GeometricRestart.closed_form_mean, SharpRestart.closed_form_mean, fpur._at_one, p_restart_wins,
            hitting_prob_T, fpur_pgf, mean_T, mean_T_sharp, analyze,
        ]
        assert [fn.__qualname__ for fn in evaluations if "t_max" in inspect.signature(fn).parameters] == []
        for fn in (fpur_pmf, RestartSpec.renewal_terms, ProcessModel.pmf):
            assert "t_max" in inspect.signature(fn).parameters
        model = BiasedWalk(0.8, 3)
        for n in (2, 3, 60, 120):
            spec = SharpRestart(n)
            assert mean_T_generic(model, spec, max(n, model.min_support())) == mean_T_generic(model, spec)

    @pytest.mark.parametrize("model", LEAKY_MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize("spec", LEAKY_CLOCKS, ids=lambda s: s.describe() + ":" + s.dist.residual_kind)
    def test_leaky_z_one_report_matches_functions(self, model, spec):
        # Every z = 1 result reads the same renewal sums at the clock's own
        # horizon, whose flat tail closes on U's PGF and mean.
        report = analyze(model, spec)
        assert report.hit_prob == hitting_prob_T(model, spec) == fpur_pgf(model, spec, 1.0)
        assert 0.0 <= report.hit_prob <= 1.0
        assert report.p_restart_wins == p_restart_wins(model, spec)
        assert report.mean_T == mean_T(model, spec) == mean_T_generic(model, spec)

    @pytest.mark.parametrize("kind", [AT_INFINITY, TRUNCATION])
    def test_leaky_two_point_example(self, kind):
        # U = 3 w.p. 0.4, else 9; R = 6 w.p. 0.25, else never.
        # P(R <= U) = 0.25 * 0.6, E[min(U, R)] = 1.2 + 0.6 * (1.5 + 6.75).
        model = TwoPoint(3, 0.4, 9)
        spec = ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75, residual_kind=kind))
        assert p_restart_wins(model, spec) == pytest.approx(0.15, rel=1e-15)
        assert mean_T(model, spec) == pytest.approx(6.15 / 0.85, rel=1e-15)
        assert mean_T(model, spec) == pytest.approx(7.2352941176470588, rel=1e-15)

    @pytest.mark.parametrize("kind", [AT_INFINITY, TRUNCATION])
    def test_leaky_critical_walk(self, kind):
        # E[U] is infinite and R never fires w.p. 0.75, so E[T] is too;
        # P(R <= U) = 0.25 P(U > 5) = 0.25 (1 - 1/2 - 1/8 - 1/16).
        model = BiasedWalk(0.5, 1)
        spec = ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75, residual_kind=kind))
        report = analyze(model, spec)
        assert report.mean_T == mean_T_generic(model, spec) == math.inf
        assert report.hit_prob == 1.0
        assert report.p_restart_wins == p_restart_wins(model, spec) == 0.078125

    @pytest.mark.parametrize("model", [BiasedWalk(0.3, 1), BiasedWalk(0.3, 2)], ids=lambda m: m.describe())
    @pytest.mark.parametrize(
        "at_infinity, truncation",
        [pytest.param(a, t, id=a.describe()) for a, t in zip(LEAKY_CLOCKS[::2], LEAKY_CLOCKS[1::2])],
    )
    def test_leaky_clock_tag_is_immaterial_on_a_defective_walk(self, model, at_infinity, truncation):
        # A clock never fires on its residual, whatever its tag, so on a
        # defective U some mass is left on which neither clock fires.
        assert analyze(model, truncation) == analyze(model, at_infinity)
        laws = [fpur_pmf(model, spec, 60) for spec in (truncation, at_infinity)]
        assert laws[0].residual_kind == laws[1].residual_kind == AT_INFINITY
        assert laws[0].coefficients.tobytes() == laws[1].coefficients.tobytes()

    def test_truncation_tagged_leaky_clock_example(self):
        # U hits w.p. 3/7 with u(1) = 0.3; R = 3 w.p. 0.5, else never.
        # N(1) = 0.3 + 0.5 (3/7 - 0.3), d = (4/7) 0.5 + N(1) = 0.65, so
        # P(T < inf) = N(1)/d = 51/91 and P(R <= U) = 1 - d = 0.35.
        spec = ExplicitRestart(TruncatedPMF.from_masses({3: 0.5}, residual=0.5, residual_kind=TRUNCATION))
        report = analyze(BiasedWalk(0.3, 1), spec)
        assert (report.hit_prob, report.p_restart_wins) == (0.5604395604395604, 0.35)
        assert report.mean_T == math.inf

    def test_explicit_process_rejects_a_truncation_residual(self):
        # Mass at unknown finite times has no mean, so E[T] under a leaky
        # clock would be a lower bound that grows with t_max.  Float dust
        # may keep the TRUNCATION tag; mass that never hits is AT_INFINITY.
        with pytest.raises(ValueError, match="AT_INFINITY"):
            ExplicitProcess(TruncatedPMF.from_masses({2: 0.5, 4: 0.25}, residual=0.25))
        dust = ExplicitProcess(TruncatedPMF.from_masses({2: 0.5, 4: 0.5 - 1e-12}, residual=1e-12))
        assert (dust.hit_prob(), dust.pmf().residual_kind) == (1.0, TRUNCATION)

    def test_leaky_mean_inside_monte_carlo_interval(self):
        model = CycleTrap(0.5, 2, 4)
        spec = ExplicitRestart(
            TruncatedPMF.from_masses({3: 0.4, 40: 0.2}, residual=0.4, residual_kind=AT_INFINITY)
        )
        estimate = simulate_fpur(model, spec, SimConfig(trials=20_000, seed=5))
        assert estimate.censored == 0
        assert estimate.ci_low <= mean_T(model, spec) <= estimate.ci_high

    @pytest.mark.parametrize("kind", [AT_INFINITY, TRUNCATION])
    def test_leaky_clock_reads_only_the_law_prefix(self, kind, prefix_horizons, atom_ranges):
        # The residual tag and the report ask U no further than the law,
        # or than the clock's last epoch minus one; the one extension
        # computes a block, not the critical walk's default 10^6 masses.
        spec = ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75, residual_kind=kind))
        model = BiasedWalk(0.5, 1)
        law = fpur_pmf(model, spec, 10)
        assert prefix_horizons == [10, 5, 5]
        assert atom_ranges == [(0, models._BLOCK)]
        assert model._held.tobytes() == BiasedWalk(0.5, 1).pmf(models._BLOCK - 1).coefficients.tobytes()
        assert law.residual_kind == TRUNCATION
        prefix_horizons.clear()
        atom_ranges.clear()
        assert analyze(BiasedWalk(0.5, 1), spec).mean_T == math.inf
        assert prefix_horizons == [5, 5]
        assert atom_ranges == [(0, models._BLOCK)]

    def test_analyze_on_sharp_clock_extends_once(self, prefix_horizons, atom_ranges):
        # The renewal sums and the closed form both read U to N - 1; the
        # renewal sums ask U once, the closed form's cursor then reads the
        # masses that ask held, and an ask a block or more past them
        # computes no mass beyond it.
        model, spec = BiasedWalk(0.55, 3), SharpRestart(3000)
        report = analyze(model, spec)
        assert prefix_horizons == [2999]
        assert atom_ranges == [(0, 3000)]
        assert model._held.size == 3000
        assert report.mean_T == mean_T_sharp(BiasedWalk(0.55, 3), 3000)

    def test_analyze_expands_once(self, monkeypatch):
        # No closed form: the report's mean comes from the same renewal sums.
        model = BiasedWalk(0.55, 3)
        spec = ExplicitRestart(TruncatedPMF.from_masses({40: 0.5, 4000: 0.5}))
        horizons = []
        pmf = BiasedWalk.pmf

        def record(self, t_max=None):
            horizons.append(t_max)
            return pmf(self, t_max)

        monkeypatch.setattr(BiasedWalk, "pmf", record)
        report = analyze(model, spec)
        assert horizons == [3999]
        wins = p_restart_wins(model, spec)
        assert report.hit_prob == hitting_prob_T(model, spec)
        assert report.mean_T == mean_T_generic(model, spec)
        assert report.p_restart_wins == wins
        assert report.expected_restarts == pytest.approx(wins / (1.0 - wins), rel=1e-15)
        assert not report.preemptive


def exact_sharp_law(model, n_restart, t_max):
    """The sharp law in exact arithmetic over the doubles the library holds:
    s = 1 - sum_{j<N} u(j), then s^k u(j) for t = kN + j <= t_max and the
    residual s^k P(U > j) at t_max = kN + j.  Each value is an integer pair
    (numerator, denominator) with k; every double is a dyadic rational, so
    no Fraction (and no gcd) is formed past s."""
    head = model.pmf(n_restart - 1).coefficients.tolist()
    s = 1 - sum(map(Fraction, head))
    masses = [u.as_integer_ratio() for u in head]
    k_top, j_top = divmod(t_max, n_restart)
    values, num, den = [], 1, 1
    for k in range(k_top + 1):
        values += [(num * m, den * d, k) for m, d in masses[: n_restart if k < k_top else j_top + 1]]
        if k < k_top:
            num, den = num * s.numerator, den * s.denominator
    tail = s + sum(map(Fraction, head[j_top + 1 :]))
    return values, (num * tail.numerator, den * tail.denominator, k_top)


def worst_oracle_ratio(got, exact) -> float:
    """Largest (|got - exact| - 2**-1074) / ((k + 1) 2**-53 |exact|), in
    integers scaled by 2**1074 so that no part of it underflows."""
    worst = 0.0
    for value, (num, den, k) in zip(got, exact):
        if num == 0:
            assert value == 0.0
            continue
        v_num, v_den = float(value).as_integer_ratio()
        err = abs(v_num * den - num * v_den) << 1074
        worst = max(worst, (err - v_den * den) / ((k + 1) * num * v_den << 1021))
    return worst


# |err| <= 2**-1074 + ORACLE_R (k + 1) 2**-53 |exact| for the closed form.
# s carries the rounding of 1 - fsum (walks) or of q^c (traps), which s^k
# multiplies by k, so r grows as s shrinks.  Measured worst 3.01, on
# BiasedWalk(0.8, 3) with N = 9, t = 3000 (1.1e-13 relative; the division
# is 1.3e-12 off there, r 35).  On BiasedWalk(0.55, 3) with N = 39,
# t = 8000 the closed form is 3.5e-14 off and the division 2.3e-14.
ORACLE_R = 4.0


class TestSharpLaw:
    """Sharp restart's closed-form law P(T = kN + j) = s^k u(j), s = P(U >= N),
    against the division route and an exact oracle."""

    @pytest.mark.parametrize(
        "model", HORIZON_MODELS + [TRAP, WALK], ids=lambda m: m.describe()
    )
    def test_matches_division(self, model):
        low = model.min_support()
        for n_restart in (low, low + 1, 8, 39):
            for t_max in (0, n_restart - 1, n_restart, 2000):
                assert_division_agrees(model, n_restart, t_max)

    @pytest.mark.parametrize(
        "model, n_restart, t_max",
        [
            *[(m, n, 2000) for m in HORIZON_MODELS + [TRAP, WALK] for n in (m.min_support() + 1, 8, 39)],
            (BiasedWalk(0.8, 3), 9, 3000),
            (WALK, 39, 8000),
        ],
        ids=str,
    )
    def test_matches_exact_oracle(self, model, n_restart, t_max):
        law = fpur_pmf(model, SharpRestart(n_restart), t_max)
        exact, residual = exact_sharp_law(model, n_restart, t_max)
        assert worst_oracle_ratio(law.coefficients.tolist(), exact) <= ORACLE_R
        assert worst_oracle_ratio([law.residual], [residual]) <= ORACLE_R

    def test_preemptive_pair(self):
        # N at U's smallest support point: nothing hits before the restart.
        law = fpur_pmf(CycleTrap(0.25, 7, 5), SharpRestart(7), 16000)
        assert not law.coefficients.any()
        assert (law.residual, law.residual_kind) == (1.0, AT_INFINITY)

    @pytest.mark.parametrize("t_max", [0, 3, 8])
    def test_law_shorter_than_the_epoch_is_u(self, t_max):
        # Before N the clock has not fired: T's law is U's, its residual U's
        # survival summed from the far end.
        model = BiasedWalk(0.55, 3)
        law, u = fpur_pmf(model, SharpRestart(9), t_max), model.pmf(8)
        assert law.coefficients.tolist() == u.coefficients[: t_max + 1].tolist()
        assert law.residual == math.fsum([u.residual, *u.coefficients[t_max + 1 :]])
        assert law.residual_kind == TRUNCATION

    def test_epoch_that_rarely_fails(self):
        # u(3) = 1e-18, so s = 1 - 1e-18 rounds to 1.0, yet the pair is not
        # preemptive: every cycle hits at 3 with the same mass.
        model, spec = BiasedWalk(1e-6, 3), SharpRestart(4)
        assert model.pmf(3).residual == 1.0
        law = fpur_pmf(model, spec, 4000)
        assert law.coefficients[3::4].tolist() == [model.pmf(3).coefficients[3]] * 1000
        assert np.count_nonzero(law.coefficients) == 1000
        assert (law.residual, law.residual_kind) == (1.0, TRUNCATION)
        assert not analyze(model, spec).preemptive

    @pytest.mark.parametrize("t_max", [38, 39, 1000])
    def test_small_residual_does_not_cancel(self, t_max):
        # A cycle fails w.p. s = q^10 = 1e-10 (support points 2, 6, ..., 38
        # below N = 40), so P(T > kN + j) = q^(10k + c), c the support
        # points up to j; as 1 minus the masses it would carry 1e-16 / s.
        model = CycleTrap(0.9, 2, 3)
        k, j = divmod(t_max, 40)
        law = fpur_pmf(model, SharpRestart(40), t_max)
        assert law.residual == pytest.approx(model.q ** (10 * k + (j - 2) // 4 + 1), rel=1e-13, abs=0.0)

    def test_epoch_past_all_mass(self):
        # s = 0: U surely hits before N = 13, so the law is U's.
        model = TwoPoint(3, 0.4, 9)
        law = fpur_pmf(model, SharpRestart(13), 100)
        assert law.coefficients.tolist() == model.pmf(100).coefficients.tolist()
        assert (law.residual, law.residual_kind) == (0.0, TRUNCATION)

    def test_defective_walk(self):
        # U never hits w.p. 4/7, which a restart at 5 turns into another cycle.
        law = assert_division_agrees(BiasedWalk(0.3, 1), 5, 2000)
        assert law.residual_kind == TRUNCATION
        assert law.mean() == pytest.approx(mean_T_sharp(BiasedWalk(0.3, 1), 5), rel=1e-12)

    def test_tiny_denominator(self):
        # u(3) = 1e-15: the cycle fails w.p. s = 1 - 1e-15, so after 2000
        # steps nearly all mass is still to come.
        model = BiasedWalk(1e-5, 3)
        law = assert_division_agrees(model, 4, 2000)
        assert law.residual_kind == TRUNCATION
        exact, residual = exact_sharp_law(model, 4, 2000)
        assert worst_oracle_ratio(law.coefficients.tolist(), exact) <= ORACLE_R
        assert worst_oracle_ratio([law.residual], [residual]) <= ORACLE_R


class TestMeanT:
    def test_dispatches_to_family_closed_forms(self):
        trap = CycleTrap(0.25, 7, 5)
        assert mean_T(trap, GeometricRestart(0.2)) == mean_T_geometric(trap, 0.2)
        assert mean_T(trap, SharpRestart(9)) == mean_T_sharp(trap, 9)
        explicit = ExplicitRestart(TruncatedPMF.from_masses({3: 0.5, 9: 0.5}))
        assert mean_T(trap, explicit) == mean_T_generic(trap, explicit)

    def test_analyze_reports_it(self):
        trap = CycleTrap(0.25, 7, 5)
        for spec in (GeometricRestart(0.2), SharpRestart(9)):
            assert analyze(trap, spec).mean_T == mean_T(trap, spec)


    def test_sharp_wrapper_takes_numpy_integers(self):
        trap = CycleTrap(0.25, 7, 5)
        value = mean_T_sharp(trap, np.int64(9))
        assert type(value) is float
        assert value == mean_T_sharp(trap, 9) == SharpRestart(9).closed_form_mean(trap)


# Pairs whose renewal denominator d = P(R > U) is positive but at most 1e-12.
TINY_DENOMINATOR_PAIRS = [
    (CycleTrap(0.5, 300, 3), GeometricRestart(0.1)),
    (BiasedWalk(0.00001, 3), SharpRestart(4)),
    (BiasedWalk(0.00001, 3), ExplicitRestart(TruncatedPMF.from_masses({4: 0.5, 9: 0.5}))),
]

# Pairs whose restart surely fires before the first passage.
PREEMPTIVE_PAIRS = [
    (CycleTrap(0.25, 7, 5), SharpRestart(7)),
    (BiasedWalk(0.3, 2), SharpRestart(2)),
    (TwoPoint(3, 0.4, 9), ExplicitRestart(TruncatedPMF.from_masses({1: 0.5, 3: 0.5}))),
    (
        ExplicitProcess(TruncatedPMF.from_masses({5: 0.2, 6: 0.3}, residual=0.5, residual_kind=AT_INFINITY)),
        ExplicitRestart(TruncatedPMF.from_masses({2: 1.0})),
    ),
]


class TestPreemptiveIsExact:
    """A pair is preemptive exactly when d == 0, with no tolerance."""

    @pytest.mark.parametrize("model, spec", TINY_DENOMINATOR_PAIRS, ids=lambda x: x.describe())
    def test_tiny_denominator_still_hits(self, model, spec):
        report = analyze(model, spec)
        assert not report.preemptive
        assert report.hit_prob == hitting_prob_T(model, spec) == 1.0
        assert report.mean_T == mean_T(model, spec)
        assert math.isfinite(report.mean_T)
        assert 0.0 < 1.0 - report.p_restart_wins <= 1e-12
        assert fpur_pmf(model, spec, 400).residual_kind == TRUNCATION

    @pytest.mark.parametrize("model, spec", PREEMPTIVE_PAIRS, ids=lambda x: x.describe())
    def test_exactly_preemptive(self, model, spec):
        report = analyze(model, spec)
        assert report.preemptive
        assert (report.hit_prob, report.mean_T, report.p_restart_wins, report.expected_restarts) == (
            0.0, math.inf, 1.0, math.inf,
        )
        assert hitting_prob_T(model, spec) == 0.0
        assert p_restart_wins(model, spec) == 1.0
        assert mean_T(model, spec) == mean_T_generic(model, spec) == math.inf
        law = fpur_pmf(model, spec, 50)
        assert not law.coefficients.any()
        assert (law.residual, law.residual_kind) == (1.0, AT_INFINITY)


class TestMeanGeometricClosedForm:
    def test_two_point_example(self):
        u_tilde = (2.7 + 0.9**20) / 4
        expected = (1 - u_tilde) / (0.1 * u_tilde)
        assert mean_T_geometric(TP_FAST, 0.1) == pytest.approx(expected, rel=1e-14)
        assert mean_T_geometric(TP_FAST, 0.1) == pytest.approx(4.1764711353568655, rel=1e-12)

    def test_cycle_trap_example(self):
        assert mean_T_geometric(CycleTrap(0.75, 2, 14), 0.2) == pytest.approx(5.325, abs=5e-4)

    def test_null_recurrent_walk(self):
        u_tilde = 2 - math.sqrt(3)
        expected = (1 - u_tilde) / (0.5 * u_tilde)
        assert mean_T_geometric(BiasedWalk(0.5, 1), 0.5) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.4641, abs=5e-5)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize(
        "model",
        [TP_FAST, CycleTrap(0.5, 2, 4), BiasedWalk(0.6, 1)],
        ids=lambda m: m.describe(),
    )
    def test_agrees_with_generic_route(self, model, rho):
        closed = mean_T_geometric(model, rho)
        assert mean_T_generic(model, GeometricRestart(rho)) == pytest.approx(closed, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError, match=r"rho must lie strictly inside \(0, 1\)"):
            mean_T_geometric(TP_FAST, 0.0)
        with pytest.raises(ValueError, match=r"rho must lie strictly inside \(0, 1\)"):
            mean_T_geometric(TP_FAST, 1.0)
        with pytest.raises(ValueError, match="n_restart must be an integer >= 1"):
            mean_T_sharp(TP_FAST, 0)


class TestMeanSharpClosedForm:
    def test_trap_example(self):
        assert mean_T_sharp(CycleTrap(0.25, 7, 5), 8) == pytest.approx(
            (7 * 0.25 + 8 * 0.75) / 0.25, rel=1e-12
        )

    def test_preemptive(self):
        assert mean_T_sharp(CycleTrap(0.25, 7, 5), 7) == math.inf
        assert mean_T_sharp(CycleTrap(0.25, 7, 5), 1) == math.inf

    def test_large_epoch_approaches_baseline(self):
        assert mean_T_sharp(BiasedWalk(0.8, 3), 400) == pytest.approx(5.0, rel=5e-3)

    @pytest.mark.parametrize("n_restart", range(4, 30))
    def test_agrees_with_generic_route(self, n_restart):
        walk = BiasedWalk(0.65, 3)
        closed = mean_T_sharp(walk, n_restart)
        assert mean_T_generic(walk, SharpRestart(n_restart)) == pytest.approx(closed, rel=1e-9)


def generator_sharp_mean(model, n_restart):
    """The sharp closed form with its weighted sum as a Python generator."""
    u = model.pmf(n_restart - 1)
    coeffs = u.coefficients[:n_restart]
    weighted = math.fsum(n * c for n, c in enumerate(coeffs))
    return (weighted + n_restart * u.survival(n_restart - 1)) / math.fsum(coeffs)


# Small masses, subnormal ones among them.
tiny_masses = st.lists(
    st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 1e-300), st.sampled_from([5e-324, 2.2e-308, 1e-310])),
    min_size=1, max_size=60,
)


class TestSharpWeightedSum:
    """SharpRestart.closed_form_mean sums n u(n) as one array product read
    into fsum.  Each product is the same correctly rounded double as n * c,
    and fsum is exactly rounded in any order, so it equals the generator."""

    @given(tiny_masses, st.integers(2, 70))
    @settings(max_examples=200, deadline=None)
    def test_equals_generator_form(self, masses, n_restart):
        coeffs = np.array([0.0, *masses, 1.0 - math.fsum(masses)])
        model = ExplicitProcess(TruncatedPMF(coeffs))
        if n_restart <= model.min_support():
            return
        assert SharpRestart(n_restart).closed_form_mean(model) == generator_sharp_mean(model, n_restart)
        assert math.fsum((np.arange(coeffs.size) * coeffs).tolist()) == math.fsum(
            n * c for n, c in enumerate(coeffs)
        )

    @pytest.mark.parametrize("model", [BiasedWalk(0.8, 3), BiasedWalk(0.54, 3), CycleTrap(0.25, 5, 10)],
                             ids=lambda m: m.describe())
    def test_equals_generator_form_on_sweeps(self, model):
        for n_restart in range(model.min_support() + 1, 121):
            assert mean_T_sharp(model, n_restart) == generator_sharp_mean(model, n_restart)


class TestCycleTrapSharpMean:
    def test_collapses_at_first_window(self):
        assert cycle_trap_sharp_mean(0.25, 7, 5, 8) == pytest.approx(31.0, rel=1e-12)

    def test_equality_epoch_recovers_baseline(self):
        assert cycle_trap_sharp_mean(0.25, 5, 10, 11) == pytest.approx(38.0, rel=1e-12)
        assert CycleTrap(0.25, 5, 10).mean() == 38.0

    def test_preemptive(self):
        assert cycle_trap_sharp_mean(0.25, 5, 10, 5) == math.inf
        assert cycle_trap_sharp_mean(0.25, 5, 10, 1) == math.inf

    @pytest.mark.parametrize("params", [(0.25, 5, 10), (0.25, 7, 5), (0.6, 3, 4)])
    def test_matches_partial_sum_route(self, params):
        p, L, M = params
        trap = CycleTrap(p, L, M)
        for n_restart in range(L + 1, L + 30):
            assert cycle_trap_sharp_mean(p, L, M, n_restart) == pytest.approx(
                mean_T_sharp(trap, n_restart), rel=1e-10
            )


class TestCycleTrapSharpDrop:
    @pytest.mark.parametrize(
        "a, drop", [(1, 21.428571428571427), (2, 10.077220077220078), (3, 5.962934362934363)]
    )
    def test_reference_values(self, a, drop):
        assert cycle_trap_sharp_drop(0.25, 5, 10, a) == pytest.approx(drop, rel=1e-14)

    @pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.75, 0.99, 1.0])
    def test_matches_direct_differences(self, p):
        for L in range(1, 7):
            for M in range(1, 7):
                for a in range(1, 9):
                    n = L + a * (M + 1)
                    before = cycle_trap_sharp_mean(p, L, M, n)
                    direct = before - cycle_trap_sharp_mean(p, L, M, n + 1)
                    # The difference of two means loses their absolute rounding.
                    assert cycle_trap_sharp_drop(p, L, M, a) == pytest.approx(
                        direct, rel=1e-9, abs=1e-13 * before
                    ), (p, L, M, a)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cycle_trap_sharp_drop(0.25, 5, 10, 0)
        with pytest.raises(ValueError):
            cycle_trap_sharp_drop(0.25, 5, 10, 1.0)
        with pytest.raises(ValueError):
            cycle_trap_sharp_drop(0.0, 5, 10, 1)


class TestDerivativeCriterion:
    def test_two_point_reference_values(self):
        assert derivative_criterion_D(TP_FAST) == pytest.approx(-231 / 16, abs=1e-12)
        assert derivative_criterion_D(TP_SLOW) == pytest.approx(1441 / 16, abs=1e-12)

    def test_point_mass_sanity(self):
        model = ExplicitProcess(TruncatedPMF.from_masses({1: 1.0}))
        assert derivative_criterion_D(model) == 1.0

    def test_defective_model_rejected(self):
        with pytest.raises(ValueError):
            derivative_criterion_D(BiasedWalk(0.3, 1))

    def test_infinite_moments_rejected(self):
        with pytest.raises(ValueError):
            derivative_criterion_D(BiasedWalk(0.5, 1))

    def test_negative_d_guarantees_low_rate_benefit(self):
        models = [TP_FAST, BiasedWalk(0.7, 1), BiasedWalk(0.6, 1), CycleTrap(0.3, 1, 3)]
        for model in models:
            assert derivative_criterion_D(model) < 0
            grid = np.linspace(0.001, 0.2, 200)
            best = min(mean_T_geometric(model, float(rho)) for rho in grid)
            assert best < model.mean(), model.describe()

    def test_positive_d_does_not_preclude_benefit(self):
        assert derivative_criterion_D(TP_SLOW) > 0
        _, best = best_geometric_rho(TP_SLOW)
        assert best < TP_SLOW.mean()


class TestThresholds:
    def test_cycle_trap_threshold_value(self):
        assert cycle_trap_geometric_threshold(2, 14) == pytest.approx(150 / 156, abs=1e-12)

    def test_cycle_trap_degenerate_denominator(self):
        assert cycle_trap_geometric_threshold(2, 2) == -math.inf
        assert cycle_trap_geometric_threshold(3, 2) == -math.inf

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: cycle_trap_geometric_threshold(0, 4), "L and M must be >= 1"),
            (lambda: cycle_trap_geometric_threshold(2, 0), "L and M must be >= 1"),
            (lambda: brw_geometric_threshold_p(0), "m must be an integer >= 1"),
            (lambda: cycle_trap_sharp_classify(0, 10, 8), "L and M must be >= 1"),
            (lambda: cycle_trap_sharp_classify(5, 0, 8), "L and M must be >= 1"),
            (lambda: cycle_trap_sharp_classify(5, 10, 0), "n_restart must be an integer >= 1"),
            (lambda: brw_geometric_mean(0.6, 1, 0.0), "rho must lie strictly inside"),
            (lambda: brw_geometric_mean(0.6, 1, 1.0), "rho must lie strictly inside"),
        ],
        ids=["trap-L", "trap-M", "walk-m", "classify-L", "classify-M", "classify-N", "radical-rho-0",
             "radical-rho-1"],
    )
    def test_rejects_bad_arguments(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("L,M", [(1, 2), (2, 4), (3, 5), (4, 3)])
    def test_nonpositive_when_cycle_short(self, L, M):
        assert cycle_trap_geometric_threshold(L, M) <= 0

    def test_walk_p_threshold_values(self):
        assert brw_geometric_threshold_p(1) == pytest.approx(0.75, abs=1e-12)
        assert brw_geometric_threshold_p(3) == pytest.approx((1 + math.sqrt(17)) / 8, abs=1e-12)

    def test_walk_m_threshold(self):
        assert brw_geometric_threshold_m(0.75) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            brw_geometric_threshold_m(0.5)
        with pytest.raises(ValueError):
            brw_geometric_threshold_m(0.3)

    @pytest.mark.parametrize("L,M", [(2, 14), (1, 3), (1, 6)])
    def test_trap_beneficial_iff_below_threshold(self, L, M):
        p_star = cycle_trap_geometric_threshold(L, M)
        assert 0 < p_star < 1
        for p, expect in [(p_star - 0.03, True), (p_star + 0.02, False)]:
            trap = CycleTrap(p, L, M)
            _, best = best_geometric_rho(trap)
            assert (best < trap.mean()) is expect, (p, L, M)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_walk_beneficial_iff_below_threshold(self, m):
        p_star = brw_geometric_threshold_p(m)
        grid = default_rho_grid()
        for p, expect in [(p_star - 0.03, True), (p_star + 0.03, False)]:
            walk = BiasedWalk(p, m)
            best = min(brw_geometric_mean(p, m, float(rho)) for rho in grid)
            assert (best < walk.mean()) is expect, (p, m)

    def test_geometric_mean_is_convex_in_rate_for_trap(self):
        trap = CycleTrap(0.75, 2, 14)
        grid = np.linspace(0.01, 0.99, 197)
        values = np.array([mean_T_geometric(trap, float(rho)) for rho in grid])
        second = values[2:] - 2 * values[1:-1] + values[:-2]
        assert np.all(second >= -1e-9)


class TestSharpClassification:
    def test_repeating_pattern(self):
        labels = [cycle_trap_sharp_classify(5, 10, n) for n in range(6, 18)]
        assert labels == [BENEFICIAL] * 5 + [EQUAL] + [WORSE] * 5 + [BENEFICIAL]

    def test_long_cycle_always_worse(self):
        assert all(cycle_trap_sharp_classify(7, 5, n) == WORSE for n in range(8, 40))

    def test_preemptive(self):
        assert cycle_trap_sharp_classify(5, 10, 5) == PREEMPTIVE
        assert cycle_trap_sharp_classify(5, 10, 1) == PREEMPTIVE

    def test_labels_match_mean_comparison(self):
        trap = CycleTrap(0.4, 5, 10)
        for n in range(6, 40):
            label = cycle_trap_sharp_classify(5, 10, n)
            gap = cycle_trap_sharp_mean(0.4, 5, 10, n) - trap.mean()
            if label == BENEFICIAL:
                assert gap < -1e-9
            elif label == EQUAL:
                assert abs(gap) < 1e-9
            else:
                assert gap > 1e-9


class TestWalkGeometricClosedForm:
    def test_matches_generic_example(self):
        assert brw_geometric_mean(0.3, 1, 0.2) == pytest.approx(12.5, rel=1e-9)

    def test_beneficial_upward_drift_case(self):
        value = brw_geometric_mean(0.6, 1, 0.1)
        assert value == pytest.approx(3.626, abs=5e-4)
        assert value < BiasedWalk(0.6, 1).mean()

    @pytest.mark.parametrize("rho", [0.05, 0.2, 0.5])
    def test_never_beneficial_above_threshold(self, rho):
        assert brw_geometric_mean(0.8, 3, rho) > BiasedWalk(0.8, 3).mean()

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p,m", [(0.3, 1), (0.65, 3), (0.55, 2)])
    def test_agrees_with_pgf_route(self, p, m, rho):
        assert brw_geometric_mean(p, m, rho) == pytest.approx(
            mean_T_geometric(BiasedWalk(p, m), rho), rel=1e-10
        )

    def test_matches_60_digit_value(self):
        """Within 4e-14 relative of (b^m - 1) / rho in 60-digit decimal, the
        doubles p and rho taken as exact, at 2000 uniform (p, m, rho) and at
        a point where b^m - 1 cancelled (p > 1/2, rho small)."""
        rng = np.random.default_rng(2024)
        cases = [
            (0.6916, 3, 7.4e-5),
            *zip(rng.random(2000).tolist(), rng.integers(1, 12, 2000).tolist(), rng.random(2000).tolist()),
        ]
        worst = 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for p, m, rho in cases:
                big_p, x = decimal.Decimal(p), 1 - decimal.Decimal(rho)
                b = (1 + (1 - 4 * big_p * (1 - big_p) * x * x).sqrt()) / (2 * big_p * x)
                exact = (b**m - 1) / decimal.Decimal(rho)
                worst = max(worst, float(abs(decimal.Decimal(brw_geometric_mean(p, m, rho)) - exact) / exact))
        assert worst <= 4e-14

    # At p = 1e-17, sqrt(1 - 4pqx^2) rounds to 1; at m = 300 the mean overflows.
    @pytest.mark.parametrize("p, m, rho", [(1e-17, 1, 0.5), (0.01, 300, 0.5)])
    def test_agrees_with_pgf_route_at_extremes(self, p, m, rho):
        assert brw_geometric_mean(p, m, rho) == pytest.approx(
            mean_T_geometric(BiasedWalk(p, m), rho), rel=1e-12
        )


class TestGapLinearity:
    def test_trap_second_differences_vanish_inside_gaps(self):
        trap = CycleTrap(0.25, 5, 10)
        for start, stop in [(6, 16), (17, 27), (28, 38)]:
            values = [mean_T_sharp(trap, n) for n in range(start, stop + 1)]
            second = np.diff(values, n=2)
            assert np.all(np.abs(second) < 1e-10)

    def test_trap_slopes(self):
        trap = CycleTrap(0.25, 5, 10)
        u = trap.pmf(40)
        slopes = []
        for start, stop in [(6, 16), (17, 27), (28, 38)]:
            mass = u.cumulative(start - 1)
            expected = (1 - mass) / mass
            slope = mean_T_sharp(trap, start + 1) - mean_T_sharp(trap, start)
            assert slope == pytest.approx(expected, rel=1e-10)
            slopes.append(slope)
        assert slopes == sorted(slopes, reverse=True)

    def test_walk_parity_gap_slopes(self):
        walk = BiasedWalk(0.65, 3)
        u = walk.pmf(40)
        slopes = []
        for start in range(4, 22, 2):
            mass = u.cumulative(start - 1)
            expected = (1 - mass) / mass
            slope = mean_T_sharp(walk, start + 1) - mean_T_sharp(walk, start)
            assert slope == pytest.approx(expected, rel=1e-10)
            slopes.append(slope)
        assert all(a >= b - 1e-12 for a, b in zip(slopes, slopes[1:]))


class TestHitProbabilityBiconditional:
    def test_randomized_pairs(self):
        rng = np.random.default_rng(7)
        for trial in range(120):
            u_proper = bool(rng.integers(2))
            r_proper = bool(rng.integers(2))
            preemptive = bool(rng.integers(2)) and r_proper
            model, spec = random_explicit_pair(
                rng, u_proper=u_proper, r_proper=r_proper, preemptive=preemptive
            )
            value = hitting_prob_T(model, spec)
            # N(1) <= d = N(1) + (mass neither clock reaches), so N(1) / d <= 1.
            assert 0.0 <= value <= 1.0
            if preemptive:
                assert value == 0.0
            elif u_proper or r_proper:
                assert value == 1.0
            else:
                assert value < 1.0 - 1e-4


class TestAnalyzeReport:
    def test_preemptive_report(self):
        report = analyze(CycleTrap(0.25, 7, 5), SharpRestart(7))
        assert report.preemptive
        assert report.hit_prob == 0.0
        assert report.mean_T == math.inf
        assert report.p_restart_wins == 1.0
        assert report.expected_restarts == math.inf

    def test_geometric_report(self):
        report = analyze(BiasedWalk(0.3, 1), GeometricRestart(0.2))
        assert not report.preemptive
        assert report.hit_prob == 1.0
        assert report.mean_T == pytest.approx(12.5, rel=1e-9)
        d = 1.0 - report.p_restart_wins
        assert report.expected_restarts == pytest.approx(report.p_restart_wins / d, rel=1e-12)

    def test_sharp_report_uses_closed_form(self):
        report = analyze(CycleTrap(0.25, 7, 5), SharpRestart(8))
        assert report.mean_T == pytest.approx(31.0, rel=1e-12)
        assert report.p_restart_wins == pytest.approx(0.75, abs=1e-12)
