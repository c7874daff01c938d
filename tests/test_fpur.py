"""Restart composition analytics: renewal identities, closed forms,
beneficial-restart criteria."""

import math

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
    SharpRestart,
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
    fpur_pgf,
    fpur_pmf,
    hitting_prob_T,
    mean_T,
    mean_T_generic,
    mean_T_geometric,
    mean_T_sharp,
    p_restart_wins,
)
from conftest import random_explicit_pair

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


TRAP, WALK = CycleTrap(0.75, 2, 14), BiasedWalk(0.55, 3)


class TestLongFpurPmf:
    """Laws long enough that the series division runs many blocks: the
    16k-step cycle trap and the 8k-step walk under both restart families."""

    @pytest.mark.parametrize(
        "model, spec, t_max, reference",
        [
            (TRAP, GeometricRestart(0.2), 16000, lambda: mean_T_geometric(TRAP, 0.2)),
            (TRAP, SharpRestart(13), 16000, lambda: cycle_trap_sharp_mean(0.75, 2, 14, 13)),
            (WALK, GeometricRestart(0.02), 8000, lambda: mean_T_geometric(WALK, 0.02)),
            (WALK, SharpRestart(21), 8000, lambda: mean_T_sharp(WALK, 21)),
        ],
        ids=["trap-geometric", "trap-sharp", "walk-geometric", "walk-sharp"],
    )
    def test_mean_and_mass(self, model, spec, t_max, reference):
        dist = fpur_pmf(model, spec, t_max)
        assert dist.t_max == t_max
        assert math.fsum(dist.coefficients) + dist.residual == pytest.approx(1.0, abs=1e-9)
        assert dist.mean() == pytest.approx(reference(), rel=1e-9)


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


class TestSharpAsExplicitClock:
    """Sharp restart and the explicit clock with all mass at N run the same
    finite-support formulas, so every value agrees exactly."""

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
        a, b = fpur_pmf(model, sharp, 80), fpur_pmf(model, explicit, 80)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert (a.residual, a.residual_kind) == (b.residual, b.residual_kind)


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
        for t_max in (10, 100):
            horizons.clear()
            hitting_prob_T(model, spec, t_max)
            assert horizons == [max(n_restart - 1, t_max)]


    def test_fpur_pmf_expands_once(self, monkeypatch):
        # The clock has surely fired by t_max, so the residual tag's renewal
        # sums read U as a prefix of the series' expansion.
        model, spec = BiasedWalk(0.55, 3), SharpRestart(3000)
        tag = AT_INFINITY if hitting_prob_T(BiasedWalk(0.55, 3), spec) < 1.0 else TRUNCATION
        extensions = []
        atoms = BiasedWalk._atoms

        def record(self, start, stop):
            extensions.append((start, stop))
            return atoms(self, start, stop)

        monkeypatch.setattr(BiasedWalk, "_atoms", record)
        law = fpur_pmf(model, spec, 3000)
        assert extensions == [(0, 3001)]
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
        model, spec = BiasedWalk(0.55, 40), SharpRestart(10)
        for fn in (hitting_prob_T, p_restart_wins, mean_T_generic):
            assert fn(model, spec, 18) == fn(model, spec)
        # A clock with mass past its last epoch reads U from the raised horizon.
        leaky = ExplicitRestart(TruncatedPMF.from_masses({6: 0.25}, residual=0.75, residual_kind=AT_INFINITY))
        for fn in (hitting_prob_T, p_restart_wins, mean_T_generic):
            assert fn(model, leaky, 18) == fn(model, leaky, 40)

    def test_analyze_on_sharp_clock_extends_once(self, monkeypatch):
        # The renewal sums and the closed form both read U to N - 1; the
        # second read is served from the masses the first one held.
        model, spec = BiasedWalk(0.55, 3), SharpRestart(3000)
        extensions = []
        atoms = BiasedWalk._atoms

        def record(self, start, stop):
            extensions.append((start, stop))
            return atoms(self, start, stop)

        monkeypatch.setattr(BiasedWalk, "_atoms", record)
        report = analyze(model, spec)
        assert extensions == [(0, 3000)]
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


class TestMeanT:
    def test_dispatches_to_family_closed_forms(self):
        trap = CycleTrap(0.25, 7, 5)
        assert mean_T(trap, GeometricRestart(0.2)) == mean_T_geometric(trap, 0.2)
        assert mean_T(trap, SharpRestart(9)) == mean_T_sharp(trap, 9)
        assert mean_T(trap, SharpRestart(9), 50) == mean_T_sharp(trap, 9, 50)
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
        with pytest.raises(ValueError, match="n_restart must be >= 1"):
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
        with pytest.raises(TypeError):
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
