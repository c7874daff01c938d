"""Restart-time specs and the worked first-passage models."""

import ast
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import restartfp
from restartfp import models
from restartfp import (
    AT_INFINITY,
    TRUNCATION,
    BiasedWalk,
    CycleTrap,
    ExplicitProcess,
    ExplicitRestart,
    GeometricRestart,
    SharpRestart,
    SimConfig,
    TruncatedPMF,
    TwoPoint,
    mean_T_generic,
    underlying_samples,
)


class TestGeometricRestart:
    def test_cdf_example(self):
        assert GeometricRestart(0.5).cdf(2) == 0.75

    def test_mean_example(self):
        assert GeometricRestart(0.2).mean() == 5.0

    def test_pmf_support_starts_at_one(self):
        spec = GeometricRestart(0.3)
        assert spec.pmf(0) == 0.0
        assert spec.pmf(1) == 0.3
        assert spec.pmf(3) == pytest.approx(0.3 * 0.7**2)

    def test_survival_matches_cdf(self):
        spec = GeometricRestart(0.4)
        for n in range(-1, 10):
            assert spec.cdf(n) + spec.survival(n) == pytest.approx(1.0)

    def test_pgf_closed_form(self):
        spec = GeometricRestart(0.25)
        z = 0.8
        assert spec.pgf(z) == pytest.approx(0.25 * z / (1 - 0.75 * z), rel=1e-14)
        assert spec.pgf(1.0) == pytest.approx(1.0)

    def test_pmf_array_matches_scalar(self):
        spec = GeometricRestart(0.35)
        array = spec.pmf_array(8)
        assert np.allclose(array, [spec.pmf(n) for n in range(9)], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_rate(self, rho):
        with pytest.raises(ValueError):
            GeometricRestart(rho)


class TestSharpRestart:
    def test_pgf_example(self):
        assert SharpRestart(3).pgf(0.5) == 0.125

    def test_step_functions(self):
        spec = SharpRestart(4)
        assert spec.mean() == 4.0
        assert [spec.pmf(n) for n in range(6)] == [0, 0, 0, 0, 1.0, 0]
        assert [spec.cdf(n) for n in range(6)] == [0, 0, 0, 0, 1.0, 1.0]
        assert [spec.survival(n) for n in range(6)] == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [0, -2, 1.5])
    def test_rejects_bad_epoch(self, n):
        with pytest.raises(ValueError):
            SharpRestart(n)


class TestExplicitRestart:
    def test_rejects_mass_at_zero(self):
        with pytest.raises(ValueError):
            ExplicitRestart(TruncatedPMF(np.array([0.5, 0.5])))

    def test_delegation(self):
        dist = TruncatedPMF.from_masses({2: 0.5}, residual=0.5, residual_kind=AT_INFINITY)
        spec = ExplicitRestart(dist)
        assert spec.pmf(2) == 0.5
        assert spec.hit_prob() == 0.5
        assert spec.survival(1) == pytest.approx(1.0)
        assert spec.survival(2) == pytest.approx(0.5)
        assert spec.pgf(0.5) == pytest.approx(0.125)

    def test_draw_inverse_cdf(self):
        dist = TruncatedPMF.from_masses({1: 0.25, 3: 0.5}, residual=0.25, residual_kind=AT_INFINITY)
        spec = ExplicitRestart(dist)
        assert spec.draw(0.1) == 1
        assert spec.draw(0.26) == 3
        assert spec.draw(0.74) == 3
        assert spec.draw(0.76) == math.inf


SPEC_FAMILIES = [
    GeometricRestart(0.3),
    SharpRestart(4),
    ExplicitRestart(
        TruncatedPMF.from_masses({1: 0.25, 3: 0.5}, residual=0.25, residual_kind=AT_INFINITY)
    ),
]


class TestRestartSpecSurface:
    @pytest.mark.parametrize("spec", SPEC_FAMILIES, ids=lambda s: s.describe())
    def test_survival_array_matches_scalar(self, spec):
        array = spec.survival_array(12)
        assert array.size == 12
        expected = [spec.survival(n) for n in range(12)]
        np.testing.assert_allclose(array, expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("residual", [0.0, 0.25], ids=["proper", "mass-at-infinity"])
    @pytest.mark.parametrize("size", [0, 1, 3, 4, 12])
    def test_explicit_survival_array_is_the_scalar_loop(self, residual, size):
        kind = AT_INFINITY if residual else TRUNCATION
        spec = ExplicitRestart(
            TruncatedPMF.from_masses({1: 0.25, 3: 0.75 - residual}, residual=residual, residual_kind=kind)
        )
        assert spec.survival_array(size).tolist() == [spec.survival(n) for n in range(size)]

    def test_last_epoch(self):
        assert [spec.last_epoch() for spec in SPEC_FAMILIES] == [None, 4, 3]

    def test_closed_form_means(self):
        trap = CycleTrap(0.25, 7, 5)
        assert SPEC_FAMILIES[2].closed_form_mean(trap) is None
        geometric = GeometricRestart(0.2).closed_form_mean(trap)
        assert geometric == pytest.approx(mean_T_generic(trap, GeometricRestart(0.2)), rel=1e-12)
        assert SharpRestart(8).closed_form_mean(trap) == pytest.approx(31.0, rel=1e-12)
        assert SharpRestart(7).closed_form_mean(trap) == math.inf
        assert type(geometric) is float

    @pytest.mark.parametrize(
        "model",
        [CycleTrap(0.5, 2, 4), BiasedWalk(0.3, 1), TwoPoint(3, 0.4, 9)],
        ids=lambda m: m.describe(),
    )
    def test_geometric_renewal_matches_finite_sums(self, model):
        # A geometric law cut at a far horizon, its tail folded onto the
        # last epoch, is an explicit clock with finite support: its exact
        # finite sums must agree with the closed forms on the PGF.
        geo = GeometricRestart(0.3)
        horizon = 200
        masses = geo.pmf_array(horizon)
        masses[horizon] += geo.survival(horizon)
        cut = ExplicitRestart(TruncatedPMF(masses))
        for z in (0.0, 0.3, 0.9, 0.999, 1.0):
            np.testing.assert_allclose(
                geo.renewal(model, z), cut.renewal(model, z), rtol=1e-12, atol=1e-15
            )

    def test_geometric_renewal_ignores_horizon(self):
        geo, trap = GeometricRestart(0.3), CycleTrap(0.5, 2, 4)
        assert geo.renewal(trap, 0.9, 7) == geo.renewal(trap, 0.9)

    def test_residual_law_reads_full_expansion(self):
        # Mass past the last epoch: the sums need U beyond it.
        trap = CycleTrap(0.5, 2, 4)
        spec = SPEC_FAMILIES[2]
        u = trap.pmf()
        nu = math.fsum(u.coefficients * spec.survival_array(u.t_max + 1))
        assert spec.renewal(trap, 1.0)[0] == nu
        # u(2) P(R > 2) plus P(U > 2) times the mass at infinity.
        assert nu == pytest.approx(0.5 * 0.75 + 0.5 * 0.25, rel=1e-9)


class TestCycleTrap:
    def test_pgf_example(self):
        trap = CycleTrap(0.75, 2, 14)
        z = 0.8
        assert trap.pgf(z) == pytest.approx(0.75 * z**2 / (1 - 0.25 * z**15), rel=1e-14)
        assert trap.pgf(z) == pytest.approx(0.4842595924218391, rel=1e-12)

    def test_pmf_atoms(self):
        dist = CycleTrap(0.25, 7, 5).pmf(20)
        assert dist.coefficients[7] == 0.25
        assert dist.coefficients[13] == 0.1875
        assert dist.coefficients[19] == pytest.approx(0.25 * 0.75**2)
        assert np.count_nonzero(dist.coefficients) == 3

    def test_partial_sums(self):
        trap = CycleTrap(0.6, 3, 4)
        dist = trap.pmf(3 + 5 * 6)
        for j in range(6):
            assert dist.cumulative(3 + 5 * j) == pytest.approx(1 - 0.4 ** (j + 1), rel=1e-12)

    def test_mean_example(self):
        assert CycleTrap(0.5, 2, 4).mean() == 7.0

    def test_moments_match_series(self):
        # Deep horizon so the truncated tail is far below the tolerance.
        trap = CycleTrap(0.35, 3, 6)
        dist = trap.pmf(700)
        assert dist.mean() == pytest.approx(trap.mean(), rel=1e-9)
        assert dist.second_factorial_moment() == pytest.approx(
            trap.second_factorial_moment(), rel=1e-9
        )

    def test_default_residual_policy(self):
        dist = CycleTrap(0.3, 2, 5).pmf()
        assert dist.residual <= 1e-10
        assert dist.residual_kind == TRUNCATION

    def test_states(self):
        trap = CycleTrap(0.5, 2, 4)
        assert trap.initial_state() == 0
        assert trap.step(0, 0.4) == -1
        assert trap.step(0, 0.6) == 1
        assert trap.step(-1, 0.99) == -2
        assert trap.step(4, 0.0) == 0
        assert trap.step(2, 0.0) == 3
        assert trap.is_terminal(-2)
        assert not trap.is_terminal(0)
        with pytest.raises(ValueError):
            trap.step(-2, 0.5)

    def test_deterministic_when_p_is_one(self):
        dist = CycleTrap(1.0, 4, 2).pmf()
        assert dist.coefficients[4] == 1.0
        assert dist.residual == 0.0

    @pytest.mark.parametrize("args", [(0.0, 2, 4), (1.2, 2, 4), (0.5, 0, 4), (0.5, 2, 0), (0.5, 2.5, 4)])
    def test_rejects_bad_params(self, args):
        with pytest.raises(ValueError):
            CycleTrap(*args)


def law_fields(dist):
    return dist.coefficients.tobytes(), dist.residual, dist.residual_kind


# Models and the horizons asked of them.  None is the model's default
# horizon; the critical walk's runs to MAX_TERMS, so it is left out there.
PREFIX_CASES = [
    *[(lambda a=a: CycleTrap(*a), [None, *range(a[1], a[1] + 60), 399, 4999, 19999])
      for a in [(0.75, 2, 14), (0.25, 5, 10), (0.5, 3, 1), (0.999, 1, 1), (0.01, 7, 2), (1.0, 4, 2)]],
    *[(lambda a=a: BiasedWalk(*a), [None, *range(a[1], a[1] + 60), 299, 2999, 7999])
      for a in [(0.55, 3), (0.8, 3), (0.3, 2), (0.54, 3), (0.45, 4)]],
    (lambda: BiasedWalk(0.5, 1), [*range(1, 61), 299, 2999, 7999]),
    *[(lambda a=a: TwoPoint(*a), [None, *range(min(a[0], a[2]), 30)]) for a in [(1, 0.75, 20), (20, 0.1, 5), (7, 0.3, 7)]],
    (lambda: ExplicitProcess(TruncatedPMF.from_masses({2: 0.25, 9: 0.5}, residual=0.25)), [None, *range(2, 20)]),
    (lambda: ExplicitProcess(TruncatedPMF.from_masses({5: 0.2, 6: 0.3}, residual=0.5, residual_kind=AT_INFINITY)),
     [None, *range(5, 12)]),
]
PREFIX_CASES = [pytest.param(make, horizons, id=make().describe()) for make, horizons in PREFIX_CASES]

CALL_ORDERS = {
    "ascending": lambda hs: sorted(h for h in hs if h is not None) + [None] * (None in hs),
    "descending": lambda hs: sorted((h for h in hs if h is not None), reverse=True) + [None] * (None in hs),
    "default_first": lambda hs: [None] * (None in hs) + sorted(h for h in hs if h is not None),
    # The default horizon then continues the running sum of held masses.
    "default_after_short": lambda hs: sorted(h for h in hs if h is not None and h < 300)
    + [None] * (None in hs) + sorted(h for h in hs if h is not None and h >= 300),
}


class TestExpansionPrefix:
    """A model keeps its longest expansion and serves shorter horizons as its
    prefix.  Whatever the order of the calls, each horizon it serves has the
    coefficient bytes, residual and kind of a fresh instance's first
    expansion of that horizon.  fpur_pmf relies on it too: the renewal sums
    behind its residual tag read U as a prefix of the series' expansion."""

    @pytest.mark.parametrize("order", CALL_ORDERS)
    @pytest.mark.parametrize("make, horizons", PREFIX_CASES)
    def test_served_horizon_equals_first_expansion(self, make, horizons, order):
        model = make()
        served = []
        for horizon in CALL_ORDERS[order](horizons):
            dist = model.pmf(horizon)
            assert law_fields(dist) == law_fields(make().pmf(horizon)), horizon
            served.append(dist.t_max)
        # One float64 array, never longer than the longest horizon asked.
        assert model._held.dtype == np.float64
        assert model._held.size == max(served) + 1

    def test_threads_sharing_a_model(self):
        # Each call reads the held array once, so threads racing to extend it
        # still get first-expansion laws.  Every thread asks ever longer
        # horizons of fresh shared models, so nearly every call extends.
        horizons = range(3, 400, 3)
        expected = {h: law_fields(BiasedWalk(0.55, 3).pmf(h)) for h in horizons}
        wrong = []

        def worker(models, offset):
            for model in models:
                for h in horizons[offset::4]:
                    try:
                        if law_fields(model.pmf(h)) != expected[h]:
                            wrong.append(h)
                    except Exception as exc:  # a thread's exception would not reach the test
                        wrong.append(exc)

        models = [BiasedWalk(0.55, 3) for _ in range(40)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(models, i % 4)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert all(model._held.size <= max(horizons) + 1 for model in models)

    @pytest.mark.parametrize("q", [0.25, 0.75, 0.5, 0.001, 0.999, 0.0])
    def test_power_prefix(self, q):
        # The cycle trap extends p q^j from where it stopped: numpy's ** must
        # give each power the same bits wherever it sits in the array.
        longest = q ** np.arange(5000)
        for lo in (0, 1, 7, 64):
            for hi in range(lo, 400):
                assert np.array_equal(q ** np.arange(lo, hi), longest[lo:hi])

    def test_walk_masses_prefix(self):
        walk = BiasedWalk(0.55, 3)
        longest = walk._masses(0, 4000)
        for lo in (0, 1, 17):
            for hi in range(lo, 300, 7):
                assert walk._masses(lo, hi) == longest[lo : hi + 1]

    @pytest.mark.parametrize(
        "make", [lambda: CycleTrap(0.75, 2, 14), lambda: BiasedWalk(0.55, 3), lambda: TwoPoint(1, 0.75, 20)],
        ids=["cycle-trap", "brw", "two-point"],
    )
    def test_warm_model_equals_cold(self, make):
        warm, cold = make(), make()
        warm.pmf(500)
        warm.pmf()
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) and warm.describe() == cold.describe()
        assert {warm: 1}[cold] == 1


class TestBiasedWalk:
    def test_pgf_example(self):
        walk = BiasedWalk(0.6, 1)
        assert walk.pgf(0.9) == pytest.approx(0.7338985487471337, rel=1e-12)

    def test_pgf_against_radical_form(self):
        for p, m, z in [(0.6, 1, 0.9), (0.7, 2, 0.5), (0.55, 3, 0.95), (0.4, 1, 0.8)]:
            walk = BiasedWalk(p, m)
            q = 1 - p
            direct = ((1 - math.sqrt(1 - 4 * p * q * z * z)) / (2 * q * z)) ** m
            assert walk.pgf(z) == pytest.approx(direct, rel=1e-10)

    def test_pgf_at_one_is_hit_prob(self):
        assert BiasedWalk(0.6, 2).pgf(1.0) == pytest.approx(1.0, abs=1e-12)
        assert BiasedWalk(0.3, 2).pgf(1.0) == pytest.approx((3 / 7) ** 2, rel=1e-12)

    def test_first_masses(self):
        walk = BiasedWalk(0.6, 1)
        dist = walk.pmf(5)
        assert dist.coefficients[1] == pytest.approx(0.6)
        assert dist.coefficients[3] == pytest.approx(0.6**2 * 0.4)
        assert dist.coefficients[2] == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_masses_match_ballot_formula(self, m):
        walk = BiasedWalk(0.62, m)
        dist = walk.pmf(m + 40)
        p, q = 0.62, 0.38
        for k in range(21):
            n = m + 2 * k
            expected = m * math.comb(n, k) * p ** (m + k) * q**k / n
            assert dist.coefficients[n] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p, m", [(0.55, 3), (0.6, 1), (0.8, 7), (0.54, 3), (0.3, 2)])
    def test_masses_match_single_mass_formula(self, p, m):
        # The log-space formula of one mass, terms added in the same order.
        def mass_at(k):
            n = m + 2 * k
            return math.exp(
                math.log(m)
                + m * math.log(p)
                + (k * math.log(p * (1.0 - p)) if k else 0.0)
                + math.lgamma(n + 1)
                - math.lgamma(k + 1)
                - math.lgamma(n - k + 1)
                - math.log(n)
            )

        walk = BiasedWalk(p, m)
        for dist in (walk.pmf(m + 4000), walk.pmf()):
            masses = dist.coefficients[m::2].tolist()
            assert masses == [mass_at(k) for k in range(len(masses))]

    def test_hit_prob_and_mean(self):
        assert BiasedWalk(0.3, 1).hit_prob() == pytest.approx(3 / 7, rel=1e-14)
        assert BiasedWalk(0.3, 1).mean() == math.inf
        assert BiasedWalk(0.6, 1).hit_prob() == 1.0
        assert BiasedWalk(0.6, 1).mean() == pytest.approx(5.0, rel=1e-14)
        assert BiasedWalk(0.5, 1).hit_prob() == 1.0
        assert BiasedWalk(0.5, 1).mean() == math.inf

    def test_moments_match_series(self):
        walk = BiasedWalk(0.7, 2)
        dist = walk.pmf(800)
        assert dist.mean() == pytest.approx(walk.mean(), rel=1e-9)
        assert dist.second_factorial_moment() == pytest.approx(
            walk.second_factorial_moment(), rel=1e-9
        )

    def test_defective_residual_tag(self):
        dist = BiasedWalk(0.3, 1).pmf()
        assert dist.residual_kind == AT_INFINITY
        assert dist.residual == pytest.approx(1 - 3 / 7, rel=1e-9)
        assert dist.mean() == math.inf

    def test_states(self):
        walk = BiasedWalk(0.6, 3)
        assert walk.initial_state() == 3
        assert walk.step(3, 0.5) == 2
        assert walk.step(3, 0.7) == 4
        assert walk.is_terminal(0)
        with pytest.raises(ValueError):
            walk.step(0, 0.5)

    @pytest.mark.parametrize("args", [(0.0, 1), (1.0, 1), (0.5, 0), (0.5, 1.5)])
    def test_rejects_bad_params(self, args):
        with pytest.raises(ValueError):
            BiasedWalk(*args)


class TestTwoPoint:
    def test_moments(self):
        tp = TwoPoint(1, 0.75, 20)
        assert tp.mean() == 5.75
        assert tp.second_factorial_moment() == 95.0
        tp2 = TwoPoint(1, 0.25, 20)
        assert tp2.mean() == 15.25
        assert tp2.second_factorial_moment() == 285.0

    def test_pmf_and_truncation(self):
        tp = TwoPoint(1, 0.75, 20)
        dist = tp.pmf()
        assert dist.coefficients[1] == 0.75
        assert dist.coefficients[20] == 0.25
        short = tp.pmf(5)
        assert short.t_max == 5
        assert short.residual == 0.25

    def test_countdown_trajectory(self):
        tp = TwoPoint(2, 0.5, 4)
        assert tp.initial_state() is None
        assert tp.step(None, 0.4) == 1
        assert tp.step(None, 0.6) == 3
        assert tp.step(1, 0.9) == 0
        assert tp.is_terminal(0)
        with pytest.raises(ValueError):
            tp.step(0, 0.5)

    def test_min_support_skips_zero_weight(self):
        assert TwoPoint(1, 0.0, 20).min_support() == 20
        assert TwoPoint(1, 0.75, 20).min_support() == 1


class TestExplicitProcess:
    def test_rejects_mass_at_zero(self):
        with pytest.raises(ValueError):
            ExplicitProcess(TruncatedPMF(np.array([1.0])))

    def test_retruncation_folds_mass(self):
        dist = TruncatedPMF.from_masses({1: 0.4, 5: 0.6})
        model = ExplicitProcess(dist)
        short = model.pmf(3)
        assert short.residual == pytest.approx(0.6)
        assert short.residual_kind == TRUNCATION
        longer = model.pmf(8)
        assert longer.t_max == 8
        assert longer.cumulative(8) == pytest.approx(1.0)

    def test_hit_prob_from_residual(self):
        dist = TruncatedPMF.from_masses({1: 0.7}, residual=0.3, residual_kind=AT_INFINITY)
        assert ExplicitProcess(dist).hit_prob() == pytest.approx(0.7)

    def test_draw_lands_in_residual(self):
        dist = TruncatedPMF.from_masses({1: 0.7}, residual=0.3, residual_kind=AT_INFINITY)
        model = ExplicitProcess(dist)
        assert model.step(None, 0.5) == 0
        assert model.step(None, 0.8) == math.inf


class TestPmfMatchesPgf:
    MODELS = [
        CycleTrap(0.6, 2, 4),
        CycleTrap(0.25, 5, 10),
        CycleTrap(0.75, 2, 14),
        BiasedWalk(0.7, 2),
        BiasedWalk(0.6, 1),
        BiasedWalk(0.52, 3),
        TwoPoint(1, 0.75, 20),
        TwoPoint(1, 0.25, 20),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize("z", [0.3, 0.7, 0.95])
    def test_series_evaluation_matches_closed_form(self, model, z):
        assert model.pmf().evaluate(z) == pytest.approx(model.pgf(z), abs=1e-8)


class TestStepHistograms:
    """Empirical first-passage histograms against the analytic PMFs."""

    @pytest.mark.parametrize(
        "model",
        [CycleTrap(0.5, 2, 4), BiasedWalk(0.6, 1)],
        ids=lambda m: m.describe(),
    )
    def test_histogram_within_three_se(self, model):
        trials = 100_000
        samples, censored = underlying_samples(model, SimConfig(trials, seed=2026, step_cap=10_000))
        assert censored == 0
        dist = model.pmf(60)
        counts = np.bincount(samples.astype(int), minlength=61)[:61]
        for n in range(61):
            expected = dist.coefficients[n]
            if expected < 1e-4:
                continue
            se = math.sqrt(expected * (1 - expected) / trials)
            assert abs(counts[n] / trials - expected) <= 3 * se, f"atom at n={n}"


RESTART_CLASSES = {
    name for name, obj in vars(models).items() if isinstance(obj, type) and issubclass(obj, models.RestartSpec)
}


def _tests_restart_class(node) -> bool:
    """Whether ``node`` is isinstance/issubclass against a restart class, or
    compares type(...) with one."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("isinstance", "issubclass") and len(node.args) == 2:
            return bool(_names(node.args[1]) & RESTART_CLASSES)
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        calls_type = any(
            isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "type" for o in operands
        )
        return calls_type and bool(set().union(*map(_names, operands)) & RESTART_CLASSES)
    return False


def _names(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


class _RestartTypeTests(ast.NodeVisitor):
    """Records the function around each test of a restart class, marking
    those that only guard a ``raise TypeError``."""

    def __init__(self, module):
        self.scope, self.found = [module], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node):
        guard = (
            len(node.body) == 1
            and isinstance(node.body[0], ast.Raise)
            and "TypeError" in _names(node.body[0].exc)
            and not node.orelse
        )
        for sub in ast.walk(node.test):
            if _tests_restart_class(sub):
                self.found.append((".".join(self.scope), "TypeError guard" if guard else "dispatch"))
        for child in [*node.body, *node.orelse]:
            self.visit(child)

    def generic_visit(self, node):
        if _tests_restart_class(node):
            self.found.append((".".join(self.scope), "dispatch"))
        super().generic_visit(node)


def test_restart_classes_are_tested_only_in_models():
    # Each restart family is handled on its class; elsewhere only
    # sample_restart's guard against a non-spec argument tests the type.
    assert RESTART_CLASSES >= {"RestartSpec", "GeometricRestart", "SharpRestart", "ExplicitRestart"}
    found = []
    for path in sorted(Path(restartfp.__file__).parent.glob("*.py")):
        if path.stem != "models":
            visitor = _RestartTypeTests(path.stem)
            visitor.visit(ast.parse(path.read_text()))
            found += visitor.found
    assert found == [("montecarlo.sample_restart", "TypeError guard")]
