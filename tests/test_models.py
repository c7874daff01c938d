"""Restart-time specs and the worked first-passage models."""

import ast
import math
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import restartfp
from restartfp import models
import scalar_masses
from conftest import sums_of
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
    brw_geometric_mean,
    fpur_pmf,
    mean_T_generic,
    mean_T_geometric,
    simulate_fpur,
    underlying_samples,
)
from restartfp.series import _fsum


class TestGeometricRestart:
    def test_cdf_example(self):
        assert GeometricRestart(0.5).cdf(2) == 0.75

    def test_mean_example(self):
        # The clock's mean is the sum of its survival, 1/rho.
        assert math.fsum(GeometricRestart(0.2).survival_array(400).tolist()) == pytest.approx(
            5.0, rel=1e-14
        )

    def test_pmf_support_starts_at_one(self):
        array = GeometricRestart(0.3).pmf_array(3)
        assert array[0] == 0.0
        assert array[1] == 0.3
        assert array[3] == pytest.approx(0.3 * 0.7**2)

    def test_survival_matches_cdf(self):
        spec = GeometricRestart(0.4)
        for n in range(-1, 10):
            assert spec.cdf(n) + spec.survival(n) == pytest.approx(1.0)

    def test_pgf_closed_form(self):
        # The series of the clock's pmf_array sums to rho z / (1 - (1 - rho) z).
        masses = GeometricRestart(0.25).pmf_array(300)
        z = 0.8
        pgf = math.fsum((masses * z ** np.arange(301)).tolist())
        assert pgf == pytest.approx(0.25 * z / (1 - 0.75 * z), rel=1e-14)
        assert math.fsum(masses.tolist()) == pytest.approx(1.0)

    def test_pmf_array_matches_formula(self):
        array = GeometricRestart(0.35).pmf_array(8)
        expected = [0.0] + [0.35 * 0.65 ** (n - 1) for n in range(1, 9)]
        assert np.allclose(array, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_rate(self, rho):
        with pytest.raises(ValueError):
            GeometricRestart(rho)

    def test_mean_is_infinite_when_the_pgf_underflows(self):
        # u~(1 - rho) = p x^1100 / (1 - q x^2) underflows to 0 at x = 1/2.
        assert CycleTrap(0.5, 1100, 1).pgf(0.5) == 0.0
        assert mean_T_geometric(CycleTrap(0.5, 1100, 1), 0.5) == math.inf

    @pytest.mark.parametrize("size", [0, 1, 2, 3000, 20000])
    def test_vectors_equal_pow_past_underflow(self, size):
        # Powers left 0 past the underflow index are the 0 pow returns there,
        # and the rest are pow's own bits.
        for rho in [5e-324, 1e-300, *np.geomspace(1e-4, 1 - 1e-4, 40).tolist()]:
            spec, n = GeometricRestart(rho), np.arange(1, size)
            assert spec.survival_array(size).tobytes() == ((1.0 - rho) ** np.arange(size)).tobytes()
            assert spec.pmf_array(max(size - 1, 0))[1:].tobytes() == (rho * (1.0 - rho) ** (n - 1)).tobytes()


class TestRateLostInOneMinusRho:
    """Where 1 - rho rounds to 1 the closed-form mean and the sums at z = 1
    read u~(1), which has lost rho: they raise rather than answer 0."""

    TRAP = CycleTrap(0.75, 2, 14)

    @pytest.mark.parametrize("rho", [1e-17, 1e-20, 5e-324])
    def test_mean_and_sums_at_one_raise(self, rho):
        spec = GeometricRestart(rho)
        message = f"rho={rho!r} is lost: 1 - rho rounds to 1"
        for call in (lambda: spec.closed_form_mean(self.TRAP), lambda: spec.renewal(self.TRAP, 1.0)):
            with pytest.raises(ArithmeticError, match=message):
                call()
        # Below z = 1 the sums still divide by 1 - z/2 > 0.
        n_sum, w_sum, _ = spec.renewal(self.TRAP, 0.5)
        assert (n_sum, w_sum) == (self.TRAP.pgf(0.5), rho * 0.5 * (1.0 - n_sum) / 0.5)

    @pytest.mark.parametrize("rho", [2.0**-53, 1.2e-16, 1e-12, 0.2])
    def test_larger_rates_keep_their_bits(self, rho):
        spec, value = GeometricRestart(rho), self.TRAP.pgf(1.0 - rho)
        assert spec.closed_form_mean(self.TRAP) == (1.0 - value) / (rho * value)
        assert spec.renewal(self.TRAP, 1.0)[2] == (1.0 - value) / rho

    def test_walk_closed_form_keeps_working(self):
        assert brw_geometric_mean(0.55, 3, 1e-20) == pytest.approx(30.0, rel=1e-14)

    def test_overflowing_draw_never_comes(self):
        # log1p(-u) / log(1 - 5e-324) overflows: the epoch is infinity.
        spec = GeometricRestart(5e-324)
        assert spec.draw(0.0) == 1
        assert spec.draw(0.5) == math.inf
        assert GeometricRestart(1e-17).draw(0.5) == math.ceil(math.log1p(-0.5) / math.log1p(-1e-17))
        estimate = simulate_fpur(self.TRAP, spec, SimConfig(200, seed=5))
        assert estimate.trials_used == 200 and estimate.mean_restarts == 0.0


def sharp_mean_from_law(model, n_restart):
    """The sharp closed form read from U's law on 0..N-1 as a TruncatedPMF."""
    if n_restart <= model.min_support():
        return math.inf
    u = model.pmf(n_restart - 1)
    coeffs = u.coefficients
    mass_below = math.fsum(coeffs.tolist())
    if mass_below <= 0.0:
        return math.inf
    weighted = math.fsum((np.arange(coeffs.size) * coeffs).tolist())
    return (weighted + n_restart * u.survival(n_restart - 1)) / mass_below


SHARP_MEAN_MODELS = [
    lambda: CycleTrap(0.75, 2, 14),
    lambda: CycleTrap(0.25, 5, 10),
    lambda: BiasedWalk(0.55, 3),
    lambda: BiasedWalk(0.3, 2),
    lambda: TwoPoint(3, 0.4, 17),
    lambda: ExplicitProcess(TruncatedPMF.from_masses({2: 0.5, 7: 0.25, 40: 0.125}, residual=0.125, residual_kind=AT_INFINITY)),
]


def _scaled_walk(factor):
    """A biased walk whose masses are multiplied by ``factor``."""

    class Walk(BiasedWalk):
        def _atoms(self, start, stop):
            times, masses = super()._atoms(start, stop)
            return times, [factor * w for w in masses]

    return Walk(0.8, 3)


class TestSharpRestart:
    @pytest.mark.parametrize("make", SHARP_MEAN_MODELS, ids=lambda make: make().describe())
    def test_mean_equals_the_law_formula(self, make):
        # Bit for bit, on cold instances and on a warm one asked every N in
        # turn, which extends its held masses at each step.
        warm = make()
        warm.pmf(30)
        for n in range(1, 120):
            expected = sharp_mean_from_law(make(), n)
            assert SharpRestart(n).closed_form_mean(make()) == expected
            assert SharpRestart(n).closed_form_mean(warm) == expected

    @pytest.mark.parametrize("factor", [-1.0, 2.0, math.nan, math.inf])
    def test_mean_rejects_a_bad_law(self, factor):
        # A negative or non-finite mass, or masses summing past 1, fail the
        # checks TruncatedPMF makes.
        with pytest.raises(ValueError):
            _scaled_walk(factor).pmf(9)
        with pytest.raises(ValueError):
            SharpRestart(10).closed_form_mean(_scaled_walk(factor))

    def test_pgf_example(self):
        masses = SharpRestart(3).pmf_array(6)
        assert math.fsum((masses * 0.5 ** np.arange(7)).tolist()) == 0.125

    def test_step_functions(self):
        spec = SharpRestart(4)
        assert spec.pmf_array(5).tolist() == [0, 0, 0, 0, 1.0, 0]
        assert [spec.cdf(n) for n in range(6)] == [0, 0, 0, 0, 1.0, 1.0]
        assert [spec.survival(n) for n in range(6)] == [1.0, 1.0, 1.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [0, -2, 1.5, 3.0, "3", None])
    def test_rejects_bad_epoch(self, n):
        with pytest.raises(ValueError, match="n_restart must be an integer >= 1"):
            SharpRestart(n)


class TestExplicitRestart:
    def test_rejects_mass_at_zero(self):
        with pytest.raises(ValueError):
            ExplicitRestart(TruncatedPMF(np.array([0.5, 0.5])))

    def test_delegation(self):
        dist = TruncatedPMF.from_masses({2: 0.5}, residual=0.5, residual_kind=AT_INFINITY)
        spec = ExplicitRestart(dist)
        assert spec.pmf_array(3)[2] == 0.5
        assert spec.hit_prob() == 0.5
        assert spec.survival(1) == pytest.approx(1.0)
        assert spec.survival(2) == pytest.approx(0.5)

    def test_draw_inverse_cdf(self):
        dist = TruncatedPMF.from_masses({1: 0.25, 3: 0.5}, residual=0.25, residual_kind=AT_INFINITY)
        spec = ExplicitRestart(dist)
        assert spec.draw(0.1) == 1
        assert spec.draw(0.26) == 3
        assert spec.draw(0.74) == 3
        assert spec.draw(0.76) == math.inf


LEAKY_MODELS = [CycleTrap(0.5, 2, 4), CycleTrap(0.75, 2, 14), TwoPoint(3, 0.4, 9), BiasedWalk(0.8, 3)]

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

    def test_residual_law_reads_full_expansion(self):
        # Mass past the last epoch: the flat tail beyond U's prefix closes
        # on U's PGF, so N(1) is the sum over U's full expansion.
        trap = CycleTrap(0.5, 2, 4)
        spec = SPEC_FAMILIES[2]
        u = trap.pmf()
        nu = math.fsum(u.coefficients * spec.survival_array(u.t_max + 1))
        assert spec.renewal(trap, 1.0)[0] == pytest.approx(nu, rel=1e-9)
        # u(2) P(R > 2) plus P(U > 2) times the mass at infinity.
        assert spec.renewal(trap, 1.0)[0] == pytest.approx(0.5 * 0.75 + 0.5 * 0.25, rel=1e-15)

    @pytest.mark.parametrize("model", LEAKY_MODELS, ids=lambda m: m.describe())
    @pytest.mark.parametrize("kind", [AT_INFINITY, TRUNCATION])
    @pytest.mark.parametrize("masses", [{6: 0.25}, {3: 0.4, 40: 0.2}, {1: 0.25, 3: 0.5}], ids=str)
    def test_leaky_renewal_matches_far_epoch(self, model, kind, masses):
        # The residual placed at epoch 2000 makes a clock with finite
        # support whose exact finite sums differ from the flat-tail closure
        # only by U's mass past 2000.
        residual = 1.0 - math.fsum(masses.values())
        leaky = ExplicitRestart(TruncatedPMF.from_masses(masses, residual=residual, residual_kind=kind))
        far = ExplicitRestart(TruncatedPMF.from_masses({**masses, 2000: residual}))
        for z in (0.0, 0.3, 0.9, 0.999, 1.0):
            np.testing.assert_allclose(leaky.renewal(model, z), far.renewal(model, z), rtol=1e-12, atol=0)


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

    @pytest.mark.parametrize(
        "args", [(0.0, 2, 4), (1.2, 2, 4), (0.5, 0, 4), (0.5, 2, 0), (0.5, 2.5, 4), (0.5, 2.0, 4), (0.5, 2, np.float64(4))]
    )
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
    (lambda: ExplicitProcess(TruncatedPMF.from_masses({2: 0.25, 9: 0.5}, residual=0.25, residual_kind=AT_INFINITY)),
     [None, *range(2, 20)]),
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

    @pytest.mark.parametrize("make, horizons", PREFIX_CASES)
    def test_laws_view_the_held_masses(self, make, horizons):
        # A served law's coefficients are a read-only view of the held
        # array, not a copy of it, and neither can be made writable.
        model = make()
        for horizon in horizons:
            coeffs = model.pmf(horizon).coefficients
            assert np.shares_memory(coeffs, model._held), horizon
            assert not (coeffs.flags.writeable or model._held.flags.writeable)
            with pytest.raises(ValueError):
                coeffs.setflags(write=True)

    @pytest.mark.parametrize("order", CALL_ORDERS)
    @pytest.mark.parametrize("make, horizons", PREFIX_CASES)
    def test_served_horizon_equals_first_expansion(self, make, horizons, order):
        model = make()
        served, size = [], 0
        for horizon in CALL_ORDERS[order](horizons):
            dist = model.pmf(horizon)
            assert law_fields(dist) == law_fields(make().pmf(horizon)), horizon
            served.append(dist.t_max)
            if size <= dist.t_max:
                # An extension reaches the ask or a block past the held
                # masses; the walk's default stops where its sum does.
                block = 1 if horizon is None and isinstance(model, BiasedWalk) else models._BLOCK
                size = max(dist.t_max + 1, size + block)
        # One float64 array of first-expansion bits, less than a block
        # longer than the longest horizon asked.
        assert model._held.dtype == np.float64
        assert model._held.size == size <= max(served) + models._BLOCK
        assert model._held.tobytes() == make().pmf(size - 1).coefficients.tobytes()

    @pytest.mark.parametrize("make, horizons", PREFIX_CASES)
    def test_horizon_below_support_is_rejected(self, make, horizons):
        model = make()
        with pytest.raises(ValueError, match="below the smallest support point"):
            model.pmf(model.min_support() - 1)

    def test_threads_sharing_a_model(self):
        # Each call reads the held array once, so threads racing to extend it
        # still get first-expansion laws.  Every thread asks ever longer
        # horizons of fresh shared models, each more than a block past the
        # last, so nearly every call extends.
        horizons = range(3, 32 * (models._BLOCK + 1), models._BLOCK + 1)
        expected = {h: law_fields(BiasedWalk(0.55, 3).pmf(h)) for h in horizons}
        wrong = []

        def worker(walks, offset):
            for model in walks:
                for h in horizons[offset::4]:
                    try:
                        if law_fields(model.pmf(h)) != expected[h]:
                            wrong.append(h)
                    except Exception as exc:  # a thread's exception would not reach the test
                        wrong.append(exc)

        walks = [BiasedWalk(0.55, 3) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(walks, i % 4)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # A thread that extends a stale snapshot may publish a shorter array
        # than another thread's, never one past a block beyond any ask.
        longest = max(horizons) + models._BLOCK
        fresh = BiasedWalk(0.55, 3).pmf(longest - 1).coefficients
        for model in walks:
            assert model._held.size <= longest
            assert model._held.tobytes() == fresh[: model._held.size].tobytes()

    def test_threads_sharing_a_cursor(self):
        # Each sharp mean moves its own snapshot of the exact cursor and
        # publishes one tuple, so threads asking ascending, descending and
        # shuffled N of shared models still get a fresh model's means.
        makers = [lambda: BiasedWalk(0.55, 3), lambda: CycleTrap(0.75, 2, 14)]
        ns = list(range(2, 60))
        expected = {(i, n): SharpRestart(n).closed_form_mean(make()) for i, make in enumerate(makers) for n in ns}
        shuffled = ns[:]
        np.random.default_rng(5).shuffle(shuffled)
        orders = [ns, ns[::-1], shuffled]
        wrong = []

        def worker(shared, order):
            for i, model in shared:
                for n in order:
                    try:
                        if SharpRestart(n).closed_form_mean(model) != expected[i, n]:
                            wrong.append((i, n))
                    except Exception as exc:  # a thread's exception would not reach the test
                        wrong.append(exc)

        # Many short sweeps: threads meet on each model more often.
        shared = [(i, make()) for _ in range(24) for i, make in enumerate(makers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(shared, orders[k % 3])) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("make", [
        lambda: CycleTrap(0.75, 2, 14), lambda: BiasedWalk(0.55, 3), lambda: TwoPoint(5, 0.3, 5),
        lambda: TwoPoint(3, 0.4, 17), lambda: ExplicitProcess(TruncatedPMF.from_masses({2: 0.5, 7: 0.25, 40: 0.25})),
    ], ids=["cycle-trap", "brw", "two-point-one-time", "two-point", "explicit"])
    def test_atoms_hold_each_time_once(self, make):
        # _extend writes the masses at their times, so no time may repeat.
        model = make()
        for start, stop in [(0, 1), (0, 6), (3, 18), (5, 6), (6, 41), (0, 300)]:
            times, masses = model._atoms(start, stop)
            times = [int(t) for t in times]
            assert len(set(times)) == len(times) == len(masses)
            assert all(start <= t < stop for t in times)

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
                assert walk._masses(lo, hi).tobytes() == longest[lo : hi + 1].tobytes()

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


class TestHeadSummedOnce:
    """U's head is summed once: the one fsum is both the mass check's sum
    and, for a model with no tail of its own, the residual's."""

    @pytest.mark.parametrize(
        "make", [lambda: BiasedWalk(0.55, 3), lambda: BiasedWalk(0.3, 2), lambda: CycleTrap(0.75, 2, 14)],
        ids=["brw", "brw-defective", "cycle-trap"],
    )
    def test_pmf(self, make, fsum_calls):
        for horizon in (40, 41, 3000):
            model = make()
            fsum_calls.clear()
            dist = model.pmf(horizon)
            assert sums_of(fsum_calls, dist.coefficients) == 1, horizon

    @pytest.mark.parametrize("make", SHARP_MEAN_MODELS, ids=lambda make: make().describe())
    def test_sharp_cycle(self, make, fsum_calls, monkeypatch):
        # A model asked every N = 2..120 in turn, as a sharp sweep asks it:
        # the cycle fsums no head, and over the whole sweep the exact cursor
        # converts each nonzero mass and its product n u(n) exactly once.
        model = make()
        converted = []
        fixed = models._fixed
        monkeypatch.setattr(models, "_fixed", lambda x: converted.append(x) or fixed(x))
        for n in range(2, 121):
            fsum_calls.clear()
            SharpRestart(n).closed_form_mean(model)
            if n > model.min_support():
                head = model._prefix(n - 1)
                assert sums_of(fsum_calls, head) == sums_of(fsum_calls, np.arange(n) * head) == 0, n
        head = model._prefix(119)
        assert converted == [x for t in np.flatnonzero(head).tolist() for x in (head[t], t * head[t])]


# Masses whose exact sums stress the cursor: subnormals, exact powers of two
# and products n u(n) that round.
EXACT_MASSES = {1: 0.5, 2: 5e-324, 3: 0.1, 4: 2.0**-1022, 5: 0.125, 6: 7 * 5e-324, 9: 2.0**-60, 11: 0.25 / 3, 13: 1e-300}
CURSOR_MODELS = [
    *SHARP_MEAN_MODELS,
    lambda: TwoPoint(5, 0.3, 5),
    lambda: BiasedWalk(0.5, 1),
    lambda: ExplicitProcess(TruncatedPMF.from_masses(
        EXACT_MASSES, residual=1.0 - math.fsum(EXACT_MASSES.values()), residual_kind=AT_INFINITY)),
]


class TestExactCursor:
    """The cursor's two sums are fsum's bits wherever it has been moved."""

    @given(which=st.integers(0, len(CURSOR_MODELS) - 1),
           moves=st.lists(st.integers(0, 60) | st.integers(0, 1500), min_size=1, max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_head_sums_equal_fsum(self, which, moves):
        model = CURSOR_MODELS[which]()
        for t in moves:
            mass, weighted = model._head_sums(t)
            head = model._prefix(t)
            assert mass.hex() == math.fsum(head.tolist()).hex(), t
            assert weighted.hex() == math.fsum((np.arange(t + 1) * head).tolist()).hex(), t

    @pytest.mark.parametrize("make", [lambda: BiasedWalk(0.55, 3), lambda: CycleTrap(0.75, 2, 14)],
                             ids=["brw", "cycle-trap"])
    def test_far_move_down_sums_afresh(self, make, monkeypatch):
        # From N = 16000 down to N = 10 the cursor sums u(0..9) from -1
        # rather than walk back over 15990 masses; every mean keeps a fresh
        # model's bits.
        model = make()
        converted = []
        fixed = models._fixed
        monkeypatch.setattr(models, "_fixed", lambda x: converted.append(x) or fixed(x))
        for n in (16000, 10, 16000):
            expected = SharpRestart(n).closed_form_mean(make())
            converted.clear()
            assert SharpRestart(n).closed_form_mean(model).hex() == expected.hex(), n
            if n == 10:
                head = model._prefix(9)
                assert converted == [x for t in np.flatnonzero(head).tolist() for x in (head[t], t * head[t])]


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

    @pytest.mark.parametrize("p, m", [(0.55, 3), (0.5, 1), (0.3, 2), (1e-300, 4)])
    def test_pgf_at_zero_is_positive_zero(self, p, m):
        # The general expression gives (0 / 2)**m = +0.0 with no special case.
        assert math.copysign(1.0, BiasedWalk(p, m).pgf(0.0)) == 1.0
        assert BiasedWalk(p, m).pgf(0.0) == 0.0

    @given(
        p=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            # The doubles within 2**22 ulps of 1/2: its neighbours are 2**-54
            # apart below it and 2**-53 above.
            st.integers(-(2**22), 2**22).map(lambda k: 0.5 + k * 2.0 ** (-54 if k < 0 else -53)),
        ),
        z=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1.0, math.nextafter(1.0, 0.0)])),
        rho=st.floats(2.0**-20, 1.0, exclude_max=True),
        m=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_square_root_argument_is_never_negative(self, p, z, rho, m):
        # With q = 1.0 - p: for p >= 1/2, q is exact (Sterbenz) and 4pq <= 1;
        # for p < 1/2, 4pq < 1 + 2**-53, which rounds to at most 1.  Rounding
        # is monotone, so multiplying twice by z <= 1 (or x = 1 - rho) keeps
        # it at most 1: pgf and the radical mean need no clamp on it.
        assert 1.0 - 4.0 * p * (1.0 - p) * z * z >= 0.0
        BiasedWalk(p, m).pgf(z)
        x = 1.0 - rho
        arg = 1.0 - 4.0 * p * (1.0 - p) * x * x
        assert arg >= 0.0
        brw_geometric_mean(p, m, rho)

    def test_square_root_argument_near_one_half(self):
        # Every double within 4096 nextafter steps of 1/2, at z = 1 and just below.
        for toward in (0.0, 1.0):
            p = 0.5
            for _ in range(4096):
                p = math.nextafter(p, toward)
                for z in (1.0, math.nextafter(1.0, 0.0)):
                    assert 1.0 - 4.0 * p * (1.0 - p) * z * z >= 0.0
                    assert 0.0 < BiasedWalk(p, 1).pgf(z) <= 1.0
                assert brw_geometric_mean(p, 1, 2.0**-20) > 0.0
        # Away from 1/2 too, 2p/(1 + root) would round past 1, unbounded, for about 6 % of p > 1/2.
        for p in np.random.default_rng(11).uniform(0.5, 1.0, 20_000).tolist():
            assert BiasedWalk(p, 1).pgf(1.0) <= 1.0

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

    @pytest.mark.parametrize("args", [(0.0, 1), (1.0, 1), (0.5, 0), (0.5, 1.5), (0.5, 3.0), (0.5, "3")])
    def test_rejects_bad_params(self, args):
        with pytest.raises(ValueError):
            BiasedWalk(*args)


KERNEL_PS = [0.01, 0.3, 0.5, 0.51, 0.54, 0.55, 0.8, 0.999]
KERNEL_MS = [1, 3, 40, 200]


@pytest.fixture(scope="module")
def loop_masses():
    """u(m+2k), k = 0..4200, from the per-mass loop for each (p, m) of the
    grid, computed once."""
    return {(p, m): scalar_masses.masses(BiasedWalk(p, m), 0, 4200) for p in KERNEL_PS for m in KERNEL_MS}


@pytest.fixture(params=[1, 2, 3])
def small_chunks(request, monkeypatch):
    """The walk kernel's chunk bound cut to a few masses, so that short
    expansions cross many chunk edges."""
    monkeypatch.setattr(models, "_CHUNK", request.param)
    return request.param


def assert_law_is_loops(dist, walk, masses):
    """``dist`` is the walk's law from the loop's ``masses`` u(m), u(m+2), …:
    the same coefficient bytes, and the residual their fsum leaves of 1."""
    head = np.zeros(dist.t_max + 1)
    head[walk.m :: 2] = masses[: head[walk.m :: 2].size]
    assert dist.coefficients.tobytes() == head.tobytes()
    assert dist.residual.hex() == max(0.0, 1.0 - math.fsum(head.tolist())).hex()
    assert dist.residual_kind == (AT_INFINITY if walk.p <= 0.5 else TRUNCATION)


class TestWalkKernel:
    """``BiasedWalk._masses`` is an array kernel with the doubles of the
    per-mass loop it replaced (``tests/scalar_masses.py``), for every range,
    horizon and default expansion, wherever the chunk edges fall."""

    @pytest.mark.parametrize("m", KERNEL_MS)
    @pytest.mark.parametrize("p", KERNEL_PS)
    def test_masses_and_laws_are_the_loops(self, p, m, loop_masses):
        walk, want = BiasedWalk(p, m), loop_masses[p, m]
        for lo, hi in [(0, 63), (64, 127), (1000, 1063), (0, 3998), (7, 7), (5, 4)]:
            assert walk._masses(lo, hi).tobytes() == np.array(want[lo : hi + 1]).tobytes(), (lo, hi)
        # Growing horizons extend the held masses a block, then a range, at a
        # time; a fresh walk's pmf(m + 8400) crosses the chunk edge at
        # k = 4096 in one extension.
        for t_max in (m, m + 126, m + 254, m + 2126, m + 7996):
            assert_law_is_loops(walk.pmf(t_max), walk, want)
        assert_law_is_loops(BiasedWalk(p, m).pmf(m + 8400), walk, want)

    @pytest.mark.parametrize("m", KERNEL_MS)
    @pytest.mark.parametrize("p", KERNEL_PS)
    def test_default_horizon_is_the_loops(self, p, m, monkeypatch):
        # The walks at p = 0.5 and 0.51 run to MAX_TERMS, cut here to keep the test short.
        monkeypatch.setattr(models, "MAX_TERMS", 20_001)
        want = scalar_masses.default_masses(BiasedWalk(p, m))
        dist = BiasedWalk(p, m).pmf()
        assert dist.t_max == m + 2 * (len(want) - 1)
        assert_law_is_loops(dist, BiasedWalk(p, m), want)

    @pytest.mark.parametrize("p, m", [(0.8, 3), (0.62, 3), (0.3, 1), (0.999, 200), (0.5, 1)])
    def test_stops_on_chunk_edges(self, p, m, small_chunks, monkeypatch):
        # Every chunk is 1-3 masses, so the stop falls at each offset in a
        # chunk; the critical walk stops at MAX_TERMS, the others short of it.
        monkeypatch.setattr(models, "MAX_TERMS", 1_001)
        want = scalar_masses.default_masses(BiasedWalk(p, m))
        for warm in (None, m + 41, m + 2 * len(want) - 3):
            walk = BiasedWalk(p, m)
            if warm is not None:  # the held masses' sum seeds the running sum
                walk.pmf(warm)
            dist = walk.pmf()
            assert dist.t_max == m + 2 * (len(want) - 1), warm
            assert dist.coefficients[m::2].tobytes() == np.array(want).tobytes(), warm

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    def test_stop_on_the_loops_running_sum(self, chunk, monkeypatch, loop_masses):
        # A target equal to the loop's running sum at k stops there only if
        # the chunks' seeded sums round as the loop's did: 1 - (1 - acc) is
        # acc exactly, since 1 - acc is exact for acc in [0.5, 1].
        monkeypatch.setattr(models, "_CHUNK", chunk)
        acc, sums = 0.0, []
        for mass in loop_masses[0.55, 3]:
            acc += mass
            sums.append(acc)
        for k in [k for k, acc in enumerate(sums) if acc >= 0.5][:40:2]:
            monkeypatch.setattr(models, "RESIDUAL_TARGET", 1.0 - sums[k])
            for warm in (None, 3 + k // 2):
                walk = BiasedWalk(0.55, 3)
                if warm is not None:
                    walk.pmf(warm)
                assert walk.pmf().t_max == 3 + 2 * sums.index(sums[k]), (k, warm)

    @pytest.mark.parametrize("p, m", [(0.55, 3), (0.3, 40), (0.999, 1)])
    def test_extensions_on_chunk_edges(self, p, m, small_chunks, loop_masses):
        # A time at a time, a few masses at a time and all at once give the loop's bytes.
        walk, stop = BiasedWalk(p, m), m + 300
        times, masses = walk._atoms(0, stop)
        assert times.tolist() == list(range(m, stop, 2))
        assert masses.tobytes() == np.array(loop_masses[p, m][: times.size]).tobytes()
        single = [walk._atoms(t, t + 1) for t in range(stop)]
        assert np.concatenate([t for t, _ in single]).tolist() == times.tolist()
        assert np.concatenate([x for _, x in single]).tobytes() == masses.tobytes()
        for t_max in range(m, stop, 7):
            walk.pmf(t_max)
        assert walk.pmf(stop - 1).coefficients[m::2].tobytes() == masses.tobytes()

    def test_default_expansion_memory(self, monkeypatch):
        # The critical walk runs to MAX_TERMS, here 2·10^5 + 1 (10^5 masses,
        # 1.6 MB held), since tracing allocations slows the full 10^6 tenfold.
        # Besides the held array, the peak is the default horizon's masses,
        # held in chunks and then joined for the one extension that writes
        # them, and the kernel's temporaries, which stay per chunk: 0.05 MiB measured,
        # against 0.5 MiB for a kernel called on chunks of up to 65536 masses.
        monkeypatch.setattr(models, "MAX_TERMS", 200_001)
        walk = BiasedWalk(0.5, 1)
        tracemalloc.start()
        try:
            walk.pmf()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert walk._held.nbytes == 8 * 200_000
        assert peak <= 2 * walk._held.nbytes + 2**18

    def test_default_law_holds_no_copy(self, monkeypatch):
        # The law views the held masses, so what stays allocated while it
        # lives is the held array and small change: 1.53 MiB, against
        # 3.06 MiB when each law held its own copy.
        monkeypatch.setattr(models, "MAX_TERMS", 200_001)
        walk = BiasedWalk(0.5, 1)
        tracemalloc.start()
        try:
            law = walk.pmf()
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert law.coefficients.size == walk._held.size == 200_000
        assert current <= walk._held.nbytes + 2**18


class TestTwoPoint:
    def test_moments(self):
        tp = TwoPoint(1, 0.75, 20)
        assert tp.mean() == 5.75
        assert tp.second_factorial_moment() == 95.0
        tp2 = TwoPoint(1, 0.25, 20)
        assert tp2.mean() == 15.25
        assert tp2.second_factorial_moment() == 285.0

    def test_one_support_point(self):
        # t1 == t2 holds one atom, w1 + (1 - w1), the bits adding both to 0.0 gives.
        dist = TwoPoint(5, 0.3, 5).pmf(9)
        assert dist.coefficients.tobytes() == np.array([0.0] * 5 + [1.0] + [0.0] * 4).tobytes()
        assert dist.residual == 0.0

    def test_pmf_and_truncation(self):
        tp = TwoPoint(1, 0.75, 20)
        dist = tp.pmf()
        assert dist.coefficients[1] == 0.75
        assert dist.coefficients[20] == 0.25
        short = tp.pmf(5)
        assert short.t_max == 5
        assert short.residual == 0.25

    @pytest.mark.parametrize("t1, t2", [(1, 20), (20, 1), (4, 4)])
    @pytest.mark.parametrize("w1", [0.0, 0.25, 0.75, 1.0])
    def test_tail_has_the_bits_of_fsum(self, t1, w1, t2):
        # At most two weights lie past t: one addition, correctly rounded.
        model = TwoPoint(t1, w1, t2)
        for t in range(26):
            want = _fsum(np.array([w for time, w in model._points() if time > t]))
            assert model._tail(t, 0.0).hex() == want.hex()

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
        assert TwoPoint(1, 1.0, 20).min_support() == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5, 0.5, 20), "t1 and t2 must be integers"),
            ((1, 0.5, 20.0), "t1 and t2 must be integers"),
            ((np.float64(1), 0.5, 20), "t1 and t2 must be integers"),
            ((0, 0.5, 20), "support points must be >= 1"),
            ((1, 0.5, -3), "support points must be >= 1"),
            ((1, -0.1, 20), r"w1 must lie in \[0, 1\]"),
            ((1, 1.5, 20), r"w1 must lie in \[0, 1\]"),
        ],
    )
    def test_rejects_bad_params(self, args, message):
        with pytest.raises(ValueError, match=message):
            TwoPoint(*args)


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

    def test_defective_prefix_has_the_infinite_mean(self):
        # The masses folded in past n = 6 join the mass at infinity, and the
        # prefix's mean stays infinite, like the model's.
        dist = TruncatedPMF.from_masses({5: 0.2, 9: 0.3}, residual=0.5, residual_kind=AT_INFINITY)
        short = ExplicitProcess(dist).pmf(6)
        assert short.residual_kind == AT_INFINITY
        assert short.residual == pytest.approx(0.8)
        assert short.mean() == ExplicitProcess(dist).mean() == math.inf

    def test_negative_zero_is_held_as_zero(self):
        # The held masses start as +0.0 and only nonzero masses are written
        # over them, so a -0.0 coefficient holds as +0.0.
        model = ExplicitProcess(TruncatedPMF(np.array([0.0, -0.0, 0.5, -0.0, 0.5])))
        assert not np.signbit(model.pmf(4).coefficients).any()

    def test_hit_prob_from_residual(self):
        dist = TruncatedPMF.from_masses({1: 0.7}, residual=0.3, residual_kind=AT_INFINITY)
        assert ExplicitProcess(dist).hit_prob() == pytest.approx(0.7)

    def test_draw_lands_in_residual(self):
        dist = TruncatedPMF.from_masses({1: 0.7}, residual=0.3, residual_kind=AT_INFINITY)
        model = ExplicitProcess(dist)
        assert model.step(None, 0.5) == 0
        assert model.step(None, 0.8) == math.inf

    def test_empty_finite_support_has_no_smallest_point(self):
        model = ExplicitProcess(TruncatedPMF.from_masses({3: 0.0}, residual=1.0, residual_kind=AT_INFINITY))
        with pytest.raises(ValueError, match="empty finite support"):
            model.min_support()


class TestCountdownRationalPgf:
    """The countdown processes state U's PGF as its masses over D = 1, in an
    array of their own, when no mass lies past those masses."""

    MODELS = [
        lambda: TwoPoint(1, 0.25, 20),
        lambda: TwoPoint(20, 0.75, 1),
        lambda: TwoPoint(4, 0.3, 4),
        lambda: TwoPoint(3, 0.0, 7),
        lambda: ExplicitProcess(TruncatedPMF.from_masses({1: 0.25, 4: 0.5, 9: 0.25})),
    ]

    @pytest.mark.parametrize("make", MODELS, ids=lambda make: make().describe())
    def test_masses_over_one(self, make):
        poly, den = make().rational_pgf()
        assert den.tolist() == [1.0]
        assert poly.tobytes() == make().pmf().coefficients.tobytes()
        assert poly.flags.writeable

    @pytest.mark.parametrize(
        "dist",
        [
            TruncatedPMF.from_masses({2: 0.5, 7: 0.25}, residual=0.25, residual_kind=AT_INFINITY),
            TruncatedPMF.from_masses({2: 0.5, 7: 0.5 - 1e-12}, residual=1e-12),
        ],
        ids=["at-infinity", "truncation"],
    )
    def test_none_with_mass_past_them(self, dist):
        assert ExplicitProcess(dist).rational_pgf() is None

    @pytest.mark.parametrize("make", MODELS, ids=lambda make: make().describe())
    def test_geometric_law_holds_no_mass(self, make):
        model = make()
        fpur_pmf(model, GeometricRestart(0.1), 300)
        assert model._prefix().size == 0


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


# Each model and clock with its integer parameters given as numpy integers
# (and a bool), and the description of the equal value built from ints.
INTEGER_PARAMS = [
    (SharpRestart, (np.int64(3),), ("n_restart",), "sharp:N=3"),
    (SharpRestart, (True,), ("n_restart",), "sharp:N=1"),
    (BiasedWalk, (0.6, np.int64(3)), ("m",), "brw:p=0.6,m=3"),
    (CycleTrap, (0.5, np.int32(2), np.uint16(4)), ("L", "M"), "cycle-trap:p=0.5,L=2,M=4"),
    (TwoPoint, (np.int64(1), 0.5, np.int8(20)), ("t1", "t2"), "two-point:t1=1,w1=0.5,t2=20"),
]


@pytest.mark.parametrize("make, args, names, text", INTEGER_PARAMS, ids=lambda v: getattr(v, "__name__", None))
def test_integer_parameters_are_held_as_ints(make, args, names, text):
    # One rule for every integer parameter: read through operator.index and
    # held as the Python int, so the value equals, hashes and describes
    # itself as the one built from plain ints.
    value = make(*args)
    assert all(type(getattr(value, name)) is int for name in names)
    assert value.describe() == text
    plain = make(*(a if isinstance(a, float) else int(a) for a in args))
    assert value == plain and hash(value) == hash(plain)


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


def test_clock_arrays_are_read_only_in_models_and_series():
    # The restarted PGF's terms come from RestartSpec.renewal_terms, so no
    # other module reads a clock's or a law's arrays on its own.
    found = []
    for path in sorted(Path(restartfp.__file__).parent.glob("*.py")):
        if path.stem not in ("models", "series"):
            found += [
                (path.stem, node.lineno)
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr in ("pmf_array", "survival_array")
            ]
    assert found == []


def _attribute_calls(tree, attr):
    """(enclosing class or None, line) of each call of ``<expr>.attr``."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == attr:
                found.append((cls, child.lineno))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def test_default_horizon_is_called_only_by_process_models():
    # The default expansion is ProcessModel.pmf's own policy: no restart
    # clock, fpur or cli code reads U over it.
    calls, stray = [], []
    for path in sorted(Path(restartfp.__file__).parent.glob("*.py")):
        for cls, line in _attribute_calls(ast.parse(path.read_text()), "_default_horizon"):
            calls.append(line)
            owner = getattr(models, cls, None) if path.stem == "models" and cls else None
            if not (isinstance(owner, type) and issubclass(owner, models.ProcessModel)):
                stray.append((path.stem, cls, line))
    assert calls
    assert stray == []


def test_held_masses_are_touched_only_by_process_model():
    # Every other reader of U's held masses and the exact cursor over them
    # goes through ProcessModel._prefix and ProcessModel._head_sums.
    found = []
    private = {"_held", "_cursor"}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in private or (
                isinstance(child, ast.Constant) and child.value in private
            ):
                found.append(scope)
            inner = (*scope, child.name) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            visit(child, inner)

    for path in sorted(Path(restartfp.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    assert found
    assert {scope[:2] for scope in found} == {("models", "ProcessModel")}
    assert all(len(scope) == 3 for scope in found)


def _class_bodies():
    """Each class in src/ by name: the names its own body defines."""
    own = {}
    for path in sorted(Path(restartfp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                own[node.name] = {child.name for child in node.body if isinstance(child, ast.FunctionDef)} | {
                    target.id for child in node.body if isinstance(child, ast.Assign)
                    for target in child.targets if isinstance(target, ast.Name)
                }
    return own


def test_clock_cdf_and_hit_prob_come_from_survival():
    # RestartSpec defines both as complements of survival; only the explicit
    # clock keeps its own cdf, its law's cumulative sum.  No clock has a
    # per-point pmf, pgf or mean: fpur and the simulator read none of them.
    own = _class_bodies()
    found = sorted(
        (name, base.__name__, method)
        for name in RESTART_CLASSES
        for base in getattr(models, name).__mro__ if base is not models.RestartSpec
        for method in own.get(base.__name__, set()) & {"cdf", "hit_prob"}
    )
    assert found == [("ExplicitRestart", "ExplicitRestart", "cdf")]
    per_point = sorted(
        (base.__name__, method)
        for name in RESTART_CLASSES
        for base in getattr(models, name).__mro__ if base is not object
        for method in own.get(base.__name__, set()) & {"pmf", "pgf", "mean"}
    )
    assert per_point == []
    assert {"pgf", "mean"} <= own["ExplicitProcess"]


def test_tails_return_only_the_residual():
    # ProcessModel.pmf tags the residual once, from the model's mean.
    returns = [
        node.value
        for path in sorted(Path(restartfp.__file__).parent.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text())) if isinstance(fn, ast.FunctionDef) and fn.name == "_tail"
        for node in ast.walk(fn) if isinstance(node, ast.Return)
    ]
    assert len(returns) == 4
    assert not any(isinstance(value, ast.Tuple) for value in returns)


def _scopes(match):
    """The scope, (module, class or function, ...), around each node of
    src/ that ``match`` accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.append(scope)
            visit(child, (*scope, child.name) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope)

    for path in sorted(Path(restartfp.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem,))
    return found


def test_powers_of_arange_only_in_series_powers():
    # Every vector of powers x**n comes from series._powers, which leaves
    # the zeros pow returns past underflow unevaluated.
    def match(node):
        right = getattr(node, "right", None)
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(right, ast.Call) and isinstance(right.func, ast.Attribute)
            and right.func.attr == "arange"
        )

    assert _scopes(match) == [("series", "_powers")]


def test_fsum_only_in_series_fsum():
    # Every exact sum goes through series._fsum, which adds only the
    # nonzero terms; math.fsum is named nowhere else.
    def match(node):
        return (isinstance(node, ast.Attribute) and node.attr == "fsum") or (
            isinstance(node, ast.ImportFrom) and any(alias.name == "fsum" for alias in node.names)
        )

    assert _scopes(match) == [("series", "_fsum")]


def test_operator_index_only_in_the_integer_rule():
    # Every integer parameter and horizon is read through series._index;
    # only SimConfig keeps its own reading, with its TypeError.
    def match(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "index"
            and isinstance(node.value, ast.Name) and node.value.id == "operator"
        ) or (
            isinstance(node, ast.ImportFrom) and node.module == "operator"
            and any(alias.name == "index" for alias in node.names)
        )

    assert set(_scopes(match)) == {("series", "_index"), ("montecarlo", "SimConfig", "__post_init__")}


def test_object_new_only_in_series_built():
    # One helper builds a frozen value past its constructor: the laws
    # TruncatedPMF._summed checks and the sweep's rows and result.
    def match(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"
        )

    assert _scopes(match) == [("series", "_built")]


def test_rational_pgf_is_stated_once_per_kind():
    # The base's None, the trap's two polynomials, and the countdown
    # processes' masses over D = 1.
    def match(node):
        return isinstance(node, ast.FunctionDef) and node.name == "rational_pgf"

    assert sorted(_scopes(match)) == [("models", "CycleTrap"), ("models", "ProcessModel"), ("models", "_CountdownMixin")]


def test_walk_kernel_has_one_caller():
    # The default horizon takes its chunks through _atoms, as every
    # extension does.
    def match(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_masses"

    assert _scopes(match) == [("models", "BiasedWalk", "_atoms")]


def test_property_tests_are_derandomized():
    # conftest loads a profile that derandomizes every @given test and keeps
    # no example database, so each run draws the same examples.
    assert settings.default.derandomize and settings.default.database is None


def test_all_is_every_public_name():
    public = {
        name for name, value in vars(restartfp).items()
        if not (name.startswith("_") or isinstance(value, types.ModuleType))
    }
    assert sorted(restartfp.__all__) == sorted(public | {"__version__"})
    assert not any(isinstance(getattr(restartfp, name), types.ModuleType) for name in restartfp.__all__)
