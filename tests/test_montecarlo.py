"""Simulation engine: determinism, epoch sampling, estimator calibration."""

import math

import numpy as np
import pytest

from restartfp import (
    BiasedWalk,
    CycleTrap,
    ExplicitRestart,
    GeometricRestart,
    SharpRestart,
    SimConfig,
    SimEstimate,
    TruncatedPMF,
    TwoPoint,
    mean_T_geometric,
    p_restart_wins,
    sample_restart,
    simulate_fpur,
    simulate_underlying,
    underlying_samples,
)

TP_FAST = TwoPoint(1, 0.75, 20)


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig(trials=10, seed=1)
        assert config.step_cap == 10**7
        assert config.ci_level == 0.99

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0, "seed": 1},
            {"trials": 10, "seed": -1},
            {"trials": 10, "seed": 2**64},
            {"trials": 10, "seed": 1, "step_cap": 0},
            {"trials": 10, "seed": 1, "ci_level": 1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestDeterminism:
    def test_identical_configs_agree_bitwise(self):
        model, spec = CycleTrap(0.5, 2, 4), GeometricRestart(0.2)
        config = SimConfig(trials=300, seed=42)
        assert simulate_fpur(model, spec, config) == simulate_fpur(model, spec, config)

    def test_seed_changes_output(self):
        model, spec = CycleTrap(0.5, 2, 4), GeometricRestart(0.2)
        a = simulate_fpur(model, spec, SimConfig(trials=300, seed=42))
        b = simulate_fpur(model, spec, SimConfig(trials=300, seed=43))
        assert a.mean != b.mean

    def test_trial_order_independence(self):
        # Trial i is keyed by (seed, i): the first trials of a longer run
        # reproduce a shorter run exactly.
        model = BiasedWalk(0.6, 1)
        short, _ = underlying_samples(model, SimConfig(trials=50, seed=9))
        long, _ = underlying_samples(model, SimConfig(trials=200, seed=9))
        assert np.array_equal(short, long[:50])


class TestSampleRestart:
    def test_sharp_is_constant(self):
        spec = SharpRestart(5)
        assert all(sample_restart(spec, u) == 5 for u in (0.0, 0.3, 0.999))

    def test_geometric_support_starts_at_one(self):
        spec = GeometricRestart(0.5)
        assert sample_restart(spec, 0.0) == 1
        assert sample_restart(spec, 1e-12) == 1

    def test_geometric_first_moment(self):
        spec = GeometricRestart(0.5)
        rng = np.random.default_rng(123)
        draws = [sample_restart(spec, u) for u in rng.random(200_000).tolist()]
        assert min(draws) == 1
        assert abs(np.mean(draws) - 2.0) < 0.01

    @pytest.mark.parametrize(
        "spec",
        [
            GeometricRestart(0.3),
            SharpRestart(3),
            ExplicitRestart(TruncatedPMF.from_masses({1: 0.3, 2: 0.41, 6: 0.29})),
        ],
        ids=lambda s: s.describe(),
    )
    def test_matches_inverse_cdf(self, spec):
        for u in (0.0, 0.1, 0.29, 0.3, 0.71, 0.95):
            k = sample_restart(spec, u)
            assert k == spec.draw(u)
            assert spec.cdf(k - 1) <= u <= spec.cdf(k) + 1e-12

    def test_explicit_residual_draw_is_infinite(self):
        spec = ExplicitRestart(
            TruncatedPMF.from_masses({2: 0.5}, residual=0.5, residual_kind="at_infinity")
        )
        assert sample_restart(spec, 0.25) == 2
        assert sample_restart(spec, 0.75) == math.inf

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError):
            sample_restart(object(), 0.5)


class TestSimulateUnderlying:
    def test_cycle_trap_mean(self):
        estimate = simulate_underlying(CycleTrap(0.5, 2, 4), SimConfig(trials=2000, seed=11))
        assert estimate.censored == 0
        assert not estimate.is_lower_bound
        assert estimate.ci_low <= 7.0 <= estimate.ci_high
        assert estimate.mean_restarts == 0.0

    def test_walk_mean(self):
        estimate = simulate_underlying(BiasedWalk(0.6, 1), SimConfig(trials=2000, seed=12))
        assert estimate.censored == 0
        assert estimate.ci_low <= 5.0 <= estimate.ci_high

    def test_null_recurrent_walk_censors(self):
        config = SimConfig(trials=2000, seed=13, step_cap=10_000)
        estimate = simulate_underlying(BiasedWalk(0.5, 1), config)
        assert estimate.censored > 0
        assert estimate.is_lower_bound
        assert estimate.trials_used == 2000 - estimate.censored


class TestSimulateFpur:
    def test_two_point_geometric(self):
        estimate = simulate_fpur(TP_FAST, GeometricRestart(0.1), SimConfig(trials=2000, seed=5))
        target = mean_T_geometric(TP_FAST, 0.1)
        assert estimate.censored == 0
        assert estimate.ci_low <= target <= estimate.ci_high

    def test_trap_sharp(self):
        estimate = simulate_fpur(
            CycleTrap(0.25, 5, 10), SharpRestart(8), SimConfig(trials=2000, seed=6)
        )
        assert estimate.censored == 0
        assert estimate.ci_low <= 29.0 <= estimate.ci_high

    def test_preemptive_pair_censors_everything(self):
        config = SimConfig(trials=5, seed=7, step_cap=1000)
        estimate = simulate_fpur(CycleTrap(0.25, 7, 5), SharpRestart(1), config)
        assert estimate.censored == 5
        assert estimate.trials_used == 0
        assert math.isnan(estimate.mean)
        assert math.isnan(estimate.ci_low)
        assert estimate.is_lower_bound

    def test_restart_counts_match_renewal_law(self):
        # Rounds are independent, so the restart count is geometric with
        # success probability 1 - p_restart_wins; check mean to 3 stderr.
        pairs = [
            (CycleTrap(0.5, 2, 4), GeometricRestart(0.2)),
            (CycleTrap(0.25, 5, 10), SharpRestart(8)),
            (TP_FAST, GeometricRestart(0.1)),
            (BiasedWalk(0.6, 1), GeometricRestart(0.3)),
            (BiasedWalk(0.3, 1), GeometricRestart(0.2)),
        ]
        trials = 3000
        for index, (model, spec) in enumerate(pairs):
            p_r = p_restart_wins(model, spec)
            d = 1.0 - p_r
            estimate = simulate_fpur(model, spec, SimConfig(trials=trials, seed=100 + index))
            assert estimate.censored == 0
            band = 3.0 * math.sqrt(p_r / d**2 / trials)
            assert abs(estimate.mean_restarts - p_r / d) <= band, model.describe()


class TestCiCalibration:
    def test_coverage_across_seeds(self):
        model, rho = CycleTrap(0.5, 2, 4), 0.2
        spec = GeometricRestart(rho)
        target = mean_T_geometric(model, rho)
        hits = 0
        for seed in range(200):
            estimate = simulate_fpur(model, spec, SimConfig(trials=400, seed=seed))
            if estimate.ci_low <= target <= estimate.ci_high:
                hits += 1
        assert hits >= 193


class TestTieRule:
    def test_epoch_equal_to_hit_time_restarts(self):
        # Every passage of CycleTrap(0.6, 2, 4) needs at least 2 steps, so a
        # sharp epoch of 2 preempts even the direct path: ties go to restart.
        trap = CycleTrap(0.6, 2, 4)
        assert p_restart_wins(trap, SharpRestart(2)) == 1.0
        config = SimConfig(trials=5, seed=8, step_cap=500)
        estimate = simulate_fpur(trap, SharpRestart(2), config)
        assert estimate.trials_used == 0
        assert estimate.censored == 5

    def test_one_extra_step_unlocks_direct_path(self):
        trap = CycleTrap(0.6, 2, 4)
        estimate = simulate_fpur(trap, SharpRestart(3), SimConfig(trials=2000, seed=8))
        assert estimate.censored == 0
        assert estimate.ci_low <= 4.0 <= estimate.ci_high


class TestEstimateShape:
    def test_single_trial_has_zero_stderr(self):
        estimate = simulate_underlying(CycleTrap(1.0, 3, 2), SimConfig(trials=1, seed=1))
        assert estimate == SimEstimate(
            mean=3.0,
            stderr=0.0,
            ci_low=3.0,
            ci_high=3.0,
            censored=0,
            trials_used=1,
            mean_restarts=0.0,
        )
