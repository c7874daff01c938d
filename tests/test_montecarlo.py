"""Simulation engine: determinism, epoch sampling, estimator calibration,
the stream contract, equality with the scalar reference loop, and runs
split over helper processes."""

import math
import os
import pickle
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import scalar_engine
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartfp import (
    AT_INFINITY,
    BiasedWalk,
    CycleTrap,
    ExplicitProcess,
    ExplicitRestart,
    GeometricRestart,
    ProcessModel,
    SharpRestart,
    SimConfig,
    SimEstimate,
    TruncatedPMF,
    TwoPoint,
    fpur_pmf,
    mean_T_geometric,
    p_restart_wins,
    sample_restart,
    simulate_fpur,
    simulate_underlying,
    underlying_samples,
)
import restartfp
from restartfp import models, montecarlo
from restartfp.montecarlo import _FIRST_CHUNK, _HELPERS, DEFAULT_STEP_CAP, _run_trials, _stdev, _summarize

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

    @pytest.mark.parametrize("field", ["trials", "seed", "step_cap"])
    @pytest.mark.parametrize("value", [50.0, 1.5, "50", None])
    def test_rejects_non_integral_counts(self, field, value):
        kwargs = {"trials": 10, "seed": 1, field: value}
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("field", ["trials", "seed", "step_cap"])
    def test_numpy_integers_become_ints(self, field):
        kwargs = {"trials": 10, "seed": 1, field: np.uint64(7)}
        value = getattr(SimConfig(**kwargs), field)
        assert value == 7
        assert type(value) is int


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
        assert math.isnan(estimate.mean_restarts)
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


# Pairs whose clock surely fires by its last epoch, at most U's smallest
# support point: every leg restarts before it can hit.
NO_HIT_PAIRS = [
    (CycleTrap(0.25, 5, 10), SharpRestart(2)),
    (CycleTrap(0.25, 5, 10), SharpRestart(5)),
    (CycleTrap(0.25, 5, 10), ExplicitRestart(TruncatedPMF.from_masses({2: 0.5, 5: 0.5}))),
    (BiasedWalk(0.55, 3), SharpRestart(3)),
    (TwoPoint(4, 0.5, 9), ExplicitRestart(TruncatedPMF.from_masses({1: 0.25, 3: 0.75}))),
    (ExplicitProcess(TruncatedPMF.from_masses({2: 0.3, 70: 0.2}, residual=0.5, residual_kind="at_infinity")),
     SharpRestart(2)),
]
# One step more, or a clock that may never fire: a leg can hit.
HIT_PAIRS = [
    (CycleTrap(0.25, 5, 10), SharpRestart(6)),
    (CycleTrap(0.25, 5, 10), ExplicitRestart(TruncatedPMF.from_masses({2: 0.5, 6: 0.5}))),
    (CycleTrap(0.25, 5, 10), ExplicitRestart(TruncatedPMF.from_masses({2: 0.5}, residual=0.5))),
    (BiasedWalk(0.55, 3), SharpRestart(4)),
]


class TestPairsThatCannotHit:
    @pytest.mark.parametrize("model, spec", NO_HIT_PAIRS, ids=lambda v: v.describe())
    def test_no_trial_runs(self, model, spec, monkeypatch):
        # The run's fields are those of its trials at a small step cap.
        want = [_summarize(*_run_trials(model, spec, SimConfig(7, 3, step_cap=c)), SimConfig(7, 3)) for c in (1, 50)]

        def refuse(*args):
            raise AssertionError("ran a trial")

        monkeypatch.setattr(_HELPERS, "run", refuse)
        monkeypatch.setattr(montecarlo, "_run_trials", refuse)
        got = simulate_fpur(model, spec, SimConfig(7, 3))
        assert repr(got) == repr(want[0]) == repr(want[1])
        assert (got.censored, got.trials_used) == (7, 0)

    @pytest.mark.parametrize("model, spec", HIT_PAIRS, ids=lambda v: v.describe())
    def test_pairs_that_can_hit_run_their_trials(self, model, spec, monkeypatch):
        runs = []
        run = _HELPERS.run
        monkeypatch.setattr(_HELPERS, "run", lambda *args: runs.append(args) or run(*args))
        config = SimConfig(40, 3)
        assert simulate_fpur(model, spec, config) == _summarize(*_run_trials(model, spec, config), config)
        assert len(runs) == 1


def chi_square_sf(stat, df):
    """P(X >= stat) for X chi-square with ``df`` degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, stat/2) in closed form."""
    h = stat / 2
    if df % 2 == 0:
        return math.exp(-h) * math.fsum(h**i / math.factorial(i) for i in range(df // 2))
    return math.erfc(math.sqrt(h)) + math.exp(-h) * math.fsum(h ** (i - 0.5) / math.gamma(i + 0.5) for i in range(1, df // 2 + 1))


class TestRestartCountLaw:
    """The restart count K of a trial that hits, against its exact law: the
    cycles are independent, so P(K = k) = w^k (1 - w), w = P(R <= U)."""

    # Pairs that hit surely; each seed was fixed before its statistic was seen.
    PAIRS = [
        (BiasedWalk(0.6, 1), GeometricRestart(0.1), 1501),
        (CycleTrap(0.75, 2, 14), SharpRestart(9), 1502),
    ]
    TRIALS = 40_000
    # A pair fails falsely with probability ALPHA under the chi-square
    # approximation (its smallest expected count, K >= 6, is 14.2 and 9.8),
    # so the test does with at most 1e-6, by the union bound.
    ALPHA = 5e-7

    @pytest.mark.parametrize("model, spec, seed", PAIRS, ids=["brw-geometric", "cycle-trap-sharp"])
    def test_chi_square(self, model, spec, seed):
        _, restarts, censored = _run_trials(model, spec, SimConfig(trials=self.TRIALS, seed=seed))
        assert censored == 0
        w = p_restart_wins(model, spec)
        # Bins k = 0..5 and the tail k >= 6: six degrees of freedom.
        observed = np.bincount(np.minimum(restarts, 6), minlength=7)
        expected = self.TRIALS * np.array([w**k * (1.0 - w) for k in range(6)] + [w**6])
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi_square_sf(stat, 6) >= self.ALPHA, (stat, observed.tolist())


class TestHittingTimeLaw:
    """The restarted hitting time T of a trial, against the exact law from
    ``fpur_pmf`` on 0..200: a chi-square over its atoms."""

    # Each seed was fixed before its statistic was seen.
    PAIRS = [
        (BiasedWalk(0.6, 1), GeometricRestart(0.1), 1601),
        (CycleTrap(0.75, 2, 14), SharpRestart(9), 1602),
        (TwoPoint(1, 0.25, 20), GeometricRestart(0.3), 1603),
        (
            BiasedWalk(0.55, 3),
            ExplicitRestart(TruncatedPMF.from_masses({5: 0.5, 12: 0.3}, residual=0.2, residual_kind=AT_INFINITY)),
            1604,
        ),
        (BiasedWalk(0.55, 3), SharpRestart(12), 1605),
        # Trials that pass through up to three whole cycles before N = 20,
        # so a cycle of the wrong length moves atoms; under N = 9 above no
        # trial completes one.
        (CycleTrap(0.5, 2, 4), SharpRestart(20), 1606),
    ]
    TRIALS = 20_000
    HORIZON = 200
    # A pair fails falsely with probability ALPHA under the chi-square
    # approximation, so the test does with at most 1e-6, by the union bound.
    ALPHA = 1e-6 / len(PAIRS)

    @pytest.mark.parametrize(
        "model, spec, seed",
        PAIRS,
        ids=["brw-geometric", "cycle-trap-sharp", "two-point-geometric", "brw-leaky-explicit", "brw-sharp",
             "cycle-trap-sharp-whole-cycles"],
    )
    def test_chi_square(self, model, spec, seed):
        times, _, censored = _run_trials(model, spec, SimConfig(trials=self.TRIALS, seed=seed))
        assert censored == 0
        law = fpur_pmf(model, spec, self.HORIZON)
        counts = np.bincount(np.minimum(times, self.HORIZON + 1), minlength=self.HORIZON + 2)
        # No trial ends at a time of mass 0.
        masses = np.append(law.coefficients, law.residual)
        assert not counts[masses == 0.0].any()
        # The atoms (the times past the horizon one of them) with an
        # expected count below 5 are pooled, with the next smallest until
        # the pool expects at least 5.
        expected = self.TRIALS * masses
        order = np.argsort(expected, kind="stable")
        pooled = max(np.count_nonzero(expected < 5.0), int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1)
        pool, kept = order[:pooled], order[pooled:]
        observed = np.append(counts[kept], counts[pool].sum())
        expected = np.append(expected[kept], expected[pool].sum())
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi_square_sf(stat, observed.size - 1) >= self.ALPHA, (stat, observed.size)


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


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds correctly from 3.11")
class TestStdev:
    """``_stdev`` from integer sums equals ``statistics.stdev`` of the same
    totals, bit for bit: ``ci_low`` and ``ci_high`` are pinned.  Totals past
    2**53, which a user's ``step_cap`` allows, are compared as ints, since
    their floats are not exact; a variance past about 2**109 scales the
    denominator rather than the numerator."""

    @given(totals=st.lists(st.integers(1, DEFAULT_STEP_CAP) | st.integers(1, 2**80), min_size=2, max_size=60))
    @example(totals=[7, 7, 7])
    @example(totals=[1, 2**80])
    @settings(max_examples=200, deadline=None)
    def test_small_samples(self, totals):
        assert _stdev(totals) == statistics.stdev(totals)

    @given(n=st.integers(2, 3000), high=st.integers(1, DEFAULT_STEP_CAP), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_large_samples(self, n, high, seed):
        rng = random.Random(seed)
        totals = [rng.randint(1, high) for _ in range(n)]
        assert _stdev(totals) == statistics.stdev(map(float, totals))


def native_uniforms(seed, trial, n):
    return np.random.Generator(np.random.Philox(key=(seed << 64) + trial)).random(n)


class RecordingModel(ProcessModel):
    """Runs trial ``i`` for exactly ``lengths[i]`` steps and records the
    uniforms the engine hands it, in the order it hands them."""

    def __init__(self, lengths):
        self._lengths = iter(lengths)
        self.seen = []

    def initial_state(self):
        self.seen.append([])
        return next(self._lengths)

    def run_leg(self, state, u, start, steps):
        taken = min(state, steps)
        self.seen[-1] += u[start:start + taken]
        return state - taken, taken, taken == state


def engine_uniforms(seed, first, lengths):
    """The uniforms each trial of one run reads, trials numbered from
    ``first``; a bare run reads no epoch uniforms, so the model sees all."""
    model = RecordingModel(lengths)
    samples, _, censored = _run_trials(model, None, SimConfig(trials=len(lengths), seed=seed), first)
    assert censored == 0
    assert samples == [float(n) for n in lengths]
    return [np.array(seen) for seen in model.seen]


# Lengths that end inside the first chunk, on it, just past it, just past
# the first doubling, and past the point where chunks stop growing.
SEAM_LENGTHS = [_FIRST_CHUNK - 1, _FIRST_CHUNK, _FIRST_CHUNK + 1, 3 * _FIRST_CHUNK + 1, 20_000]
KEYS = [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


class TestStreamContract:
    @pytest.mark.parametrize("seed", KEYS)
    @pytest.mark.parametrize("trial", KEYS)
    @pytest.mark.parametrize("n", SEAM_LENGTHS)
    def test_trial_stream_equals_native_philox(self, seed, trial, n):
        [got] = engine_uniforms(seed, trial, [n])
        assert np.array_equal(got, native_uniforms(seed, trial, n))

    @given(seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**64 - 1),
           n=st.sampled_from(SEAM_LENGTHS))
    @settings(max_examples=40, deadline=None)
    def test_random_keys(self, seed, trial, n):
        [got] = engine_uniforms(seed, trial, [n])
        assert np.array_equal(got, native_uniforms(seed, trial, n))

    @pytest.mark.parametrize("seed", [11, 2**64 - 1])
    def test_trials_in_sequence(self, seed):
        # Consecutive trials share one re-keyed generator, numbered across
        # 2**32; each earlier trial stops inside a chunk, most of them
        # inside a 4-uniform Philox block too.
        lengths = [37, 1, 5, _FIRST_CHUNK + 2, 3 * _FIRST_CHUNK + 3, 6, 9000, 2, _FIRST_CHUNK - 1]
        first = 2**32 - 4
        for offset, got in enumerate(engine_uniforms(seed, first, lengths)):
            want = native_uniforms(seed, first + offset, lengths[offset])
            assert np.array_equal(got, want), offset

    def test_run_builds_one_generator(self, monkeypatch):
        # Re-keying one generator per trial, not building one, is what keeps
        # a short trial cheap: pin the count without timing anything, with
        # the whole run in this process.
        monkeypatch.setattr(montecarlo, "_cpus", lambda: 1)
        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        for trials in (1, 255, 257, 600):
            config = SimConfig(trials=trials, seed=3)
            built.clear()
            simulate_fpur(CycleTrap(0.25, 5, 10), SharpRestart(8), config)
            assert len(built) == 1, trials
            built.clear()
            underlying_samples(BiasedWalk(0.6, 1), config)
            assert len(built) == 1, trials


@dataclass(frozen=True)
class StepOnlyWalk(ProcessModel):
    """A lazy walk defined only through the one-step simulator, as a user
    subclass may be: the engine runs it through the base ``run_leg``."""

    start: int = 3

    def initial_state(self):
        return self.start

    def is_terminal(self, state):
        return state == 0

    def step(self, state, u):
        if u < 0.45:
            return state - 1
        return state + 1 if u > 0.7 else state


EXPLICIT_WITH_INFINITY = ExplicitProcess(
    TruncatedPMF.from_masses({2: 0.3, 9: 0.2, 70: 0.2}, residual=0.3, residual_kind="at_infinity")
)
ORACLE_MODELS = [
    CycleTrap(0.25, 5, 10),
    CycleTrap(0.6, 2, 4),  # every passage takes >= 2 steps: ties with sharp N = 2
    CycleTrap(1.0, 1, 1),
    CycleTrap(0.1, 3, 70),  # a period of 71, longer than the first chunk: climbs cross seams
    BiasedWalk(0.55, 3),
    BiasedWalk(0.3, 1),  # transient: long legs, censoring
    BiasedWalk(0.55, 40),  # the mc-long walk: strides across chunk seams and the cap
    TwoPoint(1, 0.75, 20),
    TwoPoint(3, 0.5, 70),
    EXPLICIT_WITH_INFINITY,
    StepOnlyWalk(),
]
ORACLE_SPECS = [
    GeometricRestart(0.1),
    GeometricRestart(0.005),
    SharpRestart(1),
    SharpRestart(2),
    SharpRestart(66),
    ExplicitRestart(TruncatedPMF.from_masses({3: 0.4, 40: 0.2}, residual=0.4,
                                             residual_kind="at_infinity")),
    # Its first epoch step is the second chunk's first uniform.
    SharpRestart(_FIRST_CHUNK),
]
# A cap inside the first leg, on the first chunk's last uniform, past it,
# one long enough for most trials to finish, and one on the step of epoch
# _FIRST_CHUNK.
ORACLE_CAPS = [5, _FIRST_CHUNK - 1, _FIRST_CHUNK + 1, 700, _FIRST_CHUNK]


class TestEngineOracle:
    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: type(m).__name__)
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: s.describe())
    def test_simulate_fpur_equals_scalar_loop(self, model, spec):
        for cap in ORACLE_CAPS:
            config = SimConfig(trials=60, seed=21, step_cap=cap)
            assert simulate_fpur(model, spec, config) == scalar_engine.simulate_fpur(model, spec, config)
            # One restart count per used trial, so a run with any used trial
            # has restart counts to average.
            samples, restarts, censored = _run_trials(model, spec, config)
            assert len(restarts) == len(samples) == config.trials - censored

    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: type(m).__name__)
    def test_underlying_samples_equal_scalar_loop(self, model):
        for cap in ORACLE_CAPS:
            config = SimConfig(trials=276, seed=22, step_cap=cap)
            samples, censored = underlying_samples(model, config)
            want, want_censored = scalar_engine.underlying_samples(model, config)
            assert censored == want_censored
            assert np.array_equal(samples, want)

    def test_terminal_step_on_the_epoch_restarts(self):
        # TwoPoint(1, 1.0, 1) terminates on step 1, the sharp epoch: every
        # leg restarts, so every trial is censored, as in the scalar loop.
        model, spec = TwoPoint(1, 1.0, 1), SharpRestart(1)
        config = SimConfig(trials=10, seed=4, step_cap=200)
        estimate = simulate_fpur(model, spec, config)
        assert estimate.censored == 10
        assert estimate == scalar_engine.simulate_fpur(model, spec, config)


# (_FIRST_CHUNK, _MAX_CHUNK) with the first no larger: one-uniform chunks,
# odd sizes, the shipped sizes, and a first chunk that never grows.
CHUNKINGS = [(first, most) for first in (1, 5, 64, 4096) for most in (8, 4096) if first <= most]


class TestChunking:
    @pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: type(m).__name__)
    def test_results_do_not_depend_on_chunk_sizes(self, monkeypatch, model):
        # No bit depends on how a trial's uniforms are chunked: this is what
        # lets a trial open with the chunk size the run's last trial needed.
        config = SimConfig(trials=10, seed=23, step_cap=700)
        for spec in [None, *ORACLE_SPECS]:
            want = _run_trials(model, spec, config)
            for first, most in CHUNKINGS:
                monkeypatch.setattr(montecarlo, "_FIRST_CHUNK", first)
                monkeypatch.setattr(montecarlo, "_MAX_CHUNK", most)
                assert _run_trials(model, spec, config) == want, (spec, first, most)
            monkeypatch.undo()

    def test_random_calls_per_trial(self, monkeypatch):
        # Long trials open with a chunk that holds most of them, and short
        # ones keep the first chunk.  With every trial opening at
        # _FIRST_CHUNK, the walk's trials made 4.07 calls each, the trap's 1.16.
        calls = []

        class CountingGenerator(np.random.Generator):
            def random(self, *args, **kwargs):
                calls.append(1)
                return super().random(*args, **kwargs)

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        for model, spec, trials, most in [
            (BiasedWalk(0.55, 40), GeometricRestart(0.005), 375, 2.0),
            (CycleTrap(0.25, 5, 10), SharpRestart(30), 500, 1.2),
        ]:
            calls.clear()
            assert _run_trials(model, spec, SimConfig(trials=trials, seed=7))[2] == 0
            assert len(calls) <= most * trials, model


def step_by_step(model, state, u, start, steps):
    return ProcessModel.run_leg(model, state, u, start, steps)


class TestLegKernels:
    @given(data=st.data(), p=st.floats(0.05, 1.0), L=st.integers(1, 8), M=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_cycle_trap(self, data, p, L, M):
        # Every start state over up to 200 uniforms: strides over several
        # periods, and legs cut mid-climb or mid-descent, both occur.
        model = CycleTrap(p, L, M)
        self.check(data, model, st.integers(-L + 1, M), max_size=200)

    @given(data=st.data(), p=st.floats(0.05, 0.95), m=st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_biased_walk(self, data, p, m):
        # Heights up to 60 over up to 200 uniforms: strides longer than the
        # leg, and strides of k = h downs that end at 0, both occur.
        self.check(data, BiasedWalk(p, m), st.integers(1, 60), max_size=200)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_countdown(self, data):
        model = data.draw(st.sampled_from([TwoPoint(1, 0.75, 20), TwoPoint(3, 0.5, 7),
                                           EXPLICIT_WITH_INFINITY]))
        states = st.one_of(st.none(), st.integers(1, 30), st.just(math.inf))
        self.check(data, model, states)

    def check(self, data, model, states, max_size=40):
        state = data.draw(states)
        u = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=max_size))
        start = data.draw(st.integers(0, len(u) - 1))
        steps = data.draw(st.integers(1, len(u) - start))
        got = model.run_leg(state, model.leg_input(np.array(u)), start, steps)
        assert got == step_by_step(model, state, u, start, steps)

    @staticmethod
    def leg(model, state, u, start, steps):
        """The kernel's leg, checked against the step-by-step one."""
        got = model.run_leg(state, model.leg_input(u), start, steps)
        assert got == step_by_step(model, state, u.tolist(), start, steps)
        return got

    @pytest.mark.parametrize("extra", [0, 1], ids=["switch count", "one more"])
    @pytest.mark.parametrize("down", [None, 0, "last"])
    def test_trap_stretch_at_the_switch(self, extra, down):
        # A stretch from 0 with exactly _FEW_VISITS visits is read one visit
        # at a time, one with a visit more by the strided comparison; both
        # find a step down at the first or the last visit, or none.
        model, start = CycleTrap(0.3, 2, 3), 5
        period = model.M + 1
        visits = models._FEW_VISITS + extra
        steps = (visits - 1) * period + 1
        u = np.full(start + steps + 10, 0.5)
        if down is not None:
            u[start + (visits - 1 if down == "last" else 0) * period] = 0.1
        assert len(range(start, start + steps, period)) == visits
        got = self.leg(model, 0, u, start, steps)
        if down is None:
            assert got == (1, steps, False)
        elif down == "last":
            assert got == (-1, steps, False)  # one step into the descent
        else:
            assert got == (-model.L, model.L, True)
        # The same stretch, long enough to finish a descent from the last visit.
        self.leg(model, 0, u, start, steps + model.L)

    @pytest.mark.parametrize("state", range(-3, 5))
    @pytest.mark.parametrize("steps", [1, 2, 4, 5, 9, 60])
    def test_trap_with_p_one(self, state, steps):
        # Every visit to 0 steps down, since every uniform is below 1.
        model, u = CycleTrap(1.0, 4, 4), np.random.default_rng(state + 10).random(80)
        needed = state + model.L if state < 0 else (model.M + 1 - state) % (model.M + 1) + model.L
        got = self.leg(model, state, u, 3, steps)
        assert got[1:] == ((needed, True) if needed <= steps else (steps, False))

    @pytest.mark.parametrize("state", [1, 2, 5, 6, -1, -2, -3])
    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 7, 8, 12, 30, 150])
    def test_trap_legs_from_mid_climb_or_mid_descent(self, state, steps):
        # Legs cut before the climb reaches 0 or the descent reaches -L, and
        # legs that go on past it, from a stretch with few or many visits.
        model = CycleTrap(0.2, 4, 6)
        u = np.random.default_rng(steps).random(200)
        self.leg(model, state, u, 7, steps)

    @pytest.mark.parametrize("steps", [1, 5, 40, 120])
    def test_trap_reads_only_its_visits_to_zero(self, steps):
        # NaN everywhere but at the visits: the legs are those of the full chunk.
        model, start, state = CycleTrap(0.1, 3, 5), 4, 2
        full = np.random.default_rng(steps).random(200)
        u = np.full(200, np.nan)
        first = start + (model.M + 1 - state)
        u[first::model.M + 1] = full[first::model.M + 1]
        got = model.run_leg(state, model.leg_input(u), start, steps)
        assert got == step_by_step(model, state, full.tolist(), start, steps)

    @pytest.mark.parametrize("model", [TwoPoint(1, 0.75, 20), TwoPoint(3, 0.5, 7), EXPLICIT_WITH_INFINITY],
                             ids=["two-point-1", "two-point-3", "explicit"])
    @pytest.mark.parametrize("draw", [0.0, 0.1, 0.4, 0.6, 0.9])
    @pytest.mark.parametrize("steps", [1, 3, 25])
    def test_countdown_reads_only_its_draw(self, model, draw, steps):
        # NaN everywhere but u[start]: a read of any other uniform draws a
        # different time (NaN is never below a weight or a CDF value).
        start = 6
        u = np.full(start + steps + 4, np.nan)
        u[start] = draw
        got = self.leg(model, None, u, start, steps)
        time = model.draw(draw)
        assert got == ((0, time, True) if time <= steps else (time - steps, steps, False))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked only where os.fork exists")


def helper_pids():
    return [_HELPERS._helper[0]] if _HELPERS._helper else []


def use_parts(monkeypatch, parts):
    """Split runs into ``parts`` ranges, whatever this machine's CPUs."""
    monkeypatch.setattr(montecarlo, "_cpus", lambda: parts)


def split_estimate(model, spec, config):
    return _summarize(*_HELPERS.run(model, spec, config), config)


def one_process_estimate(model, spec, config):
    return _summarize(*_run_trials(model, spec, config), config)


@pytest.fixture
def close_helpers(monkeypatch):
    """Wait for the helper's reply, however late, so that whether the helper
    runs is the same on a loaded machine; end the helper a test started."""
    monkeypatch.setattr(montecarlo, "_LATE_S", 600.0)
    yield
    _HELPERS.close()


SPLIT_PAIRS = [
    (CycleTrap(0.25, 5, 10), SharpRestart(8)),
    (BiasedWalk(0.55, 40), GeometricRestart(0.005)),
    (TP_FAST, None),
    (EXPLICIT_WITH_INFINITY, ORACLE_SPECS[5]),
    (CycleTrap(0.25, 7, 5), SharpRestart(1)),  # preemptive: every trial is censored
]


@needs_fork
@pytest.mark.usefixtures("close_helpers")
class TestSplitRuns:
    """A run split into two contiguous halves, the first run by the caller
    and the second by the helper, equals the one-process run: the same
    results in trial order, so the same estimate, bit for bit."""

    @pytest.mark.parametrize("pair", SPLIT_PAIRS, ids=lambda pair: type(pair[0]).__name__)
    @pytest.mark.parametrize("trials", [1, 2, 3, 60, 1000])
    def test_split_equals_one_process(self, monkeypatch, pair, trials):
        model, spec = pair
        use_parts(monkeypatch, 2)
        for cap in ORACLE_CAPS:
            config = SimConfig(trials=trials, seed=31, step_cap=cap)
            want = _run_trials(model, spec, config)
            got = _HELPERS.run(model, spec, config)
            assert got == want, cap
            assert _summarize(*got, config) == _summarize(*want, config)
        if trials > 1:
            assert len(helper_pids()) == 1

    def test_preemptive_pair_is_all_censored(self, monkeypatch):
        use_parts(monkeypatch, 2)
        model, spec = SPLIT_PAIRS[-1]
        config = SimConfig(trials=60, seed=7, step_cap=1000)
        assert _HELPERS.run(model, spec, config) == ([], [], 60)

    def test_underlying_samples_keep_trial_order(self, monkeypatch):
        use_parts(monkeypatch, 2)
        model = BiasedWalk(0.6, 1)
        config = SimConfig(trials=1000, seed=9)
        want = _run_trials(model, None, config)[0]
        samples, censored = underlying_samples(model, config)
        assert censored == 0
        assert samples.tolist() == want
        assert len(helper_pids()) == 1

    def test_helpers_are_kept_for_shorter_runs(self, monkeypatch):
        use_parts(monkeypatch, 2)
        _HELPERS.run(*SPLIT_PAIRS[0], SimConfig(trials=100, seed=3))
        pids = helper_pids()
        assert len(pids) == 1
        _HELPERS.run(*SPLIT_PAIRS[0], SimConfig(trials=2, seed=3))
        assert helper_pids() == pids


@pytest.mark.parametrize("affinity, files, want", [
    (64, {}, 2),  # no quota: the most parts timed
    (1, {}, 1),
    (64, {"cpu.max": "max 100000"}, 2),
    (64, {"cpu.max": "150000 100000"}, 2),
    (64, {"cpu.max": "100000 100000"}, 1),
    (64, {"cpu.max": "20000 100000"}, 1),
    (64, {"quota": "-1", "period": "100000"}, 2),
    (64, {"quota": "80000", "period": "100000"}, 1),
])
def test_cpus(monkeypatch, tmp_path, affinity, files, want):
    # No readable cgroup file: the roots' quota files alone are read.
    assert fake_cpus(monkeypatch, tmp_path, None, files, affinity) == want


@pytest.mark.parametrize("cgroup, files, want", [
    ("0::/a/b", {"v2/a/b/cpu.max": "100000 100000"}, 1),  # on the leaf only
    ("0::/a/b", {"v2/a/cpu.max": "50000 100000", "v2/a/b/cpu.max": "max 100000"}, 1),  # an ancestor only
    ("0::/a/b", {"v2/a/b/cpu.max": "max 100000", "v2/b/cpu.max": "100000 100000"}, 2),  # none on the path
    ("1:cpu,cpuacct:/a/b\n0::/", {"v1/a/b/quota": "100000", "v1/a/b/period": "100000"}, 1),
    ("1:cpu:/a/b", {"v1/a/quota": "100000", "v1/a/period": "100000", "v1/a/b/quota": "-1",
                    "v1/a/b/period": "100000"}, 1),
    ("3:cpuacct:/a\n1:cpu:/", {"v1/a/quota": "100000", "v1/a/period": "100000"}, 2),  # not the cpu cgroup's
])
def test_cpus_reads_the_process_cgroup(monkeypatch, tmp_path, cgroup, files, want):
    assert fake_cpus(monkeypatch, tmp_path, cgroup, files, 64) == want


def fake_cpus(monkeypatch, tmp_path, cgroup, files, affinity):
    """``_cpus()`` with ``affinity`` CPUs, ``cgroup`` as /proc/self/cgroup
    (None: unreadable) and ``files`` as the cgroup trees, v2's under "v2/"
    and v1's under "v1/", both under the root when neither is named."""
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text + "\n")
    if cgroup is not None:
        (tmp_path / "cgroup").write_text(cgroup + "\n")
    mounts = (tmp_path / "v2", tmp_path / "v1") if cgroup is not None else (tmp_path, tmp_path)
    monkeypatch.setattr(montecarlo, "_CGROUP", str(tmp_path / "cgroup"))
    monkeypatch.setattr(montecarlo, "_CGROUP_MOUNTS", tuple(map(str, mounts)))
    monkeypatch.setattr(montecarlo, "_QUOTA_FILES", (("cpu.max",), ("quota", "period")))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
    montecarlo._cpus.cache_clear()
    try:
        return montecarlo._cpus()
    finally:
        montecarlo._cpus.cache_clear()


class UserTrap(CycleTrap):
    """A user subclass of a restartfp model: it pickles, but a helper's copy
    of it may differ from the caller's."""


@needs_fork
@pytest.mark.usefixtures("close_helpers")
class TestHelperFaults:
    """A helper only speeds a run up: whatever becomes of it, the caller
    runs its range, and the estimate is the one-process one."""

    MODEL, SPEC = CycleTrap(0.25, 5, 10), SharpRestart(8)
    CONFIG = SimConfig(trials=400, seed=41)

    @pytest.fixture(autouse=True)
    def two_parts(self, monkeypatch):
        use_parts(monkeypatch, 2)

    def want(self):
        return one_process_estimate(self.MODEL, self.SPEC, self.CONFIG)

    def test_killed_helper(self):
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        pid = helper_pids()[0]
        os.kill(pid, signal.SIGKILL)
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert pid not in helper_pids()
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert helper_pids() and pid not in helper_pids()

    def test_late_helper(self, monkeypatch):
        # A helper that has not replied a little after the caller ran its
        # own range is not waited for: the caller runs the helper's range.
        monkeypatch.setattr(montecarlo, "_LATE_S", 0.005)
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        owner, run_leg = os.getpid(), CycleTrap.run_leg

        def slow_in_helpers(model, state, u, start, steps):
            if os.getpid() != owner:
                time.sleep(60)
            return run_leg(model, state, u, start, steps)

        monkeypatch.setattr(CycleTrap, "run_leg", slow_in_helpers)
        start = time.perf_counter()
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert time.perf_counter() - start < 30
        assert helper_pids() == []

    def test_helper_stalled_in_its_reply(self, monkeypatch):
        # A reply that has begun is read only up to the run's deadline.
        monkeypatch.setattr(montecarlo, "_LATE_S", 0.005)
        owner, send = os.getpid(), montecarlo._send

        def stalling_in_helpers(fd, data):
            if os.getpid() == owner:
                return send(fd, data)
            os.write(fd, len(data).to_bytes(8, "little") + data[:8])
            time.sleep(40)

        monkeypatch.setattr(montecarlo, "_send", stalling_in_helpers)
        start = time.perf_counter()
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert time.perf_counter() - start < 20
        assert helper_pids() == []

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc to see open files")
    def test_killed_helpers_leave_no_open_files(self):
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(10):
            os.kill(helper_pids()[0], signal.SIGKILL)
            assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
            assert helper_pids() == []
            assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_model_that_does_not_pickle(self):
        class LocalTrap(CycleTrap):
            pass

        model = LocalTrap(0.25, 5, 10)
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(model)
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        pids = helper_pids()
        assert split_estimate(model, self.SPEC, self.CONFIG) == self.want()
        assert helper_pids() == pids

    def test_shared_model_that_does_not_pickle(self, monkeypatch):
        # ExplicitProcess is a class helpers run, but this one's law is of a
        # class defined here: the model does not pickle, so the caller runs
        # the whole range and no helper is forked for it.
        class LocalPMF(TruncatedPMF):
            pass

        model = ExplicitProcess(LocalPMF([0.0, 0.25, 0.0, 0.5, 0.25]))
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(model)
        with monkeypatch.context() as patch:
            use_parts(patch, 1)
            want = split_estimate(model, self.SPEC, self.CONFIG)
        _HELPERS.close()

        def refuse():
            raise AssertionError("a helper was forked")

        monkeypatch.setattr(montecarlo, "_fork_helper", refuse)
        assert split_estimate(model, self.SPEC, self.CONFIG) == want
        assert helper_pids() == []

    def test_fork_that_fails(self, monkeypatch):
        # The caller runs the helper's range, the pipes made for the helper
        # are closed, and the next run forks a helper again.
        _HELPERS.close()
        pipes, closed = [], []
        pipe, close = os.pipe, os.close

        def failing_fork():
            raise OSError("no fork")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", failing_fork)
            patch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
            patch.setattr(os, "close", lambda fd: closed.append(fd) or close(fd))
            assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert helper_pids() == []
        assert len(pipes) == 2 and {fd for ends in pipes for fd in ends} <= set(closed)
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert len(helper_pids()) == 1

    def test_user_subclass_runs_in_the_caller(self, monkeypatch):
        # Patched after the helper was forked: the helper's copy of the
        # class would run the old legs.  The caller runs, and sees, them all.
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        pids = helper_pids()
        legs = []
        run_leg = CycleTrap.run_leg

        def recording(model, state, u, start, steps):
            legs.append((state, start, steps))
            return run_leg(model, state, u, start, steps)

        monkeypatch.setattr(UserTrap, "run_leg", recording)
        model = UserTrap(0.25, 5, 10)
        want = one_process_estimate(model, self.SPEC, self.CONFIG)
        one_process_legs = legs[:]
        legs.clear()
        assert split_estimate(model, self.SPEC, self.CONFIG) == want == self.want()
        assert legs == one_process_legs
        assert helper_pids() == pids

    def test_patched_model_class(self, monkeypatch):
        # A restartfp class patched after the helper was forked: the helper
        # is forked again, so the whole run reads the patched step.
        unpatched = split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        pid = helper_pids()[0]
        step = CycleTrap.step
        monkeypatch.setattr(CycleTrap, "run_leg", ProcessModel.run_leg)
        monkeypatch.setattr(CycleTrap, "step", lambda model, state, u: step(model, state, u / 2))
        want = one_process_estimate(self.MODEL, self.SPEC, self.CONFIG)
        assert want != unpatched
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == want
        assert pid not in helper_pids() and len(helper_pids()) == 1

    def test_patched_numpy_generator(self, monkeypatch):
        # numpy's Generator patched after the helper was forked: the helper
        # is forked again, so the whole run reads the patched uniforms.
        unpatched = split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        pid = helper_pids()[0]

        class HalvedGenerator(np.random.Generator):
            def random(self, *args, **kwargs):
                return super().random(*args, **kwargs) / 2

        monkeypatch.setattr(np.random, "Generator", HalvedGenerator)
        want = one_process_estimate(self.MODEL, self.SPEC, self.CONFIG)
        assert want != unpatched
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == want
        assert pid not in helper_pids() and len(helper_pids()) == 1

    def test_class_defined_after_the_fork(self, monkeypatch):
        # The helper's copy of this module lacks the class: the caller runs
        # it, and the helper is kept.
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        pids = helper_pids()
        late = type("LateTrap", (CycleTrap,), {"__module__": __name__})
        monkeypatch.setattr(sys.modules[__name__], "LateTrap", late, raising=False)
        assert split_estimate(late(0.25, 5, 10), self.SPEC, self.CONFIG) == self.want()
        assert helper_pids() == pids

    def test_exception_in_a_helper(self, monkeypatch):
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        owner, run_leg = os.getpid(), CycleTrap.run_leg

        def failing_in_helpers(model, state, u, start, steps):
            if os.getpid() != owner:
                raise ZeroDivisionError("no leg")
            return run_leg(model, state, u, start, steps)

        monkeypatch.setattr(CycleTrap, "run_leg", failing_in_helpers)
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert helper_pids() == []

    def test_exception_in_the_trials(self, monkeypatch):
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)

        def failing(model, state, u, start, steps):
            raise ZeroDivisionError("no leg")

        with monkeypatch.context() as patch:
            patch.setattr(CycleTrap, "run_leg", failing)
            with pytest.raises(ZeroDivisionError):
                split_estimate(self.MODEL, self.SPEC, self.CONFIG)
            assert helper_pids() == []
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert len(helper_pids()) == 1

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc to see open files")
    def test_helper_holds_no_file_of_its_owner(self, tmp_path):
        _HELPERS.close()
        with open(tmp_path / "output", "w"):
            split_estimate(self.MODEL, self.SPEC, self.CONFIG)
            pid = helper_pids()[0]
            fds = {int(fd): os.readlink(f"/proc/{pid}/fd/{fd}") for fd in os.listdir(f"/proc/{pid}/fd")}
        assert [fds.pop(fd) for fd in range(3)] == [os.devnull] * 3
        assert len(fds) == 2 and all(target.startswith("pipe:") for target in fds.values())

    def test_forked_child_uses_no_helper(self):
        # The child runs another seed: a request it sent down the parent's
        # pipe would come back as the parent's next reply, and change it.
        child_config = SimConfig(trials=300, seed=43)
        child_want = one_process_estimate(self.MODEL, self.SPEC, child_config)
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        pids = helper_pids()
        child = os.fork()
        if child == 0:
            code = 1
            try:
                ok = helper_pids() == [] and split_estimate(self.MODEL, self.SPEC, child_config) == child_want
                code = 0 if ok and helper_pids() == [] else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert split_estimate(self.MODEL, self.SPEC, self.CONFIG) == self.want()
        assert helper_pids() == pids

    def test_threads(self, monkeypatch):
        # The main thread may use helpers; another thread runs all of its
        # trials itself, alone or beside the main thread.
        want = self.want()
        split_estimate(self.MODEL, self.SPEC, self.CONFIG)
        results, ranges = {}, {}
        run_trials = montecarlo._run_trials

        def recording(model, spec, config, first=0):
            ranges.setdefault(threading.current_thread().name, []).append(config.trials)
            return run_trials(model, spec, config, first)

        def work():
            for _ in range(3):
                estimate = split_estimate(self.MODEL, self.SPEC, self.CONFIG)
                results.setdefault(threading.current_thread().name, []).append(estimate)

        monkeypatch.setattr(montecarlo, "_run_trials", recording)
        threads = [threading.Thread(target=work, name=name) for name in ("alone", "one", "two")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads[0].start()
            threads[0].join(timeout=60)
            for thread in threads[1:]:
                thread.start()
            work()
            for thread in threads[1:]:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        names = ("alone", "one", "two", "MainThread")
        assert results == {name: [want] * 3 for name in names}
        assert ranges == {**{name: [400] * 3 for name in names[:3]}, "MainThread": [200] * 3}

    def test_helper_ends_with_its_pipes(self):
        # An owner that is killed runs no exit handler, but the kernel
        # closes its pipe ends, and that alone ends the helper's loop.
        pid, request_fd, reply_fd = montecarlo._fork_helper()
        os.close(request_fd)
        os.close(reply_fd)
        for _ in range(400):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the helper outlived its pipes")
        assert os.waitstatus_to_exitcode(status) == 0


HELPER_SCRIPT = """
from restartfp import CycleTrap, cli, montecarlo
montecarlo._cpus, montecarlo._LATE_S = lambda: 2, 600.0
cli.run_sweep(CycleTrap(0.25, 5, 10), "sharp", range(2, 12), 400, 5)
print(*(montecarlo._HELPERS._helper or ())[:1])
"""


def test_import_leaves_numpy_random_unimported():
    # The helper's watch list reads numpy's stream classes only when a split
    # run starts, so importing restartfp does not import numpy.random.
    src = str(Path(restartfp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, restartfp; print('numpy.random' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    assert done.stdout.split() == ["False"]


@needs_fork
@pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="needs /proc to see processes")
def test_helpers_end_with_their_process():
    # Waited for at exit: nothing is left, not even a zombie.
    src = str(Path(restartfp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", HELPER_SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    pids = [int(word) for word in done.stdout.split()]
    assert len(pids) == 1
    assert [pid for pid in pids if Path(f"/proc/{pid}").exists()] == []


KILLED_OWNER_SCRIPT = """
from restartfp import CycleTrap, GeometricRestart, SimConfig, montecarlo, simulate_fpur
montecarlo._cpus, montecarlo._LATE_S = lambda: 2, 600.0
# A leg outlasts U's 7 steps with probability 1e-14: every trial runs to its step cap.
model, spec = CycleTrap(0.25, 7, 5), GeometricRestart(0.99)
simulate_fpur(model, spec, SimConfig(trials=2, seed=5, step_cap=10))
print(*(montecarlo._HELPERS._helper or ())[:1], flush=True)
simulate_fpur(model, spec, SimConfig(trials=2, seed=5, step_cap=10**12))
"""


def process_state(pid):
    """The state letter of process ``pid``, or None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return None


@needs_fork
@pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="needs /proc to see processes")
def test_helper_ends_with_a_killed_owner(tmp_path):
    # The owner is killed while its helper is in the middle of a range that
    # would run for hours: the helper holds none of the owner's output open,
    # so a reader of that output sees it end, and the helper ends too.
    src = str(Path(restartfp.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with open(tmp_path / "stderr", "wb") as stderr:
        owner = subprocess.Popen([sys.executable, "-c", KILLED_OWNER_SCRIPT], stdout=subprocess.PIPE,
                                 stderr=stderr, env=env)
    pids = []
    try:
        pids = [int(word) for word in owner.stdout.readline().split()]
        assert len(pids) == 1, (tmp_path / "stderr").read_text()
        time.sleep(0.5)
        assert owner.poll() is None
        owner.kill()
        owner.wait()
        reader = threading.Thread(target=owner.stdout.read, daemon=True)
        reader.start()
        reader.join(timeout=20)
        assert not reader.is_alive(), "the owner's stdout stayed open after it was killed"
        for _ in range(400):
            if process_state(pids[0]) in (None, "Z", "X"):
                break
            time.sleep(0.05)
        else:
            pytest.fail("the helper outlived its killed owner")
    finally:
        owner.kill()
        owner.wait()
        for pid in pids:
            if process_state(pid) not in (None, "Z", "X"):
                os.kill(pid, signal.SIGKILL)
        owner.stdout.close()
