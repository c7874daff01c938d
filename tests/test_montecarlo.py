"""Simulation engine: determinism, epoch sampling, estimator calibration,
the stream contract, and equality with the scalar reference loop."""

import math
import random
import statistics
import sys
from dataclasses import dataclass

import numpy as np
import pytest
import scalar_engine
from hypothesis import example, given, settings
from hypothesis import strategies as st

from restartfp import (
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
    mean_T_geometric,
    p_restart_wins,
    sample_restart,
    simulate_fpur,
    simulate_underlying,
    underlying_samples,
)
from restartfp.montecarlo import _FIRST_CHUNK, DEFAULT_STEP_CAP, _run_trials, _stdev

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
    totals as floats, bit for bit: ``ci_low`` and ``ci_high`` are pinned."""

    @given(totals=st.lists(st.integers(1, DEFAULT_STEP_CAP), min_size=2, max_size=60))
    @example(totals=[7, 7, 7])
    @settings(max_examples=200, deadline=None)
    def test_small_samples(self, totals):
        assert _stdev(totals) == statistics.stdev(map(float, totals))

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
        # a short trial cheap: pin the count without timing anything.
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
]
# A cap inside the first leg, on the first chunk's last uniform, past it,
# and one long enough for most trials to finish.
ORACLE_CAPS = [5, _FIRST_CHUNK - 1, _FIRST_CHUNK + 1, 700]


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


def step_by_step(model, state, u, start, steps):
    return ProcessModel.run_leg(model, state, u, start, steps)


class TestLegKernels:
    @given(data=st.data(), p=st.floats(0.05, 1.0), L=st.integers(1, 6), M=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_cycle_trap(self, data, p, L, M):
        model = CycleTrap(p, L, M)
        self.check(data, model, st.integers(-L + 1, M))

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
