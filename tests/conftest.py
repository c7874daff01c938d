"""Shared helpers: randomized explicit distributions, records of the sums
restartfp takes and of the masses it reads and computes, and the generator
form of a law's moments."""

import math

import numpy as np
import pytest
from hypothesis import settings

from restartfp import AT_INFINITY, TRUNCATION, ExplicitProcess, ExplicitRestart, ProcessModel, TruncatedPMF

# Every @given test draws the same examples on every run: a derandomized
# profile with no example database, loaded before the test modules build
# their own settings, so each keeps its max_examples.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def random_pmf(rng, *, min_support=1, max_support=12, defective=False, min_residual=0.05):
    """A random PMF supported on [min_support, max_support], optionally with
    a chunk of mass at infinity."""
    size = int(rng.integers(min_support, max_support + 1))
    weights = rng.random(size - min_support + 1) + 1e-3
    residual = float(rng.uniform(min_residual, 0.5)) if defective else 0.0
    weights *= (1.0 - residual) / weights.sum()
    coeffs = np.zeros(size + 1)
    coeffs[min_support:] = weights
    kind = AT_INFINITY if defective else TRUNCATION
    return TruncatedPMF(coeffs, residual=residual, residual_kind=kind)


def random_explicit_pair(rng, *, u_proper, r_proper, preemptive=False):
    """An (ExplicitProcess, ExplicitRestart) pair with the requested hit
    probabilities.  Preemptive pairs put all restart mass strictly below the
    process support (only possible with a proper restart clock)."""
    if preemptive:
        assert r_proper, "a defective restart clock can never be preemptive"
        u_dist = random_pmf(rng, min_support=3, max_support=10, defective=not u_proper)
        r_dist = random_pmf(rng, min_support=1, max_support=2, defective=False)
    else:
        u_dist = random_pmf(rng, min_support=1, max_support=10, defective=not u_proper)
        r_dist = random_pmf(rng, min_support=2, max_support=12, defective=not r_proper)
    return ExplicitProcess(u_dist), ExplicitRestart(r_dist)


@pytest.fixture
def fsum_calls(monkeypatch):
    """Every sequence ``math.fsum`` adds while the test runs, as a list;
    restartfp looks fsum up on the math module at each call."""
    calls = []
    fsum = math.fsum

    def record(values):
        values = list(values)
        calls.append(values)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", record)
    return calls


@pytest.fixture
def prefix_horizons(monkeypatch):
    """Every horizon ``ProcessModel._prefix`` is asked while the test runs,
    as a list; None asks for the masses held so far."""
    horizons = []
    prefix = ProcessModel._prefix

    def record(self, t_max=None):
        horizons.append(t_max)
        return prefix(self, t_max)

    monkeypatch.setattr(ProcessModel, "_prefix", record)
    return horizons


@pytest.fixture
def atom_ranges(monkeypatch):
    """Every (start, stop) a model's ``_atoms`` computes while the test
    runs, as a list: one entry per extension of the held masses."""
    ranges = []
    for cls in ProcessModel.__subclasses__():
        if "_atoms" in vars(cls):

            def record(self, start, stop, atoms=cls._atoms):
                ranges.append((start, stop))
                return atoms(self, start, stop)

            monkeypatch.setattr(cls, "_atoms", record)
    return ranges


def sums_of(calls, values) -> int:
    """How many of the recorded fsum ``calls`` added ``values``: the same
    nonzero terms in the same order, since a zero moves no bit."""

    def nonzero(terms):
        return [float(t) for t in terms if t != 0.0]

    target = nonzero(values)
    count = sum(nonzero(call) == target for call in calls)
    # A lone term may be summed in many places, so only its absence reads.
    assert len(target) > 1 or not count, "one term is summed in many places"
    return count


def assert_generator_moments(dist):
    """The moments and cumulative sums of a TruncatedPMF equal, bit for bit,
    their sums over a Python generator of n * c: each product is the same
    correctly rounded double, and fsum is exactly rounded in any order."""
    coeffs = dist.coefficients
    assert dist.mean() == math.fsum(n * c for n, c in enumerate(coeffs))
    assert dist.second_factorial_moment() == math.fsum(n * (n - 1) * c for n, c in enumerate(coeffs))
    for n in (-1, 0, 1, dist.t_max // 3, dist.t_max, dist.t_max + 5):
        assert dist.cumulative(n) == math.fsum(c for c in coeffs[: max(n + 1, 0)]), n
