"""Trajectory-level simulation of first passage under restart.

Each trial pre-draws a restart epoch, advances the model's step simulator,
and resets whenever the epoch arrives at or before termination (a tie goes
to the restart).  Randomness is counter-based: trial ``i`` of a run seeded
with ``s`` uses Philox keyed by ``(s, i)``, so results are reproducible
regardless of execution order or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist, fmean, stdev

import numpy as np

from .models import ProcessModel, RestartSpec

_BUFFER = 256


@dataclass(frozen=True)
class SimConfig:
    """Trial-count, seeding, and reporting policy for one simulation run."""

    trials: int
    seed: int
    step_cap: int = 10**7
    ci_level: float = 0.99

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.step_cap < 1:
            raise ValueError("step_cap must be >= 1")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie strictly inside (0, 1)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class SimEstimate:
    """Normal-approximation summary of completed trials.

    Censored trials (step budget exhausted) are counted, never dropped;
    any censoring makes the mean a lower bound on the true expectation.
    """

    mean: float
    stderr: float
    ci_low: float
    ci_high: float
    censored: int
    trials_used: int
    mean_restarts: float

    @property
    def is_lower_bound(self) -> bool:
        return self.censored > 0


class _UniformStream:
    """Buffered uniforms from one counter-based generator."""

    __slots__ = ("_rng", "_buf", "_pos")

    def __init__(self, seed: int, trial: int) -> None:
        self._rng = np.random.Generator(np.random.Philox(key=(seed << 64) + trial))
        self._buf = self._rng.random(_BUFFER).tolist()
        self._pos = 0

    def next(self) -> float:
        if self._pos == _BUFFER:
            self._buf = self._rng.random(_BUFFER).tolist()
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value


def sample_restart(spec: RestartSpec, u: float):
    """One restart epoch from ``spec`` via inverse CDF on the uniform ``u``.

    Geometric draws are at least 1 (the epoch support starts at 1); explicit
    specs may return infinity when the draw lands in the residual mass.
    """
    if not isinstance(spec, RestartSpec):
        raise TypeError(f"unsupported restart spec {spec!r}")
    return spec.draw(u)


def _summarize(samples: list[float], restarts: list[int], censored: int, config: SimConfig) -> SimEstimate:
    used = len(samples)
    if used == 0:
        return SimEstimate(
            mean=math.nan,
            stderr=math.nan,
            ci_low=math.nan,
            ci_high=math.nan,
            censored=censored,
            trials_used=0,
            mean_restarts=math.nan,
        )
    mean = fmean(samples)
    err = stdev(samples) / math.sqrt(used) if used > 1 else 0.0
    z = NormalDist().inv_cdf(0.5 * (1.0 + config.ci_level))
    return SimEstimate(
        mean=mean,
        stderr=err,
        ci_low=mean - z * err,
        ci_high=mean + z * err,
        censored=censored,
        trials_used=used,
        mean_restarts=fmean(restarts) if restarts else math.nan,
    )


def simulate_fpur(model: ProcessModel, spec: RestartSpec, config: SimConfig) -> SimEstimate:
    """Estimate E[T] for the restarted process from ``config.trials`` trials.

    Preemptive pairs produce all-censored runs (flagged, not raised).
    """
    samples: list[float] = []
    restart_counts: list[int] = []
    censored = 0
    cap = config.step_cap
    draw = spec.draw
    for trial in range(config.trials):
        stream = _UniformStream(config.seed, trial)
        total = 0
        restarts = 0
        hit = False
        while total < cap:
            epoch = draw(stream.next())
            state = model.initial_state()
            leg = 0
            while total < cap:
                state = model.step(state, stream.next())
                leg += 1
                total += 1
                if leg == epoch:
                    restarts += 1
                    break
                if model.is_terminal(state):
                    hit = True
                    break
            if hit:
                break
        if hit:
            samples.append(float(total))
            restart_counts.append(restarts)
        else:
            censored += 1
    return _summarize(samples, restart_counts, censored, config)


def underlying_samples(model: ProcessModel, config: SimConfig) -> tuple[np.ndarray, int]:
    """Raw first-passage times of the bare process; returns (samples, censored)."""
    samples: list[float] = []
    censored = 0
    cap = config.step_cap
    for trial in range(config.trials):
        stream = _UniformStream(config.seed, trial)
        state = model.initial_state()
        total = 0
        hit = False
        while total < cap:
            state = model.step(state, stream.next())
            total += 1
            if model.is_terminal(state):
                hit = True
                break
        if hit:
            samples.append(float(total))
        else:
            censored += 1
    return np.asarray(samples), censored


def simulate_underlying(model: ProcessModel, config: SimConfig) -> SimEstimate:
    """Estimate E[U] for the bare process (no restart)."""
    samples, censored = underlying_samples(model, config)
    return _summarize(samples.tolist(), [0] * len(samples), censored, config)
