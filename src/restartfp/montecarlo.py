"""Trajectory-level simulation of first passage under restart.

Each trial pre-draws a restart epoch, advances the model one leg at a time,
and resets whenever the epoch arrives at or before termination (a tie goes
to the restart).  Randomness is counter-based: trial ``i`` of a run seeded
with ``s`` reads the uniforms of ``Philox(key=(s << 64) + i)`` in order, so
results are reproducible regardless of execution order or thread count.

One numpy ``Philox`` serves a whole run: each trial re-keys it to the
trial's key with its counter at zero, then reads its uniforms in chunks of
``_FIRST_CHUNK``, doubling up to ``_MAX_CHUNK``.  A model consumes them
through :meth:`ProcessModel.run_leg`, one call per stretch of steps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist, fmean, stdev

import numpy as np

from .models import ProcessModel, RestartSpec

# Uniforms in a trial's first draw: a figure-6 row's trials use 28 in the
# median and 40 on average, and 64 ran both Monte Carlo benchmark workloads
# faster than 32.  Later draws double in size up to _MAX_CHUNK, so a trial
# of n steps makes O(log n) draws and wastes less than half of them.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096

# Steps a trial may take before it is censored.
DEFAULT_STEP_CAP = 10**7


@dataclass(frozen=True)
class SimConfig:
    """Trial-count, seeding, and reporting policy for one simulation run."""

    trials: int
    seed: int
    step_cap: int = DEFAULT_STEP_CAP
    ci_level: float = 0.99

    def __post_init__(self) -> None:
        # numpy integers pass; floats, even integral ones, do not.
        for name in ("trials", "seed", "step_cap"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
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
        mean_restarts=fmean(restarts),
    )


def _run_trials(model: ProcessModel, spec: RestartSpec | None, config: SimConfig, first: int = 0):
    """Run ``config.trials`` trials, numbered from ``first`` (0 except in
    the stream tests); returns (first-passage times, restart counts,
    censored count).  With ``spec`` None the process never restarts and no
    epoch uniform is read."""
    samples: list[float] = []
    restart_counts: list[int] = []
    censored = 0
    cap = config.step_cap
    draw = None if spec is None else spec.draw
    run_leg, initial_state = model.run_leg, model.initial_state
    philox = np.random.Philox(key=0)
    random = np.random.Generator(philox).random
    # Philox(key=(seed << 64) + trial) holds the key words (trial, seed), a
    # zero counter and an empty buffer; its first draw makes block 1.
    key = [0, config.seed]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for trial in range(first, first + config.trials):
        key[0] = trial
        philox.state = fresh
        size = _FIRST_CHUNK
        u = random(size).tolist()
        pos = total = restarts = 0
        hit = False
        while total < cap:
            if draw is None:
                free = math.inf
            else:
                if pos >= size:
                    pos -= size
                    if size < _MAX_CHUNK:
                        size *= 2
                    u = random(size).tolist()
                # Only the steps before the epoch can end the trial: the step
                # on the epoch restarts whatever state it reaches (a tie goes
                # to the restart), so it is counted without being simulated.
                free = draw(u[pos]) - 1
                pos += 1
            state = initial_state()
            while free and total < cap:
                if pos >= size:
                    pos -= size
                    if size < _MAX_CHUNK:
                        size *= 2
                    u = random(size).tolist()
                steps = size - pos
                if free < steps:
                    steps = free
                if cap - total < steps:
                    steps = cap - total
                state, taken, hit = run_leg(state, u, pos, steps)
                pos += taken
                total += taken
                free -= taken
                if hit:
                    break
            if hit:
                break
            if total < cap:
                pos += 1
                total += 1
                restarts += 1
        if hit:
            samples.append(float(total))
            restart_counts.append(restarts)
        else:
            censored += 1
    return samples, restart_counts, censored


def simulate_fpur(model: ProcessModel, spec: RestartSpec, config: SimConfig) -> SimEstimate:
    """Estimate E[T] for the restarted process from ``config.trials`` trials.

    Preemptive pairs produce all-censored runs (flagged, not raised).
    """
    return _summarize(*_run_trials(model, spec, config), config)


def underlying_samples(model: ProcessModel, config: SimConfig) -> tuple[np.ndarray, int]:
    """Raw first-passage times of the bare process; returns (samples, censored)."""
    samples, _, censored = _run_trials(model, None, config)
    return np.asarray(samples), censored


def simulate_underlying(model: ProcessModel, config: SimConfig) -> SimEstimate:
    """Estimate E[U] for the bare process (no restart)."""
    return _summarize(*_run_trials(model, None, config), config)
