"""Trajectory-level simulation of first passage under restart.

Each trial pre-draws a restart epoch, advances the model one leg at a time,
and resets whenever the epoch arrives at or before termination (a tie goes
to the restart).  Randomness is counter-based: trial ``i`` of a run seeded
with ``s`` reads the uniforms of ``Philox(key=(s << 64) + i)`` in order, so
results are reproducible regardless of execution order or thread count.

The first 64 uniforms (``_HEAD``) of up to 256 trials (``_BATCH``) come
from one vectorised Philox4x64-10 call; a trial that runs past its head
continues from numpy's own Philox at the same key and counter.  A model
consumes the uniforms through :meth:`ProcessModel.run_leg`, one call per
stretch of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist, fmean, stdev

import numpy as np

from .models import ProcessModel, RestartSpec

# Uniforms per trial made by the batched generator; the median trial of a
# figure-6 row uses about 28.  A multiple of 4, the Philox block size.
_HEAD = 64
# Trials per batched call: memory is bounded by this, not by the trial count.
_BATCH = 256
# Native draws past the head double in size up to this many uniforms, so a
# trial of n steps makes O(log n) draws and wastes less than half of them.
_MAX_CHUNK = 4096

# Philox4x64-10 multipliers and Weyl key increments, as rows for the pair of
# counter words (0, 2) that each round multiplies.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> np.uint64(32)

# Philox counter and output buffer of a stream that has used its head: the
# next draw makes block _HEAD // 4 + 1.
_RESUME_COUNTER = np.array([_HEAD // 4, 0, 0, 0], dtype=np.uint64)
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


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


def _philox_heads(seed: int, first: int, count: int) -> np.ndarray:
    """The first ``_HEAD`` uniforms of trials ``first .. first+count-1``, one
    row per trial, equal bit for bit to
    ``Generator(Philox(key=(seed << 64) + trial)).random(_HEAD)``.

    numpy's Philox keys a trial with the words (trial, seed) and numbers its
    4-word blocks from counter 1; a double is the top 53 bits of a word.
    The 64x64 -> 128-bit products are built from 32-bit limbs.
    """
    blocks = _HEAD // 4
    lanes = count * blocks
    key = np.empty((2, lanes), dtype=np.uint64)
    key[0] = np.repeat(np.arange(count, dtype=np.uint64) + np.uint64(first), blocks)
    key[1] = seed
    # Counter words (0, 2) in x and (1, 3) in y; only word 0 starts nonzero.
    x = np.zeros((2, lanes), dtype=np.uint64)
    x[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), count)
    y = np.zeros((2, lanes), dtype=np.uint64)
    shift = np.uint64(32)
    for _ in range(10):
        x_lo, x_hi = x & _LOW32, x >> shift
        lo_lo = _M_LO * x_lo
        mid = _M_LO * x_hi + (lo_lo >> shift)
        cross = _M_HI * x_lo + (mid & _LOW32)
        hi = _M_HI * x_hi + (mid >> shift) + (cross >> shift)
        x, y = hi[::-1] ^ y ^ key, _PHILOX_M[::-1] * x[::-1]
        key += _PHILOX_W
    words = np.stack((x[0], y[0], x[1], y[1]), axis=-1)
    return ((words >> np.uint64(11)) * (1.0 / 9007199254740992.0)).reshape(count, _HEAD)


def _uniform_chunks(rng: np.random.Generator, seed: int, trial: int, head: list):
    """Trial ``trial``'s uniforms as successive lists: its batched head, then
    draws from ``rng``, whose Philox is re-keyed to resume the stream right
    after the head.  Streams that share ``rng`` must be read one at a time."""
    yield head
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _RESUME_COUNTER, "key": np.array([trial, seed], dtype=np.uint64)},
        "buffer": _EMPTY_BUFFER,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    size = _HEAD
    while True:
        size = min(2 * size, _MAX_CHUNK)
        yield rng.random(size).tolist()


def _trial_streams(seed: int, trials: int):
    """One uniform-chunk iterator per trial, in trial order; each must be
    left before the next is read."""
    rng = np.random.Generator(np.random.Philox(key=0))
    for first in range(0, trials, _BATCH):
        heads = _philox_heads(seed, first, min(_BATCH, trials - first)).tolist()
        for offset, head in enumerate(heads):
            yield _uniform_chunks(rng, seed, first + offset, head)


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


def _run_trials(model: ProcessModel, spec: RestartSpec | None, config: SimConfig):
    """Run ``config.trials`` trials; returns (first-passage times, restart
    counts, censored count).  With ``spec`` None the process never restarts
    and no epoch uniform is read."""
    samples: list[float] = []
    restart_counts: list[int] = []
    censored = 0
    cap = config.step_cap
    draw = None if spec is None else spec.draw
    run_leg = model.run_leg
    for chunks in _trial_streams(config.seed, config.trials):
        u = next(chunks)
        pos = total = restarts = 0
        hit = False
        while total < cap:
            if draw is None:
                free = math.inf
            else:
                if pos >= len(u):
                    pos -= len(u)
                    u = next(chunks)
                # Only the steps before the epoch can end the trial: the step
                # on the epoch restarts whatever state it reaches (a tie goes
                # to the restart), so it is counted without being simulated.
                free = draw(u[pos]) - 1
                pos += 1
            state = model.initial_state()
            while free and total < cap:
                if pos >= len(u):
                    pos -= len(u)
                    u = next(chunks)
                state, taken, hit = run_leg(state, u, pos, min(free, cap - total, len(u) - pos))
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
    samples, censored = underlying_samples(model, config)
    return _summarize(samples.tolist(), [0] * len(samples), censored, config)
