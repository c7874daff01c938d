"""The original per-step Monte Carlo loop, kept verbatim as the oracle that ``simulate_fpur`` and ``underlying_samples`` must match
bit for bit: one ``Generator(Philox(key=(seed << 64) + trial))`` per trial,
and one ``step``/``is_terminal`` call per step."""

import math
from statistics import NormalDist, fmean, stdev

import numpy as np

from restartfp.montecarlo import SimConfig, SimEstimate
from restartfp.models import ProcessModel, RestartSpec

_BUFFER = 256


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


def _summarize(samples: list[float], restarts: list[int], censored: int, config: SimConfig) -> SimEstimate:
    """The original summary, with ``statistics.stdev``."""
    used = len(samples)
    if used == 0:
        return SimEstimate(math.nan, math.nan, math.nan, math.nan, censored, 0, math.nan)
    mean = fmean(samples)
    err = stdev(samples) / math.sqrt(used) if used > 1 else 0.0
    z = NormalDist().inv_cdf(0.5 * (1.0 + config.ci_level))
    return SimEstimate(mean, err, mean - z * err, mean + z * err, censored, used, fmean(restarts))


def simulate_fpur(model: ProcessModel, spec: RestartSpec, config: SimConfig) -> SimEstimate:
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
