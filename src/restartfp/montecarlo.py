"""Trajectory-level simulation of first passage under restart.

Each trial is one loop over a renewal of legs: it draws a restart epoch,
runs the model up to the step before it, and counts the epoch step as a
restart whatever state it reaches (a tie goes to the restart).  Trial ``i``
of a run seeded with ``s`` reads the counter-based uniforms of
``Philox(key=(s << 64) + i)`` in order, whatever the order of the trials.

One numpy ``Philox`` serves a run of trials: each trial re-keys it to the
trial's key with its counter at zero, then reads its uniforms in chunks of
``_FIRST_CHUNK``, doubling up to ``_MAX_CHUNK``, refilled at the loop's top.
A model consumes each chunk in the form :meth:`ProcessModel.leg_input` makes
of it, through :meth:`ProcessModel.run_leg`, one call per stretch of a leg
within a chunk; epoch draws read the chunk's own floats.

A run is split into contiguous trial ranges, one per usable CPU (at most
``_MAX_PARTS``).  The caller runs the first; each other range goes to a
helper process, forked on first use where ``os.fork`` exists and kept for
the process's life, which runs the same trial loop on a pickled copy of the
model.  The ranges' results are joined in trial order, so a run's results
do not depend on how it was split.  Helpers run only restartfp's own model
and restart classes, and are forked again when a name their trial loop
reads in restartfp has been rebound since they were forked; any other
class runs in the caller.  The caller runs a range itself when no helper
can (a model that does not pickle, an exception, a dead or late helper, a
call from a thread other than the main one or from a forked child), and
drops a helper that failed.
"""

from __future__ import annotations

import atexit
import functools
import math
import operator
import os
import pickle
import sys
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import zip_longest
from statistics import NormalDist, fmean

import numpy as np

from .models import (
    BiasedWalk,
    CycleTrap,
    ExplicitProcess,
    ExplicitRestart,
    GeometricRestart,
    ProcessModel,
    RestartSpec,
    SharpRestart,
    TwoPoint,
)

# Uniforms in a trial's first draw: a figure-6 row's trials use 28 in the
# median and 40 on average, and 64 ran both Monte Carlo benchmark workloads
# faster than 32.  Later draws double in size up to _MAX_CHUNK, so a trial
# of n steps makes O(log n) draws and wastes less than half of them.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096

# Steps a trial may take before it is censored.
DEFAULT_STEP_CAP = 10**7

# Bits of the integer square root in _stdev: twice a double's 53, plus 3.
_ROOT_BITS = 2 * sys.float_info.mant_dig + 3

# The most parts a run is split into: the most that have been timed.
_MAX_PARTS = 2

# How long past the end of its own range the caller waits for a helper's
# reply, at least; it waits as long as its own range took if that is
# longer.  A helper that has not replied by then is dropped and the caller
# runs its range, so a stalled helper delays a run by a bounded time.
_LATE_S = 0.005

# CPU quota files: cgroup v2's "quota period" (quota "max" when none), then
# cgroup v1's quota (-1 when none) and period.
_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)

# The model and restart classes helpers run: restartfp's own, as imported
# here.  Any other class runs in the caller, since a helper's copy of it, or
# of what it reads, may differ from the caller's; so does one of these
# classes once a reload has replaced it.
_SHARED = (
    BiasedWalk, CycleTrap, ExplicitProcess, TwoPoint, ExplicitRestart, GeometricRestart, SharpRestart, type(None),
)

# The namespaces a helper's trial loop reads in restartfp: this module's,
# the models module's and those of the shared classes and their bases.
_NAMESPACES = [globals(), vars(sys.modules[ProcessModel.__module__])]
_NAMESPACES += [vars(cls) for cls in dict.fromkeys(base for cls in _SHARED[:-1] for base in cls.__mro__[:-1])]


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


def _stdev(totals: list[int]) -> float:
    """The sample standard deviation of two or more whole numbers, correctly
    rounded, as ``statistics.stdev`` gives it from Python 3.11.

    Integer sums give the exact variance (n Σt² − (Σt)²) / (n(n − 1)).  Its
    square root is taken as an integer of at least _ROOT_BITS / 2 bits, its
    last bit set when inexact (round to odd), so rounding it to a float
    once is correct."""
    n = len(totals)
    num = n * sum(map(operator.mul, totals, totals)) - sum(totals) ** 2
    den = n * (n - 1)
    shift = (num.bit_length() - den.bit_length() - _ROOT_BITS) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return math.ldexp(root, shift)


def _summarize(samples: list[int], restarts: list[int], censored: int, config: SimConfig) -> SimEstimate:
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
    err = _stdev(samples) / math.sqrt(used) if used > 1 else 0.0
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
    """Run ``config.trials`` trials, numbered from ``first``, in one
    process; returns (first-passage times as ints, restart counts, censored
    count).  With ``spec`` None the process never restarts and no epoch
    uniform is read."""
    samples: list[int] = []
    restart_counts: list[int] = []
    censored = 0
    cap = config.step_cap
    draw = None if spec is None else spec.draw
    run_leg, initial_state, leg_input = model.run_leg, model.initial_state, model.leg_input
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
        chunk = random(size)
        u = leg_input(chunk)
        pos = total = restarts = 0
        # free: steps of the leg left before its epoch, -1 when the next
        # epoch is still to be drawn, infinite when the run never restarts.
        if draw is None:
            free, state = math.inf, initial_state()
        else:
            free = -1
        while total < cap:
            if pos >= size:
                pos -= size
                if size < _MAX_CHUNK:
                    size *= 2
                chunk = random(size)
                u = leg_input(chunk)
            if free > 0:
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
                    samples.append(total)
                    restart_counts.append(restarts)
                    break
            elif free < 0:
                free = draw(chunk.item(pos)) - 1
                pos += 1
                state = initial_state()
            else:
                # Only the steps before the epoch can end the trial: the step
                # on the epoch restarts whatever state it reaches (a tie goes
                # to the restart), so it is counted without being simulated.
                pos += 1
                total += 1
                restarts += 1
                free = -1
        else:  # the cap came before a hit
            censored += 1
    return samples, restart_counts, censored


@functools.cache
def _cpus() -> int:
    """The CPUs a run is split over: those in this process's affinity set,
    at most its cgroup's CPU quota (rounded up) and at most _MAX_PARTS."""
    cpus = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, _MAX_PARTS)
    for paths in _QUOTA_FILES:
        words = []
        try:
            for path in paths:
                with open(path) as file:
                    words += file.read().split()
            quota, period = int(words[0]), int(words[1])
        except (OSError, ValueError, IndexError):  # absent, or no quota ("max")
            continue
        if quota > 0:
            cpus = min(cpus, -(-quota // period))
    return cpus


def _names() -> list:
    """What every name in ``_NAMESPACES`` is bound to now, in order."""
    return [value for space in _NAMESPACES for value in space.values()]


def _read(fd: int, size: int) -> bytes:
    """Exactly ``size`` bytes from ``fd``; EOFError if it closes first."""
    data = bytearray()
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int) -> bytes:
    """The next message :func:`_send` wrote to ``fd``."""
    return _read(fd, int.from_bytes(_read(fd, 8), "little"))


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd``, prefixed by its length."""
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _serve(requests: int, replies: int) -> None:
    """A helper's loop: run each requested range of trials and send back
    what ``_run_trials`` returned, or None if it raised, until the owner
    closes the request pipe."""
    while True:
        try:
            request = _receive(requests)
        except EOFError:
            return
        try:
            reply = _run_trials(*pickle.loads(request))
        except Exception:  # the owner runs the range and meets the error itself
            reply = None
        _send(replies, pickle.dumps(reply))


def _detach(requests: int, replies: int) -> None:
    """In a new helper: hold none of the owner's files but the helper's
    own pipe ends, so that a pipeline the owner writes to ends with the
    owner, and end the helper as soon as the owner's end of the request
    pipe closes, even in the middle of a range."""
    null = os.open(os.devnull, os.O_RDWR)
    for fd in range(3):
        if fd not in (requests, replies):
            os.dup2(null, fd)
    low, high = sorted((requests, replies))
    for start, stop in ((3, low), (low + 1, high), (high + 1, os.sysconf("SC_OPEN_MAX"))):
        os.closerange(max(start, 3), stop)
    threading.Thread(target=_watch, args=(requests,), daemon=True).start()


def _watch(requests: int) -> None:
    """End the helper when every writer of its request pipe has closed it."""
    import select  # imported here: only a helper needs it

    poller = select.poll()
    poller.register(requests, 0)  # wakes on a hang-up or an error only
    poller.poll()
    os._exit(0)


def _fork_helper() -> tuple[int, int, int]:
    """Fork a helper; returns (pid, request fd, reply fd)."""
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    requests, request_fd, reply_fd, replies = fds
    if pid == 0:
        # Never return into the owner's code, and never run its exit handlers.
        try:
            _detach(requests, replies)
            _serve(requests, replies)
        finally:
            os._exit(0)
    os.close(requests)
    os.close(replies)
    return pid, request_fd, reply_fd


class _Helpers:
    """The helper processes of the process that forked them, used from its
    main thread only.  No result depends on a helper: a range it cannot run
    is run by the caller through the same ``_run_trials`` call."""

    def __init__(self) -> None:
        self._helpers: list[tuple[int, int, int]] = []
        # The one thread that may use helpers; None in a forked child.
        self._owner = threading.main_thread() if hasattr(os, "fork") else None
        # What the names helpers read were bound to when they were forked.
        self._names: list = []

    def run(self, model: ProcessModel, spec: RestartSpec | None, config: SimConfig):
        """``_run_trials(model, spec, config)``, as one contiguous range per
        usable CPU, joined in trial order; the caller runs the first range
        and helpers run the others."""
        parts = min(_cpus(), config.trials)
        owner = self._owner
        shared = type(model) in _SHARED and type(spec) in _SHARED
        if parts == 1 or not shared or threading.current_thread() is not owner:
            return _run_trials(model, spec, config)
        bounds = [config.trials * k // parts for k in range(parts + 1)]
        jobs = [(replace(config, trials=stop - start), start) for start, stop in zip(bounds, bounds[1:])]
        try:
            requests = [pickle.dumps((model, spec, *job)) for job in jobs[1:]]
        except Exception:  # a model or spec that does not pickle runs here
            return _run_trials(model, spec, config)
        names = _names()
        if len(names) != len(self._names) or not all(map(operator.is_, names, self._names)):
            self.close()  # forked before a rebinding: they would run other code
        self._names = names
        # A call nested in this one (from a signal handler, say) runs alone.
        self._owner = None
        try:
            sent = [self._request(helper, request) for helper, request in zip(self._start(len(requests)), requests)]
            start = time.perf_counter()
            results = [_run_trials(model, spec, *jobs[0])]
            now = time.perf_counter()
            deadline = now + max(now - start, _LATE_S)
            for helper, job in zip_longest(sent, jobs[1:]):
                reply = self._reply(helper, deadline)
                results.append(_run_trials(model, spec, *job) if reply is None else reply)
        except BaseException:
            # Replies may still be on their way: no later run may read them.
            self.close()
            raise
        finally:
            self._owner = owner
        samples, restarts, censored = [], [], 0
        for part in results:
            samples += part[0]
            restarts += part[1]
            censored += part[2]
        return samples, restarts, censored

    def _start(self, count: int) -> list[tuple[int, int, int]]:
        """Up to ``count`` helpers, forking the ones not yet running."""
        with suppress(OSError):
            while len(self._helpers) < count:
                self._helpers.append(_fork_helper())
        return self._helpers[:count]

    def _request(self, helper, request: bytes):
        """Send ``request`` to ``helper``; the helper, or None if it failed."""
        try:
            _send(helper[1], request)
        except OSError:
            self._drop(helper)
            return None
        return helper

    def _reply(self, helper, deadline: float):
        """The helper's results, or None (and the helper dropped) if it
        has none, or has not begun to send them by ``deadline``, a
        ``time.perf_counter`` reading."""
        if helper is None:
            return None
        import select  # imported here: only a split run needs it

        poller = select.poll()
        poller.register(helper[2], select.POLLIN)
        try:
            ready = poller.poll(max(deadline - time.perf_counter(), 0.0) * 1e3)
            reply = pickle.loads(_receive(helper[2])) if ready else None
        except (OSError, EOFError, pickle.UnpicklingError):
            reply = None
        if reply is None:
            self._drop(helper)
        return reply

    def _drop(self, helper) -> None:
        """Close the helper's pipes, kill it, whatever it is doing, and wait
        for it."""
        import signal  # imported here: only a dropped helper needs it

        self._helpers.remove(helper)
        pid, request_fd, reply_fd = helper
        os.close(request_fd)
        os.close(reply_fd)
        with suppress(OSError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def close(self) -> None:
        """Drop every helper."""
        for helper in self._helpers[:]:
            self._drop(helper)

    def _forget(self) -> None:
        """In a forked child: close the inherited pipes, unused, and use no
        helper from now on."""
        for _, request_fd, reply_fd in self._helpers:
            os.close(request_fd)
            os.close(reply_fd)
        self._helpers.clear()
        self._owner = None


_HELPERS = _Helpers()
atexit.register(_HELPERS.close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPERS._forget)


def simulate_fpur(model: ProcessModel, spec: RestartSpec, config: SimConfig) -> SimEstimate:
    """Estimate E[T] for the restarted process from ``config.trials`` trials.

    Preemptive pairs produce all-censored runs (flagged, not raised).
    """
    return _summarize(*_HELPERS.run(model, spec, config), config)


def underlying_samples(model: ProcessModel, config: SimConfig) -> tuple[np.ndarray, int]:
    """Raw first-passage times of the bare process; returns (samples, censored)."""
    samples, _, censored = _HELPERS.run(model, None, config)
    return np.asarray(samples, dtype=np.float64), censored


def simulate_underlying(model: ProcessModel, config: SimConfig) -> SimEstimate:
    """Estimate E[U] for the bare process (no restart)."""
    return _summarize(*_HELPERS.run(model, None, config), config)
