"""Trajectory-level simulation of first passage under restart.

Each trial is one loop over a renewal of legs: it draws a restart epoch,
runs the model up to the step before it, and counts the epoch step as a
restart whatever state it reaches (a tie goes to the restart).  Trial ``i``
of a run seeded with ``s`` reads the counter-based uniforms of
``Philox(key=(s << 64) + i)`` in order, whatever the order of the trials.

One numpy ``Philox`` serves a run of trials: each trial re-keys it to the
trial's key with its counter at zero, then reads its uniforms in chunks
refilled at the loop's top.  A trial's first chunk is as large as the one
the run's last hitting trial ended in, halved if that trial read no more
than half of it, and never smaller than ``_FIRST_CHUNK``; later chunks
double up to ``_MAX_CHUNK``.
A model consumes each chunk in the form :meth:`ProcessModel.leg_input` makes
of it, through :meth:`ProcessModel.run_leg`, one call per stretch of a leg
within a chunk; epoch draws read the chunk's own floats.  A model converts
only what its legs read: the walk reads every uniform, so it masks the
whole chunk once; the cycle trap reads the chunk itself at its visits to 0,
one at a time, or by one strided comparison when a stretch has more than a
few; a countdown process reads the one uniform that draws its time.

A run of two or more trials is split in two contiguous halves when two
CPUs are usable.  The caller runs the first; the second goes to a helper
process, forked on first use where ``os.fork`` exists and kept for the
process's life, which runs the same trial loop on a pickled copy of the
model.  The halves' results are joined in trial order, so a run's results
do not depend on whether it was split.  The helper runs only restartfp's
own model and restart classes, and is forked again when a name its trial
loop reads in restartfp, or numpy's ``Philox`` or ``Generator``, has been
rebound since it was forked; any other class runs in the caller.  The
caller runs the second half itself when the helper cannot (a model that
does not pickle, an exception, a dead or late helper, a call from a thread
other than the main one or from a forked child), and drops a helper that
failed.
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

# The fewest uniforms in a trial's first draw: a figure-6 row's trials use
# 28 in the median and 40 on average, and 64 ran both Monte Carlo benchmark
# workloads faster than 32.  Later draws double in size up to _MAX_CHUNK, so
# a trial of n steps makes O(log n) draws.
_FIRST_CHUNK = 64
_MAX_CHUNK = 4096

# Steps a trial may take before it is censored.
DEFAULT_STEP_CAP = 10**7

# Bits of the integer square root in _stdev: twice a double's 53, plus 3.
_ROOT_BITS = 2 * sys.float_info.mant_dig + 3

# How long past the end of its own half the caller waits for the helper's
# reply, at least; it waits as long as its own half took if that is
# longer.  A helper whose reply is not all in by then is dropped and the
# caller runs its half, so a stalled helper delays a run by a bounded time.
_LATE_S = 0.005

# This process's cgroups, one "hierarchy:controllers:path" line each.
_CGROUP = "/proc/self/cgroup"
# Where cgroup v2's hierarchy and cgroup v1's cpu controller are mounted,
# and the CPU quota files of each cgroup there: v2's "quota period" (quota
# "max" when none), then v1's quota (-1 when none) and period.
_CGROUP_MOUNTS = ("/sys/fs/cgroup", "/sys/fs/cgroup/cpu")
_QUOTA_FILES = (("cpu.max",), ("cpu.cfs_quota_us", "cpu.cfs_period_us"))

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
    opening = _FIRST_CHUNK
    for trial in range(first, first + config.trials):
        key[0] = trial
        philox.state = fresh
        size = opening
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
                    # The next trial opens with this one's last chunk size,
                    # halved if it read no more than half of that chunk.
                    opening = size if pos > size >> 1 or size == _FIRST_CHUNK else size >> 1
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
    at most the smallest CPU quota (rounded up) of its own cgroup and that
    cgroup's ancestors, and at most 2, the most timed.  The roots' quotas
    alone are read when the process's cgroups cannot be."""
    cpus = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, 2)
    paths = ["", ""]  # the v2 and v1 cgroup paths under their mounts
    with suppress(OSError, ValueError), open(_CGROUP) as file:
        for line in file:
            hierarchy, controllers, path = line.rstrip("\n").split(":", 2)
            if hierarchy == "0" and not controllers:
                paths[0] = path
            elif "cpu" in controllers.split(","):
                paths[1] = path
    for mount, path, names in zip(_CGROUP_MOUNTS, paths, _QUOTA_FILES):
        parts = [mount, *filter(None, path.split("/"))]
        for depth in range(1, len(parts) + 1):
            words = []
            try:
                for name in names:
                    with open(os.path.join(*parts[:depth], name)) as file:
                        words += file.read().split()
                quota, period = int(words[0]), int(words[1])
            except (OSError, ValueError, IndexError):  # absent, or no quota ("max")
                continue
            if quota > 0:
                cpus = min(cpus, -(-quota // period))
    return cpus


def _names() -> list:
    """What every name in ``_NAMESPACES`` is bound to now, in order, then
    the numpy classes the trial loop builds its stream from.  Those are read
    here, when a split run starts, so that importing restartfp does not
    import ``numpy.random``."""
    return [value for space in _NAMESPACES for value in space.values()] + [np.random.Philox, np.random.Generator]


def _read(fd: int, size: int, wait=None) -> bytes:
    """Exactly ``size`` bytes from ``fd``; EOFError if it closes first.
    ``wait``, if given, is called before each read."""
    data = bytearray()
    while len(data) < size:
        if wait:
            wait()
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return data


def _receive(fd: int, wait=None) -> bytes:
    """The next message :func:`_send` wrote to ``fd``; ``wait`` as in :func:`_read`."""
    return _read(fd, int.from_bytes(_read(fd, 8, wait), "little"), wait)


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
    """The helper process of the process that forked it, used from its main
    thread only.  No result depends on the helper: a half it cannot run is
    run by the caller through the same ``_run_trials`` call."""

    def __init__(self) -> None:
        # The helper's (pid, request fd, reply fd), or None.
        self._helper: tuple[int, int, int] | None = None
        # The one thread that may use the helper; None in a forked child.
        self._owner = threading.main_thread() if hasattr(os, "fork") else None
        # What the names the helper reads were bound to when it was forked.
        self._names: list = []

    def run(self, model: ProcessModel, spec: RestartSpec | None, config: SimConfig):
        """``_run_trials(model, spec, config)``, split in two contiguous
        halves when two CPUs are usable, joined in trial order; the caller
        runs the first half and the helper the second."""
        owner = self._owner
        shared = type(model) in _SHARED and type(spec) in _SHARED
        if _cpus() < 2 or config.trials < 2 or not shared or threading.current_thread() is not owner:
            return _run_trials(model, spec, config)
        half = config.trials // 2
        first, second = replace(config, trials=half), replace(config, trials=config.trials - half)
        try:
            request = pickle.dumps((model, spec, second, half))
        except Exception:  # a model or spec that does not pickle runs here
            return _run_trials(model, spec, config)
        names = _names()
        if len(names) != len(self._names) or not all(map(operator.is_, names, self._names)):
            self.close()  # forked before a rebinding: it would run other code
        self._names = names
        # A call nested in this one (from a signal handler, say) runs alone.
        self._owner = None
        try:
            sent = self._request(request)
            start = time.perf_counter()
            samples, restarts, censored = _run_trials(model, spec, first)
            now = time.perf_counter()
            reply = self._reply(now + max(now - start, _LATE_S)) if sent else None
            if reply is None:
                reply = _run_trials(model, spec, second, half)
        except BaseException:
            # A reply may still be on its way: no later run may read it.
            self.close()
            raise
        finally:
            self._owner = owner
        return samples + reply[0], restarts + reply[1], censored + reply[2]

    def _request(self, request: bytes) -> bool:
        """Send ``request`` to the helper, forked if none runs; False (and
        the helper dropped) if it could not be sent."""
        try:
            if self._helper is None:
                self._helper = _fork_helper()
            _send(self._helper[1], request)
        except OSError:
            self.close()
            return False
        return True

    def _reply(self, deadline: float):
        """The helper's results, or None (and the helper dropped) if it
        has none, or has not sent them all by ``deadline``, a
        ``time.perf_counter`` reading."""
        import select  # imported here: only a split run needs it

        poller = select.poll()
        poller.register(self._helper[2], select.POLLIN)

        def wait() -> None:
            if not poller.poll(max(deadline - time.perf_counter(), 0.0) * 1e3):
                raise TimeoutError

        try:
            reply = pickle.loads(_receive(self._helper[2], wait))
        except (OSError, EOFError, pickle.UnpicklingError):
            reply = None
        if reply is None:
            self.close()
        return reply

    def close(self) -> None:
        """Close the helper's pipes, kill it, whatever it is doing, and wait
        for it."""
        if self._helper:
            import signal  # imported here: only a dropped helper needs it

            (pid, request_fd, reply_fd), self._helper = self._helper, None
            os.close(request_fd)
            os.close(reply_fd)
            with suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def _forget(self) -> None:
        """In a forked child: close the inherited pipes, unused, and use no
        helper from now on."""
        for fd in self._helper[1:] if self._helper else ():
            os.close(fd)
        self._helper = self._owner = None


_HELPERS = _Helpers()
atexit.register(_HELPERS.close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_HELPERS._forget)


def _cannot_hit(model: ProcessModel, spec: RestartSpec) -> bool:
    """Whether no leg can hit: the clock surely fires by its last epoch, and
    that epoch is at most U's smallest support point, so every leg ends by
    the time U could hit, and a tie goes to the restart."""
    try:
        last, first = spec.last_epoch(), model.min_support()
    except (NotImplementedError, ValueError):  # a class that states neither, or U with no finite support
        return False
    return last is not None and spec.survival(last) == 0.0 and last <= first


def simulate_fpur(model: ProcessModel, spec: RestartSpec, config: SimConfig) -> SimEstimate:
    """Estimate E[T] for the restarted process from ``config.trials`` trials.

    Preemptive pairs produce all-censored runs (flagged, not raised); a pair
    on which no leg can hit returns that run without running its trials.
    """
    if _cannot_hit(model, spec):
        return _summarize([], [], config.trials, config)
    return _summarize(*_HELPERS.run(model, spec, config), config)


def underlying_samples(model: ProcessModel, config: SimConfig) -> tuple[np.ndarray, int]:
    """Raw first-passage times of the bare process; returns (samples, censored)."""
    samples, _, censored = _HELPERS.run(model, None, config)
    return np.asarray(samples, dtype=np.float64), censored


def simulate_underlying(model: ProcessModel, config: SimConfig) -> SimEstimate:
    """Estimate E[U] for the bare process (no restart)."""
    return _summarize(*_HELPERS.run(model, None, config), config)
