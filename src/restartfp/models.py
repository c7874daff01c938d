"""Restart-time distributions and first-passage process models.

Two families of value objects:

* :class:`RestartSpec` subclasses describe when the restart clock fires
  (geometric, sharp, or an explicit PMF).
* :class:`ProcessModel` subclasses describe the underlying process whose
  first-passage time is being restarted.  Each exposes its closed-form PGF
  where one exists, a PMF expansion, and a stepwise trajectory simulator.

States and times are integers; all randomness enters through explicit
uniform draws passed to ``step`` so that simulation engines own the RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .series import (AT_INFINITY, MASS_TOL, TRUNCATION, TruncatedPMF, _check_mass, _check_z, _fsum, _index, _powers,
                     _real)

# Default PMF expansion policy: extend until the unrepresented finite-time
# mass drops below RESIDUAL_TARGET, or the coefficient count hits MAX_TERMS,
# whichever comes first.  Defective walks (p <= q) never reach the target.
RESIDUAL_TARGET = 1e-10
MAX_TERMS = 10**6
_UNIT = 2**1074
# Masses an extension computes at least: a run of asks a few masses apart
# (one sharp sweep row per N) extends the held array once a block.
_BLOCK = 128
# Walk masses one kernel call computes at most, so its temporaries stay
# small however far an expansion runs.
_CHUNK = 4096


def _fixed(x: float) -> int:
    """x * _UNIT as an exact int: every double is a whole number of 1/_UNIT."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _mapped(f, values) -> np.ndarray:
    """The ``math`` function f of each of ``values`` (a range, or a
    memoryview of doubles), as a float64 array."""
    return np.fromiter(map(f, values), float, len(values))

# ---------------------------------------------------------------------------
# Restart-time specifications
# ---------------------------------------------------------------------------


class RestartSpec:
    """When the restart clock fires.  Subclasses are immutable value objects.

    A clock supplies exactly what :mod:`restartfp.fpur` and the simulator
    read: ``survival`` (with ``cdf`` and ``hit_prob`` as its complements),
    the ``survival_array`` and ``pmf_array`` vectors, the inverse-CDF
    ``draw``, ``last_epoch``, ``describe``, the closed-form mean and law
    where they exist, and the renewal terms and sums.
    """

    def cdf(self, n: int) -> float:
        return 1.0 - self.survival(n)

    def survival(self, n: int) -> float:
        """P(R > n), n = infinity included; ``cdf`` and ``hit_prob`` complement it."""
        raise NotImplementedError

    def hit_prob(self) -> float:
        """P(R < infinity)."""
        return 1.0 - self.survival(math.inf)

    def pmf_array(self, t_max: int) -> np.ndarray:
        """Masses r(0..t_max) as a dense vector."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def draw(self, u: float):
        """One epoch by inverse CDF on the uniform ``u``; infinity when ``u``
        lands in mass at infinity."""
        raise NotImplementedError

    def last_epoch(self) -> int | None:
        """Largest epoch the law can place mass on; None when unbounded."""
        raise NotImplementedError

    def survival_array(self, size: int) -> np.ndarray:
        """P(R > n) for n = 0..size-1."""
        raise NotImplementedError

    def closed_form_mean(self, model: ProcessModel) -> float | None:
        """E[T] by this family's closed form; None when it has none."""
        return None

    def closed_form_law(self, model: ProcessModel, t_max: int) -> tuple[np.ndarray, float] | None:
        """T's masses on 0..t_max and P(T > t_max) by this family's closed
        form; None when it has none, and the law divides the renewal series."""
        return None

    def renewal_terms(
        self, model: ProcessModel, t_max: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-time terms of :meth:`renewal`'s sums for the model's first
        passage U against this clock R: (u(n) P(R > n) for n = 0..h,
        r(i) P(U >= i) for i = 0..h+1, P(U > n) P(R > n) for n = 0..h).

        One horizon rule for every clock: h is the largest of U's smallest
        support point, the last epoch minus one and, for a law on
        0..t_max, ``t_max``.  From the last epoch on P(R > n) is the
        clock's residual, so past h only N and H have terms, which
        :meth:`renewal` closes (geometric: its own forms).
        """
        last = self.last_epoch()
        u = model.pmf(max(t_max or 0, model.min_support(), -1 if last is None else last - 1))
        surv_u = u.survival_array()
        surv_r = self.survival_array(u.t_max + 1)
        # P(U >= i) = P(U > i-1), one slot later.
        w = self.pmf_array(u.t_max + 1) * np.concatenate(([1.0], surv_u))
        return u.coefficients * surv_r, w, surv_u * surv_r

    def renewal(self, model: ProcessModel, z: float) -> tuple[float, float, float]:
        """Renewal sums at ``z`` in [0, 1]: (N, W, H) with
        N = sum_n z^n u(n) P(R > n), W = sum_i z^i r(i) P(U >= i) and
        H = E[min(U, R)], from :meth:`renewal_terms` at the horizon h the
        clock and U fix.  Past h P(R > n) is the residual s and r(n) is 0,
        so for s > 0 N gains s (u~(z) - sum_{n<=h} z^n u(n)) and H gains
        s (E[U] - sum_{n<=h} P(U > n)), each at least 0: U's PGF and mean
        close the flat tail."""
        n_terms, w_terms, h_terms = self.renewal_terms(model)
        zn = _powers(z, w_terms.size)
        n_sum, h_sum = _fsum(n_terms * zn[:-1]), _fsum(h_terms)
        s = self.survival(n_terms.size)
        if s > 0.0:
            u = model.pmf(n_terms.size - 1)
            n_sum += s * max(0.0, model.pgf(z) - _fsum(u.coefficients * zn[:-1]))
            h_sum += s * max(0.0, model.mean() - _fsum(u.survival_array()))
        return n_sum, _fsum(w_terms * zn), h_sum


@dataclass(frozen=True)
class GeometricRestart(RestartSpec):
    """Restart after a geometric number of steps: r(n) = rho (1-rho)^(n-1), n >= 1."""

    rho: float
    # log(1 - rho), the inverse-CDF denominator of every draw.
    _log_x: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _real(self.rho, "rho must lie strictly inside (0, 1)", lambda r: 0 < r < 1))
        object.__setattr__(self, "_log_x", math.log1p(-self.rho))

    def survival(self, n: int) -> float:
        if n < 0:
            return 1.0
        return (1.0 - self.rho) ** n

    def pmf_array(self, t_max: int) -> np.ndarray:
        out = np.zeros(t_max + 1)
        out[1:] = self.rho * self.survival_array(t_max)
        return out

    def describe(self) -> str:
        return f"geometric:rho={self.rho!r}"

    def draw(self, u: float) -> int:
        # The epoch support starts at 1, so u = 0 still draws 1.
        return max(1, math.ceil(math.log1p(-u) / self._log_x))

    def last_epoch(self) -> None:
        return None

    def survival_array(self, size: int) -> np.ndarray:
        """(1 - rho)**n for n = 0..size-1."""
        return _powers(1.0 - self.rho, size)

    def renewal(self, model: ProcessModel, z: float) -> tuple[float, float, float]:
        """Closed forms on the model's PGF, with x = 1 - rho:
        N = u~(xz), W = rho z (1 - u~(xz)) / (1 - xz), H = (1 - u~(x)) / rho."""
        x = 1.0 - self.rho
        n_sum = model.pgf(x * z)
        w_sum = self.rho * z * (1.0 - n_sum) / (1.0 - x * z)
        return n_sum, w_sum, (1.0 - model.pgf(x)) / self.rho

    def closed_form_mean(self, model: ProcessModel) -> float:
        """(1 - u~(1-rho)) / (rho u~(1-rho)), infinity when u~(1-rho) is 0."""
        value = model.pgf(1.0 - self.rho)
        if value <= 0.0:
            return math.inf
        return (1.0 - value) / (self.rho * value)


@dataclass(frozen=True)
class SharpRestart(RestartSpec):
    """Restart at a fixed epoch: r(n) = 1 at n = n_restart."""

    n_restart: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_restart", _index(self.n_restart, "n_restart must be an integer >= 1", 1))

    def survival(self, n: int) -> float:
        return 1.0 if n < self.n_restart else 0.0

    def pmf_array(self, t_max: int) -> np.ndarray:
        out = np.zeros(t_max + 1)
        if self.n_restart <= t_max:
            out[self.n_restart] = 1.0
        return out

    def describe(self) -> str:
        return f"sharp:N={self.n_restart}"

    def draw(self, u: float) -> int:
        return self.n_restart

    def last_epoch(self) -> int:
        return self.n_restart

    def survival_array(self, size: int) -> np.ndarray:
        out = np.zeros(size)
        out[: self.n_restart] = 1.0
        return out

    def _cycle(self, model: ProcessModel) -> tuple[np.ndarray, float, float, float] | None:
        """(u(0..N-1), P(U <= N-1), sum_{n<N} n u(n), s = P(U >= N)) for one
        cycle, with U expanded to N-1 and both sums read from the model's
        exact cursor; None if preemptive (no mass below N)."""
        if self.n_restart <= model.min_support():
            return None
        head = model._prefix(self.n_restart - 1)
        mass_below, weighted = model._head_sums(self.n_restart - 1)
        tail = model._tail(head, mass_below)
        _check_mass(mass_below + tail)
        return None if mass_below <= 0.0 else (head, mass_below, weighted, tail)

    def closed_form_mean(self, model: ProcessModel) -> float:
        """(sum_{n<N} n u(n) + N P(U > N-1)) / P(U <= N-1); infinity if
        preemptive."""
        cycle = self._cycle(model)
        if cycle is None:
            return math.inf
        _, mass_below, weighted, tail = cycle
        return (weighted + self.n_restart * tail) / mass_below

    def closed_form_law(self, model: ProcessModel, t_max: int) -> tuple[np.ndarray, float]:
        """Each cycle hits at U <= N-1 or restarts with probability s, so
        P(T = kN + j) = s^k u(j) for j < N, and P(T > t_max) = s^k P(U > j)
        at t_max = kN + j; all zeros, residual 1, if preemptive."""
        cycle = self._cycle(model)
        if cycle is None:
            return np.zeros(t_max + 1), 1.0
        head, _, _, s = cycle
        k, j = divmod(t_max, self.n_restart)
        powers = _powers(s, k + 1)
        # P(U > j) is s plus the masses past j, not 1 minus those up to j.
        residual = float(powers[k]) * _fsum(np.append(s, head[j + 1 :]))
        return np.outer(powers, head).ravel()[: t_max + 1], residual


@dataclass(frozen=True, eq=False)
class _ExplicitLaw:
    """A law given directly as a PMF on the positive integers; the common
    part of the explicit restart clock and the explicit process: the PMF,
    the check that it places no mass at 0, and the inverse-CDF draw."""

    dist: TruncatedPMF
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.dist.coefficients[0] != 0.0:
            raise ValueError(f"{type(self).__name__} PMF must place zero mass at n=0")
        cdf = np.cumsum(self.dist.coefficients)
        cdf.setflags(write=False)
        object.__setattr__(self, "_cdf", cdf)

    def draw(self, u: float):
        """Inverse-CDF sample; infinity when the draw lands in the residual."""
        idx = int(np.searchsorted(self._cdf, u, side="right"))
        if idx > self.dist.t_max:
            return math.inf
        return idx


class ExplicitRestart(_ExplicitLaw, RestartSpec):
    """Restart clock with an arbitrary user-supplied PMF on positive integers."""

    def cdf(self, n: int) -> float:
        return self.dist.cumulative(n)

    def survival(self, n: int) -> float:
        return self.dist.survival(n)

    def pmf_array(self, t_max: int) -> np.ndarray:
        out = np.zeros(t_max + 1)
        out[: self.dist.t_max + 1] = self.dist.coefficients[: t_max + 1]
        return out

    def last_epoch(self) -> int:
        return self.dist.t_max

    def survival_array(self, size: int) -> np.ndarray:
        head = self.dist.survival_array()[:size]
        return np.concatenate((head, np.full(size - head.size, self.dist.residual)))

    def describe(self) -> str:
        return f"explicit-restart:t_max={self.dist.t_max}"


# ---------------------------------------------------------------------------
# Underlying first-passage processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class ProcessModel:
    """A process with integer states whose first passage to a terminal set is
    the underlying time being restarted.  Subclasses are immutable.

    :meth:`pmf` holds u(0..h) for h at least the longest horizon asked, serves
    shorter horizons as its prefix and extends it through ``_atoms`` for longer
    ones, by at least ``_BLOCK`` masses, so h stays below the longest horizon
    asked plus ``_BLOCK``; each mass depends only on its time, so every horizon
    has first-expansion bits.
    Only ``ProcessModel``'s own methods touch the held masses and cursor;
    everything else reads them through :meth:`_prefix` and :meth:`_head_sums`."""

    _held: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # (t, S, W): u(0..t) and fl(n u(n)), n = 0..t, summed exactly in units of 1/_UNIT.
    _cursor: tuple[int, int, int] = field(default=(-1, 0, 0), init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        # A pickle, such as the copy a Monte Carlo helper runs, carries the
        # parameters, not the held masses or the cursor.
        return {**self.__dict__, "_held": None, "_cursor": (-1, 0, 0)}

    def pgf(self, z: float) -> float:
        raise NotImplementedError

    # Each model class binds this pmf itself: the benchmark tracer wraps pmf
    # only where a class defines it.
    def pmf(self, t_max: int | None = None) -> TruncatedPMF:
        """U's law on 0..t_max (default: the model's own horizon)."""
        if t_max is None:
            t_max = self._default_horizon()
        elif (t_max := _index(t_max, "t_max must be an integer")) < self.min_support():
            raise ValueError(f"t_max={t_max} is below the smallest support point {self.min_support()}")
        head = self._prefix(t_max)
        total = _fsum(head)
        kind = AT_INFINITY if math.isinf(self.mean()) else TRUNCATION
        return TruncatedPMF._summed(head, self._tail(head, total), kind, total)

    def _prefix(self, t_max: int | None = None) -> np.ndarray:
        """u(0..t_max) from the held masses, extended through ``_atoms`` to
        t_max or a block past them, whichever is further, when they are too
        short; with no ``t_max``, the masses held so far."""
        held = np.zeros(0) if self._held is None else self._held
        if t_max is None:
            return held
        if held.size <= t_max:
            stop = max(t_max + 1, held.size + _BLOCK)
            held = self._extend(held, stop, *self._atoms(held.size, stop))
        return held[: t_max + 1]

    def _head_sums(self, t: int) -> tuple[float, float]:
        """fsum's bits for the sums of u(0..t) and of n u(n), n = 0..t, each
        product rounded as ``np.arange(t + 1) * head`` rounds it.  The cursor
        moves to t from its own place or from -1, whichever crosses fewer
        masses, adding or subtracting the exact values of the nonzero
        masses it crosses; it is published as one tuple, so racing threads
        each move their own snapshot.  Int true division rounds correctly,
        as fsum does."""
        at, s, w = self._cursor
        if at - t > t + 1:
            at, s, w = -1, 0, 0
        lo, hi, sign = (at, t, 1) if t > at else (t, at, -1)
        for n, x in enumerate(self._prefix(hi)[lo + 1 :].tolist(), lo + 1):
            if x:
                s += sign * _fixed(x)
                w += sign * _fixed(n * x)
        object.__setattr__(self, "_cursor", (t, s, w))
        return s / _UNIT, w / _UNIT

    def _extend(self, held: np.ndarray, stop: int, times, masses) -> np.ndarray:
        """Hold and return u(0..stop-1), read-only (laws of U view it):
        ``held``, then ``masses`` written at ``times`` (indices or a slice);
        each new mass must be finite and nonnegative."""
        out = np.zeros(stop)
        out[: held.size] = held
        out[times] = masses
        new = out[held.size :]
        # A NaN makes the minimum NaN, which fails the comparison.
        if not 0.0 <= new.min() <= new.max() < math.inf:
            raise ValueError("masses must be finite and nonnegative")
        out.setflags(write=False)
        object.__setattr__(self, "_held", out)
        return out

    def _default_horizon(self) -> int:
        raise NotImplementedError

    def _atoms(self, start: int, stop: int):
        """Times in start..stop-1 with positive mass, each once, and the masses."""
        raise NotImplementedError

    def _tail(self, head: np.ndarray, total: float) -> float:
        """The residual past the masses ``head``, whose fsum is ``total``:
        by default what they leave of 1."""
        return max(0.0, 1.0 - total)

    def hit_prob(self) -> float:
        """P(U < infinity)."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def second_factorial_moment(self) -> float:
        raise NotImplementedError

    def min_support(self) -> int:
        """Smallest n with positive first-passage mass."""
        raise NotImplementedError

    def initial_state(self):
        raise NotImplementedError

    def is_terminal(self, state) -> bool:
        raise NotImplementedError

    def step(self, state, u: float):
        """Advance one time step using the uniform draw ``u`` in [0, 1)."""
        raise NotImplementedError

    def leg_input(self, chunk: np.ndarray):
        """What :meth:`run_leg` reads of a chunk of uniforms: by default the
        chunk as a list of Python floats."""
        return chunk.tolist()

    def run_leg(self, state, u: list, start: int, steps: int):
        """Advance up to ``steps`` >= 1 steps from the non-terminal ``state``,
        step k reading ``u[start + k]``, and stop at the first terminal
        state.  Returns (state, steps taken, whether it is terminal).
        ``u`` is what :meth:`leg_input` made of the uniforms.

        Equal to repeated :meth:`step` calls on the uniforms.  All four models
        override it with a faster loop; it stays as the path for user
        subclasses."""
        step, is_terminal = self.step, self.is_terminal
        for i in range(start, start + steps):
            state = step(state, u[i])
            if is_terminal(state):
                return state, i - start + 1, True
        return state, steps, False

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class CycleTrap(ProcessModel):
    """Walk on vertices -L..M started at 0 and absorbed at -L.

    From 0 the process moves to -1 with probability p, otherwise to +1.
    Below 0 it decrements deterministically; at 1..M it increments
    deterministically, with M wrapping back to 0.
    """

    p: float
    L: int
    M: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real(self.p, "p must lie in (0, 1]", lambda p: 0 < p <= 1))
        for name in ("L", "M"):
            object.__setattr__(self, name, _index(getattr(self, name), "L and M must be integers"))
        if self.L < 1 or self.M < 1:
            raise ValueError("L and M must be >= 1")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def pgf(self, z: float) -> float:
        _check_z(z)
        return self.p * z**self.L / (1.0 - self.q * z ** (self.M + 1))

    pmf = ProcessModel.pmf

    def _default_horizon(self) -> int:
        cycles = 0 if self.q == 0.0 else math.ceil(math.log(RESIDUAL_TARGET) / math.log(self.q))
        return self.L + min(cycles, max(0, (MAX_TERMS - 1 - self.L) // (self.M + 1))) * (self.M + 1)

    def _atoms(self, start: int, stop: int):
        # p q^j at L + j(M+1).
        period = self.M + 1
        j = np.arange(max(0, -(-(start - self.L) // period)), (stop - 1 - self.L) // period + 1)
        return self.L + j * period, self.p * self.q**j

    def _tail(self, head: np.ndarray, total: float) -> float:
        # q^(j+1) for the j + 1 cycles the head holds.
        return self.q ** ((head.size - 1 - self.L) // (self.M + 1) + 1)

    def hit_prob(self) -> float:
        return 1.0

    def mean(self) -> float:
        return self.L + (self.q / self.p) * (self.M + 1)

    def second_factorial_moment(self) -> float:
        qp = self.q / self.p
        period = self.M + 1
        return (
            self.L * (self.L - 1)
            + period * (2 * self.L - 1) * qp
            + period**2 * self.q * (1.0 + self.q) / self.p**2
        )

    def min_support(self) -> int:
        return self.L

    def initial_state(self) -> int:
        return 0

    def is_terminal(self, state: int) -> bool:
        return state == -self.L

    def step(self, state: int, u: float) -> int:
        if state == -self.L:
            raise ValueError("cannot step a terminal state")
        if state == 0:
            return -1 if u < self.p else 1
        if state < 0:
            return state - 1
        if state == self.M:
            return 0
        return state + 1

    def leg_input(self, chunk: np.ndarray) -> bytes:
        """One byte per uniform: 1 where it is below p (a step down from 0)."""
        return (chunk < self.p).tobytes()

    def run_leg(self, state: int, u: bytes, start: int, steps: int):
        # Only a step from 0 reads its uniform, and 0 recurs every M + 1
        # steps until one steps down: a climb or a descent is settled by
        # arithmetic, and the uniforms read at 0 by one strided search.
        # ``down`` is where the leg's step down from 0 is, or was.
        period, end = self.M + 1, start + steps
        if state < 0:
            down = start + state
        else:
            i = start + (period - state) % period  # where the walk is next at 0
            if i > end:
                return state + steps, steps, False
            k = u[i:end:period].find(1)
            if k < 0:
                return (end - i) % period, steps, False
            down = i + k * period
        if down + self.L <= end:
            return -self.L, down + self.L - start, True
        return down - end, steps, False

    def describe(self) -> str:
        return f"cycle-trap:p={self.p!r},L={self.L},M={self.M}"


@dataclass(frozen=True)
class BiasedWalk(ProcessModel):
    """Nearest-neighbour walk on the nonnegative integers started at m,
    absorbed at 0; each step moves down with probability p, up with q = 1-p."""

    p: float
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real(self.p, "p must lie strictly inside (0, 1)", lambda p: 0 < p < 1))
        object.__setattr__(self, "m", _index(self.m, "m must be an integer >= 1", 1))

    @property
    def q(self) -> float:
        return 1.0 - self.p

    def pgf(self, z: float) -> float:
        _check_z(z)
        # (1 - sqrt(1-4pq z^2)) / (2qz) rationalized to avoid cancellation at small z and at
        # the branch point; 4pq rounds to at most 1 and z <= 1, so sqrt's argument is >= 0.
        # Rounding can lift the base past 1 for p > 1/2 (root near 0 at z = 1): bound it.
        root = math.sqrt(1.0 - 4.0 * self.p * self.q * z * z)
        return min(1.0, 2.0 * self.p * z / (1.0 + root)) ** self.m

    def _masses(self, k_lo: int, k_hi: int) -> np.ndarray:
        """u(m+2k) for k = k_lo..k_hi: m p^m (pq)^k C(m+2k, k) / (m+2k),
        binomial in log space, with the bits of the per-mass loop
        exp(head + k log(pq) + lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1) - log(n)),
        n = m+2k, head = log(m) + m log(p), its terms added left to right.

        The float64 array operations add in that order, so each rounds as
        the loop's did.  lgamma is taken once per distinct argument: k+1 and
        m+k+1 from one run where they overlap, n+1 from that run while it
        reaches and from its own odd or even run past it.  ``math``'s log and
        exp are mapped per element, since numpy's may round differently.
        """
        m, size = self.m, k_hi + 1 - k_lo
        lgamma = math.lgamma
        if m < size:
            run = _mapped(lgamma, range(k_lo + 1, m + k_hi + 2))
            lg_k, lg_mk = run[:size], run[m:]
        else:
            lg_k = _mapped(lgamma, range(k_lo + 1, k_hi + 2))
            lg_mk = _mapped(lgamma, range(m + k_lo + 1, m + k_hi + 2))
        # lgamma(m+2k+1) is lg_mk[2k - k_lo] while that index is in range.
        lg_n = lg_mk[k_lo::2]
        lg_n = np.concatenate((lg_n, _mapped(lgamma, range(m + 2 * (k_lo + lg_n.size) + 1, m + 2 * k_hi + 2, 2))))
        k = np.arange(k_lo, k_hi + 1, dtype=float)
        x = math.log(m) + m * math.log(self.p) + k * math.log(self.p * self.q)
        x += lg_n
        x -= lg_k
        x -= lg_mk
        x -= _mapped(math.log, range(m + 2 * k_lo, m + 2 * k_hi + 1, 2))
        return _mapped(math.exp, memoryview(x))

    def _atoms(self, start: int, stop: int):
        m = self.m
        k_lo, k_hi = max(0, (start - m + 1) // 2), (stop - 1 - m) // 2
        chunks = [self._masses(k, min(k + _CHUNK - 1, k_hi)) for k in range(k_lo, k_hi + 1, _CHUNK)]
        return np.arange(m + 2 * k_lo, m + 2 * k_hi + 1, 2), np.concatenate([np.zeros(0), *chunks])

    def _default_horizon(self) -> int:
        """m + 2k for the first k at which the masses, added left to right,
        reach hit_prob - RESIDUAL_TARGET; at most MAX_TERMS coefficients.  The
        held masses are summed first, then each new chunk seeded with the sum
        so far (np.cumsum adds in the same order), and held in one extension."""
        m, k_cap = self.m, (MAX_TERMS - 1 - self.m) // 2
        target = self.hit_prob() - RESIDUAL_TARGET
        held = self._prefix()
        sums = np.cumsum(held[m::2][: k_cap + 1])
        reached = np.flatnonzero(sums >= target)
        if reached.size or sums.size > k_cap:
            return m + 2 * int(reached[0] if reached.size else k_cap)
        k = k_lo = sums.size
        chunks = []
        while not reached.size and k <= k_cap:
            # Chunks double from a block, so an early stop computes few masses.
            masses = self._masses(k, min(k + min(_BLOCK << len(chunks), _CHUNK), k_cap + 1) - 1)
            seed = sums[-1:]
            sums = np.cumsum(np.concatenate((seed, masses)))[seed.size :]
            reached = np.flatnonzero(sums >= target)
            chunks.append(masses[: reached[0] + 1] if reached.size else masses)
            k += masses.size
        masses = np.concatenate(chunks)
        stop = m + 2 * (k_lo + masses.size) - 1
        self._extend(held, stop, slice(m + 2 * k_lo, stop, 2), masses)
        return stop - 1

    pmf = ProcessModel.pmf

    def hit_prob(self) -> float:
        if self.p >= self.q:
            return 1.0
        return (self.p / self.q) ** self.m

    def mean(self) -> float:
        if self.p <= self.q:
            return math.inf
        return self.m / (self.p - self.q)

    def second_factorial_moment(self) -> float:
        if self.p <= self.q:
            return math.inf
        drift = self.p - self.q
        return self.m * (self.m - 1) / drift**2 + 2.0 * self.m * self.q * (
            2.0 * drift + 1.0
        ) / drift**3

    def min_support(self) -> int:
        return self.m

    def initial_state(self) -> int:
        return self.m

    def is_terminal(self, state: int) -> bool:
        return state == 0

    def step(self, state: int, u: float) -> int:
        if state == 0:
            raise ValueError("cannot step a terminal state")
        return state - 1 if u < self.p else state + 1

    def leg_input(self, chunk: np.ndarray) -> bytes:
        """One byte per uniform: 1 where it is below p (a step down)."""
        return (chunk < self.p).tobytes()

    def run_leg(self, state: int, u: bytes, start: int, steps: int):
        # From height h the walk can reach 0 within the next h steps only on
        # the h-th, so it takes k = min(h, steps left) steps at once and
        # moves by k minus twice the downs among them.
        count = u.count
        i, end = start, start + steps
        while i < end:
            k = end - i
            if state < k:
                k = state
            state += k - 2 * count(1, i, i + k)
            i += k
            if state == 0:
                return 0, i - start, True
        return state, steps, False

    def describe(self) -> str:
        return f"brw:p={self.p!r},m={self.m}"


class _CountdownMixin:
    """Trajectory semantics for models defined directly by a hitting-time
    distribution: the first step draws the total time, later steps count it
    down, so each step still advances the clock by exactly one."""

    def initial_state(self):
        return None

    def is_terminal(self, state) -> bool:
        return state == 0

    def step(self, state, u: float):
        if state is None:
            return self.draw(u) - 1
        if state == 0:
            raise ValueError("cannot step a terminal state")
        return state - 1

    def run_leg(self, state, u: list, start: int, steps: int):
        # After the first draw the countdown is arithmetic; a draw in the
        # mass at infinity leaves an infinite state that never reaches 0.
        taken = 0
        if state is None:
            state = self.draw(u[start]) - 1
            taken = 1
        if state <= steps - taken:
            return 0, taken + state, True
        return state - (steps - taken), steps, False


@dataclass(frozen=True)
class TwoPoint(_CountdownMixin, ProcessModel):
    """Hitting time equal to t1 with probability w1, else t2."""

    t1: int
    w1: float
    t2: int

    def __post_init__(self) -> None:
        for name in ("t1", "t2"):
            object.__setattr__(self, name, _index(getattr(self, name), "t1 and t2 must be integers"))
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError("support points must be >= 1")
        object.__setattr__(self, "w1", _real(self.w1, "w1 must lie in [0, 1]", lambda w: 0 <= w <= 1))

    def pgf(self, z: float) -> float:
        _check_z(z)
        return self.w1 * z**self.t1 + (1.0 - self.w1) * z**self.t2

    def _points(self) -> tuple[tuple[int, float], tuple[int, float]]:
        return (self.t1, self.w1), (self.t2, 1.0 - self.w1)

    pmf = ProcessModel.pmf

    def _default_horizon(self) -> int:
        return max(self.t1, self.t2)

    def _atoms(self, start: int, stop: int):
        atoms: dict[int, float] = {}  # t1 == t2 is one atom, 0.0 + w1 + (1 - w1)
        for t, w in self._points():
            if start <= t < stop:
                atoms[t] = atoms.get(t, 0.0) + w
        return list(atoms), list(atoms.values())

    def _tail(self, head: np.ndarray, total: float) -> float:
        return _fsum(np.array([w for t, w in self._points() if t >= head.size]))

    def hit_prob(self) -> float:
        return 1.0

    def mean(self) -> float:
        return self.w1 * self.t1 + (1.0 - self.w1) * self.t2

    def second_factorial_moment(self) -> float:
        return self.w1 * self.t1 * (self.t1 - 1) + (1.0 - self.w1) * self.t2 * (self.t2 - 1)

    def min_support(self) -> int:
        return min(t for t, w in self._points() if w > 0.0)

    def draw(self, u: float) -> int:
        return self.t1 if u < self.w1 else self.t2

    def describe(self) -> str:
        return f"two-point:t1={self.t1},w1={self.w1!r},t2={self.t2}"


class ExplicitProcess(_CountdownMixin, _ExplicitLaw, ProcessModel):
    """Underlying process defined directly by an arbitrary hitting-time PMF.
    Its residual never hits, so beyond ``MASS_TOL`` it must be ``AT_INFINITY``."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dist.residual_kind == TRUNCATION and self.dist.residual > MASS_TOL:
            raise ValueError(f"truncation residual {self.dist.residual!r} exceeds {MASS_TOL}; tag it AT_INFINITY")

    def pgf(self, z: float) -> float:
        return self.dist.evaluate(z)

    pmf = ProcessModel.pmf

    def _default_horizon(self) -> int:
        return self.dist.t_max

    def _atoms(self, start: int, stop: int):
        times = start + np.flatnonzero(self.dist.coefficients[start:stop])
        return times, self.dist.coefficients[times]

    def _tail(self, head: np.ndarray, total: float) -> float:
        return self.dist.residual + _fsum(self.dist.coefficients[head.size :])

    def hit_prob(self) -> float:
        return 1.0 - self.dist.residual if self.dist.residual_kind == AT_INFINITY else 1.0

    def mean(self) -> float:
        return self.dist.mean()

    def second_factorial_moment(self) -> float:
        return self.dist.second_factorial_moment()

    def min_support(self) -> int:
        nonzero = np.nonzero(self.dist.coefficients)[0]
        if nonzero.size == 0:
            raise ValueError("hitting-time PMF has empty finite support")
        return int(nonzero[0])

    def describe(self) -> str:
        return f"explicit:t_max={self.dist.t_max}"
