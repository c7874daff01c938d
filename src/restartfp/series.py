"""Truncated nonnegative power-series arithmetic for probability mass functions.

A :class:`TruncatedPMF` stores mass at integer times 0..t_max plus one
explicit residual for everything not represented.  Evaluation doubles as
the probability generating function on [0, 1].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# Construction tolerance for the total-mass identity.
MASS_TOL = 1e-9

# Residual tags: mass sitting at finite times beyond t_max vs mass on the
# event that the variable is infinite.
TRUNCATION = "truncation"
AT_INFINITY = "at_infinity"

# Coefficients per block of the blocked series division.
_BLOCK = 128
# Most lags one correlation of the division reads: each of its dot
# products then reads 24 KB of the denominator and 24 KB of the quotient's
# history, which stay in a 48 KB L1 data cache.
_LAGS = 3072
# Bits the scale of the scaled division may fall short of the largest its
# sums allow before the live window is rescaled.
_SLACK = 256


def _check_z(z: float) -> None:
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"z={z!r} outside [0, 1]")


def _check_mass(total: float) -> None:
    """The total-mass identity: masses plus residual within MASS_TOL of 1."""
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")


def _fsum(values: np.ndarray) -> float:
    """``math.fsum`` of the nonzero entries of ``values``: fsum is exact, so
    a zero would move no bit, only cost time.  It reads them through a
    memoryview, one float at a time, not from a list of them all."""
    return math.fsum(memoryview(values[values != 0.0]))


def _index(value, message: str, least: float = -math.inf) -> int:
    """``operator.index(value)`` if that is an int >= ``least`` (numpy integers pass), else ValueError(message)."""
    if not hasattr(type(value), "__index__") or operator.index(value) < least:
        raise ValueError(message)
    return operator.index(value)


def _real(value, message: str, inside) -> float:
    """``float(value)`` for a real ``value`` (not a str) that ``inside`` accepts, else ValueError(message)."""
    if not hasattr(type(value), "__float__") or not inside(float(value)):
        raise ValueError(message)
    return float(value)


def _powers(x: float, size: int) -> np.ndarray:
    """x**n for n = 0..size-1, x in [0, 1].  Past the index where the powers
    fall below 2**-1100 pow returns 0, so they are left 0 unevaluated
    rather than sent through libm's slow underflow path."""
    live = int(min(size, 3 + 1100 * math.log(2.0) / -math.log(x))) if 0.0 < x < 1.0 else size
    out = np.zeros(size)
    out[:live] = x ** np.arange(live)
    return out


@dataclass(frozen=True, eq=False)
class TruncatedPMF:
    """Mass sequence on 0..t_max with an explicit, tagged residual.

    Parameters
    ----------
    coefficients : 1-d array-like of nonnegative floats
        ``coefficients[n]`` is the mass at time n.
    residual : float
        Total mass not represented in the coefficient range.
    residual_kind : str
        ``TRUNCATION`` if the residual lives at finite times beyond t_max,
        ``AT_INFINITY`` if it is P(X = infinity).
    """

    coefficients: np.ndarray
    residual: float = 0.0
    residual_kind: str = TRUNCATION

    def __post_init__(self, total: float | None = None, copy: bool = True) -> None:
        coeffs = np.array(self.coefficients, dtype=float, copy=copy)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        # A NaN makes the minimum NaN, which fails the comparison.
        if not (coeffs.min() >= 0.0 and math.isfinite(coeffs.max())):
            raise ValueError("coefficients must be finite and nonnegative")
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError("residual must be finite and nonnegative")
        if self.residual_kind not in (TRUNCATION, AT_INFINITY):
            raise ValueError(f"unknown residual kind {self.residual_kind!r}")
        _check_mass((_fsum(coeffs) if total is None else total) + self.residual)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _summed(cls, coefficients, residual: float, residual_kind: str, total: float | None) -> "TruncatedPMF":
        """The constructor for a float64 array the library built, kept read-only,
        not copied; the mass check reads its fsum ``total`` when that is given."""
        law = object.__new__(cls)
        law.__dict__.update(coefficients=coefficients, residual=residual, residual_kind=residual_kind)
        law.__post_init__(total, copy=False)
        return law

    @classmethod
    def from_masses(
        cls,
        masses: Mapping[int, float],
        *,
        residual: float = 0.0,
        residual_kind: str = TRUNCATION,
    ) -> "TruncatedPMF":
        """Build from a {time: mass} mapping; the horizon is the largest key."""
        if not masses:
            raise ValueError("at least one mass point is required")
        times = [_index(n, "mass points must be nonnegative integers", 0) for n in masses]
        coeffs = np.zeros(max(times) + 1)
        for n, w in zip(times, masses.values()):
            coeffs[n] += w
        return cls(coeffs, residual=residual, residual_kind=residual_kind)

    @property
    def t_max(self) -> int:
        return self.coefficients.size - 1

    def evaluate(self, z: float) -> float:
        """PGF value: the fsum of coefficients[n] * pow(z, n) over the represented range.

        The residual contributes nothing; callers needing P(X < infinity)
        must add their own tail model.
        """
        _check_z(z)
        return _fsum(self.coefficients * _powers(z, self.coefficients.size))

    def mean(self) -> float:
        """Sum n * coefficients[n]: E[X] when the residual is 0, a lower bound
        on it under ``TRUNCATION`` (that mass lies past t_max, uncounted),
        +infinity when the residual is tagged as mass at infinity."""
        if self.residual_kind == AT_INFINITY and self.residual > 0.0:
            return math.inf
        n = np.arange(self.coefficients.size, dtype=float)
        return _fsum(n * self.coefficients)

    def second_factorial_moment(self) -> float:
        """Sum n(n-1) * coefficients[n]: the second PGF derivative at 1 when
        the residual is 0, a lower bound on it under ``TRUNCATION``."""
        if self.residual_kind == AT_INFINITY and self.residual > 0.0:
            return math.inf
        # n(n-1) is rounded once, as the product of Python ints is.
        n = np.arange(self.coefficients.size, dtype=float)
        return _fsum(n * (n - 1) * self.coefficients)

    def cumulative(self, n: int) -> float:
        """P(X <= n) over the represented range; constant beyond t_max."""
        return _fsum(self.coefficients[: max(min(n, self.t_max) + 1, 0)])

    def survival(self, n: int) -> float:
        """P(X > n): the residual plus the masses past n, added from the far
        end, so there is no cancellation as in 1 - cdf(n)."""
        if n >= self.t_max:
            return self.residual
        return self.residual + float(np.cumsum(self.coefficients[max(n + 1, 0) :][::-1])[-1])

    def survival_array(self) -> np.ndarray:
        """P(X > n) for n = 0..t_max; entry n equals ``survival(n)``."""
        return np.append(np.cumsum(self.coefficients[:0:-1])[::-1], 0.0) + self.residual


def _exponent(x: float) -> float:
    """The least integer e with |x| < 2**e; -inf for 0."""
    return math.frexp(x)[1] if x else -math.inf


def series_divide(numerator, denominator, t_max: int) -> np.ndarray:
    """First t_max+1 coefficients of the formal power-series quotient.

    Blocked forward substitution, every block alike.  g = 1/den is built
    to ``_BLOCK`` terms by doubling (Newton's iteration, as in Brent and
    Kung), g[s:2s] = -(g[:s] * (den g[:s])[s:2s])[:s], in numpy's longdouble.
    Each block of ``_BLOCK`` coefficients, the first included, subtracts the
    earlier blocks' contribution from the numerator and multiplies by the
    lower-triangular Toeplitz matrix of g.  Sums run up to the denominator's
    last nonzero coefficient.  The contribution is one correlation over the
    block's lags of history, or, past ``_LAGS`` lags, one per near-equal
    chunk of at most ``_LAGS``, nearest lags first: over 8000 lags a
    correlation's two windows overflow a 48 KB L1 data cache, and it ran at
    about 60 % of the speed of one over 2000 lags.  So only quotients whose
    denominator has more than ``_LAGS`` lags are summed in another order,
    and may move in their last bits.  When the numerator is nonnegative and
    the denominator is den[0] > 0 minus nonnegative terms, as for a
    restarted law, every product and sum (those building g included; den[0]
    never enters them) is nonnegative, so nothing cancels and the order
    keeps the error bound; the last bits may differ from the
    one-coefficient-at-a-time loop
    q[n] = (num[n] - sum_{k>=1} den[k] q[n-k]) / den[0].

    Every block runs on copies scaled by powers of two, which round as the
    unscaled values do wherever those stay normal.  When the denominator
    contracts, sum_{k>=1} |den[k]| <= |den[0]|, no coefficient exceeds
    (n + 1) max|num| / |den[0]|; den[1:] is lifted by 2**S so that its
    smallest nonzero term is normal, and the quotient is held times 2**E,
    E >= 0 kept within ``_SLACK`` bits of the largest scale the sums allow
    (the live window is rescaled as the quotient decays), so the blocks
    stay out of the subnormal range unless the quotient falls by some 1900
    bits across one window and block.  Otherwise S = E = 0.  One array
    holds the quotient: each block reads the numerator lifted by 2**(E + S),
    and coefficients leaving the live window are written back times 2**-E
    in place, so a subnormal one is rounded once.

    Once the numerator is spent, each coefficient is a combination of the
    last len(den) - 1, none larger under contraction.  So the division
    stops, leaving zeros, once their largest magnitude is below 2**-1076
    (every later coefficient rounds to 0) for a contracting denominator,
    and once they are exactly 0 otherwise.
    """
    den = np.asarray(denominator, dtype=float)
    if den.size == 0 or den[0] == 0.0:
        raise ZeroDivisionError("denominator constant term is zero; quotient series undefined")
    t_max = _index(t_max, "t_max must be an integer >= 0", 0)
    num = np.asarray(numerator, dtype=float)[: t_max + 1]
    den = den[: np.flatnonzero(den)[-1] + 1]
    spent = np.flatnonzero(num)[-1] + 1 if np.any(num) else 0
    top = np.concatenate((num[:spent], np.zeros(t_max + 1 - spent)))
    # Zero-padded so that g's doubling steps and each block's correlation
    # window have their full length.
    den_pad = np.concatenate((den, np.zeros(_BLOCK)))
    # g is built in extended precision (where numpy has it) and rounded
    # once: each doubling step adds the error of g[:s] to every new term,
    # so a term's error grows with its index, and every block reuses g.
    g = np.zeros(_BLOCK, dtype=np.longdouble)
    g[0] = 1 / np.longdouble(den[0])
    s = 1
    while s < _BLOCK:
        g[s : 2 * s] = -np.convolve(g[:s], np.convolve(den_pad[: 2 * s], g[:s])[s : 2 * s])[:s]
        s *= 2
    # Lower-triangular Toeplitz matrix of g: row i is g[i], ..., g[0], 0, ...
    padded = np.concatenate((np.zeros(_BLOCK - 1), g.astype(float)))
    inverse = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, _BLOCK)[:, ::-1])
    lags = max(den.size - 1, 1)
    sizes = np.abs(den[1:])
    lead = abs(float(den[0]))
    # Decided as fsum would: numpy's sum is within size * 2**-52 of the
    # exact sum, so only a sum that close to |den[0]| needs fsum.
    contracts = bool(sizes.sum() <= lead * (1.0 - sizes.size * 2.0**-52)) or _fsum(sizes) <= lead
    smallest = _exponent(float(np.min(sizes, where=sizes > 0.0, initial=math.inf)))
    # Scales keep the scaled window, and the bound on every coefficient while
    # the numerator lasts (ahead), below 2**high, so that no sum exceeds about
    # 2**970; without contraction floor = high = -inf, so every cap is 0.
    shift, floor = (max(0, -1021 - smallest), -1076) if contracts else (0, -math.inf)
    high = 960 - shift - max(0, _exponent(lead)) if contracts else -math.inf
    ahead = _exponent(float(np.abs(top[:spent]).max(initial=0.0))) + _exponent(t_max + 1) + 1 - _exponent(lead)
    np.ldexp(den_pad, shift, out=den_pad)
    # work holds the quotient: unscaled below ``done``, times 2**scale from
    # there up to ``end``.
    work = np.zeros(t_max + 1)
    scale, done, end = 0, 0, t_max + 1
    spare = np.empty(_BLOCK)
    # peaks[j]: exponent bounding block j's magnitudes, unscaled.
    peaks = []
    for b in range(0, t_max + 1, _BLOCK):
        window = max(peaks[max(0, b - lags) // _BLOCK :], default=-math.inf)
        if b >= spent and window <= floor:
            end = b
            break
        cap = max(0, high - (max(window, ahead) if b < spent else window))
        if not cap - _SLACK <= scale <= cap:
            live = max(0, b - lags)
            np.ldexp(work[done:live], -scale, out=work[done:live])
            np.ldexp(work[live:b], cap - scale, out=work[live:b])
            scale, done = cap, live
        e = min(b + _BLOCK, t_max + 1)
        # The block's k lags of history, subtracted in near-equal chunks of
        # at most _LAGS, nearest first.  The first block has no history;
        # later ones have at least one lag (den_pad[1] is 0 for a constant
        # denominator), so no chunk is empty.
        k = min(b, lags)
        chunks = -(-k // _LAGS)
        rhs = np.ldexp(top[b:e], scale + shift)
        for c in range(chunks):
            i, j = c * k // chunks, (c + 1) * k // chunks
            rhs -= np.correlate(den_pad[1 + i : j + e - b], work[b - j : b - i][::-1], "valid")
        np.ldexp(rhs, -shift, out=rhs)
        np.matmul(inverse[: e - b, : e - b], rhs, out=work[b:e])
        peaks.append(_exponent(np.abs(work[b:e], out=spare[: e - b]).max()) - scale)
    np.ldexp(work[done:end], -scale, out=work[done:end])
    return work
