"""Truncated nonnegative power-series arithmetic for probability mass functions.

A :class:`TruncatedPMF` stores mass at integer times 0..t_max plus one
explicit residual for everything not represented.  Evaluation doubles as
the probability generating function on [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def __post_init__(self) -> None:
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coeffs)) or np.any(coeffs < 0.0):
            raise ValueError("coefficients must be finite and nonnegative")
        if not (math.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError("residual must be finite and nonnegative")
        if self.residual_kind not in (TRUNCATION, AT_INFINITY):
            raise ValueError(f"unknown residual kind {self.residual_kind!r}")
        total = math.fsum(coeffs.tolist()) + self.residual
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {total!r} differs from 1 by more than {MASS_TOL}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        # Suffix sums: _suffix[n] = sum of coefficients[n:].  Used for stable
        # survival queries without the cancellation of 1 - cdf(n).
        suffix = np.zeros(coeffs.size + 1)
        suffix[:-1] = np.cumsum(coeffs[::-1])[::-1]
        suffix.setflags(write=False)
        object.__setattr__(self, "_suffix", suffix)

    _suffix: np.ndarray = field(init=False, repr=False, compare=False)

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
        top = max(masses)
        if top < 0 or any(n < 0 for n in masses):
            raise ValueError("mass points must be nonnegative integers")
        coeffs = np.zeros(top + 1)
        for n, w in masses.items():
            coeffs[n] += w
        return cls(coeffs, residual=residual, residual_kind=residual_kind)

    @property
    def t_max(self) -> int:
        return self.coefficients.size - 1

    def evaluate(self, z: float) -> float:
        """PGF value sum coefficients[n] * z**n over the represented range.

        The residual contributes nothing; callers needing P(X < infinity)
        must add their own tail model.
        """
        if not 0.0 <= z <= 1.0:
            raise ValueError(f"z={z!r} outside [0, 1]")
        terms = []
        zp = 1.0
        for c in self.coefficients:
            terms.append(c * zp)
            zp *= z
        return math.fsum(terms)

    def mean(self) -> float:
        """E[X], or +infinity when the residual is tagged as mass at infinity."""
        if self.residual_kind == AT_INFINITY and self.residual > 0.0:
            return math.inf
        return math.fsum(n * c for n, c in enumerate(self.coefficients))

    def second_factorial_moment(self) -> float:
        """Sum n(n-1) * coefficients[n], the second PGF derivative at 1."""
        if self.residual_kind == AT_INFINITY and self.residual > 0.0:
            return math.inf
        return math.fsum(n * (n - 1) * c for n, c in enumerate(self.coefficients))

    def cumulative(self, n: int) -> float:
        """P(X <= n) over the represented range; constant beyond t_max."""
        if n < 0:
            return 0.0
        return math.fsum(self.coefficients[: min(n, self.t_max) + 1])

    def survival(self, n: int) -> float:
        """P(X > n) including the residual; computed from suffix sums."""
        if n < 0:
            return self.residual + float(self._suffix[0])
        if n >= self.t_max:
            return self.residual
        return self.residual + float(self._suffix[n + 1])

    def survival_array(self) -> np.ndarray:
        """P(X > n) for n = 0..t_max; entry n equals ``survival(n)``."""
        return self._suffix[1:] + self.residual


def _substitute(num: np.ndarray, den: np.ndarray, width: int, spent: int) -> np.ndarray:
    """First ``width`` quotient coefficients, one at a time:
    q[n] = (num[n] - sum_{k>=1} den[k] q[n-k]) / den[0].  Stops, leaving
    zeros, once n >= spent and the quotient has been exactly 0 for the
    denominator's length: every later coefficient is exactly 0 as well."""
    quot = np.zeros(width)
    zeros = 0
    for n in range(width):
        if n >= spent and zeros >= den.size:
            break
        acc = num[n] if n < spent else 0.0
        kmax = min(n, den.size - 1)
        if kmax >= 1:
            acc -= float(np.dot(den[1 : kmax + 1], quot[n - kmax : n][::-1]))
        quot[n] = acc / den[0]
        zeros = zeros + 1 if quot[n] == 0.0 else 0
    return quot


def series_divide(numerator, denominator, t_max: int) -> np.ndarray:
    """First t_max+1 coefficients of the formal power-series quotient.

    Blocked forward substitution.  The first ``_BLOCK`` coefficients come
    from the long-division recurrence
    q[n] = (num[n] - sum_{k>=1} den[k] q[n-k]) / den[0],
    which also gives g = 1/den to ``_BLOCK`` terms.  Each later block
    subtracts the earlier blocks' contribution (one correlation) from the
    numerator and multiplies by the lower-triangular Toeplitz matrix of g.
    Sums run up to the denominator's last nonzero coefficient.  When the
    numerator is nonnegative and the denominator is den[0] > 0 minus
    nonnegative terms, as for a restarted law, every product and sum is
    nonnegative, so nothing cancels; the last bits may differ from the
    one-coefficient-at-a-time loop.  Once the numerator is spent and the
    quotient has been exactly 0 for the denominator's length (checked per
    block), every later coefficient is exactly 0 and the division stops.
    """
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if den.size == 0 or den[0] == 0.0:
        raise ZeroDivisionError("denominator constant term is zero; quotient series undefined")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    den = den[: np.flatnonzero(den)[-1] + 1]
    spent = min(np.flatnonzero(num)[-1] + 1 if np.any(num) else 0, t_max + 1)
    top = np.zeros(t_max + 1)
    top[:spent] = num[:spent]
    quot = np.zeros(t_max + 1)
    quot[:_BLOCK] = _substitute(top, den, min(_BLOCK, t_max + 1), spent)
    if t_max < _BLOCK:
        return quot
    g = _substitute(np.ones(1), den, _BLOCK, 1)
    # Lower-triangular Toeplitz matrix of g: row i is g[i], ..., g[0], 0, ...
    padded = np.concatenate((np.zeros(_BLOCK - 1), g))
    inverse = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, _BLOCK)[:, ::-1])
    # Zero-padded so each block's correlation window has its full length.
    den_pad = np.concatenate((den, np.zeros(_BLOCK)))
    for b in range(_BLOCK, t_max + 1, _BLOCK):
        if b >= max(spent, den.size) and not quot[b - den.size : b].any():
            break
        e = min(b + _BLOCK, t_max + 1)
        # At least one lag (den_pad[1] is 0 for a constant denominator),
        # so the correlation is never empty.
        k = max(min(b, den.size - 1), 1)
        rhs = top[b:e] - np.correlate(den_pad[1 : k + e - b], quot[b - k : b][::-1], "valid")
        quot[b:e] = inverse[: e - b, : e - b] @ rhs
    return quot
