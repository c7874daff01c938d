"""The original per-mass loop of ``BiasedWalk._masses``, kept verbatim as
the oracle that the array kernel must match bit for bit, and the default
expansion it gave: the masses added left to right until they reach
hit_prob - RESIDUAL_TARGET."""

import math

from restartfp import models
from restartfp.models import BiasedWalk


def masses(walk: BiasedWalk, k_lo: int, k_hi: int, acc: float = 0.0, target: float = math.inf) -> list[float]:
    """u(m+2k) for k = k_lo..k_hi, stopping early once ``acc`` plus their
    running sum reaches ``target``.

    u(m+2k) = m p^m (pq)^k C(m+2k, k) / (m+2k), binomial in log space,
    its terms added left to right with the constant ones first.
    """
    m = walk.m
    head = math.log(m) + m * math.log(walk.p)
    log_pq = math.log(walk.p * walk.q)
    exp, lgamma, log = math.exp, math.lgamma, math.log
    masses = []
    for k in range(k_lo, k_hi + 1):
        n = m + 2 * k
        masses.append(exp(
            head
            + k * log_pq
            + lgamma(n + 1)
            - lgamma(k + 1)
            - lgamma(n - k + 1)
            - log(n)
        ))
        acc += masses[-1]
        if acc >= target:
            break
    return masses


def default_masses(walk: BiasedWalk) -> list[float]:
    """u(m+2k) for k = 0 up to the default horizon of a fresh walk: the
    loop run from k = 0 until its running sum reaches the target, or to
    ``models.MAX_TERMS`` coefficients."""
    target = walk.hit_prob() - models.RESIDUAL_TARGET
    return masses(walk, 0, (models.MAX_TERMS - 1 - walk.m) // 2, 0.0, target)

