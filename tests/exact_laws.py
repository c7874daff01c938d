"""The restarted law of a rational model under geometric restart, in exact
arithmetic from the model's own parameters: the accuracy oracle for the
laws ``fpur_pmf`` divides.

The parameters passed to the model and clock (p, w1, the explicit masses,
rho) are taken as the exact rationals their doubles stand for, and q = 1 - p,
1 - w1 and x = 1 - rho are formed exactly.  U's PGF is P(w) / D(w), and
T(z) = P(xz) / Q(z) with Q(z) = D(xz) - rho z G(xz), G_k = sum_{j>k} (P_j - D_j).
Q and the numerator are formed in ``Fraction``; the forward recurrence
T_n = P_n x^n - sum_{k>=1} Q_k T_{n-k} then runs in 60-digit ``decimal``,
so its relative error stays near n 10^-60."""

import decimal
from decimal import Decimal
from fractions import Fraction

from restartfp import CycleTrap, ExplicitProcess, TwoPoint

DIGITS = 60


def rational_pgf(model) -> tuple[list[Fraction], list[Fraction]]:
    """(P, D) of U's PGF from the model's parameters, exactly."""
    if isinstance(model, CycleTrap):
        p = Fraction(model.p)
        return [Fraction(0)] * model.L + [p], [Fraction(1)] + [Fraction(0)] * model.M + [p - 1]
    if isinstance(model, TwoPoint):
        poly = [Fraction(0)] * (max(model.t1, model.t2) + 1)
        poly[model.t1] += Fraction(model.w1)
        poly[model.t2] += 1 - Fraction(model.w1)
        return poly, [Fraction(1)]
    if isinstance(model, ExplicitProcess) and model.dist.residual == 0.0:
        return [Fraction(c) for c in model.dist.coefficients.tolist()], [Fraction(1)]
    raise TypeError(f"no exact rational PGF for {model.describe()}")


def geometric_law(model, rho: float, t_max: int) -> list[Decimal]:
    """P(T = n), n = 0..t_max, under geometric restart at rate ``rho``."""
    poly, den = rational_pgf(model)
    size = max(len(poly), len(den))
    poly += [Fraction(0)] * (size - len(poly))
    den += [Fraction(0)] * (size - len(den))
    rho = Fraction(rho)
    x = 1 - rho
    tail = [sum(poly[j] - den[j] for j in range(k + 1, size)) for k in range(size - 1)]
    short = [den[k] * x**k - rho * x ** (k - 1) * tail[k - 1] for k in range(1, size)]
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        short = [_decimal(c) for c in short]
        num = [_decimal(poly[n] * x**n) for n in range(min(size, t_max + 1))]
        law: list[Decimal] = []
        for n in range(t_max + 1):
            value = num[n] if n < len(num) else Decimal(0)
            for k in range(1, min(n, len(short)) + 1):
                value -= short[k - 1] * law[n - k]
            law.append(+value)
    return law


def errors(got, exact: list[Decimal]) -> list[Decimal]:
    """|got[n] - exact[n]| for each n, to 60 digits."""
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        return [abs(Decimal(value) - want) for value, want in zip(got.tolist(), exact)]


def budget_ratio(errs: list[Decimal], exact: list[Decimal]) -> float:
    """Largest (errs[n] - 2**-1074) / ((n + 1) 2**-53 |exact[n]|) over the
    nonzero exact masses; where an exact mass is zero the error must be 0."""
    worst = Decimal(0)
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        floor, unit = Decimal(2) ** -1074, Decimal(2) ** -53
        for n, (err, want) in enumerate(zip(errs, exact)):
            if want == 0:
                assert err == 0, n
                continue
            worst = max(worst, (err - floor) / ((n + 1) * unit * abs(want)))
    return float(worst)


def _decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)
