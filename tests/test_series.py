"""Truncated PMF container and formal power-series division."""

import decimal
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import assert_generator_moments
from restartfp import (
    AT_INFINITY,
    TRUNCATION,
    BiasedWalk,
    CycleTrap,
    GeometricRestart,
    TruncatedPMF,
    series,
    series_divide,
)


def two_point():
    return TruncatedPMF.from_masses({1: 0.75, 20: 0.25})


class TestConstruction:
    def test_from_masses_layout(self):
        dist = TruncatedPMF.from_masses({1: 0.5, 3: 0.5})
        assert dist.t_max == 3
        assert dist.coefficients.tolist() == [0.0, 0.5, 0.0, 0.5]
        assert dist.residual == 0.0
        assert dist.residual_kind == TRUNCATION

    def test_coefficients_read_only(self):
        dist = two_point()
        with pytest.raises(ValueError):
            dist.coefficients[0] = 1.0

    def test_public_constructor_copies(self):
        # Only the library's own arrays are kept uncopied.
        coeffs = np.array([0.25, 0.75])
        dist = TruncatedPMF(coeffs)
        assert not np.shares_memory(dist.coefficients, coeffs)
        assert coeffs.flags.writeable

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5e-324], ids=repr)
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rejects_nonfinite_or_negative_mass(self, bad, at):
        coeffs = [0.5, 0.0, 0.5]
        coeffs[at] = bad
        with pytest.raises(ValueError, match="coefficients must be finite and nonnegative"):
            TruncatedPMF(np.array(coeffs))

    def test_accepts_negative_zero_mass(self):
        dist = TruncatedPMF(np.array([-0.0, 1.0]))
        assert dist.coefficients.tolist() == [0.0, 1.0]
        assert dist.survival(-1) == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([0.5, 0.4]))  # mass 0.9, no residual

    def test_rejects_bad_residual_kind(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([0.5]), residual=0.5, residual_kind="later")

    @pytest.mark.parametrize("residual", [-0.1, -5e-324, math.nan, math.inf], ids=repr)
    def test_rejects_nonfinite_or_negative_residual(self, residual):
        with pytest.raises(ValueError, match="residual must be finite and nonnegative"):
            TruncatedPMF(np.array([0.5, 0.5]), residual=residual)

    @pytest.mark.parametrize(
        "masses, message",
        [({}, "at least one mass point"), ({-1: 0.5, 2: 0.5}, "nonnegative integers"),
         ({-2: 1.0}, "nonnegative integers"), ({2.5: 1.0}, "nonnegative integers"),
         ({2.0: 1.0}, "nonnegative integers"), ({"2": 1.0}, "nonnegative integers"),
         ({1: 0.5, None: 0.5}, "nonnegative integers")],
        ids=["empty", "negative-time", "all-negative", "float-time", "integral-float-time", "string-time",
             "none-time"],
    )
    def test_from_masses_rejects(self, masses, message):
        with pytest.raises(ValueError, match=message):
            TruncatedPMF.from_masses(masses)

    @pytest.mark.parametrize(
        "masses",
        [{np.int64(1): 0.25, np.int64(3): 0.75}, {True: 0.25, np.uint8(3): 0.75}, {1: 0.25, np.int32(3): 0.75}],
        ids=["int64", "bool", "mixed"],
    )
    def test_from_masses_reads_times_as_integers(self, masses):
        # Each time is read through operator.index: a numpy integer or a bool
        # is the integer it stands for.
        dist = TruncatedPMF.from_masses(masses)
        assert dist.coefficients.tolist() == [0.0, 0.25, 0.0, 0.75]

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([]))
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([[1.0]]))

    def test_accepts_tiny_mass_slack(self):
        dist = TruncatedPMF(np.array([0.6, 0.4 + 2e-10]))
        assert dist.t_max == 1


class TestEvaluate:
    def test_two_point_value(self):
        dist = two_point()
        expected = 0.75 * 0.9 + 0.25 * 0.9**20
        assert dist.evaluate(0.9) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        dist = two_point()
        with pytest.raises(ValueError):
            dist.evaluate(-0.1)
        with pytest.raises(ValueError):
            dist.evaluate(1.5)

    def test_at_one_equals_total_mass_exactly(self):
        dist = TruncatedPMF(np.array([0.0, 0.3, 0.2, 0.1]), residual=0.4)
        assert dist.evaluate(1.0) == dist.cumulative(dist.t_max)

    @given(
        masses=st.lists(
            st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1.0)), min_size=1, max_size=60
        ),
        z=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_sum_and_product_loop(self, masses, z):
        # Each c * pow(z, n) is within about 1.5 ulp of the exact product and
        # fsum adds the products exactly, so the value is within 2**-50
        # relative of the exact sum, plus 2**-1074 per subnormal product.  The
        # repeated-product loop evaluate used to run is within n ulp of it.
        total = math.fsum(masses)
        coeffs = np.array(masses) / total if total else np.r_[1.0, masses[1:]]
        dist = TruncatedPMF(coeffs)
        got = dist.evaluate(z)
        exact = sum(Fraction(c) * Fraction(z) ** n for n, c in enumerate(coeffs.tolist()))
        tiny = coeffs.size * Fraction(2) ** -1074
        assert abs(Fraction(got) - exact) <= Fraction(2) ** -50 * exact + tiny
        terms, zp = [], 1.0
        for c in coeffs.tolist():
            terms.append(c * zp)
            zp *= z
        loop = math.fsum(terms)
        assert abs(Fraction(got) - Fraction(loop)) <= (coeffs.size + 2) * Fraction(2) ** -52 * exact + 2 * tiny


class TestMoments:
    def test_two_point_mean_and_sfm(self):
        dist = two_point()
        assert dist.mean() == 5.75
        assert dist.second_factorial_moment() == 95.0

    def test_heavier_two_point(self):
        dist = TruncatedPMF.from_masses({1: 0.25, 20: 0.75})
        assert dist.mean() == 15.25
        assert dist.second_factorial_moment() == 285.0

    def test_defective_moments_are_infinite(self):
        dist = TruncatedPMF.from_masses({1: 0.7}, residual=0.3, residual_kind=AT_INFINITY)
        assert dist.mean() == math.inf
        assert dist.second_factorial_moment() == math.inf

    def test_truncation_residual_keeps_moments_finite(self):
        dist = TruncatedPMF.from_masses({2: 0.9}, residual=0.1, residual_kind=TRUNCATION)
        assert dist.mean() == pytest.approx(1.8)

    @given(masses=st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e-300), st.floats(1e-6, 1.0)), min_size=1,
                           max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_moments_equal_generator_form(self, masses):
        total = math.fsum(masses)
        coeffs = np.array([w / total for w in masses]) if total > 0.0 else np.array([1.0, *masses])
        assert_generator_moments(TruncatedPMF(coeffs, residual=max(0.0, 1.0 - math.fsum(coeffs.tolist()))))

    @given(masses=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_moments_match_finite_differences(self, masses):
        # Second-order one-sided stencils at the z=1 boundary (the domain
        # ends there, so the O(h^2) boundary analogue of central differences).
        h = 1e-5
        total = sum(masses)
        coeffs = np.array([0.0] + [w / total for w in masses])
        dist = TruncatedPMF(coeffs)
        f = [dist.evaluate(1.0 - k * h) for k in range(4)]
        mean_fd = (3 * f[0] - 4 * f[1] + f[2]) / (2 * h)
        sfm_fd = (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / h**2
        assert mean_fd == pytest.approx(dist.mean(), rel=1e-4, abs=1e-6)
        assert sfm_fd == pytest.approx(dist.second_factorial_moment(), rel=1e-4, abs=1e-3)


def suffix_survival(dist):
    """Survival by the suffix sums TruncatedPMF once stored at construction:
    suffix[n] = coefficients[n:] added from the far end; returns the scalar
    survival function and the survival array."""
    coeffs = dist.coefficients
    suffix = np.zeros(coeffs.size + 1)
    suffix[:-1] = np.cumsum(coeffs[::-1])[::-1]

    def survival(n):
        if n < 0:
            return dist.residual + float(suffix[0])
        if n >= dist.t_max:
            return dist.residual
        return dist.residual + float(suffix[n + 1])

    return survival, suffix[1:] + dist.residual


MASSES = st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e-10), st.floats(1e-6, 1.0))


class TestTailSums:
    def test_cumulative_and_survival(self):
        dist = TruncatedPMF(np.array([0.0, 0.3, 0.2, 0.1]), residual=0.4, residual_kind=AT_INFINITY)
        assert dist.cumulative(-1) == 0.0
        assert dist.survival(-1) == 1.0
        assert dist.cumulative(1) == pytest.approx(0.3)
        assert dist.survival(1) == pytest.approx(0.7)
        assert dist.cumulative(99) == pytest.approx(0.6)
        assert dist.survival(3) == pytest.approx(0.4)
        for n in range(-1, 6):
            assert dist.cumulative(n) + dist.survival(n) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "dist",
        [
            TruncatedPMF.from_masses({1: 0.3, 2: 0.3, 4: 0.4}),
            TruncatedPMF.from_masses({2: 0.25, 5: 0.5}, residual=0.25, residual_kind=AT_INFINITY),
            TruncatedPMF.from_masses({0: 1.0}),
        ],
    )
    def test_survival_array_matches_scalar(self, dist):
        array = dist.survival_array()
        assert array.size == dist.t_max + 1
        for n in range(dist.t_max + 1):
            assert array[n] == dist.survival(n)

    @given(
        masses=st.lists(MASSES, min_size=1, max_size=60),
        residual=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        kind=st.sampled_from([TRUNCATION, AT_INFINITY]),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_to_suffix_formula(self, masses, residual, kind):
        total = math.fsum(masses)
        if total == 0.0:
            total, residual = 1.0, 1.0
        dist = TruncatedPMF(np.array(masses) / total * (1.0 - residual), residual=residual, residual_kind=kind)
        survival, array = suffix_survival(dist)
        for n in range(-1, dist.t_max + 2):
            assert dist.survival(n) == survival(n)
        assert dist.survival_array().tolist() == array.tolist()


class TestSeriesDivide:
    def test_geometric_series(self):
        quotient = series_divide(np.array([1.0]), np.array([1.0, -1.0]), 3)
        assert quotient.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zero_leading_denominator(self):
        with pytest.raises(ZeroDivisionError):
            series_divide(np.array([1.0]), np.array([0.0, 1.0]), 3)

    def test_negative_horizon(self):
        with pytest.raises(ValueError, match="t_max must be an integer >= 0"):
            series_divide(np.array([1.0]), np.array([1.0, -0.5]), -1)

    @given(
        a=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        b=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        b0=st.floats(0.5, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_multiply_divide_round_trip(self, a, b, b0):
        a = np.asarray(a)
        b = np.asarray([b0] + b)
        product = np.convolve(a, b)
        recovered = series_divide(product, b, len(a) - 1)
        assert np.allclose(recovered, a, atol=1e-12, rtol=1e-12)

    def test_trailing_zeros_leave_zero_tail(self):
        # A sharp-restart shape: the quotient is a geometric comb, then 0.
        num = np.array([0.0, 0.5, 0.0, 0.0])
        den = np.zeros(50)
        den[0], den[3] = 1.0, -1e-200
        quotient = series_divide(num, den, 40)
        assert quotient[:8].tolist() == [0.0, 0.5, 0.0, 0.0, 5e-201, 0.0, 0.0, 0.0]
        assert np.all(quotient[8:] == 0.0)

    def test_numerator_past_the_horizon_is_ignored(self):
        # Only num[:t_max + 1] enters the quotient, even when it is all zero.
        quotient = series_divide(np.r_[np.zeros(500), 1.0], np.array([1.0, -0.5]), 300)
        assert quotient.tolist() == [0.0] * 301
        assert series_divide(np.array([0.0, 1.0]), np.array([1.0]), 0).tolist() == [0.0]


def plain_divide(num, den, t_max, dtype=float):
    """The dense long-division loop over every coefficient, in ``dtype``: the oracle."""
    num, den = np.asarray(num, dtype), np.asarray(den, dtype)
    quot = np.zeros(t_max + 1, dtype)
    for n in range(t_max + 1):
        acc = num[n] if n < num.size else dtype(0)
        kmax = min(n, den.size - 1)
        if kmax >= 1:
            acc -= np.dot(den[1 : kmax + 1], quot[n - kmax : n][::-1])
        quot[n] = acc / den[0]
    return quot


@st.composite
def restart_shaped_series(draw, max_size=12, max_t=80, sharp=False):
    """A nonnegative numerator over den[0] - (nonnegative terms), as fpur_pmf
    divides, each with trailing zeros and scaled far enough down that the
    quotient can underflow to exact zeros.  A sharp denominator keeps only
    the last of its nonnegative terms, as sharp restart does.  The
    subtracted terms sum to at most den[0], as in fpur_pmf (den[0] = 1 and
    sum r(i) P(U >= i) <= 1), so the quotient never grows."""
    num = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_size)))
    num *= 2.0 ** -draw(st.integers(0, 1060))
    num = np.concatenate((num, np.zeros(draw(st.integers(0, max_size)))))
    tail = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=max_size)))
    tail *= 2.0 ** -draw(st.integers(0, 600))
    if sharp:
        tail[:-1] = 0.0
    lead = draw(st.floats(0.5, 1.0))
    total = math.fsum(tail)
    if total > lead:
        # Shrunk a little more than lead / total, so rounding cannot push
        # the sum back over den[0].
        tail *= lead / total * (1.0 - 2.0**-50)
    den = np.concatenate(([lead], -tail, np.zeros(draw(st.integers(0, max_size)))))
    return num, den, draw(st.integers(0, max_t))


def exact_divide(num, den, t_max):
    """The long-division recurrence in exact rational arithmetic."""
    num = [Fraction(x) for x in num.tolist()]
    den = [Fraction(x) for x in den.tolist()]
    quot = []
    for n in range(t_max + 1):
        acc = num[n] if n < len(num) else Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * quot[n - k]
        quot.append(acc / den[0])
    return quot


# Below 2**-1000 the quotient is near or in the subnormal range, where a
# reordered sum keeps fewer significant bits.
SUBNORMAL_ATOL = 2.0**-1000

# A short series, which mostly fits in the first block, and one that may
# span many.
SHORT_AND_LONG = (
    restart_shaped_series(),
    st.one_of(
        restart_shaped_series(max_size=300, max_t=700),
        restart_shaped_series(max_size=300, max_t=700, sharp=True),
    ),
)


def assert_matches_plain_loop(num, den, t_max):
    got, want = series_divide(num, den, t_max), plain_divide(num, den, t_max)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=SUBNORMAL_ATOL)
    # Every product and sum is nonnegative, so is every coefficient:
    # fpur_pmf needs no sign check of its own.
    assert got.min() >= 0.0
    # Once the numerator is spent and the quotient has been exactly
    # 0 for the denominator's length, it stays exactly 0.
    size = np.flatnonzero(den)[-1] + 1
    spent = np.flatnonzero(num)[-1] + 1 if np.any(num) else 0
    for n in range(max(spent, size), t_max + 1):
        if not got[n - size : n].any():
            assert not got[n:].any()
            break


def assert_block_edge(t_max):
    # 1 / (1 - x/2 - x**2/4) has positive Fibonacci-like coefficients.
    den = np.array([1.0, -0.5, -0.25])
    np.testing.assert_allclose(
        series_divide(np.array([1.0]), den, t_max),
        plain_divide(np.array([1.0]), den, t_max),
        rtol=1e-13, atol=SUBNORMAL_ATOL,
    )


BLOCK_EDGES = [0, 1, 63, 64, 127, 128, 129, 255, 256, 1000]


class TestSeriesDivideBlocked:
    """The blocked division against the one-coefficient-at-a-time loop,
    from a single coefficient to many blocks."""

    @given(*SHORT_AND_LONG)
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_loop(self, short, long):
        for case in (short, long):
            assert_matches_plain_loop(*case)

    @pytest.mark.parametrize("t_max", [82, 700])
    def test_subnormal_start_of_a_growing_quotient(self, t_max):
        # Here the subtracted terms exceed den[0], so the quotient grows from
        # a subnormal start.  Rounding that start costs both routes about
        # 7e-8 relative, more than the 1e-13 the property test allows
        # between them, so the property test keeps such terms <= den[0].
        num, den = np.array([5.180654e-318]), np.array([0.5625, -1.0, -0.5])
        exact = exact_divide(num, den, t_max)

        def error(quot):
            return float(max(abs(Fraction(x) - e) / e for x, e in zip(quot.tolist(), exact)))

        blocked, plain = error(series_divide(num, den, t_max)), error(plain_divide(num, den, t_max))
        # The start's rounding is at most 2**-1075 / q[0], about 2.7e-7.
        assert plain < 1e-6
        assert blocked <= plain * (1.0 + 1e-3)

    @pytest.mark.parametrize("t_max", BLOCK_EDGES)
    def test_block_edges(self, t_max):
        assert_block_edge(t_max)

    def test_constant_denominator(self):
        num = np.arange(1.0, 301.0)
        assert series_divide(num, np.array([2.0]), 299).tolist() == (num / 2.0).tolist()

    def test_growing_quotient_is_never_scaled(self):
        # 1 / (1 - 2x) does not contract, so its blocks run unscaled: a scale
        # taken from the numerator's bound would overflow the quotient near
        # n = 75, and every 2**n up to 2**1023 is exact.
        assert series_divide([1.0], [1.0, -2.0], 1023).tolist() == (2.0 ** np.arange(1024)).tolist()


def decimal_divide(num, den, t_max, digits=40):
    """The long-division recurrence in decimal arithmetic to ``digits``
    significant digits, with an exponent range wide enough that nothing
    underflows: a close oracle where Fractions grow too long, as with a
    subnormal denominator term."""
    ctx = decimal.Context(prec=digits, Emin=-(10**6), Emax=10**6)
    num = [ctx.create_decimal_from_float(x) for x in num.tolist()]
    den = [ctx.create_decimal_from_float(x) for x in den.tolist()]
    quot = []
    for n in range(t_max + 1):
        acc = num[n] if n < len(num) else ctx.create_decimal(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            acc = ctx.subtract(acc, ctx.multiply(den[k], quot[n - k]))
        quot.append(ctx.divide(acc, den[0]))
    return quot


def within_rounding(exact):
    """Per coefficient, the least and greatest value within 1e-13 relative
    plus half the smallest subnormal of the exact one, for quotients that
    cross into the subnormal range past the first block (n > 128) and fall
    below 2**-1075 before t_max."""
    tiny, gone = Fraction(1, 2**1022), Fraction(1, 2**1075)
    crossed = [n for n, e in enumerate(exact) if e < tiny]
    assert crossed[0] > 128 and exact[-1] < gone
    slack = [Fraction(1e-13) * e + gone for e in exact]
    return [e - d for e, d in zip(exact, slack)], [e + d for e, d in zip(exact, slack)]


@functools.cache
def short_denominator():
    # A restarted-law shape: a decaying numerator that lasts past the
    # first block over 1 minus a few terms summing to at most 1.
    num = 0.5 * 0.3 ** np.arange(150)
    den = np.array([1.0, -0.05, -0.002, -1e-4])
    return num, den, 400, *within_rounding(exact_divide(num, den, 400))


@functools.cache
def subnormal_denominator_terms():
    # A geometric clock's denominator ends in subnormal terms, which the
    # division lifts by a power of two.
    num = 0.4 * 0.2 ** np.arange(100)
    den = np.concatenate(([1.0], -0.05 * 0.1 ** np.arange(330)))
    den = den[: np.flatnonzero(den)[-1] + 1]
    assert np.any(np.abs(den) < 2.0**-1022)
    return num, den, 450, *within_rounding([Fraction(e) for e in decimal_divide(num, den, 450)])


def assert_within_rounding(num, den, t_max, low, high):
    got = series_divide(num, den, t_max).tolist()
    assert all(lo <= g <= hi for g, lo, hi in zip(got, low, high))


class TestSeriesDivideSubnormal:
    """Quotients that cross into the subnormal range past the first block
    (n > 128) and fall below 2**-1075 before t_max: each coefficient is the
    exact one rounded once, to 1e-13 relative plus half the smallest
    subnormal."""

    def test_short_denominator_against_exact(self):
        assert_within_rounding(*short_denominator())

    def test_denominator_with_subnormal_terms(self):
        assert_within_rounding(*subnormal_denominator_terms())


@pytest.fixture(params=[1, 2, 127, 128, 129])
def small_lags(request, monkeypatch):
    """The division reads its history in chunks of at most this many lags."""
    monkeypatch.setattr(series, "_LAGS", request.param)


@pytest.mark.usefixtures("small_lags")
class TestSeriesDivideChunked(TestSeriesDivideSubnormal):
    """The division's oracles, the subnormal ones inherited, with the
    history read in chunks of a few lags, at and around the block length:
    at the real ``series._LAGS`` no series above reaches a second chunk."""

    @given(*SHORT_AND_LONG)
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_plain_loop(self, short, long):
        for case in (short, long):
            assert_matches_plain_loop(*case)

    @pytest.mark.parametrize("t_max", BLOCK_EDGES)
    def test_block_edges(self, t_max):
        assert_block_edge(t_max)

    def test_long_denominator(self):
        # The generated denominators seldom pass 129 lags; these 300 split
        # into chunks at every size above once the history is long enough.
        num = 0.3 * 0.99 ** np.arange(400)
        den = np.concatenate(([1.0], -0.0015 * (1.0 + np.cos(np.arange(300.0)))))
        assert_matches_plain_loop(num, den, 900)


class TestSeriesDivideLongLaws:
    """The two longest dense divisions of the benchmark's laws, each with
    more lags than one chunk reads, against the one-coefficient-at-a-time
    loop in numpy's longdouble on the same double terms: the walk's, which
    ``fpur_pmf`` divides, and the trap's renewal series, whose law
    ``fpur_pmf`` now divides by a short denominator instead."""

    @pytest.mark.parametrize(
        "make, rho, t_max",
        [(lambda: BiasedWalk(0.55, 3), 0.05, 8000), (lambda: CycleTrap(0.75, 2, 14), 0.1, 16000)],
        ids=["walk-8000-lags", "trap-3752-lags"],
    )
    def test_against_longdouble_loop(self, make, rho, t_max):
        model, spec = make(), GeometricRestart(rho)
        num, wins, _ = spec.renewal_terms(model, t_max)
        den = -wins[: t_max + 1]
        den[0] = 1.0
        assert np.flatnonzero(den)[-1] > series._LAGS
        got = series_divide(num[: t_max + 1], den, t_max)
        want = plain_divide(num[: t_max + 1], den, t_max, np.longdouble)
        # Exact zeros where the reference rounds to 0 as a double, and 1e-14
        # relative wherever it is clear of the subnormal range.
        assert np.array_equal(got == 0.0, want.astype(float) == 0.0)
        big = want > SUBNORMAL_ATOL
        assert np.max(np.abs(got[big] - want[big]) / want[big]) <= 1e-14
