"""Truncated PMF container and formal power-series division."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from restartfp import AT_INFINITY, TRUNCATION, TruncatedPMF, series_divide


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

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([0.5, -0.1, 0.6]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([0.5, 0.4]))  # mass 0.9, no residual

    def test_rejects_bad_residual_kind(self):
        with pytest.raises(ValueError):
            TruncatedPMF(np.array([0.5]), residual=0.5, residual_kind="later")

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


class TestSeriesDivide:
    def test_geometric_series(self):
        quotient = series_divide(np.array([1.0]), np.array([1.0, -1.0]), 3)
        assert quotient.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_zero_leading_denominator(self):
        with pytest.raises(ZeroDivisionError):
            series_divide(np.array([1.0]), np.array([0.0, 1.0]), 3)

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


def plain_divide(num, den, t_max):
    """The dense long-division loop over every coefficient: the oracle."""
    quot = np.zeros(t_max + 1)
    for n in range(t_max + 1):
        acc = num[n] if n < num.size else 0.0
        kmax = min(n, den.size - 1)
        if kmax >= 1:
            acc -= float(np.dot(den[1 : kmax + 1], quot[n - kmax : n][::-1]))
        quot[n] = acc / den[0]
    return quot


@st.composite
def restart_shaped_series(draw):
    """A nonnegative numerator over 1 - (nonnegative terms), as fpur_pmf
    divides, each with trailing zeros and scaled far enough down that the
    quotient can underflow to exact zeros."""
    num = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)))
    num *= 2.0 ** -draw(st.integers(0, 1060))
    num = np.concatenate((num, np.zeros(draw(st.integers(0, 12)))))
    tail = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12)))
    tail *= 2.0 ** -draw(st.integers(0, 600))
    den = np.concatenate(([draw(st.floats(0.5, 1.0))], -tail, np.zeros(draw(st.integers(0, 12)))))
    return num, den, draw(st.integers(0, 80))


class TestSeriesDivideEarlyStop:
    @given(restart_shaped_series())
    @settings(max_examples=300, deadline=None)
    def test_matches_plain_loop(self, series):
        num, den, t_max = series
        got, want = series_divide(num, den, t_max), plain_divide(num, den, t_max)
        assert np.array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
