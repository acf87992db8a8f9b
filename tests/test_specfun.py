"""Special-function contracts against independent series/asymptotic oracles.

Frozen expected values below were computed with the local brute-force oracles
in this file (plain Maclaurin sums and large-argument expansions), not with
the production code path.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    BesselEvalPolicy,
    i0_reference,
    i1_reference,
    j0_reference,
    ratio_reference,
)
from scipy import optimize

from holowdm import specfun
from holowdm.specfun import (
    bessel_i0,
    bessel_i0_scaled,
    bessel_i1,
    bessel_j0,
    bessel_ratio_i1_i0,
    solve_concentration,
)


def oracle_i0_series(x, terms=600):
    q = 0.25 * x * x
    term, total = 1.0, 1.0
    for k in range(1, terms):
        term *= q / (k * k)
        total += term
    return total


def oracle_i1_series(x, terms=600):
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    for k in range(1, terms):
        term *= q / (k * (k + 1))
        total += term
    return total


def oracle_j0_series(x, terms=80):
    q = 0.25 * x * x
    term, total = 1.0, 1.0
    for k in range(1, terms):
        term *= -q / (k * k)
        total += term
    return total


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == 1.0

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 1.2660658777520084), (2.0, 2.2795853023360673)],
    )
    def test_series_oracle_values(self, x, expected):
        assert oracle_i0_series(x) == pytest.approx(expected, rel=1e-14)
        assert bessel_i0(x) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)
        with pytest.raises(ValueError):
            bessel_i0(float("nan"))
        with pytest.raises(ValueError):
            bessel_i0(float("inf"))

    @given(st.floats(min_value=0.0, max_value=700.0))
    def test_at_least_one(self, x):
        assert bessel_i0(x) >= 1.0


class TestBesselI1:
    def test_at_zero(self):
        assert bessel_i1(0.0) == 0.0

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 0.5651591039924851), (2.0, 1.5906368546373291)],
    )
    def test_series_oracle_values(self, x, expected):
        assert oracle_i1_series(x) == pytest.approx(expected, rel=1e-14)
        assert bessel_i1(x) == pytest.approx(expected, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_i1(-0.5)

    @given(st.floats(min_value=0.0, max_value=700.0))
    def test_non_negative(self, x):
        assert bessel_i1(x) >= 0.0

    def test_scaled_variants_match_plain(self):
        for x in (0.0, 0.7, 5.0, 42.0):
            assert bessel_i0_scaled(x) * math.exp(x) == pytest.approx(bessel_i0(x), rel=1e-13)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_at_pi(self):
        # series oracle at pi; the truncated sum is exact to machine precision
        expected = -0.30424217764409384
        assert oracle_j0_series(math.pi) == pytest.approx(expected, abs=1e-15)
        assert bessel_j0(math.pi) == pytest.approx(expected, abs=1e-12)

    def test_first_root(self):
        # bracket the first root of the series oracle by bisection
        lo, hi = 2.0, 3.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if oracle_j0_series(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.404825557695773, abs=1e-12)
        assert abs(bessel_j0(2.404825557695773)) < 1e-9

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_j0(float("nan"))

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_even_parity_exact(self, x):
        assert bessel_j0(x) == bessel_j0(-x)

    def test_array_is_the_scalar_calls_bitwise(self):
        x = np.linspace(-50.0, 3000.0, 24).reshape(4, 6)
        out = bessel_j0(x)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        assert np.array_equal(out, [[bessel_j0(float(v)) for v in row] for row in x])
        assert isinstance(bessel_j0(np.float64(2.0)), float)

    def test_array_with_a_nan_raises(self):
        with pytest.raises(ValueError, match="x must be finite"):
            bessel_j0(np.array([0.0, 1.0, float("nan")]))


class TestRatio:
    def test_at_zero(self):
        assert bessel_ratio_i1_i0(0.0) == 0.0

    def test_moderate_value(self):
        # ratio of the two series oracles
        expected = oracle_i1_series(2.0) / oracle_i0_series(2.0)
        assert expected == pytest.approx(0.6977746579640077, rel=1e-13)
        assert bessel_ratio_i1_i0(2.0) == pytest.approx(expected, rel=1e-12)

    def test_huge_argument_no_overflow(self):
        # asymptotic oracle: 1 - 1/(2a) - 1/(8a^2) - 1/(8a^3)
        a = 1e6
        expected = 1.0 - 1.0 / (2 * a) - 1.0 / (8 * a**2) - 1.0 / (8 * a**3)
        assert bessel_ratio_i1_i0(a) == pytest.approx(expected, rel=1e-12)
        assert 0.0 < bessel_ratio_i1_i0(1e8) < 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            bessel_ratio_i1_i0(-1e-9)

    def test_strictly_increasing_on_grid(self):
        grid = np.concatenate([[0.0], np.logspace(-4, 6, 120)])
        values = [bessel_ratio_i1_i0(a) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 1.0 for v in values)


class TestSolveConcentration:
    def test_unit_variance_is_zero(self):
        assert solve_concentration(1.0) == 0.0

    def test_small_variance(self):
        # bisection oracle on the monotone map alpha -> 1 - ratio(alpha)^2,
        # run against the series/asymptotic reference ratio
        lo, hi = 0.0, 1e4
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1.0 - ratio_reference(mid) ** 2 > 0.01:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(100.00127556985674, rel=1e-9)
        alpha = solve_concentration(0.01)
        assert alpha == pytest.approx(oracle, rel=1e-9)
        assert abs(1.0 - bessel_ratio_i1_i0(alpha) ** 2 - 0.01) <= 1e-10

    def test_half_variance_round_trip(self):
        alpha = solve_concentration(0.5)
        assert bessel_ratio_i1_i0(alpha) == pytest.approx(math.sqrt(0.5), abs=1e-10)
        assert abs(1.0 - bessel_ratio_i1_i0(alpha) ** 2 - 0.5) <= 1e-10

    # below 1.7e-18 the root lies past 5.8e17, out of the bracket's reach
    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-9, float("nan"), 1.7e-18, 5e-324])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            solve_concentration(bad)

    def test_small_variances_against_mpmath(self):
        # Formed from the ratio, 1 - ratio^2 cancels to 3e-16 / nu_sq
        # relative, which put alpha 1.4% off at 1e-15 and 94% off at 1e-17.
        # The grid steps across the switch to the expansions at alpha = 2048
        # (nu_sq 4.9e-4), where the ratio's cancellation is largest.
        grid = [*np.logspace(-17, -2, 31), 1.8e-18, 1e-4, 2e-4, 4.8e-4, 4.9e-4, 5e-4]
        for nu_sq in grid:
            with mpmath.workdps(60):
                nu = mpmath.mpf(nu_sq)
                want = mpmath.findroot(
                    lambda a: 1 - (mpmath.besseli(1, a) / mpmath.besseli(0, a)) ** 2 - nu, 1 / nu
                )
            assert solve_concentration(nu_sq) == pytest.approx(float(want), rel=1e-12, abs=0)

    @settings(max_examples=60)
    @given(st.floats(min_value=1e-4, max_value=1.0))
    def test_round_trip_property(self, nu_sq):
        alpha = solve_concentration(nu_sq)
        assert abs(1.0 - bessel_ratio_i1_i0(alpha) ** 2 - nu_sq) <= 1e-9


class TestBrentPort:
    """specfun._brentq returns the bits of scipy.optimize.brentq."""

    @staticmethod
    def scipy_concentration(nu_sq):
        # solve_concentration's gap, bracket and call, with scipy's root finder
        def gap(alpha):
            return specfun._one_minus_ratio_sq(alpha) - nu_sq

        hi = 2.0
        while gap(hi) > 0.0:
            hi *= 2.0
        return optimize.brentq(gap, 0.0, hi, xtol=1e-12, rtol=4 * 2.3e-16, maxiter=200)

    @settings(max_examples=300)
    @given(st.floats(min_value=1e-8, max_value=1.0, exclude_max=True))
    @example(0.01)  # the default clusters' circular variances
    @example(0.005)
    @example(1e-4)  # the edge clusters of the quadrature tests
    @example(1e-8)
    def test_concentration_is_bit_identical(self, nu_sq):
        assert solve_concentration(nu_sq) == self.scipy_concentration(nu_sq)

    def test_iterates_on_a_polynomial(self):
        # a root that needs both interpolation and extrapolation steps
        def f(x):
            return (x - 1.3) * (x * x + 0.5) - 1e-3

        for a, b in ((0.0, 4.0), (4.0, 0.0), (-2.0, 7.5)):
            want = optimize.brentq(f, a, b, xtol=1e-12, rtol=4 * 2.3e-16, maxiter=200)
            assert specfun._brentq(f, a, b, xtol=1e-12, rtol=4 * 2.3e-16, maxiter=200) == want

    def test_bracket_and_iteration_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            specfun._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-15, 200)
        with pytest.raises(RuntimeError, match="converge after 3 iterations"):
            specfun._brentq(math.atan, -1.0, 1e6, 1e-12, 1e-15, 3)
        # an endpoint root is returned as given
        assert specfun._brentq(lambda x: x - 2.0, 2.0, 5.0, 1e-12, 1e-15, 200) == 2.0


class TestReferenceEvaluators:
    """The series/asymptotic path of tests/oracles.py agrees with the local oracles."""

    def test_policy_invariants(self):
        with pytest.raises(ValueError):
            BesselEvalPolicy(series_cutoff=0.0, asymptotic_terms=10, abs_tol=1e-16)
        with pytest.raises(ValueError):
            BesselEvalPolicy(series_cutoff=10.0, asymptotic_terms=10, abs_tol=0.0)
        with pytest.raises(ValueError):
            BesselEvalPolicy(series_cutoff=10.0, asymptotic_terms=0, abs_tol=1e-16)

    def test_i_series_match(self):
        for x in (0.0, 0.3, 7.0, 120.0):
            assert i0_reference(x) == pytest.approx(oracle_i0_series(x), rel=1e-14)
            assert i1_reference(x) == pytest.approx(oracle_i1_series(x), rel=1e-14)

    def test_j0_reference_match_both_branches(self):
        for x in (0.5, 5.0, 13.0):
            assert j0_reference(x) == pytest.approx(oracle_j0_series(x), abs=1e-13)
        # asymptotic branch against the production path (independent algorithms)
        for x in (20.0, 137.0, 9000.0):
            assert j0_reference(x) == pytest.approx(bessel_j0(x), abs=1e-11)

    def test_ratio_reference_match(self):
        assert ratio_reference(2.0) == pytest.approx(
            oracle_i1_series(2.0) / oracle_i0_series(2.0), rel=1e-14
        )
        assert ratio_reference(500.0) == pytest.approx(bessel_ratio_i1_i0(500.0), rel=1e-13)
