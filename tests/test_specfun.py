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
    i0_reference,
    i1_reference,
    j0_reference,
    ratio_reference,
)

from holowdm import specfun
from holowdm.specfun import (
    bessel_i0_scaled,
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


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert bessel_i0_scaled(0.0) == 1.0

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 1.2660658777520084), (2.0, 2.2795853023360673)],
    )
    def test_series_oracle_values(self, x, expected):
        assert oracle_i0_series(x) == pytest.approx(expected, rel=1e-14)
        assert bessel_i0_scaled(x) == pytest.approx(expected * math.exp(-x), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_i0_scaled(-1.0)
        with pytest.raises(ValueError):
            bessel_i0_scaled(float("nan"))
        with pytest.raises(ValueError):
            bessel_i0_scaled(float("inf"))

    @given(st.floats(min_value=0.0, max_value=1e18))
    def test_in_unit_interval(self, x):
        # I0 >= 1 grows no faster than e^x, so e^-x I0 never overflows
        assert 0.0 < bessel_i0_scaled(x) <= 1.0

    def test_strictly_decreasing_on_grid(self):
        # the grid crosses the switch from the power series to the expansion
        grid = np.concatenate([[0.0], np.logspace(-4, 6, 120)])
        values = [bessel_i0_scaled(x) for x in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


def i1_scaled(x):
    """e^-x I1(x), reached as the ratio I1/I0 times e^-x I0."""
    return bessel_ratio_i1_i0(x) * bessel_i0_scaled(x)


class TestBesselI1:
    def test_at_zero(self):
        assert i1_scaled(0.0) == 0.0

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, 0.5651591039924851), (2.0, 1.5906368546373291)],
    )
    def test_series_oracle_values(self, x, expected):
        assert oracle_i1_series(x) == pytest.approx(expected, rel=1e-14)
        assert i1_scaled(x) == pytest.approx(expected * math.exp(-x), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            i1_scaled(-0.5)

    @given(st.floats(min_value=0.0, max_value=1e18))
    def test_non_negative(self, x):
        assert 0.0 <= i1_scaled(x) <= bessel_i0_scaled(x)


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


class TestAgainstMpmath:
    """The evaluators against mpmath at 40 digits."""

    @staticmethod
    def relative_error(value, want):
        return float(abs((mpmath.mpf(value) - want) / want))

    def test_scaled_i0_i1_on_a_log_grid(self):
        with mpmath.workdps(40):
            for x in np.logspace(-6, 18, 481):
                i0e, i1e = specfun._scaled_i0_i1(float(x))
                scale = mpmath.exp(-mpmath.mpf(x))
                assert self.relative_error(i0e, mpmath.besseli(0, x) * scale) <= 2e-15
                assert self.relative_error(i1e, mpmath.besseli(1, x) * scale) <= 2e-15

    def test_j0_at_the_jakes_lags(self):
        # the lags of a half-wavelength array: k lambda/2 m = pi m
        x = np.pi * np.arange(4097)
        values = bessel_j0(x)
        with mpmath.workdps(40):
            for xi, value in zip(x, values):
                assert self.relative_error(value, mpmath.besselj(0, xi)) <= 1e-15

    def test_j0_absolute_on_a_grid(self):
        # steps of 4.3 cross both branches and land near zeros of J0
        x = np.arange(0.0, 1e4, 4.3)
        values = bessel_j0(x)
        with mpmath.workdps(40):
            for xi, value in zip(x, values):
                assert abs(value - float(mpmath.besselj(0, xi))) <= 1e-15

    def test_exact_edge_values(self):
        # J0(0) is the Jakes diagonal, so tr R = n exactly
        assert bessel_j0(0.0) == 1.0
        assert specfun._scaled_i0_i1(0.0) == (1.0, 0.0)


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


def mpmath_concentration(nu_sq):
    """The root of 1 - (I1(a)/I0(a))^2 = nu_sq, found by mpmath at 60 digits."""
    with mpmath.workdps(60):
        nu = mpmath.mpf(nu_sq)
        return float(mpmath.findroot(
            lambda a: 1 - (mpmath.besseli(1, a) / mpmath.besseli(0, a)) ** 2 - nu, 1 / nu
        ))


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
        # The grid steps across the switch to the expansions at alpha = 20
        # (nu_sq 0.05), where the ratio's cancellation is largest, and on to
        # alpha of order 1, where a root tolerance set in absolute terms
        # (1e-12, say) costs the most relative accuracy (1.2e-13).
        grid = [
            *np.logspace(-17, -2, 31), 1.8e-18, 1e-4, 2e-4, 4.8e-4, 4.9e-4, 5e-4,
            0.0499, 0.05, 0.0501, 0.1, 0.3, 0.5, 0.7, 0.9,
        ]
        for nu_sq in grid:
            want = mpmath_concentration(nu_sq)
            assert solve_concentration(nu_sq) == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        ("nu_sq", "bits"),
        [(0.01, 100.00127556985531), (0.005, 200.00063132026864), (0.002, None)],
    )
    def test_default_clusters_keep_their_bits_and_match_mpmath(self, nu_sq, bits):
        # alpha 100, 200 and 500: with 1 - ratio^2 from the expansions, the
        # root is within 1e-14 of mpmath's; formed from the ratio, the first
        # two were 1.4e-14 and 3.4e-14 relative off.  The default clusters'
        # bits are pinned: tests/data/golden/ and the benchmark rest on them.
        alpha = solve_concentration(nu_sq)
        assert alpha == pytest.approx(mpmath_concentration(nu_sq), rel=1e-14, abs=0)
        assert bits is None or alpha == bits

    @settings(max_examples=60)
    @given(st.floats(min_value=1e-4, max_value=1.0))
    def test_round_trip_property(self, nu_sq):
        alpha = solve_concentration(nu_sq)
        assert abs(1.0 - bessel_ratio_i1_i0(alpha) ** 2 - nu_sq) <= 1e-9

    @settings(max_examples=300)
    @given(st.floats(min_value=1.8e-18, max_value=1.0, exclude_max=True))
    @example(0.01)  # the default clusters' circular variances
    @example(0.005)
    @example(1.8e-18)  # the largest root the bracket reaches
    @example(1.0 - 2.0**-52)  # the smallest root, and the longest bisection
    def test_root_is_the_first_double_where_the_gap_changes_sign(self, nu_sq):
        def gap(alpha):
            return specfun._one_minus_ratio_sq(alpha) - nu_sq

        alpha = solve_concentration(nu_sq)
        assert gap(alpha) <= 0.0 < gap(math.nextafter(alpha, 0.0))

    @settings(max_examples=100)
    @given(st.floats(min_value=1.8e-18, max_value=1.0, exclude_max=True))
    @example(1.8e-18)
    @example(3.4e-18)  # root just under 2**59: the longest doubling loop
    @example(1.0 - 2.0**-52)
    def test_solve_takes_at_most_112_gap_evaluations(self, nu_sq):
        # The doubling loop evaluates the gap at 2, 4, ..., at most 2**59
        # (2**60 > 1e18 is refused unevaluated); bisecting [2**k, 2**(k+1)]
        # down to adjacent doubles takes 52 steps; the residual check one.
        # From [0, 2] the smallest root, near 2**-25, takes 79 steps.
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return one_minus_ratio_sq(alpha)

        one_minus_ratio_sq = specfun._one_minus_ratio_sq
        # pytest.MonkeyPatch, as Hypothesis refuses function-scoped fixtures
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_one_minus_ratio_sq", counted)
            solve_concentration(nu_sq)
        assert 0 < len(calls) <= 59 + 52 + 1

    def test_residual_check_refuses_a_gap_that_jumps_over_zero(self, monkeypatch):
        # a step at alpha = 1 changes sign without a root: bisection stops
        # at the step, where the residual is the whole 0.5
        monkeypatch.setattr(specfun, "_one_minus_ratio_sq", lambda a: 1.0 if a < 1.0 else 0.0)
        with pytest.raises(RuntimeError, match="residual 5.000e-01 exceeds"):
            solve_concentration(0.5)


class TestReferenceEvaluators:
    """The series/asymptotic path of tests/oracles.py agrees with the local oracles."""

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
