"""Grid construction and variance profiles."""

import math
from functools import cache

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from holowdm import scattering
from holowdm.scattering import Cluster, ScatteringSpec, integrate_density, psf_density
from holowdm.wavenumber import (
    VarianceProfile,
    _partition_bounds,
    build_grid,
    mode_count,
    variance_profile,
)


@pytest.fixture
def gauss_passes(monkeypatch):
    """The panel starts of every 20/10-point Gauss-Legendre pass, in order."""
    passes = []
    pair = scattering._gauss_pair

    def counting(spec, a, b, weight=None):
        passes.append(a.copy())
        return pair(spec, a, b, weight)

    monkeypatch.setattr(scattering, "_gauss_pair", counting)
    return passes


@pytest.fixture(scope="module")
def mixture():
    return ScatteringSpec.mixture(
        (
            Cluster(0.5, math.radians(30.0), 0.01),
            Cluster(0.5, math.radians(60.0), 0.005),
        )
    )


class TestBuildGrid:
    def test_mode_counts(self):
        assert mode_count(128) == 256
        assert mode_count(1) == 2
        # an int past the range of a double, too, with no OverflowError
        for ratio in (1e308, 10**400):
            with pytest.raises(ValueError, match="no finite mode count"):
                mode_count(ratio)
        with pytest.raises(ValueError, match="carries no modes"):
            mode_count(0.4)

    def test_reference_length(self):
        indices = build_grid(128)
        assert indices.size == 256
        assert indices[0] == -128 and indices[-1] == 127
        assert np.array_equal(indices, np.arange(-128, 128))

    def test_too_short_for_any_mode(self):
        with pytest.raises(ValueError, match="no modes"):
            build_grid(0.4)

    @given(st.integers(min_value=1, max_value=256))
    def test_integer_ratio_exact_index_set(self, q):
        assert np.array_equal(build_grid(q), np.arange(-q, q))

    @given(st.floats().filter(lambda ratio: not ratio.is_integer()))
    @example(16.5)
    @example(8.25)
    @example(0.5)
    @example(1.2 / 0.1)
    @example(math.nextafter(8.0, 0.0))
    @example(math.nan)
    def test_fractional_ratio_is_refused(self, ratio):
        # the partitions of any other ratio leave an end of [0, pi] to no
        # index, so every function of the aperture refuses it; 1.2 / 0.1 is
        # 11.999999999999998 and is refused too
        for function in (mode_count, build_grid, lambda r: variance_profile(r, ScatteringSpec())):
            with pytest.raises(ValueError, match="whole number|no finite|carries no modes"):
                function(ratio)

    def test_integer_ratio_partitions_end_at_0_and_pi(self):
        # each edge is one division by L/lambda, so the outermost edges are
        # arccos(1) and arccos(-1) exactly
        for ratio in range(1, 2049):
            lo, hi = _partition_bounds(ratio, build_grid(ratio))
            assert (lo.min(), hi.max()) == (0.0, math.pi), ratio


class TestVarianceProfile:
    @pytest.mark.parametrize("ratio", [10, 20, 40, 49, 103])
    def test_integer_ratio_isotropic_mass_is_whole(self, ratio):
        # the partitions tile [0, pi]: the raw masses sum to 1 within roundoff
        profile = variance_profile(ratio, ScatteringSpec.isotropic())
        assert abs(1.0 - profile.variances.sum()) <= 1e-15

    @pytest.mark.parametrize("circ_var", [1e-9, 1e-7, 1e-5])
    @pytest.mark.parametrize("mean_deg", [0.0, 0.001, 179.9, 179.999999])
    @pytest.mark.parametrize("ratio", [1, 16, 333])
    def test_cluster_at_an_end_keeps_its_mass_on_the_half_circle(self, ratio, mean_deg, circ_var):
        # the partitions tile [0, pi] with no gap at either end, so a narrow
        # cluster there puts on the grid all of its mass on [0, pi], the same
        # quadrature taken over that one interval; the two differ by at most
        # 1.8e-12 on these cases
        spec = ScatteringSpec.mixture([Cluster(1.0, math.radians(mean_deg), circ_var)])
        profile = variance_profile(ratio, spec)
        whole, _ = integrate_density(spec, np.array([0.0]), np.array([math.pi]))
        assert profile.variances.sum() == pytest.approx(whole[0], rel=0, abs=1e-11)

    @pytest.mark.parametrize("ratio", [1, 2, 7, 128])
    def test_isotropic_closed_form(self, ratio):
        # index m owns the directions between arccos((m + 1) lambda / L) and
        # arccos(m lambda / L), so the centre partition ends at pi / 2 and
        # the outermost ones at 0 and pi
        profile = variance_profile(ratio, ScatteringSpec.isotropic())
        idx = build_grid(ratio)
        expected = (np.arccos(idx / ratio) - np.arccos((idx + 1) / ratio)) / math.pi
        assert np.allclose(profile.variances, expected, rtol=0, atol=1e-13)

    def test_isotropic_center_entry(self):
        profile = variance_profile(128, ScatteringSpec.isotropic())
        center = profile.variances[build_grid(128) == 0][0]
        assert center == pytest.approx((math.pi / 2 - math.acos(1 / 128)) / math.pi, rel=1e-12)
        # first-order arccos expansion puts it near 1/(128 pi)
        assert center == pytest.approx(1.0 / (128 * math.pi), rel=2e-5)

    def test_isotropic_mirror_symmetry(self):
        profile = variance_profile(128, ScatteringSpec.isotropic())
        v = profile.variances
        idx = build_grid(128)
        for n in (0, 3, 77, 127):
            assert v[idx == n][0] == pytest.approx(v[idx == -n - 1][0], rel=1e-12)

    def test_mixture_prefix_count(self, mixture):
        profile = variance_profile(128, mixture)
        ordered = np.sort(profile.variances)[::-1]
        count = int(np.searchsorted(np.cumsum(ordered) / ordered.sum(), 1 - 0.003)) + 1
        assert count == 82

    def test_missing_mass_is_the_vmf_mass_outside_the_half_circle(self, mixture):
        # the masses are raw, so what they lack of 1 is the density's mass
        # on [pi, 2 pi), here taken at 40 digits
        profile = variance_profile(128, mixture)
        with mpmath.workdps(40):
            outside = mpmath.quad(
                lambda t: mpmath.fsum(
                    c.weight * mpmath.exp(c.concentration * mpmath.cos(t - c.mean_angle))
                    / (2 * mpmath.pi * mpmath.besseli(0, c.concentration))
                    for c in mixture.clusters
                ),
                [mpmath.pi, 2 * mpmath.pi],
            )
        # about 5.9e-8, well above the tolerance
        assert float(outside) > 1e-8
        assert 1.0 - profile.variances.sum() == pytest.approx(float(outside), abs=1e-12)

    def test_non_negative(self, mixture):
        profile = variance_profile(128, mixture)
        assert np.all(profile.variances >= 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_variances_refused(self, bad):
        # a NaN compares false with 0, so finiteness is checked on its own
        with pytest.raises(ValueError, match="finite and non-negative"):
            VarianceProfile(np.array([bad, 1.0, 2.0]))


def _partition(ratio, m):
    """Directions owned by index m: arccos((m + 1) lambda / L) to arccos(m lambda / L)."""
    return tuple(math.acos(j / ratio) for j in (m + 1, m))


def _quad_reference(ratio, spec):
    """Unnormalized profile by one adaptive quadrature per partition."""
    means = [c.mean_angle for c in spec.clusters]
    values = []
    for n in build_grid(ratio):
        lo, hi = _partition(ratio, int(n))
        value, _ = integrate.quad(
            lambda t: psf_density(spec, t), lo, hi, epsabs=1e-13, epsrel=1e-12,
            limit=200, points=[m for m in means if lo < m < hi] or None,
        )
        values.append(value)
    return np.array(values)


@cache
def _mpmath_reference(ratio, spec):
    """Unnormalized profile of spec on the L/lambda = ratio grid, each
    partition integrated by mpmath at 40 digits with the density's own
    concentrations."""
    with mpmath.workdps(40):
        terms = [
            (
                mpmath.mpf(c.concentration),
                mpmath.mpf(c.mean_angle),
                c.weight / (2 * mpmath.pi * mpmath.besseli(0, mpmath.mpf(c.concentration))),
            )
            for c in spec.clusters
        ]

        def density(t):
            return mpmath.fsum(s * mpmath.exp(k * mpmath.cos(t - m)) for k, m, s in terms)

        values = []
        for n in build_grid(ratio):
            lo, hi = _partition(ratio, int(n))
            points = [lo, *(m for _, m, _ in terms if lo < m < hi), hi]
            values.append(float(mpmath.quad(density, [mpmath.mpf(p) for p in points])))
    return np.array(values)


EDGE_CLUSTERS = ScatteringSpec.mixture(
    (
        Cluster(0.5, 0.0, 1e-4),
        Cluster(0.5, math.radians(179.0), 1e-4),
    )
)

NARROW = ScatteringSpec.mixture((Cluster(1.0, math.radians(45.0), 1e-8),))

SINGLE = ScatteringSpec.mixture((Cluster(1.0, math.radians(71.3), 1e-5),))


class TestPartitionQuadrature:
    @pytest.mark.parametrize("ratios", [(8, 8), (128, 128), (16, 8)])
    @pytest.mark.parametrize("spec_name", ["mixture", "isotropic", "edge"])
    def test_matches_per_partition_quad(self, ratios, spec_name, mixture):
        # Clusters at 0 and 179 degrees (kappa ~ 5000) put a quarter of the
        # mass in one partition, where evaluating the density in doubles
        # alone costs ~3e-14 and quad itself is up to 4.3e-14 off; those
        # rows are checked against 40-digit integrals at 1e-13.
        spec = {
            "mixture": mixture,
            "isotropic": ScatteringSpec.isotropic(),
            "edge": EDGE_CLUSTERS,
        }[spec_name]
        for ratio in ratios:
            got = variance_profile(ratio, spec).variances
            if spec_name == "edge":
                want = _mpmath_reference(ratio, spec)
                assert np.abs(got - want).max() <= 1e-13
            else:
                want = _quad_reference(ratio, spec)
                assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("ratio", [16, 32])
    def test_single_cluster_matches_mpmath(self, ratio):
        # kappa ~ 1e5 at 71.3 degrees: the partition holding the mean sums
        # its panels over several passes
        got = variance_profile(ratio, SINGLE).variances
        assert np.abs(got - _mpmath_reference(ratio, SINGLE)).max() <= 1e-13

    def test_refinement_runs_where_the_rule_is_not_enough(self, mixture, gauss_passes):
        # the first pass holds every partition, split at the means inside
        # it; each later pass holds the halves of the panels it refines
        variance_profile(8, mixture)
        bounds = [_partition(8, int(n)) for n in build_grid(8)]
        refined = {
            i for a in gauss_passes[1:] for x in a for i, (lo, hi) in enumerate(bounds)
            if lo <= x < hi
        }
        holding = {
            i for i, (lo, hi) in enumerate(bounds)
            if any(lo <= c.mean_angle <= hi for c in mixture.clusters)
        }
        # the refinement runs past the partitions that hold a cluster mean,
        # to those whose error estimate is too large, but not to all of them
        assert refined - holding and len(refined) < len(bounds)
        gauss_passes.clear()
        variance_profile(128, ScatteringSpec.isotropic())
        assert len(gauss_passes) == 1

    def test_refinement_error_still_raises(self, mixture, monkeypatch):
        # with one panel allowed, a partition holding a mean stays unconverged
        monkeypatch.setattr(scattering, "_PANEL_LIMIT", 1)
        with pytest.raises(ValueError, match="partition quadrature error"):
            variance_profile(8, mixture)

    def test_refinement_finds_a_peak_narrower_than_the_node_spacing(self):
        # kappa ~ 5e5 at the end of a 3 rad interval: the nearest Gauss node
        # sits 7 spreads from the mean, where both rules read ~1e-22.  The
        # width rule halves the panel anyway, and the cluster's half mass
        # is found.
        spec = ScatteringSpec.mixture((Cluster(1.0, 0.0, 1e-6),))
        values, err = integrate_density(spec, np.array([0.0]), np.array([3.0]))
        assert err[0] <= 1e-10
        assert values[0] == pytest.approx(0.5, abs=1e-11)

    def test_refinement_stops_at_the_panel_limit(self, monkeypatch, gauss_passes):
        # a kappa ~ 5e7 peak needs 21 panels; with 8 allowed the panels run
        # into the limit and the run raises rather than return an
        # unconverged value
        monkeypatch.setattr(scattering, "_PANEL_LIMIT", 8)
        with pytest.raises(ValueError, match="partition quadrature error"):
            variance_profile(8, NARROW)
        # the first pass holds the 16 partitions, the one holding the mean
        # as the two panels either side of it; each later pass holds the
        # two halves of every panel split
        panels = [a.size for a in gauss_passes]
        assert panels[0] == 17
        assert 2 + sum(panels[1:]) // 2 <= scattering._PANEL_LIMIT

    def test_panel_limit_is_200(self, gauss_passes):
        # an isotropic ACF weight exp(j p cos t): at p = 500 the refinement
        # converges on 189 panels; at p = 2000 it runs into the limit
        def refine(p):
            gauss_passes.clear()
            _, err = integrate_density(
                ScatteringSpec.isotropic(), np.array([0.0]), np.array([math.pi]),
                weight=lambda theta: np.exp(1j * p * np.cos(theta)),
            )
            # one panel, and one more for each panel halved
            return 1 + sum(a.size for a in gauss_passes[1:]) // 2, err[0]

        panels, err = refine(500.0)
        assert panels > 150 and err <= 1e-13
        panels, err = refine(2000.0)
        assert panels <= 200 and err > 1e-3

    @pytest.mark.parametrize("p", [None, 2000.0])
    def test_each_interval_has_the_bits_of_a_one_interval_call(self, mixture, p):
        # beside intervals that hold a mean, start at one, are tiny or are
        # wide, [0, pi] under the weight exp(j 2000 cos t) runs into the
        # panel limit; without a weight every interval converges
        lo = np.array([0.0, 0.1, math.radians(30.0), 1.0, 2.0, 0.7])
        hi = np.array([math.pi, 0.55, 0.6, 1.0 + 1e-9, 3.0, 0.9])
        weight = None if p is None else (lambda theta: np.exp(1j * p * np.cos(theta)))
        values, err = integrate_density(mixture, lo, hi, weight)
        assert np.all(err[1:] <= 1e-12)
        assert (err[0] > 1e-3) == (p is not None)
        for i in range(lo.size):
            value, e = integrate_density(mixture, lo[i:i + 1], hi[i:i + 1], weight)
            assert (value[0], e[0]) == (values[i], err[i])

    def test_narrow_cluster_matches_mpmath(self):
        # kappa ~ 5e7: written as exp(kappa (cos - 1)), the density would
        # carry kappa * 1e-16 relative rounding near the mean and this
        # profile would not converge.  The floor left is the peak height
        # sqrt(kappa / 2 pi) ~ 3e3 times the ~1e-16 spacing of the doubles
        # that place the nodes.
        got = variance_profile(8, NARROW).variances
        assert np.abs(got - _mpmath_reference(8, NARROW)).max() <= 1e-12
        assert got.sum() == pytest.approx(1.0, abs=1e-12)
