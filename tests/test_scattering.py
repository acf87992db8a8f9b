"""Scattering density and ACF contracts, and the closed forms of the PSD oracle.

The two-cluster fixture mirrors the reference experiment: mean angles 30 and
60 degrees, circular variances 0.01 and 0.005, equal weights.
"""

import math
import warnings

import numpy as np
import pytest
from oracles import psd
from scipy import integrate

from holowdm.scattering import (
    ISOTROPIC_DENSITY,
    Cluster,
    ScatteringSpec,
    _raw_density,
    acf_quadrature,
    psf_density,
)
from holowdm.specfun import bessel_i0, bessel_j0, bessel_ratio_i1_i0

WAVELENGTH = 0.01
K = 2.0 * math.pi / WAVELENGTH


@pytest.fixture(scope="module")
def two_cluster_spec():
    return ScatteringSpec.mixture(
        (
            Cluster(0.5, math.radians(30.0), 0.01),
            Cluster(0.5, math.radians(60.0), 0.005),
        )
    )


class TestCluster:
    def test_concentration_is_solved_from_circular_variance(self):
        c = Cluster(1.0, 0.5, 0.25)
        assert abs(1.0 - bessel_ratio_i1_i0(c.concentration) ** 2 - 0.25) < 1e-10
        assert Cluster(1.0, 0.5, 1.0).concentration == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": 0.0, "mean_angle": 0.5, "circ_variance": 1.0},
            {"weight": 1.0, "mean_angle": -0.1, "circ_variance": 1.0},
            {"weight": 1.0, "mean_angle": math.pi, "circ_variance": 1.0},
            {"weight": 1.0, "mean_angle": 0.5, "circ_variance": 0.0},
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            Cluster(**kwargs)


class TestScatteringSpec:
    def test_isotropic_has_no_clusters(self):
        spec = ScatteringSpec.isotropic()
        assert spec.is_isotropic and spec.clusters == ()
        # equal and equally hashed, so cached profiles are found again
        assert spec == ScatteringSpec.isotropic() == ScatteringSpec()
        assert hash(spec) == hash(ScatteringSpec.isotropic())
        # a spec with clusters is a mixture, and a mixture needs a cluster
        assert not ScatteringSpec((Cluster(1.0, 0.5, 1.0),)).is_isotropic
        with pytest.raises(ValueError, match="at least one cluster"):
            ScatteringSpec.mixture(())

    def test_mixture_weights_must_sum_to_one(self):
        good = Cluster(0.5, 0.3, 0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            ScatteringSpec.mixture((good,))


class TestPsfDensity:
    def test_isotropic_value(self):
        assert psf_density(ScatteringSpec.isotropic(), 1.0) == ISOTROPIC_DENSITY
        assert ISOTROPIC_DENSITY == pytest.approx(0.3183098861837907, rel=1e-15)

    def test_uniform_cluster_is_full_circle_uniform(self):
        # a single alpha = 0 cluster is uniform over the whole circle: 1/(2 pi)
        spec = ScatteringSpec.mixture((Cluster(1.0, 0.9, 1.0),))
        for theta in (0.0, 0.9, 3.0):
            assert psf_density(spec, theta) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_peak_value_single_cluster(self):
        # direct evaluation oracle: e^5 / (2 pi I0(5)) with series-checked I0
        nu_sq = 1.0 - bessel_ratio_i1_i0(5.0) ** 2
        spec = ScatteringSpec.mixture((Cluster(1.0, math.pi / 3, nu_sq),))
        expected = math.exp(5.0) / (2 * math.pi * bessel_i0(5.0))
        assert expected == pytest.approx(0.8671365285423521, rel=1e-13)
        assert psf_density(spec, math.pi / 3) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        spec = ScatteringSpec.isotropic()
        for bad in (-1e-12, math.pi, 4.0, float("nan")):
            with pytest.raises(ValueError):
                psf_density(spec, bad)

    def test_vectorized_evaluation(self, two_cluster_spec):
        thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
        values = psf_density(two_cluster_spec, thetas)
        assert values.shape == thetas.shape
        assert np.all(values >= 0.0) and np.all(np.isfinite(values))

    def test_huge_concentration_no_overflow(self):
        spec = ScatteringSpec.mixture((Cluster(1.0, 1.0, 1e-4),))
        assert math.isfinite(psf_density(spec, 1.0))
        assert psf_density(spec, 2.5) >= 0.0


class TestAcf:
    def test_mixture_total_mass(self, two_cluster_spec):
        # at zero lag the ACF is the density mass over [0, pi]; the vMF
        # normalization leaks a little outside the forward half circle
        mass = acf_quadrature(two_cluster_spec, K, 0.0)
        assert mass.imag == pytest.approx(0.0, abs=1e-12)
        assert mass.real == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_matches_closed_form_isotropic(self):
        for r in np.linspace(0.0, 10 * WAVELENGTH, 40):
            numeric = acf_quadrature(ScatteringSpec.isotropic(), K, r)
            assert abs(numeric - bessel_j0(K * r)) < 1e-8
        # a long lag takes one refinement per 64 radians of k |r_x|; one
        # refinement alone runs into its panel limit from about 100 wavelengths
        for r in (100 * WAVELENGTH, -1000 * WAVELENGTH):
            numeric = acf_quadrature(ScatteringSpec.isotropic(), K, r)
            assert abs(numeric - bessel_j0(K * r)) < 1e-12

    @pytest.mark.parametrize("spec_name", ["isotropic", "mixture", "narrow", "edges"])
    def test_quadrature_matches_quad(self, spec_name, two_cluster_spec):
        spec = {
            "isotropic": ScatteringSpec.isotropic(),
            "mixture": two_cluster_spec,
            "narrow": ScatteringSpec.mixture((Cluster(1.0, 0.9, 1e-6),)),
            "edges": ScatteringSpec.mixture(
                (Cluster(0.5, 0.0, 1e-4), Cluster(0.5, math.radians(179.0), 1e-4))
            ),
        }[spec_name]
        for r in np.linspace(-10 * WAVELENGTH, 10 * WAVELENGTH, 41):
            assert abs(acf_quadrature(spec, K, r) - _quad_acf(spec, K, r)) <= 1e-12

    def test_quadrature_refuses_an_unresolved_lag(self, two_cluster_spec):
        # at 1e4 m the 200 refinements are too few for the oscillation
        with pytest.raises(RuntimeError, match="ACF quadrature error"):
            acf_quadrature(two_cluster_spec, K, 1e4)

    @pytest.mark.parametrize("spec_name", ["isotropic", "mixture"])
    @pytest.mark.parametrize("r", [1e308, -1e308])
    def test_lag_whose_phase_overflows_names_r_x(self, two_cluster_spec, spec_name, r):
        # k r_x overflows at 1e308 m: refused before any weight is formed,
        # which would be NaN, with numpy's invalid-value warning
        spec = two_cluster_spec if spec_name == "mixture" else ScatteringSpec.isotropic()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r_x"):
                acf_quadrature(spec, K, r)

    def test_hermitian_symmetry(self, two_cluster_spec):
        for spec in (ScatteringSpec.isotropic(), two_cluster_spec):
            for r in (0.3 * WAVELENGTH, 1.7 * WAVELENGTH, 6.2 * WAVELENGTH):
                got = acf_quadrature(spec, K, -r)
                assert abs(got - acf_quadrature(spec, K, r).conjugate()) < 1e-12

    def test_zero_lag_dominates(self, two_cluster_spec):
        peak = abs(acf_quadrature(two_cluster_spec, K, 0.0))
        for r in np.linspace(0.05 * WAVELENGTH, 8 * WAVELENGTH, 25):
            assert abs(acf_quadrature(two_cluster_spec, K, r)) <= peak + 1e-12

    def test_domain_errors(self):
        spec = ScatteringSpec.isotropic()
        with pytest.raises(ValueError, match="k must be"):
            acf_quadrature(spec, 0.0, 1.0)
        with pytest.raises(ValueError, match="r_x"):
            acf_quadrature(spec, K, float("inf"))


def _quad_acf(spec, k, r_x):
    """Reference ACF: scipy's adaptive quad on the real and imaginary parts,
    with the cluster means inside (0, pi) as break points."""

    def integrand(theta, osc):
        return _raw_density(spec, theta) * osc(k * math.cos(theta) * r_x)

    points = [c.mean_angle for c in spec.clusters if 0.0 < c.mean_angle < math.pi] or None
    re, re_err = integrate.quad(integrand, 0.0, math.pi, args=(math.cos,),
                                epsabs=1e-10, epsrel=1e-11, limit=400, points=points)
    im, im_err = integrate.quad(integrand, 0.0, math.pi, args=(math.sin,),
                                epsabs=1e-10, epsrel=1e-11, limit=400, points=points)
    assert re_err + im_err <= 1e-9
    return complex(re, im)


def chebyshev_psd_transform(spec, k, r_x, nodes=4096):
    """Independent PSD-to-ACF route: Gauss-Chebyshev handles the 1/sqrt weight.

    (1/2pi) * integral of S(k_x) e^{j k_x r_x} over |k_x| < k, evaluated with
    the quadrature rule whose weight is exactly the edge singularity of S.
    """
    t = (2 * np.arange(1, nodes + 1) - 1) * math.pi / (2 * nodes)
    k_x = k * np.cos(t)
    # psd carries 2 pi * density / gamma; the Chebyshev rule supplies 1/gamma
    densities = np.array([psd(spec, k, x) * math.sqrt(k * k - x * x) / (2 * math.pi) for x in k_x])
    return (math.pi / nodes) * np.sum(densities * np.exp(1j * k_x * r_x))


class TestPsd:
    """The oracle psd against the paper's closed forms: 2 / sqrt(k^2 - k_x^2)
    for isotropic scattering, as the transform of the Jakes ACF J0(k r)."""

    def test_isotropic_broadside(self):
        assert psd(ScatteringSpec.isotropic(), K, 0.0) == pytest.approx(2.0 / K, rel=1e-14)

    def test_uniform_cluster_broadside(self):
        spec = ScatteringSpec.mixture((Cluster(1.0, 0.9, 1.0),))
        assert psd(spec, K, 0.0) == pytest.approx(1.0 / K, rel=1e-13)

    def test_isotropic_closed_form_inside(self):
        for k_x in (0.3 * K, -0.77 * K):
            expected = 2.0 / math.sqrt(K * K - k_x * k_x)
            assert psd(ScatteringSpec.isotropic(), K, k_x) == pytest.approx(expected, rel=1e-13)

    def test_acf_psd_duality(self, two_cluster_spec):
        for spec in (ScatteringSpec.isotropic(), two_cluster_spec):
            for r in (0.0, 0.4 * WAVELENGTH, 2.2 * WAVELENGTH):
                via_psd = chebyshev_psd_transform(spec, K, r)
                assert abs(via_psd - acf_quadrature(spec, K, r)) < 1e-6
