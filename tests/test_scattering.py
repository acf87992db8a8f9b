"""Scattering density, ACF, and PSD contracts.

The two-cluster fixture mirrors the reference experiment: mean angles 30 and
60 degrees, circular variances 0.01 and 0.005, equal weights.
"""

import math

import numpy as np
import pytest

from holowdm.scattering import (
    ISOTROPIC_DENSITY,
    Cluster,
    ScatteringSpec,
    acf,
    acf_quadrature,
    psd,
    psf_density,
)
from holowdm.specfun import bessel_i0, bessel_j0, bessel_ratio_i1_i0

WAVELENGTH = 0.01
K = 2.0 * math.pi / WAVELENGTH


@pytest.fixture(scope="module")
def two_cluster_spec():
    return ScatteringSpec.mixture(
        (
            Cluster.from_circular_variance(0.5, math.radians(30.0), 0.01),
            Cluster.from_circular_variance(0.5, math.radians(60.0), 0.005),
        )
    )


class TestCluster:
    def test_from_circular_variance_solves_concentration(self):
        c = Cluster.from_circular_variance(1.0, 0.5, 0.25)
        assert abs(1.0 - bessel_ratio_i1_i0(c.concentration) ** 2 - 0.25) < 1e-10

    def test_inconsistent_concentration_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            Cluster(weight=1.0, mean_angle=0.5, circ_variance=0.25, concentration=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"weight": 0.0, "mean_angle": 0.5, "circ_variance": 1.0, "concentration": 0.0},
            {"weight": 1.0, "mean_angle": -0.1, "circ_variance": 1.0, "concentration": 0.0},
            {"weight": 1.0, "mean_angle": math.pi, "circ_variance": 1.0, "concentration": 0.0},
            {"weight": 1.0, "mean_angle": 0.5, "circ_variance": 0.0, "concentration": 0.0},
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
        assert not ScatteringSpec((Cluster.from_circular_variance(1.0, 0.5, 1.0),)).is_isotropic
        with pytest.raises(ValueError, match="at least one cluster"):
            ScatteringSpec.mixture(())

    def test_mixture_weights_must_sum_to_one(self):
        good = Cluster.from_circular_variance(0.5, 0.3, 0.5)
        with pytest.raises(ValueError, match="sum to 1"):
            ScatteringSpec.mixture((good,))


class TestPsfDensity:
    def test_isotropic_value(self):
        assert psf_density(ScatteringSpec.isotropic(), 1.0) == ISOTROPIC_DENSITY
        assert ISOTROPIC_DENSITY == pytest.approx(0.3183098861837907, rel=1e-15)

    def test_uniform_cluster_is_full_circle_uniform(self):
        # a single alpha = 0 cluster is uniform over the whole circle: 1/(2 pi)
        spec = ScatteringSpec.mixture((Cluster.from_circular_variance(1.0, 0.9, 1.0),))
        for theta in (0.0, 0.9, 3.0):
            assert psf_density(spec, theta) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)

    def test_peak_value_single_cluster(self):
        # direct evaluation oracle: e^5 / (2 pi I0(5)) with series-checked I0
        nu_sq = 1.0 - bessel_ratio_i1_i0(5.0) ** 2
        spec = ScatteringSpec.mixture(
            (Cluster(weight=1.0, mean_angle=math.pi / 3, circ_variance=nu_sq, concentration=5.0),)
        )
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
        spec = ScatteringSpec.mixture((Cluster.from_circular_variance(1.0, 1.0, 1e-4),))
        assert math.isfinite(psf_density(spec, 1.0))
        assert psf_density(spec, 2.5) >= 0.0


class TestAcf:
    def test_isotropic_at_zero_lag(self):
        assert acf(ScatteringSpec.isotropic(), K, 0.0) == 1.0 + 0.0j

    def test_isotropic_half_wavelength(self):
        value = acf(ScatteringSpec.isotropic(), K, WAVELENGTH / 2)
        assert value.imag == 0.0
        assert value.real == pytest.approx(-0.30424217764409384, abs=1e-12)

    def test_mixture_total_mass(self, two_cluster_spec):
        # at zero lag the ACF is the density mass over [0, pi]; the vMF
        # normalization leaks a little outside the forward half circle
        mass = acf(two_cluster_spec, K, 0.0)
        assert mass.imag == pytest.approx(0.0, abs=1e-12)
        assert mass.real == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_matches_closed_form_isotropic(self):
        for r in np.linspace(0.0, 10 * WAVELENGTH, 40):
            numeric = acf_quadrature(ScatteringSpec.isotropic(), K, r)
            assert abs(numeric - bessel_j0(K * r)) < 1e-8

    def test_hermitian_symmetry(self, two_cluster_spec):
        for spec in (ScatteringSpec.isotropic(), two_cluster_spec):
            for r in (0.3 * WAVELENGTH, 1.7 * WAVELENGTH, 6.2 * WAVELENGTH):
                assert abs(acf(spec, K, -r) - acf(spec, K, r).conjugate()) < 1e-12

    def test_zero_lag_dominates(self, two_cluster_spec):
        peak = abs(acf(two_cluster_spec, K, 0.0))
        for r in np.linspace(0.05 * WAVELENGTH, 8 * WAVELENGTH, 25):
            assert abs(acf(two_cluster_spec, K, r)) <= peak + 1e-12

    def test_domain_errors(self):
        spec = ScatteringSpec.isotropic()
        with pytest.raises(ValueError):
            acf(spec, 0.0, 1.0)
        with pytest.raises(ValueError):
            acf(spec, K, float("inf"))


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
    def test_isotropic_broadside(self):
        assert psd(ScatteringSpec.isotropic(), K, 0.0) == pytest.approx(2.0 / K, rel=1e-14)

    def test_outside_visible_region(self):
        assert psd(ScatteringSpec.isotropic(), K, 1.5 * K) == 0.0

    def test_edge_sentinel(self):
        assert psd(ScatteringSpec.isotropic(), K, K) == math.inf
        assert psd(ScatteringSpec.isotropic(), K, -K) == math.inf

    def test_uniform_cluster_broadside(self):
        spec = ScatteringSpec.mixture((Cluster.from_circular_variance(1.0, 0.9, 1.0),))
        assert psd(spec, K, 0.0) == pytest.approx(1.0 / K, rel=1e-13)

    def test_isotropic_closed_form_inside(self):
        for k_x in (0.3 * K, -0.77 * K):
            expected = 2.0 / math.sqrt(K * K - k_x * k_x)
            assert psd(ScatteringSpec.isotropic(), K, k_x) == pytest.approx(expected, rel=1e-13)

    def test_acf_psd_duality(self, two_cluster_spec):
        for spec in (ScatteringSpec.isotropic(), two_cluster_spec):
            for r in (0.0, 0.4 * WAVELENGTH, 2.2 * WAVELENGTH):
                via_psd = chebyshev_psd_transform(spec, K, r)
                assert abs(via_psd - acf(spec, K, r)) < 1e-6
