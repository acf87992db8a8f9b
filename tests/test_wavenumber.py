"""Grid construction, angular partitions, and variance profiles."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import integrate

from holowdm import wavenumber
from holowdm.scattering import Cluster, ScatteringSpec, psf_density
from holowdm.wavenumber import (
    PhysicalConfig,
    angular_partition,
    build_grid,
    dispersion,
    variance_profile,
)

LAMBDA = 0.01


def config(ratio_s, ratio_r=None, wavelength=LAMBDA):
    ratio_r = ratio_s if ratio_r is None else ratio_r
    return PhysicalConfig(wavelength, ratio_s * wavelength, ratio_r * wavelength, 0.0)


@pytest.fixture(scope="module")
def cfg128():
    return config(128)


@pytest.fixture(scope="module")
def mixture():
    return ScatteringSpec.mixture(
        (
            Cluster.from_circular_variance(0.5, math.radians(30.0), 0.01),
            Cluster.from_circular_variance(0.5, math.radians(60.0), 0.005),
        )
    )


class TestPhysicalConfig:
    def test_wavenumber(self, cfg128):
        assert cfg128.k == pytest.approx(2 * math.pi / LAMBDA, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            PhysicalConfig(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PhysicalConfig(0.01, -1.0, 1.0)
        with pytest.raises(ValueError):
            PhysicalConfig(0.01, 1.0, 1.0, d=-0.5)

    def test_small_aperture_warns(self):
        with pytest.warns(UserWarning, match="8 wavelengths"):
            config(4)

    def test_mode_counts(self, cfg128):
        assert cfg128.mode_count("source") == 256
        assert cfg128.mode_count("receiver") == 256
        with pytest.raises(ValueError):
            cfg128.mode_count("sideways")


class TestDispersion:
    def test_broadside(self):
        k = 2 * math.pi / LAMBDA
        assert dispersion(k, 0.0) == k

    def test_endfire(self):
        k = 2 * math.pi / LAMBDA
        assert dispersion(k, k) == 0.0

    def test_three_four_five(self):
        k = 2 * math.pi / 0.01
        assert dispersion(k, 0.6 * k) == pytest.approx(0.8 * k, rel=1e-14)
        assert 0.8 * k == pytest.approx(502.6548245743669, rel=1e-12)

    def test_evanescent_rejected(self):
        k = 2 * math.pi / LAMBDA
        with pytest.raises(ValueError):
            dispersion(k, 1.0000001 * k)

    def test_vectorized(self):
        k = 2 * math.pi / LAMBDA
        k_x = np.linspace(-k, k, 11)
        out = dispersion(k, k_x)
        assert out.shape == k_x.shape and np.all(out >= 0.0)


class TestBuildGrid:
    def test_reference_length(self, cfg128):
        grid = build_grid(cfg128, "source")
        assert grid.n == 256
        assert grid.indices[0] == -128 and grid.indices[-1] == 127
        assert np.array_equal(grid.indices, np.arange(-128, 128))

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_sub_wavelength(self):
        grid = build_grid(config(0.6), "source")
        assert grid.n == 1 and list(grid.indices) == [0]

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_fractional_ratio(self):
        grid = build_grid(config(2.5), "receiver")
        assert grid.n == 5 and list(grid.indices) == [-2, -1, 0, 1, 2]

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_too_short_for_any_mode(self):
        with pytest.raises(ValueError, match="no modes"):
            build_grid(config(0.4), "source")

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @given(st.integers(min_value=1, max_value=256))
    def test_integer_ratio_exact_index_set(self, q):
        grid = build_grid(config(q), "source")
        assert grid.n == 2 * q
        assert np.array_equal(grid.indices, np.arange(-q, q))

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @given(st.floats(min_value=0.5, max_value=300.0))
    @example(0.5 + 1e-10)
    @example(2.5 - 1e-10)
    @example(2.5 + 1e-10)
    @example(127.5 - 1e-10)
    @example(127.5 + 1e-10)
    def test_cardinality_and_visibility(self, ratio):
        cfg = config(ratio)
        grid = build_grid(cfg, "source")
        assert grid.n == math.floor(2 * cfg.L_s / cfg.wavelength + 1e-9)
        # every retained index is a propagating direction
        assert np.all(np.abs(2 * math.pi * grid.indices / cfg.L_s) <= cfg.k * (1 + 1e-9))
        # the selection rule the closed form replaces: the n visible indices
        # of smallest magnitude, ties toward the negative one
        m_hi = math.floor(cfg.L_s / cfg.wavelength * (1.0 + 1e-12) + 1e-9)
        candidates = sorted(range(-m_hi, m_hi + 1), key=lambda m: (abs(m), m))
        assert np.array_equal(grid.indices, sorted(candidates[:grid.n]))


class TestAngularPartition:
    def test_center_partition(self, cfg128):
        lo, hi = angular_partition(cfg128, "source", 0)
        assert lo == pytest.approx(math.acos(1.0 / 128.0), rel=1e-15)
        assert hi == pytest.approx(math.pi / 2, rel=1e-15)

    def test_lowest_partition_reaches_pi(self, cfg128):
        lo, hi = angular_partition(cfg128, "source", -128)
        assert lo == pytest.approx(math.acos(-127.0 / 128.0), rel=1e-15)
        assert hi == pytest.approx(math.pi, rel=1e-15)

    def test_highest_partition_reaches_zero(self, cfg128):
        lo, hi = angular_partition(cfg128, "source", 127)
        assert lo == 0.0
        assert hi == pytest.approx(math.acos(127.0 / 128.0), rel=1e-15)

    def test_index_outside_grid(self, cfg128):
        with pytest.raises(ValueError):
            angular_partition(cfg128, "source", 128)

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize("q", [1, 2, 7, 128])
    def test_partitions_tile_half_circle(self, q):
        cfg = config(q)
        grid = build_grid(cfg, "receiver")
        total = 0.0
        previous_hi = 0.0
        for n in grid.indices[::-1]:  # descending index = ascending angle
            lo, hi = angular_partition(cfg, "receiver", int(n))
            assert lo == pytest.approx(previous_hi, abs=1e-12)
            total += hi - lo
            previous_hi = hi
        assert total == pytest.approx(math.pi, abs=1e-12)


class TestVarianceProfile:
    def test_isotropic_closed_form(self, cfg128):
        profile = variance_profile(cfg128, ScatteringSpec.isotropic(), "receiver", normalize=False)
        idx = profile.grid.indices
        expected = (
            np.arccos(np.clip(idx / 128.0, -1, 1))
            - np.arccos(np.clip((idx + 1) / 128.0, -1, 1))
        ) / math.pi
        assert np.allclose(profile.variances, expected, atol=1e-13)
        assert profile.variances.sum() == pytest.approx(1.0, abs=1e-10)

    def test_isotropic_center_entry(self, cfg128):
        profile = variance_profile(cfg128, ScatteringSpec.isotropic(), "receiver", normalize=False)
        center = profile.variances[profile.grid.indices == 0][0]
        assert center == pytest.approx((math.pi / 2 - math.acos(1 / 128)) / math.pi, rel=1e-12)
        # first-order arccos expansion puts it near 1/(128 pi)
        assert center == pytest.approx(1.0 / (128 * math.pi), rel=2e-5)

    def test_isotropic_mirror_symmetry(self, cfg128):
        profile = variance_profile(cfg128, ScatteringSpec.isotropic(), "source", normalize=False)
        v = profile.variances
        idx = profile.grid.indices
        for n in (0, 3, 77, 127):
            assert v[idx == n][0] == pytest.approx(v[idx == -n - 1][0], rel=1e-12)

    def test_mixture_prefix_count(self, cfg128, mixture):
        profile = variance_profile(cfg128, mixture, "receiver", normalize=True)
        ordered = np.sort(profile.variances)[::-1]
        count = int(np.searchsorted(np.cumsum(ordered), 1 - 0.003)) + 1
        assert count == 82

    def test_normalization_flag(self, cfg128, mixture):
        raw = variance_profile(cfg128, mixture, "source", normalize=False)
        normed = variance_profile(cfg128, mixture, "source", normalize=True)
        assert not raw.normalized and normed.normalized
        assert normed.variances.sum() == pytest.approx(1.0, abs=1e-12)
        # raw mass falls short of 1 only by the out-of-range vMF leakage
        assert raw.variances.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(raw.variances / raw.variances.sum(), normed.variances, atol=1e-15)

    def test_scaled_deviations(self, cfg128, mixture):
        profile = variance_profile(cfg128, mixture, "source", normalize=False)
        scaled = profile.scaled_deviations(cfg128.L_s)
        assert np.allclose(scaled, math.sqrt(cfg128.L_s) * np.sqrt(profile.variances), atol=0.0)
        assert np.allclose(scaled**2, cfg128.L_s * profile.variances, rtol=1e-12)

    def test_non_negative(self, cfg128, mixture):
        profile = variance_profile(cfg128, mixture, "receiver", normalize=True)
        assert np.all(profile.variances >= 0.0)


def _quad_reference(cfg, spec, side):
    """Unnormalized profile by one adaptive quadrature per partition."""
    means = [c.mean_angle for c in spec.clusters]
    values = []
    for n in build_grid(cfg, side).indices:
        lo, hi = angular_partition(cfg, side, int(n))
        value, _ = integrate.quad(
            lambda t: psf_density(spec, t), lo, hi, epsabs=1e-13, epsrel=1e-12,
            limit=200, points=[m for m in means if lo < m < hi] or None,
        )
        values.append(value)
    return np.array(values)


EDGE_CLUSTERS = ScatteringSpec.mixture(
    (
        Cluster.from_circular_variance(0.5, 0.0, 1e-4),
        Cluster.from_circular_variance(0.5, math.radians(179.0), 1e-4),
    )
)


class TestPartitionQuadrature:
    @pytest.mark.parametrize("ratios", [(8, 8), (16.5, 16.5), (128, 128), (16, 8)])
    @pytest.mark.parametrize("spec_name", ["mixture", "isotropic", "edge"])
    def test_matches_per_partition_quad(self, ratios, spec_name, mixture):
        spec = {
            "mixture": mixture,
            "isotropic": ScatteringSpec.isotropic(),
            "edge": EDGE_CLUSTERS,
        }[spec_name]
        cfg = config(*ratios)
        for side in ("source", "receiver"):
            got = variance_profile(cfg, spec, side, normalize=False).variances
            want = _quad_reference(cfg, spec, side)
            assert np.abs(got - want).max() <= 1e-15

    def test_refinement_runs_where_the_rule_is_not_enough(self, mixture, monkeypatch):
        calls = []
        quad = integrate.quad

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return quad(*args, **kwargs)

        monkeypatch.setattr(wavenumber.integrate, "quad", counting)
        cfg = config(8)
        variance_profile(cfg, mixture, "receiver")
        indices = build_grid(cfg, "receiver").indices
        bounds = [angular_partition(cfg, "receiver", int(n)) for n in indices]
        holding = sum(
            any(lo <= c.mean_angle <= hi for c in mixture.clusters) for lo, hi in bounds
        )
        # the refinement takes the partitions that hold a cluster mean plus
        # those whose error estimate is too large, but not all of them
        assert holding < len(calls) < len(bounds)
        calls.clear()
        variance_profile(config(128), ScatteringSpec.isotropic(), "receiver")
        assert calls == []

    def test_refinement_error_still_raises(self, mixture, monkeypatch):
        def inaccurate(*args, **kwargs):
            return 0.0, 1e-9

        monkeypatch.setattr(wavenumber.integrate, "quad", inaccurate)
        with pytest.raises(RuntimeError, match="partition quadrature error"):
            variance_profile(config(8), mixture, "receiver")
