"""Eigen-analysis, DoF, water-filling, and ergodic-capacity contracts."""

import ast
import math
import multiprocessing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_kkt, blas_threads
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1

from holowdm import blas, channel, metrics
from holowdm.channel import (
    CorrelationModel,
    build_iid_correlation,
    build_jakes_correlation,
    build_wdm_correlation,
    draw_channel,
)
from holowdm.harness import MODEL_NAMES, correlation_for, default_config, run_capacity
from holowdm.metrics import (
    dof,
    ergodic_capacities,
    ergodic_capacity,
    hermitian_eigs,
    realization_seeds,
    waterfill,
    worker_count,
)
from holowdm.scattering import Cluster, ScatteringSpec
from holowdm.wavenumber import PhysicalConfig, variance_profile


def iso_profiles(ratio):
    cfg = PhysicalConfig(ratio, ratio)
    return (
        variance_profile(cfg, ScatteringSpec.isotropic(), "source"),
        variance_profile(cfg, ScatteringSpec.isotropic(), "receiver"),
    )


class TestHermitianEigs:
    def test_diagonal(self):
        w, v = hermitian_eigs(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]], atol=1e-14)

    def test_exchange_matrix(self):
        w, v = hermitian_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0], atol=1e-14)
        assert np.allclose(np.abs(v), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-12)

    def test_random_hermitian_reconstruction(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        a = a + a.conj().T
        w, v = hermitian_eigs(a)
        norm = np.linalg.norm(a)
        assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-9 * norm
        assert np.abs(v.conj().T @ v - np.eye(50)).max() <= 1e-9
        assert np.all(np.diff(w) <= 0.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[np.nan]]),
            np.array([[1.0, np.inf], [np.inf, 1.0]]),
            np.array([[1.0, 0.0], [0.0, complex(np.nan, 0.0)]]),
            np.zeros((0, 0)),
        ],
        ids=["nan", "inf", "complex-nan", "empty"],
    )
    def test_non_finite_or_empty_rejected(self, matrix):
        with pytest.raises(ValueError, match="matrix must be"):
            hermitian_eigs(matrix)


class TestDof:
    def test_isotropic_reference_count(self):
        ps, pr = iso_profiles(128)
        result = dof(ps, pr, 0.003, isotropic=True)
        assert result.dof == 256
        assert result.per_side == (256, 256)

    def test_isotropic_counts_come_from_the_profiles(self):
        cfg = PhysicalConfig(16, 8)
        ps = variance_profile(cfg, ScatteringSpec.isotropic(), "source")
        pr = variance_profile(cfg, ScatteringSpec.isotropic(), "receiver")
        result = dof(ps, pr, 0.003, isotropic=True)
        assert result.per_side == (32, 16)
        assert result.dof == 16

    @pytest.mark.parametrize(
        "ratios, per_side", [((16.5, 8.25), (11, 6)), ((8.25, 16.5), (6, 11))]
    )
    def test_non_isotropic_dof_is_the_smaller_side(self, ratios, per_side):
        # n_s != n_r, each side the larger in turn
        cfg = PhysicalConfig(*ratios)
        mixture = default_config().scattering_s
        ps = variance_profile(cfg, mixture, "source")
        pr = variance_profile(cfg, mixture, "receiver")
        result = dof(ps, pr, 0.003, isotropic=False)
        assert result.per_side == per_side
        assert result.dof == 6

    def test_two_equal_atoms(self):
        ps, pr = iso_profiles(8)
        atoms = np.zeros(ps.indices.size)
        atoms[0] = atoms[1] = 0.5
        ps.variances = atoms.copy()
        pr.variances = atoms.copy()
        result = dof(ps, pr, 0.003, isotropic=False)
        assert result.dof == 2 and result.per_side == (2, 2)

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_scale_free(self, scale):
        # the prefix is a share of each side's own total mass
        cfg = PhysicalConfig(32, 32)
        mixture = default_config().scattering_s
        ps = variance_profile(cfg, mixture, "source")
        pr = variance_profile(cfg, mixture, "receiver")
        scaled = replace(ps, variances=ps.variances * scale)
        for epsilon in (0.003, 0.1, 0.5):
            want = dof(ps, pr, epsilon, isotropic=False)
            assert dof(scaled, pr, epsilon, isotropic=False) == want

    def test_epsilon_domain(self):
        ps, pr = iso_profiles(8)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                dof(ps, pr, bad, isotropic=False)

    def test_monotone_in_epsilon(self):
        ps, pr = iso_profiles(32)
        counts = [
            dof(ps, pr, e, isotropic=False).dof
            for e in (0.003, 0.1, 0.5)
        ]
        assert counts[0] >= counts[1] >= counts[2]


class TestWaterfill:
    def test_single_mode_takes_everything(self):
        allocation = waterfill([5.0], 3.0, 1.0)
        assert allocation == pytest.approx([3.0], abs=1e-14)

    def test_symmetric_split(self):
        allocation = waterfill([1.0, 1.0], 4.0, 1.0)
        assert np.allclose(allocation, [2.0, 2.0], atol=1e-12)

    def test_uneven_gains_exact_levels(self):
        # KKT oracle: both modes active at water level (1 + 1/4 + 1)/2 = 9/8
        allocation = waterfill([4.0, 1.0], 1.0, 1.0)
        assert np.allclose(allocation, [0.875, 0.125], atol=1e-12)
        assert_kkt([4.0, 1.0], allocation, 1.0, 1.0)

    def test_weak_mode_shut_off(self):
        allocation = waterfill([10.0, 0.01], 0.1, 1.0)
        assert allocation[1] == 0.0
        assert allocation[0] == pytest.approx(0.1, rel=1e-12)

    def test_zero_gain_gets_zero(self):
        allocation = waterfill([2.0, 0.0, 1.0], 5.0, 1.0)
        assert allocation[1] == 0.0
        assert_kkt([2.0, 0.0, 1.0], allocation, 5.0, 1.0)

    def test_unsorted_input_allowed(self):
        gains = np.array([1.0, 4.0, 0.5, 2.0])
        allocation = waterfill(gains, 3.0, 0.7)
        assert_kkt(gains, allocation, 3.0, 0.7)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        gains = rng.uniform(0.01, 10.0, size=12)
        base = np.sort(waterfill(gains, 6.0, 1.3))
        for _ in range(5):
            perm = rng.permutation(gains.size)
            shuffled = np.sort(waterfill(gains[perm], 6.0, 1.3))
            assert np.allclose(base, shuffled, atol=1e-12)

    def test_vanishing_power_degeneracy(self):
        # power below the rounding scale of noise_var/gain still allocates
        allocation = waterfill([1.0, 1.0], 1e-300, 1.0)
        assert allocation.sum() == pytest.approx(1e-300, rel=1e-12)
        assert np.all(allocation >= 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            waterfill([0.0, 0.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            waterfill([1.0], 0.0, 1.0)
        with pytest.raises(ValueError):
            waterfill([1.0], 1.0, 0.0)
        with pytest.raises(ValueError):
            waterfill([-1.0], 1.0, 1.0)

    @settings(max_examples=150)
    @given(
        gains=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-4, max_value=1e4)),
            min_size=1, max_size=64,
        ).filter(lambda g: any(v > 0 for v in g)),
        total_power=st.floats(min_value=1e-3, max_value=1e3),
        noise_var=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_kkt_property(self, gains, total_power, noise_var):
        allocation = waterfill(gains, total_power, noise_var)
        assert_kkt(gains, allocation, total_power, noise_var)


class TestWdmDiagonalShortcut:
    def test_eigenvalues_equal_sorted_diagonal(self):
        cfg = PhysicalConfig(32, 32)
        ps = variance_profile(cfg, ScatteringSpec.isotropic(), "source")
        pr = variance_profile(cfg, ScatteringSpec.isotropic(), "receiver")
        model = build_wdm_correlation(ps, pr)
        R_r = model.dense("R_r")
        w, _ = hermitian_eigs(R_r)
        assert np.allclose(w, np.sort(np.diag(R_r))[::-1], atol=1e-12)


class TestCapacity:
    def test_identity_channel_two_modes(self, monkeypatch):
        # every draw is H = I: equal gains split the power evenly, so
        # 2 log2(1 + 1) = 2 bits.  The source side is not a constant vector,
        # so the gains come from the drawn W; its third mode has no variance
        # and is dropped, which leaves the 2 x 2 identity.
        monkeypatch.setattr(
            metrics, "draw_w", lambda n_r, n_s, seed: np.eye(n_r, n_s, dtype=complex)
        )
        model = CorrelationModel(np.array([1.0, 1.0, 0.0]), np.ones(2))
        result = ergodic_capacity(model, (10.0 * math.log10(2.0),), 1.0, 3, 0)
        assert result.capacity_bits[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_channel_has_zero_capacity(self):
        # a side with no non-negligible variance leaves no mode to fill
        sides = [
            (np.zeros(3), np.zeros(3)),
            (np.ones(3), np.zeros(3)),
            (np.zeros(3), np.ones(3)),
            (np.zeros((3, 3)), np.eye(3)),
        ]
        for R_s, R_r in sides:
            result = ergodic_capacity(CorrelationModel(R_s, R_r), (0.0, 30.0), 1.0, 4, 5)
            assert np.array_equal(result.capacity_bits, [0.0, 0.0])

    def test_scalar_iid_against_direct_monte_carlo(self):
        # E log2(1 + P |h|^2) with |h|^2 ~ Exp(1) is e^(1/P) E1(1/P) / ln 2.
        # Both the capacity and a direct scalar Monte Carlo over physical
        # draws (other seeds) lie within 4 standard errors of it and of each
        # other.
        grid = (0.0, 10.0, 30.0)
        realizations = 4000
        result = ergodic_capacity(build_iid_correlation(1, 1), grid, 1.0, realizations, 99)
        p = 10.0 ** (np.array(grid) / 10.0)
        closed_form = np.exp(1.0 / p) * exp1(1.0 / p) / math.log(2.0)
        h2 = np.array([
            abs(draw_channel(build_iid_correlation(1, 1), int(s))[0, 0]) ** 2
            for s in realization_seeds(100, realizations)
        ])
        direct = np.log2(1.0 + np.outer(h2, p))
        direct_mean = direct.mean(axis=0)
        direct_se = direct.std(axis=0, ddof=1) / math.sqrt(realizations)
        assert np.all(np.abs(result.capacity_bits - closed_form) <= 4.0 * result.stderr_bits)
        assert np.all(np.abs(direct_mean - closed_form) <= 4.0 * direct_se)
        combined = np.hypot(result.stderr_bits, direct_se)
        assert np.all(np.abs(result.capacity_bits - direct_mean) <= 4.0 * combined)

    def test_vanishing_power_limit(self):
        model = build_iid_correlation(4, 4)
        result = ergodic_capacity(model, (-40.0, -30.0, -20.0), 1.0, 40, base_seed=3)
        c = result.capacity_bits
        assert c[0] < c[1] < c[2]
        assert c[0] < 1e-2

    def test_monotone_and_concave_in_watts(self):
        model = build_iid_correlation(8, 8)
        watts = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        grid = tuple(10.0 * math.log10(w) for w in watts)
        result = ergodic_capacity(model, grid, 1.0, 60, base_seed=21)
        c = result.capacity_bits
        assert np.all(np.diff(c) > 0.0)
        slopes = np.diff(c) / np.diff(watts)
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_realization_seeds_deterministic(self):
        a = realization_seeds(123, 10)
        b = realization_seeds(123, 10)
        assert np.array_equal(a, b)
        assert realization_seeds(124, 10)[0] != a[0]

    @pytest.mark.parametrize(
        "base_seed, count", [(3.9, 2), (1, True), (1, 2.5), (1, 0), (-1, 2)]
    )
    def test_realization_seeds_refuses_what_it_would_truncate(self, base_seed, count):
        with pytest.raises(ValueError):
            realization_seeds(base_seed, count)

    @pytest.mark.parametrize("noise_var", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "model",
        [CorrelationModel(np.zeros(3), np.zeros(3)), build_iid_correlation(3, 3)],
        ids=["all-gains-zero", "iid"],
    )
    def test_bad_noise_var_refused_before_any_plan(self, monkeypatch, model, noise_var):
        def refuse(spectrum):
            raise AssertionError("planned a model")

        monkeypatch.setattr(metrics, "_plan", refuse)
        with pytest.raises(ValueError, match="noise_var must be positive"):
            ergodic_capacity(model, (0.0,), noise_var, 2, 1)

    def test_validation(self):
        model = build_iid_correlation(2, 2)
        with pytest.raises(ValueError):
            ergodic_capacity(model, (), 1.0, 10, base_seed=0)
        with pytest.raises(ValueError):
            ergodic_capacity(model, (0.0,), 1.0, 0, base_seed=0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("base_seed", 3.9),
            ("base_seed", True),
            ("base_seed", -1),
            ("base_seed", 2**64),
            ("realizations", 2.7),
            ("realizations", True),
        ],
    )
    def test_bad_argument_names_itself(self, key, value):
        args = {"realizations": 2, "base_seed": 3, key: value}
        with pytest.raises(ValueError, match=key):
            ergodic_capacity(build_iid_correlation(2, 2), (0.0,), 1.0, **args)

    @pytest.mark.parametrize("power_dbw", [4000.0, -4000.0, math.nan])
    def test_power_outside_the_double_range_names_the_key(self, power_dbw):
        # 10 ** 400 overflows, 10 ** -400 is 0 and NaN is no power at all
        with pytest.raises(ValueError, match="power_grid_dbw"):
            ergodic_capacity(build_iid_correlation(2, 2), (power_dbw,), 1.0, 2, 1)

    def test_largest_seed_accepted(self):
        grid = (0.0,)
        model = build_iid_correlation(2, 2)
        top = ergodic_capacity(model, grid, 1.0, 2, np.uint64(2**64 - 1))
        assert np.isfinite(top.capacity_bits).all()

    def test_standard_error_of_the_mean(self):
        # one receive mode, two unequal source modes: the only gain is
        # |h_1|^2 + |h_2|^2, so each realization's capacity is log2(1 + P g)
        model = CorrelationModel(np.array([1.0, 0.5]), np.ones(1))
        grid = (0.0, 20.0)
        result = ergodic_capacity(model, grid, 1.0, 50, base_seed=8)
        g = np.array([
            np.sum(np.abs(draw_channel(model, int(s))) ** 2) for s in realization_seeds(8, 50)
        ])
        caps = np.log2(1.0 + np.outer(g, 10.0 ** (np.array(grid) / 10.0)))
        assert np.allclose(result.capacity_bits, caps.mean(axis=0), rtol=1e-12, atol=0.0)
        want = caps.std(axis=0, ddof=1) / math.sqrt(50)
        assert np.allclose(result.stderr_bits, want, rtol=1e-12, atol=0.0)

    def test_single_realization_has_nan_error_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ergodic_capacity(build_iid_correlation(3, 3), (0.0, 10.0), 1.0, 1, 4)
        assert np.isnan(result.stderr_bits).all() and result.stderr_bits.shape == (2,)
        assert np.all(result.capacity_bits > 0.0)


def _water_filled(gains, grid, noise_var):
    row = []
    for p_dbw in grid:
        p = 10.0 ** (p_dbw / 10.0)
        allocation = waterfill(gains, p, noise_var)
        row.append(float(np.sum(np.log2(1.0 + allocation * gains / noise_var))))
    return row


def _reference_capacity(model, grid, noise_var, realizations, base_seed):
    """Capacity by the plain recipe: dense H, eigh of H H^H, one water-fill per power."""
    n_s, n_r = model.R_s.shape[0], model.R_r.shape[0]
    rows = []
    for seed in realization_seeds(base_seed, realizations):
        rng = np.random.default_rng(int(seed))
        w = rng.standard_normal((n_r, n_s)) + 1j * rng.standard_normal((n_r, n_s))
        w *= math.sqrt(0.5)
        H = model.dense("R_r_sqrt") @ w @ model.dense("R_s_sqrt")
        gains = np.linalg.eigh(H @ H.conj().T)[0][::-1][: min(n_s, n_r)]
        rows.append(_water_filled(np.clip(gains, 0.0, None), grid, noise_var))
    return np.mean(rows, axis=0)


def _reference_bidiagonal_capacity(n_s, n_r, grid, noise_var, realizations, base_seed):
    """The plain recipe on the Dumitriu-Edelman model of an i.i.d. W: a dense
    lower-bidiagonal B of chi variates over sqrt(2), and eigh of B B^T."""
    small, large = sorted((n_s, n_r))
    rows = []
    for seed in realization_seeds(base_seed, realizations):
        rng = np.random.default_rng(int(seed))
        diag = np.sqrt(rng.standard_gamma(np.arange(large, large - small, -1)))
        sub = np.sqrt(rng.standard_gamma(np.arange(small - 1, 0, -1)))
        B = np.diag(diag) + np.diag(sub, -1)
        gains = np.linalg.eigh(B @ B.T)[0][::-1]
        rows.append(_water_filled(np.clip(gains, 0.0, None), grid, noise_var))
    return np.mean(rows, axis=0)


def _spectrum_model(model):
    """The diagonal model of the clipped eigenvalues of each side."""
    sides = [np.clip(np.linalg.eigvalsh(R), 0.0, None) for R in (model.R_s, model.R_r)]
    return CorrelationModel(*sides)


@pytest.mark.parametrize("ratios", [(128, 128), (16, 8), (8, 16)])
def test_ergodic_capacity_matches_plain_reference(ratios):
    # WDM runs the recipe on its own variances, Jakes on its eigenvalues,
    # and iid on the bidiagonal model: each within 1e-12 relative
    physical = PhysicalConfig(*ratios)
    cfg = default_config()
    grid = (-10.0, 10.0, 30.0)
    realizations = 3 if ratios == (128, 128) else 12
    for name in MODEL_NAMES:
        model = correlation_for(replace(cfg, physical=physical), name)
        got = ergodic_capacity(model, grid, 1.0, realizations, base_seed=31).capacity_bits
        if name == "iid":
            n_s, n_r = model.R_s.size, model.R_r.size
            want = _reference_bidiagonal_capacity(n_s, n_r, grid, 1.0, realizations, 31)
        elif name == "jakes":
            want = _reference_capacity(_spectrum_model(model), grid, 1.0, realizations, 31)
        else:
            want = _reference_capacity(model, grid, 1.0, realizations, base_seed=31)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), name


def _dense_monte_carlo(model, grid, realizations, base_seed):
    """Mean and standard error of the capacity of physical-basis draws,
    with gains from a dense eigvalsh of H H^H."""
    rows = []
    for seed in realization_seeds(base_seed, realizations):
        H = draw_channel(model, int(seed))
        gains = np.clip(np.linalg.eigvalsh(H @ H.conj().T), 0.0, None)
        rows.append(_water_filled(gains, grid, 1.0))
    rows = np.array(rows)
    return rows.mean(axis=0), rows.std(axis=0, ddof=1) / math.sqrt(realizations)


@pytest.mark.parametrize(
    "power, noise_var",
    [(1e-20, 1.0), (1.0, 1.0), (1e300, 1.0), (1.0, 1e-300), (1e-200, 1e100), (1e300, 1e-300)],
)
def test_single_mode_capacity_at_any_snr(power, noise_var):
    # one mode takes all the power: log2(1 + P g / noise_var) per
    # realization, finite and within 1e-13 relative from SNR 1e-300 to 1e600
    p_dbw = 10.0 * math.log10(power)
    got = ergodic_capacity(build_iid_correlation(1, 1), (p_dbw,), noise_var, 5, 8)
    p = 10.0 ** (p_dbw / 10.0)
    want = []
    for seed in realization_seeds(8, 5):
        g = float(metrics._wishart_gains(1, 1, int(seed))[0])
        log_snr = math.log(p) + math.log(g) - math.log(noise_var)
        want.append(math.log1p(math.exp(log_snr)) if log_snr < 700 else log_snr)
    assert got.capacity_bits[0] == pytest.approx(np.mean(want) / math.log(2.0), rel=1e-13, abs=0.0)


class TestAngularDomainCapacity:
    @pytest.mark.parametrize("n_r, n_s", [(3, 5), (5, 3), (8, 8)])
    def test_bidiagonal_gains_against_dense_wishart(self, n_r, n_s):
        grid = (0.0, 10.0, 30.0)
        got = ergodic_capacity(build_iid_correlation(n_s, n_r), grid, 1.0, 2000, base_seed=61)
        mean, se = _dense_monte_carlo(build_iid_correlation(n_s, n_r), grid, 2000, 62)
        combined = np.hypot(got.stderr_bits, se)
        assert np.all(np.abs(got.capacity_bits - mean) <= 4.0 * combined)

    @pytest.mark.parametrize("n_r, n_s", [(1, 1), (3, 5), (256, 256), (300, 256)])
    def test_gains_without_dsterf_take_the_dense_eigvalsh(self, monkeypatch, n_r, n_s):
        # where numpy's BLAS has no dsterf, the tridiagonal goes to a dense eigvalsh
        symbol = blas.symbol

        def without_dsterf(name, argtypes, restype):
            return None if name == "scipy_dsterf_64_" else symbol(name, argtypes, restype)

        for seed in (3, 4):
            with_sterf = metrics._wishart_gains(n_r, n_s, seed)
            with monkeypatch.context() as patch:
                patch.setattr(blas, "symbol", without_dsterf)
                dense = metrics._wishart_gains(n_r, n_s, seed)
            assert dense.shape == (min(n_r, n_s),)
            np.testing.assert_allclose(dense, with_sterf, rtol=1e-13, atol=0.0)

    def test_scaled_identity_sides_scale_the_gains(self):
        # a R_r = a I and R_s = b I channel has a b times the i.i.d. gains
        grid = (0.0, 10.0)
        base = ergodic_capacity(build_iid_correlation(3, 4), grid, 1.0, 20, 5)
        scaled = ergodic_capacity(
            CorrelationModel(np.full(3, 0.5), np.full(4, 4.0)), grid, 2.0, 20, 5
        )
        assert np.allclose(base.capacity_bits, scaled.capacity_bits, rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_jakes_is_the_model_of_its_eigenvalues(self):
        jakes = build_jakes_correlation(PhysicalConfig(8, 4))
        grid = (0.0, 10.0, 30.0)
        got = ergodic_capacity(jakes, grid, 1.0, 20, base_seed=17).capacity_bits
        want = ergodic_capacity(_spectrum_model(jakes), grid, 1.0, 20, base_seed=17).capacity_bits
        # the Jakes spectrum comes from the Toeplitz split, the model here
        # from a dense eigvalsh: the two round differently
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_jakes_against_physical_basis_monte_carlo(self):
        jakes = build_jakes_correlation(PhysicalConfig(4, 8))
        assert (jakes.R_s.shape[0], jakes.R_r.shape[0]) == (8, 16)
        grid = (0.0, 10.0, 30.0)
        got = ergodic_capacity(jakes, grid, 1.0, 2000, base_seed=71)
        mean, se = _dense_monte_carlo(jakes, grid, 2000, 72)
        combined = np.hypot(got.stderr_bits, se)
        assert np.all(np.abs(got.capacity_bits - mean) <= 4.0 * combined)

    def test_capacity_takes_no_square_root(self, monkeypatch):
        def refuse(name, R):
            raise AssertionError(f"square root of {name} taken")

        monkeypatch.setattr(channel, "_hermitian_sqrt", refuse)
        jakes = build_jakes_correlation(PhysicalConfig(8, 8))
        result = ergodic_capacity(jakes, (0.0, 30.0), 1.0, 4, base_seed=2)
        assert np.all(result.capacity_bits > 0.0)

    def test_capacity_caches_no_root_on_a_diagonal_model(self):
        # a diagonal model is its own angular form, so a root cached there
        # would land on the caller's model; the capacity roots the kept modes
        for model in (build_wdm_correlation(*iso_profiles(8)), build_iid_correlation(4, 3)):
            ergodic_capacity(model, (0.0, 30.0), 1.0, 4, base_seed=2)
            assert not {"R_r_sqrt", "R_s_sqrt"} & set(vars(model))


def _single_power_waterfill(gains, total_power, noise_var):
    """Water-filling at one power by a scan of its own sorted breakpoints:
    the reference for the power-grid pass, checks left out."""
    gains = np.clip(np.asarray(gains, dtype=float), 0.0, None)
    order = np.argsort(-gains, kind="stable")
    positive = order[gains[order] > 0.0]
    breakpoints = noise_var / gains[positive]
    mu_candidates = (total_power + np.cumsum(breakpoints)) / np.arange(1, positive.size + 1)
    feasible = np.nonzero(mu_candidates > breakpoints)[0]
    active = int(feasible[-1]) + 1 if feasible.size else 1
    allocation = np.zeros_like(gains)
    allocation[positive[:active]] = float(mu_candidates[active - 1]) - breakpoints[:active]
    allocation[positive[:active]] += (total_power - float(allocation.sum())) / active
    np.maximum(allocation, 0.0, out=allocation)
    allocation[positive[0]] += total_power - float(allocation.sum())
    return allocation


def _log_sum(allocation, gains, noise_var):
    on = allocation > 0.0
    log_snr = np.log2(allocation[on]) + np.log2(gains[on]) - math.log2(noise_var)
    return np.sum(np.logaddexp2(0.0, log_snr))


def _per_model_loop(model, grid, noise_var, realizations, base_seed):
    """Mean and standard error of one model's capacity, one realization at a
    time: draw_channel for each seed, then one water-filling per power."""
    spectrum = model.angular()
    a = metrics._common_variance(spectrum.R_r)
    b = metrics._common_variance(spectrum.R_s)
    rows = metrics._significant_modes(spectrum.R_r)
    cols = metrics._significant_modes(spectrum.R_s)
    n_s, n_r = spectrum.R_s.size, spectrum.R_r.size
    capacity = np.zeros((realizations, len(grid)))
    for i, seed in enumerate(realization_seeds(base_seed, realizations)):
        if a is not None and b is not None:
            gains = (a * b) * metrics._wishart_gains(n_r, n_s, int(seed))
        else:
            # at the library's one BLAS thread: eigvalsh rounds differently
            # over two
            with blas.one_thread():
                H = draw_channel(spectrum, int(seed))[rows][:, cols]
                gains = metrics._mode_gains(H)
        if gains.max(initial=0.0) <= 0.0:
            continue
        for j, p_dbw in enumerate(grid):
            allocation = _single_power_waterfill(gains, 10.0 ** (p_dbw / 10.0), noise_var)
            capacity[i, j] = _log_sum(allocation, gains, noise_var)
    stderr = capacity.std(axis=0, ddof=1) / math.sqrt(realizations)
    return capacity.mean(axis=0), stderr


def _two_narrow_clusters():
    return ScatteringSpec.mixture((
        Cluster(0.5, math.radians(20.0), 1e-4),
        Cluster(0.5, math.radians(150.0), 1e-4),
    ))


class TestOnePassCapacity:
    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize("ratios", [(128, 128), (16.5, 8.25), (8, 16)])
    def test_all_models_in_one_pass_equal_each_alone_bitwise(self, ratios):
        cfg = replace(
            default_config(),
            physical=PhysicalConfig(*ratios),
        )
        models = [correlation_for(cfg, name) for name in MODEL_NAMES]
        # two narrow clusters far apart leave a gap of negligible modes
        gap = correlation_for(
            replace(cfg, scattering_s=_two_narrow_clusters(), scattering_r=_two_narrow_clusters()),
            "non_isotropic",
        )
        kept = metrics._significant_modes(gap.R_r)
        assert np.any(np.diff(kept) > 1)
        models.append(gap)
        grid = (-30.0, 0.0, 30.0, 60.0)
        realizations = 2 if ratios == (128, 128) else 6
        together = ergodic_capacities(models, grid, 1.0, realizations, 41)
        assert len(together) == len(models)
        for model, result in zip(models, together):
            alone = ergodic_capacity(model, grid, 1.0, realizations, 41)
            mean, stderr = _per_model_loop(model, grid, 1.0, realizations, 41)
            for got in (result, alone):
                assert np.array_equal(got.capacity_bits, mean)
                assert np.array_equal(got.stderr_bits, stderr)

    def test_one_w_per_seed(self, monkeypatch):
        seeds = []
        draw_w = channel.draw_w

        def counting(n_r, n_s, seed):
            seeds.append(seed)
            return draw_w(n_r, n_s, seed)

        monkeypatch.setattr(metrics, "draw_w", counting)
        # forked workers would count in their own memory
        monkeypatch.setattr(metrics, "worker_count", lambda: 1)
        cfg = replace(
            default_config(), physical=PhysicalConfig(8, 8),
            realizations=5,
        )
        run_capacity(cfg)
        # jakes, isotropic and non_isotropic share each draw; iid needs none
        assert seeds == [int(s) for s in realization_seeds(cfg.seed, 5)]

    @settings(max_examples=300, deadline=None)
    @given(
        gains=st.lists(
            st.one_of(
                st.just(0.0),
                st.sampled_from([0.25, 1.0, 3.0]),
                st.floats(min_value=1e-4, max_value=1e4),
            ),
            min_size=1, max_size=40,
        ).filter(lambda g: any(v > 0 for v in g)),
        powers=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=8),
        noise_var=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_power_grid_equals_single_powers_bitwise(self, gains, powers, noise_var):
        gains = np.array(gains)
        # a power below the rounding scale of the first breakpoint
        powers = [*powers, noise_var / gains.max() * 2.0**-60]
        grid = metrics._waterfill_grid(gains, powers, noise_var)
        bits = metrics._capacity_bits(gains, np.array(powers), noise_var)
        for j, p in enumerate(powers):
            want = _single_power_waterfill(gains, p, noise_var)
            assert np.array_equal(grid[j], want)
            assert np.array_equal(waterfill(gains, p, noise_var), want)
            assert bits[j] == _log_sum(want, gains, noise_var)

    @pytest.mark.parametrize(
        "gains, noise_var",
        [([3.0, 1.0, 1.0, 1.0, 0.0], 1.5 * 2.0**1022), ([1.0, 0.5, 1e-320], 1.0)],
        ids=["noise-near-the-top", "subnormal-gain"],
    )
    def test_overflowing_breakpoints_scale_exactly(self, gains, noise_var):
        # the breakpoint sum overflows; the allocation is that of the
        # problem with noise and power divided by 2**60, scaled back, and it
        # still sums to the power
        gains = np.array(gains)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(noise_var / gains[gains > 0.0]))
        for p in (noise_var * 0.5, noise_var * 1.5):
            allocation = waterfill(gains, p, noise_var)
            scaled = waterfill(gains, math.ldexp(p, -60), math.ldexp(noise_var, -60))
            assert np.array_equal(allocation, np.ldexp(scaled, 60))
            assert allocation.sum() == pytest.approx(p, rel=1e-15)
            bits = metrics._capacity_bits(gains, np.array([p]), noise_var)
            assert np.isfinite(bits).all() and bits[0] > 0.0


def _pool_models():
    cfg = replace(default_config(), physical=PhysicalConfig(8, 6))
    return [correlation_for(cfg, name) for name in MODEL_NAMES] + [
        # all gains zero: a constant side of zeros, and a dense side whose
        # other side keeps no mode
        CorrelationModel(np.zeros(3), np.ones(3)),
        CorrelationModel(np.array([1.0, 2.0, 0.0]), np.zeros(3)),
    ]


def _force_pool(monkeypatch, workers):
    """Report `workers` usable CPUs; returns the worker counts of the pool calls."""
    calls = []
    pooled = metrics._pooled_capacity

    def counting(*args):
        calls.append(args[-1])
        return pooled(*args)

    monkeypatch.setattr(metrics, "worker_count", lambda: workers)
    monkeypatch.setattr(metrics, "_pooled_capacity", counting)
    return calls


class TestWorkerPool:
    def test_worker_count_follows_cpu_affinity(self, monkeypatch):
        if blas.thread_calls() is None:
            pytest.skip("numpy's OpenBLAS thread control is not available")
        for cpus in ({0}, {0, 1, 2}, set(range(7))):
            monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert worker_count() == len(cpus)
            # HOLOWDM_THREADS is not read
            for value in ("1", "4", "soup"):
                monkeypatch.setenv("HOLOWDM_THREADS", value)
                assert worker_count() == len(cpus)

    def test_worker_count_is_one_without_the_blas_pin_or_affinity(self, monkeypatch):
        monkeypatch.setattr(metrics.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        with monkeypatch.context() as patch:
            patch.setattr(blas, "thread_calls", lambda: None)
            assert worker_count() == 1
        with monkeypatch.context() as patch:
            patch.delattr(metrics.os, "sched_getaffinity")
            assert worker_count() == 1

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize("workers", [2, 3])
    def test_forced_pool_equals_in_process_bitwise(self, monkeypatch, workers):
        # 2 realizations give fewer seeds than workers and 7 uneven blocks;
        # one realization is one block, which runs in-process
        models = _pool_models()
        grid = (-10.0, 0.0, 30.0)
        for realizations in (1, 2, 7):
            with monkeypatch.context() as patch:
                patch.setattr(metrics, "worker_count", lambda: 1)
                alone = ergodic_capacities(models, grid, 1.0, realizations, 17)
            with monkeypatch.context() as patch:
                calls = _force_pool(patch, workers)
                pooled = ergodic_capacities(models, grid, 1.0, realizations, 17)
            assert calls == ([min(workers, realizations)] if realizations > 1 else [])
            assert multiprocessing.active_children() == []
            for got, want in zip(pooled, alone, strict=True):
                assert got.capacity_bits.tobytes() == want.capacity_bits.tobytes()
                assert got.stderr_bits.tobytes() == want.stderr_bits.tobytes()
            assert np.all(alone[-1].capacity_bits == 0.0)
            assert np.all(alone[-2].capacity_bits == 0.0)
            assert np.all(alone[0].capacity_bits > 0.0)

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_blas_thread_held_and_restored(self, monkeypatch, two_blas_threads, workers):
        models = _pool_models()[:3]
        seen = []
        mode_gains = metrics._mode_gains

        def recording(H):
            seen.append(blas_threads())
            return mode_gains(H)

        monkeypatch.setattr(metrics, "_mode_gains", recording)
        calls = _force_pool(monkeypatch, workers)
        ergodic_capacities(models, (0.0,), 1.0, 4, 3)
        assert blas_threads() == 2
        assert calls == ([2] if workers == 2 else [])
        if workers == 1:
            assert set(seen) == {1}

        # a worker reports its thread count through the error it raises
        def failing(H):
            raise RuntimeError(f"blas threads {blas_threads()}")

        monkeypatch.setattr(metrics, "_mode_gains", failing)
        with pytest.raises(RuntimeError, match="blas threads 1"):
            ergodic_capacities(models, (0.0,), 1.0, 4, 3)
        assert blas_threads() == 2
        assert multiprocessing.active_children() == []


def test_only_blas_imports_ctypes():
    # how holowdm calls numpy's OpenBLAS is decided in holowdm.blas alone
    importers = set()
    for path in Path(blas.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "ctypes" for m in modules):
                importers.add(path.name)
    assert importers == {"blas.py"}


def test_no_module_reads_another_modules_private_names():
    # a name with a leading underscore belongs to the holowdm module that
    # defines it: none imports one from another, or reads one as module._x
    package = Path(blas.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reads = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname for a in node.names if a.name.startswith("holowdm.")}
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("holowdm")):
                if node.module in (None, "holowdm"):
                    bound |= {a.asname or a.name for a in node.names if a.name in modules}
                else:
                    reads += [f"{path.name}: {node.module}.{a.name}"
                              for a in node.names if private(a.name)]
        reads += [
            f"{path.name}: {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound and private(node.attr)
        ]
    assert not reads, f"private names read across modules: {reads}"
