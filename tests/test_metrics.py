"""Eigen-analysis, DoF, water-filling, and ergodic-capacity contracts."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_kkt
from hypothesis import given, settings
from hypothesis import strategies as st

from holowdm import metrics
from holowdm.channel import (
    CorrelationModel,
    build_iid_correlation,
    build_wdm_correlation,
    draw_channel,
)
from holowdm.harness import MODEL_NAMES, correlation_for, default_config
from holowdm.metrics import (
    dof,
    ergodic_capacity,
    hermitian_eigs,
    realization_seeds,
    waterfill,
    worker_count,
)
from holowdm.scattering import ScatteringSpec
from holowdm.wavenumber import PhysicalConfig, variance_profile

LAMBDA = 0.01


def iso_profiles(ratio):
    cfg = PhysicalConfig(LAMBDA, ratio * LAMBDA, ratio * LAMBDA, 0.0)
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


class TestDof:
    def test_isotropic_reference_count(self):
        ps, pr = iso_profiles(128)
        result = dof(ps, pr, 0.003, isotropic=True, n_s=256, n_r=256)
        assert result.dof == 256
        assert result.per_side == (256, 256)

    def test_two_equal_atoms(self):
        ps, pr = iso_profiles(8)
        atoms = np.zeros(ps.grid.n)
        atoms[0] = atoms[1] = 0.5
        ps.variances = atoms.copy()
        pr.variances = atoms.copy()
        result = dof(ps, pr, 0.003, isotropic=False, n_s=ps.grid.n, n_r=pr.grid.n)
        assert result.dof == 2 and result.per_side == (2, 2)

    def test_unnormalized_rejected(self):
        ps, pr = iso_profiles(8)
        raw = variance_profile(
            PhysicalConfig(LAMBDA, 8 * LAMBDA, 8 * LAMBDA, 0.0),
            ScatteringSpec.isotropic(), "source", normalize=False,
        )
        raw.variances = raw.variances * 2.0
        raw.normalized = False
        with pytest.raises(ValueError, match="normalized"):
            dof(raw, pr, 0.003, isotropic=False, n_s=16, n_r=16)

    def test_epsilon_domain(self):
        ps, pr = iso_profiles(8)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                dof(ps, pr, bad, isotropic=False, n_s=16, n_r=16)

    def test_monotone_in_epsilon(self):
        ps, pr = iso_profiles(32)
        counts = [
            dof(ps, pr, e, isotropic=False, n_s=64, n_r=64).dof
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
        cfg = PhysicalConfig(LAMBDA, 32 * LAMBDA, 32 * LAMBDA, 0.0)
        ps = variance_profile(cfg, ScatteringSpec.isotropic(), "source")
        pr = variance_profile(cfg, ScatteringSpec.isotropic(), "receiver")
        model = build_wdm_correlation(ps, pr, cfg.L_s, cfg.L_r)
        R_r = model.dense("R_r")
        w, _ = hermitian_eigs(R_r)
        assert np.allclose(w, np.sort(np.diag(R_r))[::-1], atol=1e-12)


class TestCapacity:
    def test_identity_channel_two_modes(self, monkeypatch):
        # every draw is H = I: equal gains split the power evenly, so
        # 2 log2(1 + 1) = 2 bits
        monkeypatch.setattr(metrics, "draw_channel", lambda model, seed: np.eye(2, dtype=complex))
        result = ergodic_capacity(build_iid_correlation(2, 2), (10.0 * math.log10(2.0),), 1.0, 3, 0)
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
            result = ergodic_capacity(CorrelationModel("x", R_s, R_r), (0.0, 30.0), 1.0, 4, 5)
            assert np.array_equal(result.capacity_bits, [0.0, 0.0])

    def test_scalar_iid_against_direct_monte_carlo(self):
        model = build_iid_correlation(1, 1)
        grid = (0.0, 10.0)
        result = ergodic_capacity(model, grid, 1.0, realizations=200, base_seed=99)
        # direct scalar oracle over the same channel draws: all power rides
        # the single mode, so C = log2(1 + P |h|^2)
        for ip, p_dbw in enumerate(grid):
            p = 10.0 ** (p_dbw / 10.0)
            caps = [
                math.log2(1.0 + p * abs(draw_channel(model, int(s))[0, 0]) ** 2)
                for s in realization_seeds(99, 200)
            ]
            assert result.capacity_bits[ip] == pytest.approx(float(np.mean(caps)), rel=1e-12)

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

    def test_worker_count_defaults_to_one(self, monkeypatch):
        # HOLOWDM_THREADS is not read: realizations always run serially
        monkeypatch.delenv("HOLOWDM_THREADS", raising=False)
        assert worker_count() == 1
        for value in ("0", "4", "soup"):
            monkeypatch.setenv("HOLOWDM_THREADS", value)
            assert worker_count() == 1

    def test_realization_seeds_deterministic(self):
        a = realization_seeds(123, 10)
        b = realization_seeds(123, 10)
        assert np.array_equal(a, b)
        assert realization_seeds(124, 10)[0] != a[0]

    def test_validation(self):
        model = build_iid_correlation(2, 2)
        with pytest.raises(ValueError):
            ergodic_capacity(model, (), 1.0, 10, base_seed=0)
        with pytest.raises(ValueError):
            ergodic_capacity(model, (0.0,), 1.0, 0, base_seed=0)


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
        gains = np.clip(gains, 0.0, None)
        row = []
        for p_dbw in grid:
            p = 10.0 ** (p_dbw / 10.0)
            allocation = waterfill(gains, p, noise_var)
            row.append(float(np.sum(np.log2(1.0 + allocation * gains / noise_var))))
        rows.append(row)
    return np.mean(rows, axis=0)


@pytest.mark.parametrize("ratios", [(128, 128), (16, 8), (8, 16)])
def test_ergodic_capacity_matches_plain_reference(ratios):
    physical = PhysicalConfig(LAMBDA, ratios[0] * LAMBDA, ratios[1] * LAMBDA, 0.0)
    cfg = default_config()
    grid = (-10.0, 10.0, 30.0)
    realizations = 3 if ratios == (128, 128) else 12
    for name in MODEL_NAMES:
        model = correlation_for(replace(cfg, physical=physical), name)
        got = ergodic_capacity(model, grid, 1.0, realizations, base_seed=31).capacity_bits
        want = _reference_capacity(model, grid, 1.0, realizations, base_seed=31)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), name
