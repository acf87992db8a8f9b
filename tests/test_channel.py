"""Correlation builders and channel synthesis."""

import math
import re
import threading
from dataclasses import replace

import numpy as np
import pytest
from conftest import blas_threads
from scipy import linalg, special

from holowdm import channel
from holowdm.channel import (
    CorrelationModel,
    build_iid_correlation,
    build_jakes_correlation,
    build_wdm_correlation,
    draw_channel,
)
from holowdm.metrics import ergodic_capacity
from holowdm.scattering import Cluster, ScatteringSpec
from holowdm.specfun import bessel_j0
from holowdm.wavenumber import PhysicalConfig, variance_profile

REJECTED = "{} must be a non-empty variance vector (real, finite, non-negative) or a real symmetric Toeplitz matrix"


def config(ratio):
    return PhysicalConfig(ratio, ratio)


def assert_same_spectrum(got, want):
    # the Toeplitz split and a dense eigvalsh round differently: each
    # eigenvalue agrees within 1e-13 of the largest, in ascending order
    assert got.shape == want.shape
    assert np.all(np.diff(got) >= 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


def profiles(cfg, spec):
    return (
        variance_profile(cfg, spec, "source"),
        variance_profile(cfg, spec, "receiver"),
    )


@pytest.fixture(scope="module")
def mixture():
    return ScatteringSpec.mixture(
        (
            Cluster(0.5, math.radians(30.0), 0.01),
            Cluster(0.5, math.radians(60.0), 0.005),
        )
    )


@pytest.fixture(scope="module")
def wdm_iso_small():
    cfg = config(8)
    ps, pr = profiles(cfg, ScatteringSpec.isotropic())
    return build_wdm_correlation(ps, pr)


class TestWdmCorrelation:
    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_single_index_grid_normalizes_to_one(self):
        cfg = config(0.6)
        ps, pr = profiles(cfg, ScatteringSpec.isotropic())
        model = build_wdm_correlation(ps, pr)
        R_s = model.dense("R_s")
        assert R_s.shape == (1, 1)
        assert R_s[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_isotropic_trace_normalized(self):
        cfg = config(128)
        ps, pr = profiles(cfg, ScatteringSpec.isotropic())
        model = build_wdm_correlation(ps, pr)
        R_s, R_r = model.dense("R_s"), model.dense("R_r")
        assert np.trace(R_s) == pytest.approx(256.0, rel=1e-12)
        assert np.trace(R_r) == pytest.approx(256.0, rel=1e-12)
        # diagonal proportional to the partition masses
        d = np.diag(R_r)
        assert np.allclose(d / d.sum(), pr.variances, atol=1e-14)
        assert np.count_nonzero(R_r - np.diag(d)) == 0

    def test_mixture_significant_entry_count(self, mixture):
        # the vMF tails die off fast: only the partitions under the two
        # clusters carry non-negligible variance (value frozen from the
        # quadrature profile itself)
        cfg = config(128)
        ps, pr = profiles(cfg, mixture)
        model = build_wdm_correlation(ps, pr)
        for R in (model.dense("R_s"), model.dense("R_r")):
            significant = int(np.sum(np.diag(R) > 1e-6 * np.trace(R)))
            assert significant == 102

    def test_swapped_sides_rejected(self):
        cfg = config(8)
        ps, pr = profiles(cfg, ScatteringSpec.isotropic())
        with pytest.raises(ValueError, match="source, receiver"):
            build_wdm_correlation(pr, ps)

    def test_massless_side_rejected(self):
        ps, pr = profiles(config(8), ScatteringSpec.isotropic())
        with pytest.raises(ValueError, match="non-positive trace"):
            build_wdm_correlation(replace(ps, variances=np.zeros(ps.indices.size)), pr)

    def test_sqrt_is_elementwise(self, wdm_iso_small):
        assert np.allclose(
            np.diag(wdm_iso_small.dense("R_r_sqrt")) ** 2,
            np.diag(wdm_iso_small.dense("R_r")),
            rtol=1e-14,
        )


@pytest.fixture(scope="module")
def jakes_model():
    return build_jakes_correlation(config(128))


class TestJakesCorrelation:
    def test_entries_sample_the_closed_form(self, jakes_model):
        model = jakes_model
        # the diagonal is J0(0) = 1, so the trace is n with no normalization
        assert model.R_r[0, 0] == pytest.approx(1.0, rel=1e-14)
        # the lags are bessel_j0's own bits at k lambda/2 = pi
        assert model.R_r[3, 4] == bessel_j0(math.pi)
        assert model.R_r[3, 4] == pytest.approx(-0.30424217764409384, abs=1e-12)
        assert model.R_r[2, 4] == pytest.approx(0.22027690853993448, abs=1e-12)

    def test_toeplitz_symmetric(self, jakes_model):
        R = jakes_model.R_r
        assert np.array_equal(R, R.T)
        assert np.allclose(R[1:, 1:], R[:-1, :-1], atol=0.0)

    def test_sqrt_contract(self, jakes_model):
        for R, S in ((jakes_model.R_r, jakes_model.R_r_sqrt), (jakes_model.R_s, jakes_model.R_s_sqrt)):
            residual = np.abs(S @ S.conj().T - R).max()
            assert residual <= 1e-9 * np.trace(R).real

    def test_matches_wdm_mode_count(self, jakes_model):
        assert jakes_model.R_r.shape == (256, 256)

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize(
        "ratios", [(8, 8), (16, 8), (8, 16), (16.5, 8.25), (3.3, 5.1), (0.5, 0.5), (0.5, 1.5)]
    )
    def test_sides_equal_the_lag_gather_bitwise(self, ratios):
        cfg = PhysicalConfig(*ratios)
        model = build_jakes_correlation(cfg)
        for name, side in (("R_s", "source"), ("R_r", "receiver")):
            n = cfg.mode_count(side)
            gains = np.array([bessel_j0(math.pi * m) for m in range(n)])
            i = np.arange(n)
            want = gains[np.abs(i[:, None] - i[None, :])]
            R = getattr(model, name)
            assert np.array_equal(R, want)
            # the diagonal is J0(0) = 1, so the trace is n with no normalization
            assert float(np.trace(R)) == n
            # a read-only view whose rows step back one lag and columns one
            # lag forward: it addresses 2 n - 1 values, not an n x n gather
            assert not R.flags.writeable and R.strides == (-R.itemsize, R.itemsize)
        if cfg.mode_count("source") == cfg.mode_count("receiver"):
            assert model.R_s is model.R_r
        else:
            assert not np.shares_memory(model.R_s, model.R_r)


class TestIidCorrelation:
    def test_identity(self):
        model = build_iid_correlation(4, 4)
        assert np.array_equal(model.dense("R_s"), np.eye(4))
        assert np.array_equal(model.dense("R_s_sqrt"), np.eye(4))

    def test_kronecker_trace(self):
        model = build_iid_correlation(3, 5)
        kron = np.kron(model.dense("R_s"), model.dense("R_r"))
        assert np.trace(kron) == pytest.approx(3 * 5, rel=1e-14)


class TestDrawChannel:
    def test_seed_determinism(self, wdm_iso_small):
        a = draw_channel(wdm_iso_small, 12345)
        b = draw_channel(wdm_iso_small, 12345)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, wdm_iso_small):
        a = draw_channel(wdm_iso_small, 1)
        b = draw_channel(wdm_iso_small, 2)
        assert not np.array_equal(a, b)

    def test_iid_entry_variance(self):
        # identity sandwich leaves W untouched; pool 1e5 entries
        model = build_iid_correlation(320, 320)
        entries = draw_channel(model, 77).ravel()[:100_000]
        est = float(np.mean(np.abs(entries) ** 2))
        stderr = 1.0 / math.sqrt(entries.size)  # Var(|h|^2) = 1 for CN(0,1)
        assert abs(est - 1.0) <= 3 * stderr

    def test_wdm_column_covariance(self, wdm_iso_small):
        # column m of H has covariance R_s[m, m] * R_r (Monte Carlo oracle)
        draws = 10_000
        n = wdm_iso_small.R_r.shape[0]
        m = 3
        acc = np.zeros((n, n), dtype=complex)
        for i in range(draws):
            col = draw_channel(wdm_iso_small, 1000 + i)[:, m]
            acc += np.outer(col, col.conj())
        acc /= draws
        expected = wdm_iso_small.dense("R_s")[m, m].real * wdm_iso_small.dense("R_r")
        # per-entry estimator std is bounded by the largest diagonal entry
        assert np.max(np.abs(acc - expected)) <= 5.0 * float(np.diag(expected).max()) / math.sqrt(draws)

    def test_frobenius_energy(self, wdm_iso_small):
        draws = 2000
        n_s = wdm_iso_small.R_s.shape[0]
        n_r = wdm_iso_small.R_r.shape[0]
        total = 0.0
        for i in range(draws):
            total += float(np.sum(np.abs(draw_channel(wdm_iso_small, 5000 + i)) ** 2))
        mean = total / draws
        assert mean == pytest.approx(n_s * n_r, rel=0.05)

    def test_bad_seed(self, wdm_iso_small):
        # int() would draw seed 3 for 3.9, seed 1 for True and seed 7 for "7"
        for seed in (-1, 2**64, 3.9, True, "7", np.float64(7.0)):
            with pytest.raises(ValueError, match="seed"):
                draw_channel(wdm_iso_small, seed)

    @pytest.mark.parametrize("ratios", [(128, 128), (16, 8), (8, 16)])
    def test_diagonal_models_match_dense_product(self, mixture, ratios):
        cfg = PhysicalConfig(*ratios)
        models = [build_iid_correlation(cfg.mode_count("source"), cfg.mode_count("receiver"))]
        for spec in (ScatteringSpec.isotropic(), mixture):
            models.append(build_wdm_correlation(*profiles(cfg, spec)))
        for model in models:
            assert model.diagonal
            n_s, n_r = model.R_s.shape[0], model.R_r.shape[0]
            for seed in (0, 7, 2**63 + 5):
                rng = np.random.default_rng(seed)
                w = rng.standard_normal((n_r, n_s)) + 1j * rng.standard_normal((n_r, n_s))
                w *= math.sqrt(0.5)
                dense = model.dense("R_r_sqrt") @ w @ model.dense("R_s_sqrt")
                assert np.array_equal(draw_channel(model, seed), dense)

    def test_jakes_is_not_diagonal(self, jakes_model):
        assert not jakes_model.diagonal


class TestCorrelationStorage:
    def test_diagonal_sides_are_vectors(self, wdm_iso_small):
        assert wdm_iso_small.R_s.shape == (16,) and wdm_iso_small.R_r.shape == (16,)
        assert build_iid_correlation(3, 5).R_r.shape == (5,)

    def test_dense_accessor(self, wdm_iso_small, jakes_model):
        assert np.array_equal(wdm_iso_small.dense("R_r"), np.diag(wdm_iso_small.R_r))
        assert np.array_equal(wdm_iso_small.dense("R_s_sqrt"), np.diag(wdm_iso_small.R_s_sqrt))
        assert jakes_model.dense("R_r") is jakes_model.R_r
        with pytest.raises(ValueError, match="name must be one of"):
            wdm_iso_small.dense("H")

    def test_angular_form(self, wdm_iso_small, jakes_model):
        assert wdm_iso_small.angular() is wdm_iso_small
        angular = jakes_model.angular()
        assert angular.diagonal
        for side in ("R_s", "R_r"):
            want = np.clip(np.linalg.eigvalsh(getattr(jakes_model, side)), 0.0, None)
            assert_same_spectrum(getattr(angular, side), want)

    def test_angular_form_shares_the_negative_eigenvalue_rule(self):
        # the rule of the square root: below -1e-10 * trace is bad input
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        model = CorrelationModel(np.eye(2), indefinite)
        with pytest.raises(ValueError, match="R_r has a significantly negative eigenvalue"):
            model.angular()
        with pytest.raises(ValueError, match="R_r has a significantly negative eigenvalue"):
            model.R_r_sqrt

    def test_negative_eigenvalue_bound_is_1e_10_of_the_trace(self):
        # the side [[1, 1 + e], [1 + e, 1]] has eigenvalues -e and 2 + e and
        # trace 2, so the bound -1e-10 * 2 lies at e = 2e-10
        def side(f):
            return channel._toeplitz_view(np.array([1.0, 1.0 + 2e-10 * f]))

        R = side(0.999)
        assert CorrelationModel(R, R).angular().R_s[0] == 0.0
        R = side(1.001)
        with pytest.raises(ValueError, match="R_s has a significantly negative eigenvalue"):
            CorrelationModel(R, R).angular()

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_jakes_square_roots_taken_once(self, monkeypatch, threads):
        # HOLOWDM_THREADS is ignored.  The capacity works on the eigenvalues
        # and takes no root; drawing a physical-basis channel takes one root
        # per side array, so the one array of equal sides has one root.
        calls = []
        sqrt = channel._hermitian_sqrt

        def counting(name, R):
            calls.append(name)
            return sqrt(name, R)

        monkeypatch.setattr(channel, "_hermitian_sqrt", counting)
        monkeypatch.setenv("HOLOWDM_THREADS", threads)
        for cfg, roots in (
            (config(8), ["R_s"]),
            (PhysicalConfig(8, 16), ["R_r", "R_s"]),
        ):
            calls.clear()
            model = build_jakes_correlation(cfg)
            assert calls == []
            ergodic_capacity(model, (0.0, 10.0), 1.0, 6, base_seed=3)
            assert calls == []
            draw_channel(model, 1)
            draw_channel(model, 2)
            assert sorted(calls) == roots

    def test_shared_jakes_side_solved_once(self, monkeypatch):
        # one eigvalsh and one root per side array: equal sides are one
        # array, and their spectrum and root are shared as well
        spectra, roots = [], []
        spectrum, sqrt = channel.side_spectrum, channel._hermitian_sqrt

        def counting_spectrum(name, R):
            spectra.append(id(R))
            return spectrum(name, R)

        def counting_sqrt(name, R):
            roots.append(id(R))
            return sqrt(name, R)

        monkeypatch.setattr(channel, "side_spectrum", counting_spectrum)
        monkeypatch.setattr(channel, "_hermitian_sqrt", counting_sqrt)
        model = build_jakes_correlation(config(8))
        angular = model.angular()
        assert spectra == [id(model.R_s)]
        assert angular.R_r is angular.R_s
        assert_same_spectrum(angular.R_s, np.clip(np.linalg.eigvalsh(model.R_s), 0.0, None))
        assert model.R_r_sqrt is model.R_s_sqrt
        assert roots == [id(model.R_s)]
        # unequal sides are two arrays, each solved once
        spectra.clear()
        roots.clear()
        model = build_jakes_correlation(PhysicalConfig(8, 16))
        model.angular()
        assert model.R_r_sqrt is not model.R_s_sqrt
        assert spectra == [id(model.R_s), id(model.R_r)]
        assert sorted(roots) == sorted(spectra)


def jakes_lags(n):
    return special.j0(np.pi * np.arange(n))


def _recording(solve, sizes):
    def recording(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return solve(A, *args, **kwargs)

    return recording


class TestToeplitzSpectrum:
    @pytest.mark.parametrize("n", [1, 2, 3, 33, 256, 257])
    def test_split_matches_dense_eigvalsh(self, monkeypatch, n):
        R = linalg.toeplitz(jakes_lags(n))
        dense = []
        monkeypatch.setattr(np.linalg, "eigvalsh", _recording(np.linalg.eigvalsh, dense))
        got = CorrelationModel(np.ones(1), R).angular().R_r
        # the split solves two halves, never the n x n matrix
        assert sorted(dense) == [n // 2, (n + 1) // 2]
        monkeypatch.undo()
        assert_same_spectrum(got, np.linalg.eigvalsh(R))

    @pytest.mark.parametrize("n", [2, 257])
    def test_halves_solve_at_one_blas_thread_and_are_joined(self, monkeypatch, two_blas_threads, n):
        # the caller runs two BLAS threads; both halves see one, on two
        # threads, and the caller's count is back on return
        seen = []
        solve = np.linalg.eigvalsh

        def recording(A):
            seen.append((threading.get_ident(), blas_threads()))
            return solve(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        alive = threading.active_count()
        got = channel._toeplitz_eigenvalues(jakes_lags(n))
        assert threading.active_count() == alive
        assert blas_threads() == 2
        assert len({tid for tid, _ in seen}) == 2
        assert [threads for _, threads in seen] == [1, 1]
        monkeypatch.undo()
        assert_same_spectrum(got, np.linalg.eigvalsh(linalg.toeplitz(jakes_lags(n))))

    @pytest.mark.parametrize("half", ["T - H", "T + H"])
    def test_an_error_in_either_half_is_raised(self, monkeypatch, half):
        # n = 5 gives a 2 x 2 T - H and a 3 x 3 T + H
        solve = np.linalg.eigvalsh
        failing = 2 if half == "T - H" else 3

        def flaky(A):
            if A.shape[0] == failing:
                raise np.linalg.LinAlgError(half)
            return solve(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", flaky)
        alive = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(half)):
            channel._toeplitz_eigenvalues(jakes_lags(5))
        assert threading.active_count() == alive

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize("ratios", [(16.5, 8.25), (8, 16)])
    def test_non_square_jakes(self, ratios):
        model = build_jakes_correlation(PhysicalConfig(*ratios))
        angular = model.angular()
        for side in ("R_s", "R_r"):
            want = np.linalg.eigvalsh(getattr(model, side))
            assert_same_spectrum(getattr(angular, side), want)


def _symmetric_one_entry_off():
    R = linalg.toeplitz(jakes_lags(6))
    R[4, 2] += 1e-15
    R[2, 4] += 1e-15
    return R


def _hermitian_toeplitz():
    c = jakes_lags(6).astype(complex)
    c[1:] += 0.1j
    return linalg.toeplitz(c)


# case: (the side, whether it is admitted)
ADMISSION = {
    "jakes-view": (channel._toeplitz_view(jakes_lags(6)), True),
    "dense-toeplitz": (linalg.toeplitz(jakes_lags(6)), True),
    "identity": (np.eye(3), True),
    "positive-vector": (np.array([0.5, 1.0, 1.5]), True),
    "empty-vector": (np.ones(0), False),
    "empty-matrix": (np.zeros((0, 0)), False),
    "negative-vector": (np.array([1.0, -0.5]), False),
    "nan-vector": (np.array([np.nan, 1.0]), False),
    "complex-hermitian": (_hermitian_toeplitz(), False),
    "complex-dtype-toeplitz": (linalg.toeplitz(jakes_lags(6)).astype(complex), False),
    "symmetric-not-toeplitz": (_symmetric_one_entry_off(), False),
    "first-row-not-first-column": (linalg.toeplitz([1.0, 0.3, 0.1], [1.0, 0.2, 0.1]), False),
    "upper-triangular-toeplitz": (np.array([[1.0, 0.5], [0.0, 1.0]]), False),
    "non-square-toeplitz": (linalg.toeplitz(jakes_lags(3), jakes_lags(4)), False),
    "3-d": (np.ones((2, 2, 2)), False),
}


class TestSideAdmission:
    """The one rule that admits a side, the same on R_s and on R_r."""

    @pytest.mark.parametrize("side", ["R_s", "R_r"])
    @pytest.mark.parametrize("case", list(ADMISSION))
    def test_table(self, case, side):
        R, admitted = ADMISSION[case]
        sides = {"R_s": np.ones(2), "R_r": np.ones(2), side: R}
        if admitted:
            assert getattr(CorrelationModel(**sides), side) is R
        else:
            with pytest.raises(ValueError, match="^" + re.escape(REJECTED.format(side))):
                CorrelationModel(**sides)

    def test_empty_side_refused_before_any_stage(self):
        # an empty side used to pass and fail later with an IndexError
        with pytest.raises(ValueError, match="^R_s must be a non-empty"):
            build_iid_correlation(0, 4)
        with pytest.raises(ValueError, match="^R_s must be a non-empty"):
            ergodic_capacity(CorrelationModel(np.ones(0), np.ones(3)), (0.0,), 1.0, 2, 1)
