"""Experiment pipelines: table shapes, reference values, determinism."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from holowdm import channel, harness
from holowdm.harness import (
    MODEL_NAMES,
    correlation_for,
    default_config,
    run_all,
    run_capacity,
    run_dof,
    run_eigen_spectrum,
    run_psf_profile,
)
from holowdm.scattering import ISOTROPIC_DENSITY
from holowdm.wavenumber import PhysicalConfig, variance_profile


@pytest.fixture(scope="module")
def desk_cfg():
    """Small, fast configuration for pipeline checks."""
    return replace(
        default_config(),
        physical=PhysicalConfig(0.01, 16 * 0.01, 16 * 0.01, 0.0),
        realizations=6,
        power_grid_dbw=(0.0, 15.0, 30.0),
    )


class TestDefaultConfig:
    def test_reference_parameters(self):
        cfg = default_config()
        assert cfg.physical.wavelength == 0.01
        assert cfg.physical.L_s == cfg.physical.L_r == 1.28
        assert cfg.epsilon == 0.003
        assert cfg.realizations == 500
        assert cfg.noise_var_dbw == 0.0
        assert cfg.noise_var_watts() == 1.0
        assert cfg.models == MODEL_NAMES
        angles = sorted(math.degrees(c.mean_angle) for c in cfg.scattering_r.clusters)
        assert angles == pytest.approx([30.0, 60.0], abs=1e-12)
        variances = sorted(c.circ_variance for c in cfg.scattering_r.clusters)
        assert variances == [0.005, 0.01]
        assert all(c.weight == 0.5 for c in cfg.scattering_r.clusters)

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(default_config(), models=("banana",))
        with pytest.raises(ValueError):
            replace(default_config(), epsilon=1.5)
        with pytest.raises(ValueError):
            replace(default_config(), realizations=0)
        with pytest.raises(ValueError):
            replace(default_config(), power_grid_dbw=())

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", 3.9),
            ("seed", True),
            ("realizations", 2.7),
            ("realizations", True),
            ("models", ("iid", "iid")),
            ("models", ("banana",)),
        ],
        ids=["seed-float", "seed-bool", "realizations-float", "realizations-bool",
             "models-repeated", "models-unknown"],
    )
    def test_unrunnable_value_names_its_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            replace(default_config(), **{key: value})


class TestPsfProfile:
    def test_isotropic_rows_constant(self, desk_cfg):
        table = run_psf_profile(desk_cfg)
        assert table.columns == ("theta_rad", "model", "psf_density")
        iso = [r for r in table.rows if r[1] == "isotropic"]
        assert len(iso) == 1024
        assert all(r[2] == ISOTROPIC_DENSITY for r in iso)

    def test_grid_covers_half_open_interval(self, desk_cfg):
        table = run_psf_profile(desk_cfg)
        thetas = sorted({r[0] for r in table.rows})
        assert thetas[0] == 0.0
        assert thetas[-1] < math.pi
        assert all(math.isfinite(r[2]) for r in table.rows)

    def test_sharper_cluster_has_higher_peak(self, desk_cfg):
        rows = [r for r in run_psf_profile(desk_cfg).rows if r[1] == "non_isotropic"]
        thetas = np.array([r[0] for r in rows])
        values = np.array([r[2] for r in rows])
        near_30 = values[np.abs(thetas - math.radians(30)) < 0.1].max()
        near_60 = values[np.abs(thetas - math.radians(60)) < 0.1].max()
        assert near_60 > near_30

    def test_only_scattering_models_emitted(self, desk_cfg):
        models = {r[1] for r in run_psf_profile(desk_cfg).rows}
        assert models == {"isotropic", "non_isotropic"}


class TestEigenSpectrum:
    def test_iid_spectrum_flat(self, desk_cfg):
        table = run_eigen_spectrum(desk_cfg)
        assert table.columns == ("index", "model", "normalized_eigenvalue")
        n = desk_cfg.physical.mode_count("receiver")
        iid = [r for r in table.rows if r[1] == "iid"]
        assert len(iid) == n
        assert all(r[2] == pytest.approx(1.0 / n, rel=1e-12) for r in iid)

    def test_wdm_spectrum_is_sorted_diagonal(self, desk_cfg):
        table = run_eigen_spectrum(desk_cfg)
        iso = np.array([r[2] for r in table.rows if r[1] == "isotropic"])
        R_r = correlation_for(desk_cfg, "isotropic").dense("R_r")
        expected = np.sort(np.diag(R_r))[::-1] / np.trace(R_r)
        assert np.allclose(iso, expected, atol=1e-13)

    def test_diagonal_spectra_are_sorted_diagonals_exactly(self, desk_cfg):
        table = run_eigen_spectrum(desk_cfg)
        for model in ("iid", "isotropic", "non_isotropic"):
            got = np.array([r[2] for r in table.rows if r[1] == model])
            R_r = correlation_for(desk_cfg, model).dense("R_r")
            assert np.array_equal(got, np.sort(np.diag(R_r))[::-1] / np.trace(R_r))

    def test_spectra_normalized_and_sorted(self, desk_cfg):
        table = run_eigen_spectrum(desk_cfg)
        for model in MODEL_NAMES:
            vals = np.array([r[2] for r in table.rows if r[1] == model])
            assert vals.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(np.diff(vals) <= 1e-15)


class TestDofTable:
    def test_schema_and_models(self, desk_cfg):
        table = run_dof(desk_cfg)
        assert table.columns == ("model", "dof", "n_s_prime", "n_r_prime", "epsilon")
        by_model = {r[0]: r for r in table.rows}
        assert set(by_model) == {"isotropic", "non_isotropic"}
        n = desk_cfg.physical.mode_count("source")
        assert by_model["isotropic"][1] == n
        assert by_model["non_isotropic"][1] <= n

    def test_dof_shrinks_with_looser_epsilon(self, desk_cfg):
        counts = []
        for eps in (0.003, 0.1, 0.5):
            table = run_dof(replace(desk_cfg, epsilon=eps))
            counts.append({r[0]: r[1] for r in table.rows}["non_isotropic"])
        assert counts[0] >= counts[1] >= counts[2]


class TestCapacityTable:
    def test_schema_and_monotonicity(self, desk_cfg):
        table = run_capacity(desk_cfg)
        assert table.columns == ("p_dbw", "model", "capacity_bits_per_s_per_hz")
        for model in MODEL_NAMES:
            curve = [r[2] for r in table.rows if r[1] == model]
            assert len(curve) == len(desk_cfg.power_grid_dbw)
            assert all(b > a for a, b in zip(curve, curve[1:]))
            assert all(math.isfinite(v) for v in curve)

    def test_deterministic_rows(self, desk_cfg):
        assert run_capacity(desk_cfg).rows == run_capacity(desk_cfg).rows

    def test_seed_changes_capacity(self, desk_cfg):
        a = run_capacity(desk_cfg).rows
        b = run_capacity(replace(desk_cfg, seed=desk_cfg.seed + 1)).rows
        assert a != b


class TestSharedProfiles:
    def test_each_quadrature_runs_once(self, desk_cfg, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return variance_profile(*args)

        harness._shared_profile.cache_clear()
        monkeypatch.setattr(harness, "variance_profile", counting)
        try:
            run_eigen_spectrum(desk_cfg)
            run_dof(desk_cfg)
            run_capacity(replace(desk_cfg, realizations=1))
            # (isotropic, mixture) x (source, receiver)
            assert len(calls) == 4
            profile = harness._shared_profile(*calls[0])
            assert len(calls) == 4
            with pytest.raises(ValueError):
                profile.variances[0] = 0.0
        finally:
            harness._shared_profile.cache_clear()


class TestLazySquareRoots:
    def test_eigen_spectrum_takes_no_square_root(self, desk_cfg, monkeypatch):
        def refuse(name, R):
            raise AssertionError(f"square root of {name} taken")

        monkeypatch.setattr(channel, "_hermitian_sqrt", refuse)
        assert run_eigen_spectrum(desk_cfg).rows

    def test_benchmark_tracer_still_binds(self, monkeypatch):
        # bench/tracing.py wraps layer functions by name and reads the four
        # correlation attributes; it must keep working on this package
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("holowdm_bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        import holowdm.cli  # noqa: F401  (the tracer wraps its functions too)

        modules = tracing._package_modules()
        saved = [(module, dict(vars(module))) for module in modules]
        try:
            tracer = tracing.Tracer()
            tracer.install()
            cfg = replace(
                default_config(),
                physical=PhysicalConfig(0.01, 8 * 0.01, 8 * 0.01, 0.0),
                realizations=2,
            )
            harness.run_eigen_spectrum(cfg)
            harness.run_capacity(cfg)
            layers = tracer.layers()
        finally:
            for module, namespace in saved:
                vars(module).update(namespace)
        assert layers["channel.build_jakes_correlation.ms"] > 0.0
        assert layers["channel.correlation_bytes"] > 0.0
        assert layers["channel.draw_channel.calls"] == 2 * len(MODEL_NAMES)
        assert harness.run_capacity is run_capacity


class TestRunAll:
    def test_emits_all_tables(self, desk_cfg):
        tables = run_all(desk_cfg)
        assert set(tables) == {"psf", "eigs", "dof", "capacity"}
        assert all(table.rows for table in tables.values())
