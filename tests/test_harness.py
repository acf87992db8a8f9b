"""Experiment pipelines: table shapes, reference values, determinism."""

import dataclasses
import importlib.util
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from holowdm import channel, cli, harness
from holowdm.harness import (
    MODEL_NAMES,
    ExperimentConfig,
    correlation_for,
    run_capacity,
    run_dof,
    run_eigen_spectrum,
    run_psf_profile,
)
from holowdm.metrics import dbw_to_watts
from holowdm.scattering import ISOTROPIC_DENSITY, Cluster, ScatteringSpec, psf_density
from holowdm.wavenumber import mode_count, variance_profile


@pytest.fixture(scope="module")
def desk_cfg():
    """Small, fast configuration for pipeline checks."""
    return ExperimentConfig(
        L_s_over_lambda=16,
        L_r_over_lambda=16,
        realizations=6,
        power_grid_dbw=(0.0, 15.0, 30.0),
    )


class TestDefaultConfig:
    def test_reference_parameters(self):
        cfg = ExperimentConfig()
        assert (cfg.L_s_over_lambda, cfg.L_r_over_lambda) == (128.0, 128.0)
        assert cfg.epsilon == 0.003
        assert cfg.realizations == 500
        assert cfg.noise_var_dbw == 0.0
        assert dbw_to_watts("noise_var_dbw", cfg.noise_var_dbw) == 1.0
        assert cfg.models == MODEL_NAMES
        angles = sorted(math.degrees(c.mean_angle) for c in cfg.scattering_r.clusters)
        assert angles == pytest.approx([30.0, 60.0], abs=1e-12)
        variances = sorted(c.circ_variance for c in cfg.scattering_r.clusters)
        assert variances == [0.005, 0.01]
        assert all(c.weight == 0.5 for c in cfg.scattering_r.clusters)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(models=("banana",))
        with pytest.raises(ValueError):
            ExperimentConfig(epsilon=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(realizations=0)
        with pytest.raises(ValueError):
            ExperimentConfig(power_grid_dbw=())

    def test_side_without_modes_refused_up_front(self):
        # by the config itself, naming its field; not later, from inside a
        # profile, where it would read as a clusters error
        with pytest.raises(ValueError, match="^L_s_over_lambda: an aperture shorter than half"):
            ExperimentConfig(L_s_over_lambda=0.4)

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
            ExperimentConfig(**{key: value})


class TestApertures:
    """The two line lengths in wavelengths, checked by ExperimentConfig."""

    def test_validation(self):
        with pytest.raises(ValueError, match="L_s_over_lambda"):
            ExperimentConfig(L_s_over_lambda=0.0)
        with pytest.raises(ValueError, match="L_r_over_lambda"):
            ExperimentConfig(L_r_over_lambda=-1.0)
        with pytest.raises(ValueError, match="L_r_over_lambda"):
            ExperimentConfig(L_r_over_lambda=math.inf)

    def test_apertures_are_two_ratios(self):
        # the geometry is dimensionless: a wavelength, a separation or a
        # wavenumber given to the config fails loudly
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert names[:2] == ["L_s_over_lambda", "L_r_over_lambda"]
        for key in ("wavelength", "L_s", "L_r", "d", "k"):
            with pytest.raises(TypeError):
                ExperimentConfig(**{key: 1.28})

    def test_small_aperture_warns(self):
        with pytest.warns(UserWarning, match="8 wavelengths"):
            ExperimentConfig(L_s_over_lambda=4, L_r_over_lambda=4)
        with pytest.warns(UserWarning, match="8 wavelengths"):
            ExperimentConfig(L_r_over_lambda=7)

    def test_small_aperture_warning_starts_below_8(self):
        # "below 8 wavelengths": 8 is quiet, and 7, the whole ratio under
        # it, warns once
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExperimentConfig(L_s_over_lambda=8, L_r_over_lambda=8)
        with pytest.warns(UserWarning, match="8 wavelengths") as record:
            ExperimentConfig(L_s_over_lambda=7, L_r_over_lambda=8)
        assert len(record) == 1

    @pytest.mark.parametrize("build, where", [
        (lambda: ExperimentConfig(L_s_over_lambda=4, L_r_over_lambda=4), __file__),
        (lambda: replace(ExperimentConfig(), L_s_over_lambda=4), __file__),
        (lambda: cli.parse_config('{"L_s_over_lambda": 4}'), cli.__file__),
    ], ids=["direct", "replace", "parse_config"])
    def test_small_aperture_warning_points_at_the_caller(self, build, where):
        # one warning however many sides are short, naming neither the
        # __init__ the dataclass generates, whose file is "<string>", nor
        # the line of dataclasses that replace builds in
        with pytest.warns(UserWarning, match="8 wavelengths") as record:
            build()
        assert [w.filename for w in record] == [where]

    def test_side_without_modes_is_refused_naming_its_field(self):
        for ratio in (1e308, 10**400):
            with pytest.raises(ValueError, match="^L_s_over_lambda: .*no finite mode count"):
                ExperimentConfig(L_s_over_lambda=ratio, L_r_over_lambda=ratio)
        with pytest.raises(ValueError, match="^L_r_over_lambda: .*carries no modes"):
            ExperimentConfig(L_s_over_lambda=16, L_r_over_lambda=0.25)

    @pytest.mark.parametrize("ratio", [16.5, 8.25, 0.5, 0.25, 1.2 / 0.1, math.nan, 0.0])
    @pytest.mark.parametrize("field", ["L_s_over_lambda", "L_r_over_lambda"])
    def test_refused_side_is_refused_before_the_warning(self, field, ratio):
        # the refusal is the one message: no small-aperture warning, which
        # the other, short side would raise, precedes it
        other = "L_r_over_lambda" if field == "L_s_over_lambda" else "L_s_over_lambda"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{field}: "):
                ExperimentConfig(**{field: ratio, other: 4})


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

    def test_rows_are_the_receivers_density(self, desk_cfg):
        receiver = ScatteringSpec.mixture([Cluster(1.0, math.radians(90.0), 0.05)])
        rows = [r for r in run_psf_profile(replace(desk_cfg, scattering_r=receiver)).rows
                if r[1] == "non_isotropic"]
        thetas = np.array([r[0] for r in rows])
        assert [r[2] for r in rows] == psf_density(receiver, thetas).tolist()

    def test_only_scattering_models_emitted(self, desk_cfg):
        models = {r[1] for r in run_psf_profile(desk_cfg).rows}
        assert models == {"isotropic", "non_isotropic"}


class TestEigenSpectrum:
    def test_iid_spectrum_flat(self, desk_cfg):
        table = run_eigen_spectrum(desk_cfg)
        assert table.columns == ("index", "model", "normalized_eigenvalue")
        n = mode_count(desk_cfg.L_r_over_lambda)
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

    def test_jakes_spectrum_is_its_angular_form(self, desk_cfg):
        # the eigs stage and CorrelationModel.angular() share one solve
        table = run_eigen_spectrum(desk_cfg)
        got = np.array([r[2] for r in table.rows if r[1] == "jakes"])
        R_r = correlation_for(desk_cfg, "jakes").angular().R_r
        assert np.array_equal(got, R_r[::-1] / R_r.size)

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
        n = mode_count(desk_cfg.L_s_over_lambda)
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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"power_grid_dbw": (-3080.0, 0.0, 1000.0, 3080.0)},
            {"power_grid_dbw": (-30.0, 0.0, 30.0), "noise_var_dbw": -3080.0},
            {"power_grid_dbw": (-30.0, 0.0, 30.0, 3080.0), "noise_var_dbw": 3080.0},
        ],
        ids=["power-plus-minus-3080-dbw", "noise-minus-3080-dbw", "noise-plus-3080-dbw"],
    )
    def test_extreme_powers_stay_finite(self, desk_cfg, overrides):
        # powers and noise levels near the ends of the double range: the
        # capacity is finite and still grows with power
        table = run_capacity(replace(desk_cfg, **overrides))
        for model in MODEL_NAMES:
            curve = [r[2] for r in table.rows if r[1] == model]
            assert all(math.isfinite(v) for v in curve)
            assert all(b > a for a, b in zip(curve, curve[1:]))

    def test_deterministic_rows(self, desk_cfg):
        assert run_capacity(desk_cfg).rows == run_capacity(desk_cfg).rows

    def test_seed_changes_capacity(self, desk_cfg):
        a = run_capacity(desk_cfg).rows
        b = run_capacity(replace(desk_cfg, seed=desk_cfg.seed + 1)).rows
        assert a != b


class TestSharedProfiles:
    @pytest.fixture
    def quadratures(self, monkeypatch):
        """The arguments of every variance_profile call the harness makes."""
        calls = []

        def counting(*args):
            calls.append(args)
            return variance_profile(*args)

        harness._shared_profile.cache_clear()
        monkeypatch.setattr(harness, "variance_profile", counting)
        yield calls
        harness._shared_profile.cache_clear()

    @staticmethod
    def run_all(cfg):
        run_eigen_spectrum(cfg)
        run_dof(cfg)
        run_capacity(replace(cfg, realizations=1))

    def test_each_quadrature_runs_once(self, desk_cfg, quadratures):
        self.run_all(desk_cfg)
        # isotropic and mixture; the two sides of a symmetric config share
        # one profile
        assert len(quadratures) == 2
        profile = harness._shared_profile(*quadratures[0])
        assert len(quadratures) == 2
        with pytest.raises(ValueError):
            profile.variances[0] = 0.0
        for model in ("isotropic", "non_isotropic"):
            profile_s, profile_r = harness._profiles(desk_cfg, model)
            assert profile_s is profile_r

    def test_asymmetric_sides_run_one_quadrature_each(self, desk_cfg, quadratures):
        # (isotropic, mixture) x (16, 8 wavelengths)
        self.run_all(replace(desk_cfg, L_r_over_lambda=8))
        assert len(quadratures) == 4
        # one isotropic profile serves both sides; the mixtures differ
        harness._shared_profile.cache_clear()
        quadratures.clear()
        narrow = ScatteringSpec.mixture((Cluster(1.0, math.radians(45.0), 0.001),))
        self.run_all(replace(desk_cfg, scattering_r=narrow))
        assert len(quadratures) == 3


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
        from holowdm import metrics

        draws = []
        draw_w = metrics.draw_w
        monkeypatch.setattr(
            metrics, "draw_w", lambda n_r, n_s, seed: draws.append(seed) or draw_w(n_r, n_s, seed)
        )
        # forked workers would count in their own memory
        monkeypatch.setattr(metrics, "worker_count", lambda: 1)
        modules = tracing._package_modules()
        saved = [(module, dict(vars(module))) for module in modules]
        try:
            tracer = tracing.Tracer()
            tracer.install()
            cfg = ExperimentConfig(L_s_over_lambda=8, L_r_over_lambda=8, realizations=2)
            harness.run_eigen_spectrum(cfg)
            harness.run_capacity(cfg)
            layers = tracer.layers()
        finally:
            for module, namespace in saved:
                vars(module).update(namespace)
        assert layers["channel.build_jakes_correlation.ms"] > 0.0
        assert layers["channel.correlation_bytes"] > 0.0
        # the Monte Carlo draws one W per seed through draw_w for all three
        # dense-path models (iid takes its gains from the bidiagonal model),
        # and draw_channel, which the tracer counts, is not called
        assert len(draws) == cfg.realizations
        assert layers["channel.draw_channel.calls"] == 0
        assert harness.run_capacity is run_capacity


def one_cluster(ratio, mean_deg, circ_var):
    """The non-isotropic model alone, with one cluster on both sides of an L/lambda line."""
    spec = ScatteringSpec.mixture([Cluster(1.0, math.radians(mean_deg), circ_var)])
    return ExperimentConfig(
        L_s_over_lambda=ratio,
        L_r_over_lambda=ratio,
        models=("non_isotropic",),
        scattering_s=spec,
        scattering_r=spec,
        realizations=2,
    )


class TestClustersNearTheEdges:
    @pytest.mark.parametrize("mean_deg", [0.0, 179.9])
    @pytest.mark.parametrize("circ_var", [1e-9, 1e-5, 1e-3])
    @pytest.mark.parametrize("ratio", [8, 16, 128, 333])
    def test_runs_or_refuses_naming_clusters(self, ratio, circ_var, mean_deg):
        cfg = one_cluster(ratio, mean_deg, circ_var)
        try:
            spectrum = np.array(run_eigen_spectrum(cfg).data[2])
            dofs = run_dof(cfg).data[1]
        except ValueError as exc:
            assert str(exc).startswith("clusters: ")
            return
        assert np.all(np.isfinite(spectrum)) and np.all(np.diff(spectrum) <= 0.0)
        assert spectrum.sum() == pytest.approx(1.0, rel=1e-12)
        assert dofs[0] <= mode_count(cfg.L_r_over_lambda)
