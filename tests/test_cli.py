"""Config parsing, CSV emission, and command-line behavior."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import holowdm
from holowdm import cli
from holowdm.cli import emit_csv, main, parse_config
from holowdm.harness import Table, default_config


class TestParseConfig:
    def test_empty_document_yields_defaults(self):
        cfg = parse_config("")
        ref = default_config()
        assert cfg.physical == ref.physical
        assert cfg.models == ref.models
        assert cfg.power_grid_dbw == ref.power_grid_dbw
        assert cfg.realizations == ref.realizations
        assert cfg.seed == ref.seed
        assert cfg.scattering_r == ref.scattering_r

    def test_empty_object_yields_defaults(self):
        assert parse_config("{}").physical == default_config().physical

    def test_cluster_list(self):
        cfg = parse_config(json.dumps({
            "clusters": [
                {"mean_deg": 30, "circ_var": 0.01, "weight": 0.5},
                {"mean_deg": 60, "circ_var": 0.005, "weight": 0.5},
            ]
        }))
        spec = cfg.scattering_r
        assert len(spec.clusters) == 2
        assert spec.clusters[0].mean_angle == pytest.approx(math.radians(30))
        assert spec.clusters[1].circ_variance == 0.005

    def test_weight_sum_error_names_key(self):
        # 5e-10 off is outside the 1e-12 that ScatteringSpec allows
        for weights in ((0.4, 0.5), (0.5, 0.5 + 5e-10)):
            text = json.dumps({"clusters": [
                {"mean_deg": 30, "circ_var": 0.01, "weight": weights[0]},
                {"mean_deg": 60, "circ_var": 0.005, "weight": weights[1]},
            ]})
            with pytest.raises(ValueError, match="clusters.weight"):
                parse_config(text)

    def test_circ_var_error_names_key(self):
        text = json.dumps({"clusters": [{"mean_deg": 30, "circ_var": 0.0, "weight": 1.0}]})
        with pytest.raises(ValueError, match=r"clusters\[0\].circ_var"):
            parse_config(text)

    def test_negative_length_names_key(self):
        with pytest.raises(ValueError, match="L_s_over_lambda"):
            parse_config('{"L_s_over_lambda": -2}')

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize("key", ["L_s_over_lambda", "L_r_over_lambda"])
    def test_aperture_without_modes_names_key(self, key):
        with pytest.raises(ValueError, match=f"{key}: .* carries no modes"):
            parse_config(json.dumps({key: 0.4}))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="frequency_ghz"):
            parse_config('{"frequency_ghz": 30}')

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="models"):
            parse_config('{"models": ["isotropic", "rician"]}')

    @pytest.mark.parametrize("key", ["realizations", "seed"])
    @pytest.mark.parametrize("value", [2.7, True, "abc"])
    def test_integer_keys_need_json_integers(self, key, value):
        with pytest.raises(ValueError, match=key):
            parse_config(json.dumps({key: value}))

    @pytest.mark.parametrize("key", ["lambda_m", "L_s_over_lambda", "L_r_over_lambda"])
    @pytest.mark.parametrize("value", ["abc", True, None])
    def test_non_numeric_positive_names_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            parse_config(json.dumps({key: value}))

    def test_non_numeric_cluster_field_names_key(self):
        text = json.dumps({"clusters": [{"mean_deg": "north", "circ_var": 0.01, "weight": 1.0}]})
        with pytest.raises(ValueError, match=r"clusters\[0\].mean_deg"):
            parse_config(text)

    def test_invalid_json_reported(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_config("{not json")

    def test_overrides_apply(self):
        cfg = parse_config(json.dumps({
            "lambda_m": 0.02,
            "L_s_over_lambda": 16,
            "L_r_over_lambda": 32,
            "realizations": 7,
            "seed": 9,
            "noise_var_dbw": 3.0,
            "models": ["iid"],
            "power_grid_dbw": [5, 25],
        }))
        assert cfg.physical.wavelength == 0.02
        assert cfg.physical.L_s == pytest.approx(0.32)
        assert cfg.physical.L_r == pytest.approx(0.64)
        assert cfg.realizations == 7 and cfg.seed == 9
        assert cfg.models == ("iid",)
        assert cfg.power_grid_dbw == (5.0, 25.0)
        assert cfg.noise_var_watts() == pytest.approx(10 ** 0.3)


class TestEmitCsv:
    def test_schema_and_formatting(self, tmp_path):
        table = Table(
            columns=("index", "model", "normalized_eigenvalue"),
            rows=[(0, "iid", 1.0 / 3.0), (1, "iid", 0.5)],
        )
        path = tmp_path / "eigs.csv"
        emit_csv(table, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "index,model,normalized_eigenvalue"
        assert lines[1] == "0,iid,0.33333333333333331"
        assert lines[2] == "1,iid,0.5"

    def test_seventeen_digits_round_trip(self, tmp_path):
        value = 0.1 + 0.2
        table = Table(columns=("p_dbw", "model", "capacity_bits_per_s_per_hz"),
                      rows=[(0.0, "iid", value)])
        path = tmp_path / "capacity.csv"
        emit_csv(table, path)
        cell = path.read_text().splitlines()[1].split(",")[2]
        assert float(cell) == value

    def test_io_error_mentions_path(self, tmp_path):
        table = Table(columns=("a",), rows=[(1,)])
        missing_dir = tmp_path / "not" / "there" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(table, missing_dir)


SMALL_CONFIG = {
    "L_s_over_lambda": 8,
    "L_r_over_lambda": 8,
    "realizations": 3,
    "power_grid_dbw": [0, 30],
}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


class TestMain:
    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["dof", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_invalid_config_value(self, tmp_path, capsys):
        # an aperture without modes fails here too, before any CSV is written
        bad = tmp_path / "bad.json"
        out = tmp_path / "out"
        for key, value in (("epsilon", 7), ("L_s_over_lambda", 0.4)):
            bad.write_text(json.dumps({key: value}))
            code = main(["all", "--config", str(bad), "--out", str(out)])
            assert code == 2
            assert key in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("power_grid_dbw", [4000]), ("power_grid_dbw", [-4000]),
         ("noise_var_dbw", 4000), ("noise_var_dbw", -4000)],
    )
    def test_power_beyond_a_double_names_key(self, tmp_path, capsys, key, value):
        # 10^400 W overflows and 10^-400 W underflows to 0; both are refused
        # up front rather than after psf, eigs and dof were written
        text = json.dumps({key: value})
        with pytest.raises(ValueError, match=key):
            parse_config(text)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main(["all", "--config", str(bad), "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_experiment_failure_aborts_with_context(self, tmp_path, config_file, capsys,
                                                    monkeypatch):
        def broken(cfg):
            raise RuntimeError("solver diverged")

        experiments = tuple((name, broken if name == "eigs" else runner)
                            for name, runner in cli._EXPERIMENTS)
        monkeypatch.setattr(cli, "_EXPERIMENTS", experiments)
        code = main(["all", "--config", str(config_file), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'eigs' failed: solver diverged" in err
        # the run stops at the failing experiment
        assert (tmp_path / "psf.csv").is_file() and not (tmp_path / "dof.csv").exists()

    def test_single_experiment(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert main(["dof", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "dof.csv").read_text().splitlines()
        assert lines[0] == "model,dof,n_s_prime,n_r_prime,epsilon"
        assert len(lines) == 3

    def test_all_writes_four_files(self, tmp_path, config_file):
        out = tmp_path / "all"
        assert main(["all", "--config", str(config_file), "--out", str(out)]) == 0
        headers = {
            "psf": "theta_rad,model,psf_density",
            "eigs": "index,model,normalized_eigenvalue",
            "dof": "model,dof,n_s_prime,n_r_prime,epsilon",
            "capacity": "p_dbw,model,capacity_bits_per_s_per_hz",
        }
        for name, header in headers.items():
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert lines[0] == header and len(lines) >= 2

    def test_rerun_is_byte_identical(self, tmp_path, config_file):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["capacity", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["capacity", "--config", str(config_file), "--out", str(out2)]) == 0
        assert (out1 / "capacity.csv").read_bytes() == (out2 / "capacity.csv").read_bytes()

    def test_seed_override_changes_capacity_only(self, tmp_path, config_file):
        reseeded = tmp_path / "reseeded.json"
        reseeded.write_text(json.dumps({**SMALL_CONFIG, "seed": 777}))
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["all", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["all", "--config", str(reseeded), "--out", str(out2)]) == 0
        assert (out1 / "psf.csv").read_bytes() == (out2 / "psf.csv").read_bytes()
        assert (out1 / "dof.csv").read_bytes() == (out2 / "dof.csv").read_bytes()
        assert (out1 / "eigs.csv").read_bytes() == (out2 / "eigs.csv").read_bytes()
        assert (out1 / "capacity.csv").read_bytes() != (out2 / "capacity.csv").read_bytes()


# Runs `holowdm all` in a fresh interpreter, then prints the scipy subpackages
# the run imported that it should not need.
_IMPORT_PROBE = """
import json, sys
from holowdm.cli import main
code = main(["all", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([code, sorted(
    m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.integrate"))
)]))
"""


def test_run_imports_neither_optimize_nor_integrate(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"L_s_over_lambda": 8, "L_r_over_lambda": 8, "realizations": 4}))
    # the interpreter finds the holowdm this suite imports, installed or from src/
    package_root = str(Path(holowdm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    code, leaked = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "capacity.csv", "dof.csv", "eigs.csv", "psf.csv",
    ]
    assert leaked == []
