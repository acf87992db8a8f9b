"""Config parsing, CSV emission, and command-line behavior."""

import argparse
import copy
import csv
import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import holowdm
from holowdm import blas, cli
from holowdm.cli import emit_csv, main, parse_config
from holowdm.harness import ExperimentConfig, Table
from holowdm.metrics import dbw_to_watts
from holowdm.scattering import Cluster, ScatteringSpec
from holowdm.wavenumber import mode_count


class TestParseConfig:
    def test_empty_document_yields_defaults(self):
        cfg = parse_config("")
        ref = ExperimentConfig()
        assert cfg.L_s_over_lambda == ref.L_s_over_lambda
        assert cfg.L_r_over_lambda == ref.L_r_over_lambda
        assert cfg.models == ref.models
        assert cfg.power_grid_dbw == ref.power_grid_dbw
        assert cfg.realizations == ref.realizations
        assert cfg.seed == ref.seed
        assert cfg.scattering_r == ref.scattering_r

    def test_empty_object_yields_defaults(self):
        assert parse_config("{}") == parse_config("") == ExperimentConfig()

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

    def test_cluster_list_sets_both_sides(self):
        # clusters unlike the default mixture, so a side left at the
        # default would show
        cfg = parse_config(json.dumps({
            "clusters": [{"mean_deg": 90, "circ_var": 0.05, "weight": 1}]
        }))
        want = ScatteringSpec.mixture([Cluster(1.0, math.radians(90), 0.05)])
        assert cfg.scattering_s == want
        assert cfg.scattering_r == want

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
        # inside (0, 1], but the concentration's root lies past 5.8e17
        text = json.dumps({"clusters": [
            {"mean_deg": 30, "circ_var": 0.01, "weight": 0.5},
            {"mean_deg": 60, "circ_var": 1e-19, "weight": 0.5},
        ]})
        with pytest.raises(ValueError, match=r"clusters\[1\]\.circ_var: failed to bracket"):
            parse_config(text)

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_largest_wavelength_keeps_its_mode_count(self):
        # the mode count is 2 L / lambda whatever lambda_m is
        raw = {"lambda_m": 1e308, "L_s_over_lambda": 1, "L_r_over_lambda": 1}
        cfg = parse_config(json.dumps(raw))
        assert mode_count(cfg.L_s_over_lambda) == mode_count(cfg.L_r_over_lambda) == 2

    def test_negative_length_names_key(self):
        with pytest.raises(ValueError, match="L_s_over_lambda"):
            parse_config('{"L_s_over_lambda": -2}')

    @pytest.mark.parametrize("key, value", [
        ("lambda_m", 0), ("lambda_m", -0.01), ("lambda_m", math.inf), ("lambda_m", math.nan),
        ("d_m", -1.0), ("d_m", math.inf), ("d_m", math.nan), ("d_m", True), ("d_m", "abc"),
    ])
    def test_unread_keys_are_still_checked(self, key, value):
        # lambda_m and d_m change no output, but a bad value is refused
        with pytest.raises(ValueError, match=f"^{key} must be"):
            parse_config(json.dumps({key: value}))

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
        raw = {
            "lambda_m": 0.02,
            "d_m": 0.5,
            "L_s_over_lambda": 16,
            "L_r_over_lambda": 32,
            "realizations": 7,
            "seed": 9,
            "noise_var_dbw": 3.0,
            "models": ["iid"],
            "power_grid_dbw": [5, 25],
        }
        cfg = parse_config(json.dumps(raw))
        # the geometry is L / lambda alone: lambda_m and d_m are checked, then unread
        assert (cfg.L_s_over_lambda, cfg.L_r_over_lambda) == (16, 32)
        unread = {key: value for key, value in raw.items() if key not in ("lambda_m", "d_m")}
        assert parse_config(json.dumps(unread)) == cfg
        assert cfg.realizations == 7 and cfg.seed == 9
        assert cfg.models == ("iid",)
        assert cfg.power_grid_dbw == (5.0, 25.0)
        assert dbw_to_watts("noise_var_dbw", cfg.noise_var_dbw) == pytest.approx(10 ** 0.3)


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("boolean cells are not part of any table schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _reference_csv(table: Table, path) -> None:
    """The per-cell emitter that emit_csv replaced: one cell, then one row, at a time."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_format_cell(v) for v in row])


_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
    st.floats(),
)
_INTS = st.one_of(st.sampled_from([-1, -(2**63) - 1, 2**63, 2**64 + 1]), st.integers())
_LABELS = st.one_of(
    st.sampled_from(["", "a,b", 'q"t', "x\ny"]),
    st.text(alphabet=' ,"\n\r\tab', max_size=6),
)


@st.composite
def _tables(draw) -> Table:
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from([_FLOATS, _INTS, _LABELS]), min_size=1, max_size=4))
    data = tuple(draw(st.lists(kind, min_size=n, max_size=n)) for kind in kinds)
    return Table(tuple(f"c{i}" for i in range(len(data))), data)


_HUGE = 10**400  # a valid JSON integer, and past the range of a double
_BASE = {
    "power_grid_dbw": [0, 30],
    "clusters": [
        {"mean_deg": 30, "circ_var": 0.01, "weight": 0.5},
        {"mean_deg": 60, "circ_var": 0.005, "weight": 0.5},
    ],
}


def _path_text(field) -> str:
    return "".join(f"[{part}]" if isinstance(part, int) else f".{part}" for part in field)[1:]


def _replaced(config, field, value) -> dict:
    """A copy of config with value at field, a path of JSON keys and indices."""
    config = copy.deepcopy(config)
    *parents, last = field
    target = config
    for part in parents:
        target = target[part]
    target[last] = value
    return config


# each refused value: Cluster refuses a cluster field and mode_count an
# aperture, and the one-line refusal starts with the path of that field
_REFUSALS = [
    *((("clusters", 0, "mean_deg"), v) for v in (180, 360, -1e-300, math.nan, math.inf)),
    *((("clusters", 0, "circ_var"), v) for v in (0, 1.0000000000000002, math.nan, 1e-19)),
    *((("clusters", 0, "weight"), v) for v in (0, -1, math.inf, math.nan)),
    *((("clusters", 1, key), v) for key, v in (("mean_deg", 180), ("circ_var", 0), ("weight", 0))),
    *(((key,), v) for key in ("L_s_over_lambda", "L_r_over_lambda")
      for v in (-2, 0, math.nan, math.inf, _HUGE)),
    *((field, _HUGE) for field in [("epsilon",), ("power_grid_dbw", 1),
                                   ("clusters", 0, "mean_deg")]),
]


@pytest.mark.parametrize("field, value", _REFUSALS, ids=[
    f"{_path_text(field)}={'10**400' if value is _HUGE else value}" for field, value in _REFUSALS])
def test_refusal_names_its_key_path(tmp_path, capsys, field, value):
    text = json.dumps(_replaced(_BASE, field, value))
    with pytest.raises(ValueError) as err:
        parse_config(text)
    assert str(err.value).startswith((f"{_path_text(field)}:", f"{_path_text(field)} "))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["all", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"holowdm: invalid config: {err.value}\n"
    assert not out.exists()


# the values that replace one field of a valid config: edge doubles, bools,
# strings, null, ints, lists of these, and integers past the range of a double
_EDGE_DOUBLES = st.one_of(
    st.sampled_from([0.0, -5e-324, -1e-300, 1.0, 1.0000000000000002, 1e-19, 180.0]), _FLOATS)
_HUGE_INTS = st.builds(lambda sign, digits: sign * 10**digits,
                       st.sampled_from([1, -1]), st.integers(309, 4000))
_SCALARS = st.one_of(_EDGE_DOUBLES, st.booleans(), _LABELS, st.none(), _INTS, _HUGE_INTS)
_REPLACEMENTS = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))
# every field of a config: each top-level key, each cluster and each
# cluster's key
_FIELDS = [(key,) for key in cli._KEYS] + [
    ("clusters", i, *key) for i in range(2) for key in [(), ("mean_deg",), ("circ_var",),
                                                          ("weight",)]]


@st.composite
def _valid_configs(draw) -> dict:
    weight = draw(st.sampled_from([0.5, 0.25, 0.75]))
    return {
        "lambda_m": draw(st.floats(1e-3, 1.0)),
        "L_s_over_lambda": draw(st.integers(8, 40)),
        "L_r_over_lambda": draw(st.integers(8, 40)),
        "d_m": draw(st.floats(0.0, 10.0)),
        "epsilon": draw(st.floats(1e-6, 0.5)),
        "noise_var_dbw": draw(st.floats(-100.0, 100.0)),
        "power_grid_dbw": draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=3)),
        "realizations": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "models": draw(st.permutations(["iid", "jakes", "isotropic", "non_isotropic"]))[
            :draw(st.integers(1, 4))],
        "clusters": [
            {"mean_deg": draw(st.floats(0.0, 179.0)), "circ_var": draw(st.floats(1e-4, 1.0)),
             "weight": w}
            for w in (weight, 1.0 - weight)
        ],
    }


@pytest.mark.filterwarnings("ignore:aperture shorter")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_valid_configs(), st.sampled_from(_FIELDS), _REPLACEMENTS)
@example(_BASE, ("epsilon",), _HUGE)
@example(_BASE, ("clusters", 0, "mean_deg"), 180)
def test_one_bad_field_is_refused_under_its_path(base, field, value):
    # parse only, so an accepted realizations count is never run
    parse_config(json.dumps(base))
    path = _path_text(field)
    try:
        parse_config(json.dumps(_replaced(base, field, value)))
    except ValueError as exc:
        # the weights' sum is ScatteringSpec's rule, over every cluster
        prefixes = (path, "clusters.weight") if field[-1] == "weight" else (path,)
        assert str(exc).startswith(prefixes), (path, str(exc))


class TestEmitCsv:
    def test_schema_and_formatting(self, tmp_path):
        table = Table(
            ("index", "model", "normalized_eigenvalue"),
            ([0, 1], ["iid", "iid"], [1.0 / 3.0, 0.5]),
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
        table = Table(("p_dbw", "model", "capacity_bits_per_s_per_hz"), ([0.0], ["iid"], [value]))
        path = tmp_path / "capacity.csv"
        emit_csv(table, path)
        cell = path.read_text().splitlines()[1].split(",")[2]
        assert float(cell) == value

    def test_io_error_mentions_path(self, tmp_path):
        table = Table(("a",), ([1],))
        missing_dir = tmp_path / "not" / "there" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(table, missing_dir)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_tables())
    def test_columns_write_the_bytes_of_the_per_cell_emitter(self, tmp_path, table):
        emit_csv(table, tmp_path / "got.csv")
        _reference_csv(table, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize(
        "values",
        [[True, False], [np.float64(0.5)], [1, 2.5], [None], [1, True]],
        ids=["bool", "numpy-float", "int-and-float", "none", "int-and-bool"],
    )
    def test_column_of_another_type_names_the_column(self, tmp_path, values):
        table = Table(("index", "flag"), (list(range(len(values))), values))
        path = tmp_path / "t.csv"
        with pytest.raises(TypeError, match="'flag'"):
            emit_csv(table, path)
        assert not path.exists()

    def test_table_without_rows_writes_its_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(Table(("a", "b"), ([], [])), path)
        assert path.read_bytes() == b"a,b\n"

    def test_rows_are_the_columns_read_across(self, tmp_path):
        table = Table(("x", "model"), (range(2), ["iid", "iid"]))
        assert table.rows == [(0, "iid"), (1, "iid")]
        ragged = Table(("x", "model"), ([0, 1], ["iid"]))
        with pytest.raises(ValueError):
            _ = ragged.rows
        for bad in (ragged, Table(("x",), ([0], ["iid"]))):
            with pytest.raises(ValueError):
                emit_csv(bad, tmp_path / "bad.csv")


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

    def test_subcommands_are_the_stage_rows_then_all(self):
        # each stage is named once, in its _EXPERIMENTS row with its help text
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        rows = [(name, text) for name, _, text in cli._EXPERIMENTS]
        assert list(sub.choices) == [name for name, _ in rows] + ["all"]
        assert [(c.dest, c.help) for c in sub._choices_actions] == rows + [
            ("all", "all experiments")]

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["dof", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    def test_invalid_config_value(self, tmp_path, capsys):
        # an aperture that is not a whole number of wavelengths fails here
        # too, before any CSV is written, and so does a file that is not
        # UTF-8; a key given twice is not taken as its last value, and
        # nesting past the recursion limit is refused as invalid JSON, not
        # with a traceback
        bad = tmp_path / "bad.json"
        out = tmp_path / "out"
        cluster = b'{"mean_deg": 30, "circ_var": 0.01, "mean_deg": 40, "weight": 1}'
        for text, named in (
            (json.dumps({"epsilon": 7}).encode(), "epsilon"),
            *((json.dumps({"L_s_over_lambda": ratio}).encode(), "L_s_over_lambda")
              for ratio in (0.4, 16.5, 8.25, 0.5, 0.25, 1.2 / 0.1, math.nan, 0.0)),
            (b"\xff\xfe{", "utf-8"),
            (b'{"realizations": 500, "realizations": 5}', "key 'realizations' is given twice"),
            (b'{"clusters": [' + cluster + b"]}", "key 'mean_deg' is given twice"),
            (b"[" * 100_000 + b"]" * 100_000, "JSON: maximum recursion depth exceeded"),
            (b'{"realizations": ' + b"1" * 5000 + b"}", "JSON: Exceeds the limit (4300 digits)"),
        ):
            bad.write_bytes(text)
            code = main(["all", "--config", str(bad), "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("holowdm: invalid config: ") and named in err
            assert len(err.splitlines()) == 1
            assert not out.exists()

    @pytest.mark.filterwarnings("ignore:aperture shorter")
    @pytest.mark.parametrize(
        "key, value",
        [("power_grid_dbw", [4000]), ("power_grid_dbw", [-4000]),
         ("noise_var_dbw", 4000), ("noise_var_dbw", -4000),
         ("L_s_over_lambda", 1e308), ("L_r_over_lambda", 1e-323)],
    )
    def test_power_beyond_a_double_names_key(self, tmp_path, capsys, key, value):
        # 10^400 W overflows and 10^-400 W underflows to 0; both are refused
        # up front rather than after psf, eigs and dof were written.  So are
        # a 2 L / lambda past a double and one that carries no mode
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

        experiments = tuple((name, broken if name == "eigs" else runner, text)
                            for name, runner, text in cli._EXPERIMENTS)
        monkeypatch.setattr(cli, "_EXPERIMENTS", experiments)
        code = main(["all", "--config", str(config_file), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'eigs' failed: solver diverged" in err
        # the run stops at the failing experiment
        assert (tmp_path / "psf.csv").is_file() and not (tmp_path / "dof.csv").exists()

    def test_receiver_clusters_reach_the_dof_table(self, tmp_path):
        # one wide cluster at 90 degrees holds 1 - epsilon of its mass in
        # 162 of 256 modes on both sides; the default receiver holds it in 82
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "realizations": 2, "power_grid_dbw": [0],
            "clusters": [{"mean_deg": 90, "circ_var": 0.05, "weight": 1}],
        }))
        out = tmp_path / "out"
        assert main(["dof", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "dof.csv").read_text().splitlines()
        assert rows[2].startswith("non_isotropic,162,162,162,")

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


def _package_env(**extra) -> dict:
    """The environment in which a child interpreter finds the holowdm this
    suite imports, installed or from src/."""
    package_root = str(Path(holowdm.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p
    )}


# Runs `holowdm all` and a mixture ACF in a fresh interpreter, then prints the
# scipy modules they imported.
_IMPORT_PROBE = """
import json, sys
from holowdm.cli import main
from holowdm.harness import ExperimentConfig
from holowdm.scattering import acf_quadrature
code = main(["all", "--config", sys.argv[1], "--out", sys.argv[2]])
acf_quadrature(ExperimentConfig().scattering_s, 628.0, 0.05)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_run_imports_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"L_s_over_lambda": 8, "L_r_over_lambda": 8, "realizations": 4}))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=_package_env(), check=True, timeout=120,
    )
    code, leaked = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "capacity.csv", "dof.csv", "eigs.csv", "psf.csv",
    ]
    assert leaked == []


def test_run_without_scipy_writes_the_same_bytes(tmp_path):
    # a None entry in sys.modules makes every import of scipy fail; the run
    # takes its Bessel functions and its tridiagonal eigenvalues from numpy
    # and the standard library, so its four tables keep their bytes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    runner = "import sys; from holowdm.cli import main; sys.exit(main(sys.argv[1:]))"
    blocked = "import sys; sys.modules['scipy'] = None; " + runner
    outs = []
    for code in (runner, blocked):
        outs.append(tmp_path / f"out{len(outs)}")
        subprocess.run(
            [sys.executable, "-c", code, "all", "--config", str(config), "--out", str(outs[-1])],
            capture_output=True, env=_package_env(), check=True, timeout=120,
        )
    for name in ("capacity.csv", "dof.csv", "eigs.csv", "psf.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("under", [False, True])
def test_out_on_a_file_is_refused_in_one_line(tmp_path, under):
    # an existing file, or a path under one, cannot be the output directory
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if under else afile
    result = subprocess.run(
        [sys.executable, "-m", "holowdm", "psf", "--out", str(out)],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"holowdm: --out {out}: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("value", [0.25, 16.5])
@pytest.mark.parametrize("key", ["L_s_over_lambda", "L_r_over_lambda"])
def test_aperture_without_modes_is_refused_in_one_line(tmp_path, key, value):
    # the refusal is all of stderr: no small-aperture warning comes before it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    result = subprocess.run(
        [sys.executable, "-m", "holowdm", "dof", "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.startswith(f"holowdm: invalid config: {key}: ")
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("config", [
    {"realizations": 2, "clusters": [{"mean_deg": 30, "circ_var": 1e-16, "weight": 1}]},
    {"L_s_over_lambda": 8, "L_r_over_lambda": 8,
     "clusters": [{"mean_deg": 179.9, "circ_var": 1e-12, "weight": 1}]},
], ids=["128-lambda", "8-lambda"])
def test_cluster_too_narrow_for_the_quadrature_is_refused_naming_clusters(tmp_path, config):
    # the partition quadrature cannot reach 1e-10 on either cluster; the
    # run stops with one line that names the config key, not a traceback
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = subprocess.run(
        [sys.executable, "-m", "holowdm", "all", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "failed: clusters: partition quadrature error" in result.stderr


def test_repeated_key_in_a_large_config_is_found_in_one_pass(tmp_path):
    # 100,000 keys, the last a repeat of the one before it: a search that
    # counts every key over all of them runs for minutes
    config = tmp_path / "config.json"
    config.write_text("{" + "".join(f'"k{i}": 0, ' for i in range(99_999)) + '"k99998": 1}')
    result = subprocess.run(
        [sys.executable, "-m", "holowdm", "dof", "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=_package_env(), timeout=20,
    )
    assert result.returncode == 2
    assert result.stderr == (
        "holowdm: invalid config: config is not valid JSON: key 'k99998' is given twice\n"
    )


def test_all_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 20 realizations run on the worker pool wherever two CPUs allow it; the
    # Monte Carlo and the Jakes halves run at one BLAS thread, and no other
    # stage calls a threaded BLAS routine
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"realizations": 20, "power_grid_dbw": [0, 30]}))
    outs = []
    for threads in (None, "1", "2"):
        env = _package_env()
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        outs.append(tmp_path / f"threads{threads}")
        subprocess.run(
            [sys.executable, "-m", "holowdm", "all", "--config", str(config),
             "--out", str(outs[-1])],
            capture_output=True, env=env, check=True, timeout=300,
        )
    for name in ("capacity.csv", "dof.csv", "eigs.csv", "psf.csv"):
        unset, one, two = ((out / name).read_bytes() for out in outs)
        assert unset == one == two, name


def test_wide_jakes_eigs_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the two 1024 x 1024 Jakes halves at 1024 wavelengths round differently
    # when OpenBLAS splits them over two threads; the program solves them at one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"L_s_over_lambda": 1024, "L_r_over_lambda": 1024}))
    written = []
    for threads in ("1", "2"):
        env = _package_env(OPENBLAS_NUM_THREADS=threads)
        for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        out = tmp_path / f"threads{threads}"
        subprocess.run(
            [sys.executable, "-m", "holowdm", "eigs", "--config", str(config),
             "--out", str(out)],
            capture_output=True, env=env, check=True, timeout=300,
        )
        written.append((out / "eigs.csv").read_bytes())
    assert written[0] == written[1]


# Runs `holowdm all`, then prints the kernel numpy's OpenBLAS ran on.
_KERNEL_PROBE = """
import ctypes, sys
from holowdm import blas
from holowdm.cli import main
code = main(["all", "--config", sys.argv[1], "--out", sys.argv[2]])
corename = blas.symbol("scipy_openblas_get_corename64_", (), ctypes.c_char_p)
print(corename().decode() if corename else "")
sys.exit(code)
"""


def _cells(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _assert_within(want: list[list[str]], got: list[list[str]], rtol: float) -> None:
    # the text columns keep their bytes, the last column moves by rtol at most
    assert len(got) == len(want)
    assert got[0] == want[0]
    for w, g in zip(want[1:], got[1:]):
        assert g[:-1] == w[:-1]
        assert float(g[-1]) == pytest.approx(float(w[-1]), rel=rtol, abs=0.0), w


def test_csv_bytes_and_bounds_across_cpu_kernels(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of a DYNAMIC_ARCH OpenBLAS.  psf.csv,
    # dof.csv and the eigs.csv rows of the diagonal models keep their bytes on
    # any kernel; the Jakes eigenvalues and the capacities, which come from
    # LAPACK solves, move by roundoff within 1e-13 and 1e-14 relative
    config_of = blas.symbol("scipy_openblas_get_config64_", (), ctypes.c_char_p)
    if config_of is None or b"DYNAMIC_ARCH" not in config_of().split():
        pytest.skip("numpy's OpenBLAS is not a DYNAMIC_ARCH build")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"realizations": 20, "power_grid_dbw": [0, 30]}))
    kernels, outs = [], []
    for coretype in (None, "Haswell"):
        env = _package_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        outs.append(tmp_path / f"kernel{len(outs)}")
        result = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE, str(config), str(outs[-1])],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        kernels.append(result.stdout.splitlines()[-1])
    if kernels[1] != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell ran the {kernels[1]!r} kernel")
    if kernels[0] == kernels[1]:
        pytest.skip(f"the default kernel is {kernels[0]} too")
    native, haswell = outs
    for name in ("psf.csv", "dof.csv"):
        assert (haswell / name).read_bytes() == (native / name).read_bytes(), name
    want, got = _cells(native / "eigs.csv"), _cells(haswell / "eigs.csv")
    assert [row for row in got if row[1] != "jakes"] == [row for row in want if row[1] != "jakes"]
    _assert_within([row for row in want if row[1] in ("model", "jakes")],
                   [row for row in got if row[1] in ("model", "jakes")], 1e-13)
    _assert_within(_cells(native / "capacity.csv"), _cells(haswell / "capacity.csv"), 1e-14)


# Reads numpy's OpenBLAS thread count and this process's OS threads after
# numpy loads, after holowdm.cli is imported, inside and after a
# blas.one_thread() hold, and after `holowdm <command>`; prints null where the
# thread count cannot be read.
_THREAD_PROBE = """
import ctypes, json, os, sys
import numpy as np
get = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__),
              "scipy_openblas_get_num_threads64_", None)
if get is None:
    print(json.dumps(None))
    sys.exit()
get.restype = ctypes.c_int

def state():
    return [get(), len(os.listdir("/proc/self/task"))]

seen = [state()]
import holowdm.cli
seen.append(state())
with holowdm.blas.one_thread():
    seen.append(state())
seen.append(state())
code = holowdm.cli.main([sys.argv[1], "--config", sys.argv[2], "--out", sys.argv[3]])
seen.append(state())
print(json.dumps([code, seen]))
"""


@pytest.mark.parametrize("command, models", [
    ("all", None),
    ("dof", None),
    ("eigs", ["iid", "isotropic", "non_isotropic"]),
], ids=["all", "dof", "eigs-without-jakes"])
def test_no_idle_blas_thread_after_import_or_run(tmp_path, command, models):
    # OpenBLAS starts a server thread when numpy loads and after each threaded
    # call, and that thread spins before it sleeps; importing holowdm and
    # running it leave none, and keep the caller's thread count.  dof, and
    # eigs without Jakes, enter no one-thread hold, so they check that no
    # stage outside the Jakes halves and the Monte Carlo makes a threaded call.
    # Setting the count starts a server thread, so a one-thread hold joins
    # it both on entry and on exit
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("needs /proc/self/task")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "L_s_over_lambda": 8, "L_r_over_lambda": 8, "realizations": 4,
        "power_grid_dbw": [0, 30], **({"models": models} if models else {}),
    }))
    env = _package_env(OPENBLAS_NUM_THREADS="2")
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    result = subprocess.run(
        [sys.executable, "-c", _THREAD_PROBE, command, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    report = json.loads(result.stdout.splitlines()[-1])
    if report is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be read")
    code, (loaded, imported, held, released, ran) = report
    assert code == 0
    assert imported == [loaded[0], 1]
    assert held == [1, 1]
    assert released == [loaded[0], 1]
    assert ran == [loaded[0], 1]
