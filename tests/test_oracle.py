"""`holowdm all` against the benchmark's independent oracle (bench/oracle.py).

The oracle computes every reference from the config alone, with scipy and
numpy and never with holowdm.  Its psf, eigs and dof checks must pass on the
CSVs of three fixed configs, and must reject each of its corrupted copies.
Its capacity check is left out.  At 40 realizations of the program and of
the oracle, its z-test passes the non_isotropic capacity at the top power
scaled by 1.01 on all three configs, and on the third the oracle's own
water-filling raises an overflow RuntimeWarning.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from holowdm.cli import main

pytest.importorskip("scipy")

ORACLE = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"

MODELS = ["iid", "jakes", "isotropic", "non_isotropic"]
DEFAULT_CLUSTERS = [
    {"mean_deg": 30.0, "circ_var": 0.01, "weight": 0.5},
    {"mean_deg": 60.0, "circ_var": 0.005, "weight": 0.5},
]
CONFIGS = {
    "16x8-default-clusters": (16, 8, DEFAULT_CLUSTERS),
    "24x40-clusters-at-the-ends": (24, 40, [
        {"mean_deg": 0.0, "circ_var": 1e-3, "weight": 0.3},
        {"mean_deg": 179.0, "circ_var": 1e-3, "weight": 0.7},
    ]),
    "32x32-one-narrow-cluster": (32, 32, [{"mean_deg": 90.0, "circ_var": 1e-4, "weight": 1.0}]),
}


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("holowdm_bench_oracle", ORACLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(CONFIGS))
def test_psf_eigs_and_dof_pass_the_oracle_and_its_corruptions_fail(oracle, tmp_path, name):
    L_s, L_r, clusters = CONFIGS[name]
    cfg = {
        "L_s_over_lambda": L_s,
        "L_r_over_lambda": L_r,
        "clusters": clusters,
        "models": MODELS,
        "epsilon": 0.003,
        "noise_var_dbw": 0.0,
        "power_grid_dbw": [0.0, 10.0, 20.0, 30.0],
        "realizations": 2,
        "seed": 12345,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    ref = oracle.Reference(cfg, np.random.default_rng(1), 40)
    for experiment in ("psf", "eigs", "dof"):
        text = (tmp_path / "out" / f"{experiment}.csv").read_text()
        assert oracle.CHECKS[experiment](text, ref) == []
        bad = oracle.corruptions(experiment, text, cfg)
        assert bad
        for label, copy in bad:
            assert oracle.CHECKS[experiment](copy, ref), f"{experiment}: {label} passed"
