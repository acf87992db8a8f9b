"""The four CSVs of `holowdm all` against committed golden outputs.

The golden files in tests/data/golden were written by `holowdm all` on the
config below (8-wavelength lines, 8 realizations, powers 0 and 30 dBW).
Text and integer columns must match exactly.  Float columns must match within
1e-12 relative, not bitwise, because another BLAS build may round the
eigen-solves differently.
"""

import csv
import json
from pathlib import Path

import pytest

from holowdm.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CONFIG = {
    "L_s_over_lambda": 8,
    "L_r_over_lambda": 8,
    "realizations": 8,
    "power_grid_dbw": [0, 30],
}
FLOAT_COLUMNS = {
    "theta_rad",
    "psf_density",
    "normalized_eigenvalue",
    "epsilon",
    "p_dbw",
    "capacity_bits_per_s_per_hz",
}
REL_TOL = 1e-12


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = root / "out"
    assert main(["all", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", ["psf", "eigs", "dof", "capacity"])
def test_matches_golden(outputs, name):
    want = _read(GOLDEN / f"{name}.csv")
    got = _read(outputs / f"{name}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    columns = want[0]
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(got_row) == len(columns), f"{name}.csv line {line}"
        for column, g, w in zip(columns, got_row, want_row):
            where = f"{name}.csv line {line}, {column}"
            if column in FLOAT_COLUMNS:
                assert abs(float(g) - float(w)) <= REL_TOL * abs(float(w)), where
            else:
                assert g == w, where
