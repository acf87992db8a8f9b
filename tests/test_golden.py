"""The four CSVs of `holowdm all` against committed golden outputs.

The golden files in tests/data/golden were written by `holowdm all` on the
config below (8-wavelength lines, 8 realizations, powers 0 and 30 dBW).
Text and integer columns must match exactly.  Float columns must match within
1e-12 relative, not bitwise, because another BLAS build may round the
eigen-solves differently.

The files in tests/data/golden/asymmetric were written on ASYMMETRIC (50- and
25-wavelength lines, 30 realizations) and are held to the README's contract
across CPU kernels: psf.csv, dof.csv and the non-Jakes rows of eigs.csv by
bytes, the Jakes rows and capacity.csv within 1e-12 relative.  Its per-side
DoF differ (32 and 17), and the receiver's profile at 25 wavelengths is one
that the quadrature's panel tolerance reaches: at 8 wavelengths, a tolerance
ten times looser moves no bit of eigs.csv.
The files in tests/data/golden/wide were written by `holowdm eigs` and `dof`
on WIDE (1024-wavelength lines, 2048 modes a side) and are held to the same
contract; its 2048 Jakes rows come from the half-size Toeplitz split.  There
is no psf.csv there: the PSF does not depend on the aperture, and the
asymmetric psf.csv already holds its bytes for the default clusters.
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
ASYMMETRIC = {
    "L_s_over_lambda": 50,
    "L_r_over_lambda": 25,
    "realizations": 30,
    "power_grid_dbw": [0, 30],
}
WIDE = {"L_s_over_lambda": 1024, "L_r_over_lambda": 1024}


def _read(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def _run_all(tmp_path_factory, config, commands=("all",)):
    root = tmp_path_factory.mktemp("golden")
    path = root / "config.json"
    path.write_text(json.dumps(config))
    out = root / "out"
    for command in commands:
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _run_all(tmp_path_factory, CONFIG)


@pytest.fixture(scope="module")
def asymmetric_outputs(tmp_path_factory):
    return _run_all(tmp_path_factory, ASYMMETRIC)


@pytest.fixture(scope="module")
def wide_outputs(tmp_path_factory):
    return _run_all(tmp_path_factory, WIDE, ("eigs", "dof"))


def _assert_rows_match(name, got, want, exact=lambda row: False):
    """Rows for which exact(row) holds match by bytes; the others as in the module docstring."""
    assert got[0] == want[0]
    assert len(got) == len(want)
    columns = want[0]
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(got_row) == len(columns), f"{name}.csv line {line}"
        if exact(want_row):
            assert got_row == want_row, f"{name}.csv line {line}"
            continue
        for column, g, w in zip(columns, got_row, want_row):
            where = f"{name}.csv line {line}, {column}"
            if column in FLOAT_COLUMNS:
                assert abs(float(g) - float(w)) <= REL_TOL * abs(float(w)), where
            else:
                assert g == w, where


@pytest.mark.parametrize("name", ["psf", "eigs", "dof", "capacity"])
def test_matches_golden(outputs, name):
    _assert_rows_match(name, _read(outputs / f"{name}.csv"), _read(GOLDEN / f"{name}.csv"))


@pytest.mark.parametrize("outputs_of, name", [
    ("asymmetric", "psf"),
    ("asymmetric", "dof"),
    ("wide", "dof"),
])
def test_matches_golden_bytes(request, outputs_of, name):
    got = (request.getfixturevalue(f"{outputs_of}_outputs") / f"{name}.csv").read_bytes()
    assert got == (GOLDEN / outputs_of / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("outputs_of, name", [
    ("asymmetric", "eigs"),
    ("asymmetric", "capacity"),
    ("wide", "eigs"),
])
def test_matches_golden_rows(request, outputs_of, name):
    # only the eigen-solves of the Jakes rows and the capacity Monte Carlo
    # may round differently on another CPU kernel
    got = _read(request.getfixturevalue(f"{outputs_of}_outputs") / f"{name}.csv")
    want = _read(GOLDEN / outputs_of / f"{name}.csv")
    _assert_rows_match(name, got, want, exact=lambda row: name == "eigs" and row[1] != "jakes")
