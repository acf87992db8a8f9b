"""Acceptance gate: each numbered criterion at its stated tolerance.

Every test prints one PASS line on success; a pytest failure is the FAIL line.
Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines).
"""

import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import assert_kkt
from oracles import i0_reference, i1_reference, j0_reference

from holowdm.channel import (
    build_jakes_correlation,
    build_wdm_correlation,
    draw_channel,
)
from holowdm.harness import default_config, run_capacity
from holowdm.metrics import dof, hermitian_eigs, waterfill
from holowdm.scattering import ScatteringSpec, acf_quadrature
from holowdm.specfun import (
    bessel_i0_scaled,
    bessel_j0,
    bessel_ratio_i1_i0,
    solve_concentration,
)
from holowdm.wavenumber import PhysicalConfig, variance_profile

REFERENCE = default_config()
PHYS = REFERENCE.physical  # 128-wavelength lines
LAMBDA = 0.01  # the ACF of criterion 3 at a 1 cm wavelength
K = 2.0 * math.pi / LAMBDA


def _prefix_index(variances, epsilon=0.003):
    ordered = np.sort(variances)[::-1]
    cum = np.cumsum(ordered)
    return int(np.searchsorted(cum, (1.0 - epsilon) * cum[-1])) + 1


@pytest.fixture(scope="module")
def mixture_profiles():
    return (
        variance_profile(PHYS, REFERENCE.scattering_s, "source"),
        variance_profile(PHYS, REFERENCE.scattering_r, "receiver"),
    )


def test_criterion_1_isotropic_dof():
    start = time.perf_counter()
    profile_s = variance_profile(PHYS, ScatteringSpec.isotropic(), "source")
    profile_r = variance_profile(PHYS, ScatteringSpec.isotropic(), "receiver")
    result = dof(profile_s, profile_r, REFERENCE.epsilon, isotropic=True)
    elapsed = time.perf_counter() - start
    assert result.dof == 256
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (isotropic DoF = 256 in {elapsed:.2f}s): PASS")


def test_criterion_2_non_isotropic_dof():
    start = time.perf_counter()
    profile_s = variance_profile(PHYS, REFERENCE.scattering_s, "source")
    profile_r = variance_profile(PHYS, REFERENCE.scattering_r, "receiver")
    result = dof(profile_s, profile_r, 0.003, isotropic=False)
    elapsed = time.perf_counter() - start
    assert abs(result.dof - 82) <= 1
    assert result.per_side[0] == result.per_side[1]  # symmetric scattering
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 (non-isotropic DoF = {result.dof} within 82 +/- 1, {elapsed:.2f}s): PASS")


def test_criterion_3_jakes_closed_form():
    spec = ScatteringSpec.isotropic()
    worst = 0.0
    for r in np.linspace(0.0, 10 * LAMBDA, 1000):
        numeric = acf_quadrature(spec, K, float(r))
        worst = max(worst, abs(numeric - bessel_j0(K * float(r))))
    assert worst <= 1e-8
    print(f"\nACCEPTANCE 3 (isotropic ACF vs J0, max err {worst:.2e} <= 1e-8): PASS")


def test_criterion_4_spectrum_coincidence(mixture_profiles):
    profile_s = variance_profile(PHYS, ScatteringSpec.isotropic(), "source")
    profile_r = variance_profile(PHYS, ScatteringSpec.isotropic(), "receiver")
    wdm_iso = build_wdm_correlation(profile_s, profile_r)
    jakes = build_jakes_correlation(PHYS)

    iso_eigs, _ = hermitian_eigs(wdm_iso.dense("R_r"))
    jakes_eigs, _ = hermitian_eigs(jakes.R_r)
    assert iso_eigs.size == jakes_eigs.size == 256
    cum_iso = np.cumsum(iso_eigs) / iso_eigs.sum()
    cum_jakes = np.cumsum(np.clip(jakes_eigs, 0.0, None)) / jakes_eigs.sum()
    sup_gap = float(np.abs(cum_iso - cum_jakes).max())
    assert sup_gap <= 0.05

    iso_997 = _prefix_index(np.diag(wdm_iso.dense("R_r")))
    non_iso_997 = _prefix_index(mixture_profiles[1].variances)
    assert non_iso_997 <= iso_997 / 2
    print(
        f"\nACCEPTANCE 4 (spectrum coincidence sup gap {sup_gap:.4f} <= 0.05; "
        f"99.7% index {non_iso_997} <= {iso_997}/2): PASS"
    )


def test_criterion_5_capacity_ordering():
    start = time.perf_counter()
    cfg = replace(REFERENCE, realizations=100, power_grid_dbw=(0.0, 10.0, 20.0, 30.0))
    assert cfg.noise_var_watts() == 1.0
    table = run_capacity(cfg)
    curves = {
        model: [row[2] for row in table.rows if row[1] == model]
        for model in ("iid", "jakes", "isotropic", "non_isotropic")
    }
    elapsed = time.perf_counter() - start

    for model, curve in curves.items():
        assert all(b > a for a, b in zip(curve, curve[1:])), f"{model} not increasing"
    for c_non, c_iso in zip(curves["non_isotropic"], curves["isotropic"]):
        assert c_non < c_iso
    iso30, jakes30, iid30 = curves["isotropic"][-1], curves["jakes"][-1], curves["iid"][-1]
    assert abs(iso30 - jakes30) / jakes30 <= 0.05
    assert abs(iid30 - iso30) / iso30 <= 0.10
    assert elapsed <= 600.0
    print(
        f"\nACCEPTANCE 5 (capacity ordering; iso/jakes gap "
        f"{abs(iso30 - jakes30) / jakes30:.2%}, iid/iso gap "
        f"{abs(iid30 - iso30) / iso30:.2%}; {elapsed:.0f}s): PASS"
    )


def _sample_covariance(model, draws, seed_base):
    n_s = model.R_s.shape[0]
    n_r = model.R_r.shape[0]
    vecs = np.empty((draws, n_s * n_r), dtype=complex)
    for i in range(draws):
        vecs[i] = draw_channel(model, seed_base + i).flatten(order="F")
    return vecs.T @ vecs.conj() / draws


@pytest.mark.filterwarnings("ignore:aperture shorter")
def test_criterion_6_kronecker_covariance():
    draws = 20_000
    bound = 5.0 / math.sqrt(draws)
    small = PhysicalConfig(4, 4)

    # Dense-correlation case: the Jakes Toeplitz has unit diagonal, so every
    # vec(H) coefficient has unit variance and the absolute bound is a proper
    # five-sigma test of the Kronecker structure.
    jakes = build_jakes_correlation(small)
    assert jakes.R_s.shape[0] == 8
    jakes_dev = _sample_covariance(jakes, draws, 40_000) - np.kron(jakes.R_s, jakes.R_r)
    worst_jakes = float(np.abs(jakes_dev).max())
    assert worst_jakes <= bound

    # Diagonal-correlation case: coefficient variances are unequal, so the
    # same threshold is applied to the studentized deviations (per-entry
    # estimator std is sqrt(C_ii * C_jj / draws)).
    profile_s = variance_profile(small, ScatteringSpec.isotropic(), "source")
    profile_r = variance_profile(small, ScatteringSpec.isotropic(), "receiver")
    wdm = build_wdm_correlation(profile_s, profile_r)
    expected = np.kron(wdm.dense("R_s"), wdm.dense("R_r"))
    sample = _sample_covariance(wdm, draws, 60_000)
    scale = np.sqrt(np.outer(np.diag(expected).real, np.diag(expected).real))
    studentized = np.abs(sample - expected) / scale
    worst_wdm = float(studentized.max())
    assert worst_wdm <= bound
    # distinct coupling coefficients are uncorrelated: expected is diagonal,
    # so every off-diagonal entry is a cross-correlation that must vanish
    crosses = studentized - np.diag(np.diag(studentized))
    worst_cross = float(crosses.max())
    assert worst_cross <= bound
    print(
        f"\nACCEPTANCE 6 (Kronecker covariance: jakes err {worst_jakes:.4f}, "
        f"wdm studentized err {worst_wdm:.4f}, cross-correlations "
        f"{worst_cross:.4f}, all <= {bound:.4f}): PASS"
    )


def test_criterion_7_waterfilling_kkt_suite():
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        gains = rng.uniform(0.0, 10.0, size)
        gains[rng.random(size) < 0.2] = 0.0
        if not np.any(gains > 0.0):
            gains[int(rng.integers(0, size))] = rng.uniform(0.1, 10.0)
        total_power = float(rng.uniform(1e-2, 1e3))
        noise_var = float(rng.uniform(1e-2, 1e2))
        allocation = waterfill(gains, total_power, noise_var)
        assert_kkt(gains, allocation, total_power, noise_var)
    print("\nACCEPTANCE 7 (1000 water-filling KKT checks): PASS")


def test_criterion_8_special_function_oracles():
    for x in np.logspace(-3, math.log10(700.0), 60):
        i0e, i1e = i0_reference(x) * math.exp(-x), i1_reference(x) * math.exp(-x)
        assert abs(bessel_i0_scaled(x) - i0e) <= 1e-12 * i0e
        # the ratio times e^-x I0 cancels the I0 factor, leaving e^-x I1
        assert abs(bessel_ratio_i1_i0(x) * bessel_i0_scaled(x) - i1e) <= 1e-12 * max(i1e, 1e-300)
    for x in np.logspace(-3, 4, 120):
        assert abs(bessel_j0(x) - j0_reference(x)) <= 1e-10
    for nu_sq in np.logspace(-4, 0, 50):
        alpha = solve_concentration(float(nu_sq))
        assert abs(1.0 - bessel_ratio_i1_i0(alpha) ** 2 - nu_sq) <= 1e-9
    print("\nACCEPTANCE 8 (special-function oracles and concentration round trip): PASS")


# A child run of `holowdm all`.  With "pinned" it holds itself to one CPU
# before holowdm is imported, where os.sched_setaffinity exists; it prints
# the Monte Carlo worker count to stderr.
_CRITERION_9_CHILD = """
import os, sys
if sys.argv[1] == "pinned" and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from holowdm import cli, metrics
print(f"workers={metrics.worker_count()}", file=sys.stderr)
sys.exit(cli.main(sys.argv[2:]))
"""


def test_criterion_9_thread_determinism(tmp_path):
    config = {
        "L_s_over_lambda": 8,
        "L_r_over_lambda": 8,
        "realizations": 8,
        "power_grid_dbw": [0, 30],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    # one CPU and one BLAS thread (the Monte Carlo runs in-process) against
    # every CPU and two BLAS threads (it runs on forked workers)
    outputs, workers = {}, {}
    for run, blas_threads in (("pinned", "1"), ("all", "2")):
        out_dir = tmp_path / run
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        proc = subprocess.run(
            [sys.executable, "-c", _CRITERION_9_CHILD, run, "all",
             "--config", str(config_path), "--out", str(out_dir)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        workers[run] = int(re.search(r"^workers=(\d+)$", proc.stderr, re.MULTILINE).group(1))
        outputs[run] = {
            name: (out_dir / f"{name}.csv").read_bytes()
            for name in ("psf", "eigs", "dof", "capacity")
        }
    assert workers["pinned"] == 1
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        assert workers["all"] > 1
    assert outputs["pinned"] == outputs["all"]
    print(
        f"\nACCEPTANCE 9 (byte-identical CSVs for {workers['pinned']} worker at 1 BLAS thread "
        f"vs {workers['all']} workers at 2): PASS"
    )
