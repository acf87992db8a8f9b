"""Eigen-analysis, degrees of freedom, water-filling, and ergodic capacity."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import CorrelationModel, draw_channel
from .wavenumber import VarianceProfile

__all__ = [
    "DoFResult",
    "CapacityResult",
    "hermitian_eigs",
    "hermitian_eigvals",
    "dof",
    "waterfill",
    "capacity_for_channel",
    "ergodic_capacity",
    "realization_seeds",
    "worker_count",
]

# Relative variance at or below which a mode of a diagonal model is dropped
# from the capacity eigen-solve.
_NEGLIGIBLE_VARIANCE = 1e-15


def _check_hermitian(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    norm = float(np.linalg.norm(A))
    if float(np.abs(A - A.conj().T).max()) > 1e-10 * max(norm, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return A


def hermitian_eigs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix."""
    w, v = np.linalg.eigh(_check_hermitian(A))
    return w[::-1].copy(), v[:, ::-1].copy()


def hermitian_eigvals(A: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a Hermitian matrix, without eigenvectors."""
    return np.linalg.eigvalsh(_check_hermitian(A))[::-1].copy()


@dataclass(frozen=True)
class DoFResult:
    """Degrees of freedom plus the per-side prefix counts behind them."""

    dof: int
    per_side: tuple[int, int]
    epsilon: float


def _prefix_count(profile: VarianceProfile, epsilon: float) -> int:
    ordered = np.sort(profile.variances)[::-1]
    cum = np.cumsum(ordered)
    # 1e-12 slack keeps the count stable when the cumulative sum grazes the
    # threshold from below by roundoff alone.
    idx = int(np.searchsorted(cum, 1.0 - epsilon - 1e-12))
    return min(idx + 1, ordered.size)


def dof(
    profile_s: VarianceProfile,
    profile_r: VarianceProfile,
    epsilon: float,
    isotropic: bool,
    n_s: int,
    n_r: int,
) -> DoFResult:
    """Channel degrees of freedom at accuracy 1 - epsilon.

    Isotropic scattering keeps every mode significant, so the DoF is simply
    min(n_s, n_r).  Otherwise each side contributes the smallest count of
    descending-sorted variances whose cumulative sum reaches 1 - epsilon, and
    the DoF is the smaller of the two counts (per_side reports both).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    for name, profile in (("source", profile_s), ("receiver", profile_r)):
        if not profile.normalized or abs(float(profile.variances.sum()) - 1.0) > 1e-9:
            raise ValueError(f"{name} profile must be normalized to unit sum")
    if isotropic:
        return DoFResult(dof=min(n_s, n_r), per_side=(n_s, n_r), epsilon=epsilon)
    side_s = _prefix_count(profile_s, epsilon)
    side_r = _prefix_count(profile_r, epsilon)
    return DoFResult(dof=min(side_s, side_r), per_side=(side_s, side_r), epsilon=epsilon)


def waterfill(eigenvalues, total_power: float, noise_var: float) -> np.ndarray:
    """Water-filling power allocation over parallel channel gains.

    Returns the allocation aligned with the input order (the input need not
    be sorted).  Active modes share the water level mu with
    P_i = mu - noise_var / gain_i; zero gains get zero power.  The active set
    is found exactly by scanning the sorted breakpoints, and the final
    allocation is corrected so it sums to total_power to machine precision.
    """
    gains = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if gains.size == 0 or not np.all(np.isfinite(gains)):
        raise ValueError("eigenvalues must be a non-empty finite vector")
    if not (math.isfinite(total_power) and total_power > 0.0):
        raise ValueError(f"total_power must be positive, got {total_power}")
    if not (math.isfinite(noise_var) and noise_var > 0.0):
        raise ValueError(f"noise_var must be positive, got {noise_var}")
    top = float(gains.max())
    if gains.min() < -1e-12 * max(top, 1.0):
        raise ValueError("eigenvalues must be non-negative")
    gains = np.clip(gains, 0.0, None)
    if top <= 0.0:
        raise ValueError("all eigenvalues are zero; nothing to allocate")

    order = np.argsort(-gains, kind="stable")
    positive = order[gains[order] > 0.0]
    breakpoints = noise_var / gains[positive]
    mu_candidates = (total_power + np.cumsum(breakpoints)) / np.arange(1, positive.size + 1)
    feasible = np.nonzero(mu_candidates > breakpoints)[0]
    # a total power below the rounding scale of the first breakpoint leaves no
    # strictly feasible candidate; everything then rides the strongest mode
    active = int(feasible[-1]) + 1 if feasible.size else 1
    mu = float(mu_candidates[active - 1])

    allocation = np.zeros_like(gains)
    allocation[positive[:active]] = mu - breakpoints[:active]
    allocation[positive[0]] += total_power - float(allocation.sum())
    return allocation


def _mode_gains(H: np.ndarray) -> np.ndarray:
    # the Gram matrix on the smaller side has exactly the min(n_r, n_s)
    # eigenmode gains
    gram = H @ H.conj().T if H.shape[0] <= H.shape[1] else H.conj().T @ H
    return np.clip(hermitian_eigvals(gram), 0.0, None)


def _capacity_from_gains(gains: np.ndarray, power_watts: float, noise_var: float) -> float:
    if gains.max(initial=0.0) <= 0.0:
        return 0.0
    allocation = waterfill(gains, power_watts, noise_var)
    return float(np.sum(np.log2(1.0 + allocation * gains / noise_var)))


def capacity_for_channel(H: np.ndarray, power_watts: float, noise_var: float) -> float:
    """Water-filling capacity (bit/s/Hz) of one channel matrix."""
    return _capacity_from_gains(_mode_gains(H), power_watts, noise_var)


def _significant_modes(R: np.ndarray):
    """Index of the modes on one side of H that carry non-negligible variance.

    Only a diagonal side (a variance vector) drops modes; a dense side keeps
    them all.
    """
    if R.ndim != 1:
        return slice(None)
    keep = R > _NEGLIGIBLE_VARIANCE * R.max()
    return slice(None) if keep.all() else np.flatnonzero(keep)


def realization_seeds(base_seed: int, count: int) -> np.ndarray:
    """Per-realization 64-bit seeds derived deterministically from base_seed.

    Scheduling-independent by construction, so Monte Carlo results do not
    depend on how realizations are distributed over workers.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    return np.random.SeedSequence(int(base_seed)).generate_state(count, dtype=np.uint64)


def worker_count() -> int:
    """Monte Carlo worker threads from HOLOWDM_THREADS (unset or 0 means 1).

    One worker leaves the parallelism to the BLAS library's own threads; a
    pool of N > 1 workers runs that many eigen-solves at once on top of them.
    """
    raw = os.environ.get("HOLOWDM_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"HOLOWDM_THREADS must be an integer, got {raw!r}") from None
    return max(n, 1)


@dataclass(eq=False)
class CapacityResult:
    """Mean water-filling capacity per transmit-power point."""

    capacity_bits: np.ndarray
    power_grid_dbw: tuple[float, ...]
    realizations: int
    model_kind: str


def ergodic_capacity(
    model: CorrelationModel,
    power_grid_dbw,
    noise_var: float,
    realizations: int,
    base_seed: int,
) -> CapacityResult:
    """Monte Carlo ergodic capacity (bit/s/Hz) over a transmit-power grid.

    Each realization draws its channel from a per-realization seed, computes
    its eigenmode gains once, and water-fills at every power point.  For a
    diagonal model the rows and columns of H whose variance is at most 1e-15
    of the largest are dropped before the eigen-solve; they move the gains by
    no more than roundoff.

    Realizations may run on a thread pool; the average is accumulated in
    realization-index order, so the result is identical for any worker count.
    """
    power_grid_dbw = tuple(float(p) for p in power_grid_dbw)
    if not power_grid_dbw:
        raise ValueError("power grid must not be empty")
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    powers_w = [10.0 ** (p / 10.0) for p in power_grid_dbw]
    seeds = realization_seeds(base_seed, realizations)
    rows_kept = _significant_modes(model.R_r)
    cols_kept = _significant_modes(model.R_s)

    def one_realization(seed) -> np.ndarray:
        H = draw_channel(model, int(seed)).H
        gains = _mode_gains(H[rows_kept][:, cols_kept])
        return np.array([_capacity_from_gains(gains, p, noise_var) for p in powers_w])

    workers = worker_count()
    if workers == 1 or realizations == 1:
        rows = [one_realization(s) for s in seeds]
    else:
        # the square roots are cached on first use; take them before the pool
        # starts, so that no two threads compute the same one
        model.R_s_sqrt, model.R_r_sqrt
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_realization, seeds))
    mean = np.vstack(rows).mean(axis=0)
    return CapacityResult(
        capacity_bits=mean,
        power_grid_dbw=power_grid_dbw,
        realizations=realizations,
        model_kind=model.kind,
    )
