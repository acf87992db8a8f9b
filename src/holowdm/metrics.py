"""Eigen-analysis, degrees of freedom, water-filling, and ergodic capacity."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CorrelationModel, draw_channel
from .wavenumber import VarianceProfile

__all__ = [
    "DoFResult",
    "CapacityResult",
    "hermitian_eigs",
    "dof",
    "waterfill",
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
    # eigenmode gains; it is Hermitian by construction, so it goes to eigvalsh
    # unchecked
    gram = H @ H.conj().T if H.shape[0] <= H.shape[1] else H.conj().T @ H
    return np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)


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
    """Monte Carlo workers: always 1.

    Realizations run one after another, and the BLAS library's own threads
    parallelize each eigen-solve.
    """
    return 1


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

    A channel whose gains are all zero, as when a side has no non-negligible
    variance, carries 0 bits at every power.  Realizations run one after
    another; the BLAS library's threads parallelize each eigen-solve.
    """
    power_grid_dbw = tuple(float(p) for p in power_grid_dbw)
    if not power_grid_dbw:
        raise ValueError("power grid must not be empty")
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    powers_w = [10.0 ** (p / 10.0) for p in power_grid_dbw]
    rows_kept = _significant_modes(model.R_r)
    cols_kept = _significant_modes(model.R_s)
    capacity = np.zeros((realizations, len(powers_w)))
    for i, seed in enumerate(realization_seeds(base_seed, realizations)):
        gains = _mode_gains(draw_channel(model, int(seed))[rows_kept][:, cols_kept])
        if gains.max(initial=0.0) <= 0.0:
            continue
        for j, p in enumerate(powers_w):
            allocation = waterfill(gains, p, noise_var)
            capacity[i, j] = np.sum(np.log2(1.0 + allocation * gains / noise_var))
    return CapacityResult(
        capacity_bits=capacity.mean(axis=0),
        power_grid_dbw=power_grid_dbw,
        realizations=realizations,
        model_kind=model.kind,
    )
