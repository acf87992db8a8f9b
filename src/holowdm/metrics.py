"""Eigen-analysis, degrees of freedom, water-filling, and ergodic capacity."""

from __future__ import annotations

import math
import multiprocessing
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import blas
from .channel import CorrelationModel, check_seed, draw_w
# bound here for bench/tracing.py, which wraps it by this name
from .channel import draw_channel  # noqa: F401
from .wavenumber import VarianceProfile

__all__ = [
    "DoFResult",
    "CapacityResult",
    "hermitian_eigs",
    "dof",
    "waterfill",
    "ergodic_capacity",
    "ergodic_capacities",
    "realization_seeds",
    "worker_count",
]

# Relative variance at or below which a mode is dropped from the capacity
# eigen-solve.
_NEGLIGIBLE_VARIANCE = 1e-15


def _check_hermitian(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"matrix must be square and non-empty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    norm = float(np.linalg.norm(A))
    if float(np.abs(A - A.conj().T).max()) > 1e-10 * max(norm, 1.0):
        raise ValueError("matrix is not Hermitian within tolerance")
    return A


def hermitian_eigs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a finite, non-empty Hermitian matrix."""
    w, v = np.linalg.eigh(_check_hermitian(A))
    return w[::-1].copy(), v[:, ::-1].copy()


@dataclass(frozen=True)
class DoFResult:
    """Degrees of freedom plus the per-side prefix counts behind them."""

    dof: int
    per_side: tuple[int, int]


def _prefix_count(profile: VarianceProfile, epsilon: float) -> int:
    ordered = np.sort(profile.variances)[::-1]
    cum = np.cumsum(ordered)
    # the threshold is a share of the profile's own total; 1e-12 slack keeps
    # the count stable when the cumulative sum grazes it by roundoff alone
    return int(np.searchsorted(cum, (1.0 - epsilon - 1e-12) * cum[-1])) + 1


def dof(
    profile_s: VarianceProfile,
    profile_r: VarianceProfile,
    epsilon: float,
    isotropic: bool,
) -> DoFResult:
    """Channel degrees of freedom at accuracy 1 - epsilon.

    Isotropic scattering keeps every mode significant, so the DoF is simply
    min(n_s, n_r), the mode counts of the two profiles.  Otherwise each side
    contributes the smallest count of descending-sorted variances that holds
    1 - epsilon of the side's total, and the DoF is the smaller of the two
    counts (per_side reports both).
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if isotropic:
        n_s, n_r = profile_s.variances.size, profile_r.variances.size
        return DoFResult(dof=min(n_s, n_r), per_side=(n_s, n_r))
    side_s = _prefix_count(profile_s, epsilon)
    side_r = _prefix_count(profile_r, epsilon)
    return DoFResult(dof=min(side_s, side_r), per_side=(side_s, side_r))


def waterfill(eigenvalues, total_power: float, noise_var: float) -> np.ndarray:
    """Water-filling power allocation over parallel channel gains.

    Returns the allocation aligned with the input order (the input need not
    be sorted).  Active modes share the water level mu with
    P_i = mu - noise_var / gain_i; zero gains get zero power.  The active set
    is found exactly by scanning the sorted breakpoints, and the final
    allocation is corrected so it sums to total_power to machine precision.
    It is the one-power case of the water-filling over a power grid that
    ergodic_capacity runs.
    """
    return _waterfill_grid(eigenvalues, (total_power,), noise_var)[0]


def _check_noise_var(noise_var: float) -> None:
    if not (math.isfinite(noise_var) and noise_var > 0.0):
        raise ValueError(f"noise_var must be positive, got {noise_var}")


def _waterfill_grid(eigenvalues, powers, noise_var: float) -> np.ndarray:
    """Water-filling allocations of one gain vector at each total power.

    Row j is the allocation at powers[j], as waterfill describes it: one
    sort and one cumulative breakpoint sum serve every power.  When the
    largest power plus the breakpoint sum would overflow (a noise variance
    near the top of the double range, or a gain near the bottom), the water
    level is found with the noise and the powers divided by a power of two,
    which is exact, and the allocation is scaled back before the sum-to-power
    correction; any other input takes no scaling at all.
    """
    gains = np.asarray(eigenvalues, dtype=float).reshape(-1)
    if gains.size == 0 or not np.all(np.isfinite(gains)):
        raise ValueError("eigenvalues must be a non-empty finite vector")
    powers = np.asarray(powers, dtype=float).reshape(-1)
    for total_power in powers:
        if not (math.isfinite(total_power) and total_power > 0.0):
            raise ValueError(f"total_power must be positive, got {total_power}")
    _check_noise_var(noise_var)
    top = float(gains.max())
    if gains.min() < -1e-12 * max(top, 1.0):
        raise ValueError("eigenvalues must be non-negative")
    gains = np.clip(gains, 0.0, None)
    if top <= 0.0:
        raise ValueError("all eigenvalues are zero; nothing to allocate")

    order = np.argsort(-gains, kind="stable")
    positive = order[gains[order] > 0.0]
    with np.errstate(over="ignore"):
        breakpoints = noise_var / gains[positive]
        cumulative = np.cumsum(breakpoints)
    shift = 0
    top_power = float(powers.max())
    if not math.isfinite(top_power + float(cumulative[-1])):
        # the power plus the sum is below 2 ** bound: each breakpoint is below
        # noise_var / min gain, and there are fewer than 2 ** bit_length
        bound = 1 + max(
            math.frexp(noise_var)[1] - math.frexp(float(gains[positive[-1]]))[1]
            + 1 + positive.size.bit_length(),
            math.frexp(top_power)[1],
        )
        shift = bound - 1023
        breakpoints = math.ldexp(noise_var, -shift) / gains[positive]
        cumulative = np.cumsum(breakpoints)
    counts = np.arange(1, positive.size + 1)
    mu_candidates = (np.ldexp(powers, -shift)[:, None] + cumulative) / counts
    feasible = mu_candidates > breakpoints
    # a total power below the rounding scale of the first breakpoint leaves no
    # strictly feasible candidate; everything then rides the strongest mode
    last = positive.size - np.argmax(feasible[:, ::-1], axis=1)
    active = np.where(feasible.any(axis=1), last, 1)
    mu = mu_candidates[np.arange(powers.size), active - 1]

    on = counts <= active[:, None]
    allocation = np.zeros((powers.size, gains.size))
    allocation[:, positive] = np.where(on, mu[:, None] - breakpoints, 0.0)
    if shift:
        allocation = np.ldexp(allocation, shift)
    # mu is rounded on the scale of the breakpoints, so the allocations miss
    # the power by up to a few ulps of mu.  That remainder is shared evenly by
    # the active modes, which keeps their water levels equal; on one mode it
    # would lift that mode's level alone.  The strongest mode takes what the
    # sharing leaves, a rounding of the power.
    share = (powers - allocation.sum(axis=1)) / active
    allocation[:, positive] += np.where(on, share[:, None], 0.0)
    np.maximum(allocation, 0.0, out=allocation)
    allocation[:, positive[0]] += powers - allocation.sum(axis=1)
    return allocation


def _mode_gains(H: np.ndarray) -> np.ndarray:
    # the Gram matrix on the smaller side has exactly the min(n_r, n_s)
    # eigenmode gains; it is Hermitian by construction, so it goes to eigvalsh
    # unchecked
    gram = H @ H.conj().T if H.shape[0] <= H.shape[1] else H.conj().T @ H
    return np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)


def _wishart_gains(n_r: int, n_s: int, seed: int) -> np.ndarray:
    """Eigenvalues of W W^H for an n_r x n_s W with i.i.d. CN(0, 1) entries.

    Dumitriu and Edelman's beta = 2 Laguerre model ("Matrix models for beta
    ensembles", 2002): they are the eigenvalues of B B^T, with B the lower
    bidiagonal min(n_r, n_s)-square matrix of diagonal
    chi_{2 max}, ..., chi_{2 (max - min + 1)} and subdiagonal
    chi_{2 (min - 1)}, ..., chi_2, all divided by sqrt(2).  The square of
    chi_{2k} / sqrt(2) is a unit-scale Gamma(k) variate, so the squares are
    drawn directly, and B B^T is tridiagonal: O(min^2) work in place of a
    dense draw and eigen-solve, by LAPACK dsterf (blas.tridiagonal_eigvalsh).
    """
    small, large = sorted((n_r, n_s))
    rng = np.random.default_rng(seed)
    diag_sq = rng.standard_gamma(np.arange(large, large - small, -1))
    sub_sq = rng.standard_gamma(np.arange(small - 1, 0, -1))
    off = np.sqrt(diag_sq[:-1] * sub_sq)
    diag_sq[1:] += sub_sq
    gains = blas.tridiagonal_eigvalsh(diag_sq, off)
    return np.clip(gains[::-1], 0.0, None)


def _common_variance(R: np.ndarray) -> float | None:
    """The variance shared by every mode of a diagonal side, or None."""
    return float(R[0]) if np.all(R == R[0]) else None


def _significant_modes(R: np.ndarray):
    """Index of the modes of a variance vector that are not negligible."""
    keep = R > _NEGLIGIBLE_VARIANCE * R.max()
    return slice(None) if keep.all() else np.flatnonzero(keep)


def check_monte_carlo_args(realizations, seed, seed_name: str = "base_seed") -> None:
    """A ValueError naming the argument unless realizations is a positive
    integer and the seed passes channel.check_seed."""
    # bools are ints to Python, and a float would be truncated silently
    if isinstance(realizations, bool) or not isinstance(realizations, (int, np.integer)):
        raise ValueError(f"realizations must be an integer, got {realizations!r}")
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    check_seed(seed, seed_name)


def dbw_to_watts(key: str, dbw: float) -> float:
    """dBW in watts; raises naming key unless that is a positive finite double."""
    try:
        watts = 10.0 ** (dbw / 10.0)
    except OverflowError:
        watts = math.inf
    if not (math.isfinite(watts) and watts > 0.0):
        raise ValueError(f"{key} must be a positive finite power in watts, got {dbw} dBW")
    return watts


def realization_seeds(base_seed: int, count: int) -> np.ndarray:
    """Per-realization 64-bit seeds derived deterministically from base_seed.

    Scheduling-independent by construction, so Monte Carlo results do not
    depend on how realizations are distributed over workers.
    """
    check_monte_carlo_args(count, base_seed)
    return np.random.SeedSequence(int(base_seed)).generate_state(count, dtype=np.uint64)


def worker_count() -> int:
    """Monte Carlo worker processes: the CPUs this process may run on.

    The workers are forked, each held to one BLAS thread, so the count is 1,
    the in-process path, where os.sched_getaffinity or numpy's OpenBLAS
    thread control (blas.thread_calls) is missing.  Every platform with
    os.sched_getaffinity can fork.  No setting or environment variable
    changes it.
    """
    if blas.thread_calls() is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@dataclass(eq=False)
class CapacityResult:
    """Mean water-filling capacity per transmit-power point.

    stderr_bits is the standard error of each mean over the realizations
    (NaN when there is only one).
    """

    capacity_bits: np.ndarray
    stderr_bits: np.ndarray


def _capacity_bits(gains: np.ndarray, powers_w: np.ndarray, noise_var: float) -> np.ndarray:
    """Water-filling capacity of one gain vector at each total power."""
    bits = np.zeros(powers_w.size)
    for j, allocation in enumerate(_waterfill_grid(gains, powers_w, noise_var)):
        # log2(1 + p g / noise_var) over the modes with power, from the log of
        # the product: p g / noise_var overflows at extreme powers and noise
        # levels, and logaddexp2 keeps full precision at low SNR
        on = allocation > 0.0
        log_snr = np.log2(allocation[on]) + np.log2(gains[on]) - math.log2(noise_var)
        bits[j] = np.sum(np.logaddexp2(0.0, log_snr))
    return bits


def _plan(spectrum: CorrelationModel) -> tuple:
    """What _capacity_block needs of one diagonal model: its side sizes, the
    Wishart scale a b (None unless both sides are constant), the kept rows
    and columns, and the square roots of their variances."""
    a, b = _common_variance(spectrum.R_r), _common_variance(spectrum.R_s)
    rows = _significant_modes(spectrum.R_r)
    cols = _significant_modes(spectrum.R_s)
    return (
        spectrum.R_r.size,
        spectrum.R_s.size,
        a * b if a is not None and b is not None else None,
        rows,
        cols,
        np.sqrt(spectrum.R_r[rows])[:, None],
        np.sqrt(spectrum.R_s[cols]),
    )


def _capacity_block(
    plans: list[tuple], seeds, powers_w: np.ndarray, noise_var: float
) -> np.ndarray:
    """Capacities of diagonal models, one _plan each, shape (models, seeds, powers).

    Each seed gives one realization of every model.  A model whose sides are
    constant vectors a and b takes a b times the Wishart gains of
    _wishart_gains.  Every other model scales one W per seed and side shape,
    drawn by draw_w, by sqrt(a) and sqrt(b) on a copy, which gives the bits
    of the dense product of draw_channel; only its modes above 1e-15 of its
    largest variance are kept.
    """
    capacity = np.zeros((len(plans), len(seeds), powers_w.size))
    for i, seed in enumerate(seeds):
        seed = int(seed)
        draws = {}
        for m, (n_r, n_s, scale, rows, cols, sr, ss) in enumerate(plans):
            if scale is not None:
                gains = scale * _wishart_gains(n_r, n_s, seed)
            else:
                if (n_r, n_s) not in draws:
                    draws[n_r, n_s] = draw_w(n_r, n_s, seed)
                # the scale of each entry is one rounded product, so keeping
                # modes before scaling gives the bits of scaling first
                H = draws[n_r, n_s][rows][:, cols] * sr
                H *= ss
                gains = _mode_gains(H)
            if gains.max(initial=0.0) > 0.0:
                capacity[m, i] = _capacity_bits(gains, powers_w, noise_var)
    return capacity


def _pooled_capacity(
    plans: list[tuple], seeds, powers_w: np.ndarray, noise_var: float, workers: int
) -> np.ndarray:
    """_capacity_block over contiguous seed blocks, one per forked worker,
    joined along the seed axis in index order.

    Each worker runs at one BLAS thread: the caller holds that setting
    (blas.one_thread) when it forks them.  Workers are processes, not threads:
    on 2 vCPUs two threads run complex 256x256 eigvalsh at 0.9-1.0x the speed
    of one, two processes at 1.7x, and a thread pool took 4.3 s against 2.7 s
    for `holowdm all` at 100 realizations.  The pool lives for this call: it is
    closed and joined before the return, and terminated and joined when a
    worker raises, whose exception propagates.
    """
    blocks = np.array_split(seeds, workers)
    pool = multiprocessing.get_context("fork").Pool(workers)
    with pool:
        parts = pool.starmap(
            _capacity_block, [(plans, block, powers_w, noise_var) for block in blocks]
        )
        pool.close()
        pool.join()
    return np.concatenate(parts, axis=1)


def ergodic_capacities(
    models: Iterable[CorrelationModel],
    power_grid_dbw,
    noise_var: float,
    realizations: int,
    base_seed: int,
) -> list[CapacityResult]:
    """Monte Carlo ergodic capacity (bit/s/Hz) of each model over a power grid.

    The capacity is computed in the angular domain.  W is unitarily
    invariant, so the gains of R_r^(1/2) W R_s^(1/2) are distributed as those
    of diag(a)^(1/2) W diag(b)^(1/2), with a and b the eigenvalues of R_r and
    R_s (model.angular()).  A dense side (Jakes) costs one spectrum solve
    before the first realization, and no square root or dense product.

    All models run in one pass over the per-realization seeds of base_seed.
    Each seed gives the gains of every model:
    - when a and b are constant vectors, as for i.i.d. Rayleigh, the gains
      are a b times the Wishart eigenvalues of the bidiagonal model in
      _wishart_gains;
    - otherwise the models share one W per seed, drawn once (by draw_w) and
      scaled by sqrt(a) and sqrt(b) on a copy for each model, and the gains
      are the eigenvalues of its Gram matrix on the smaller side.  Modes
      whose variance is at most 1e-15 of the largest are dropped first; they
      move the gains by no more than roundoff.
    The gains are then water-filled at every power of the grid from one sort
    and one breakpoint sum; each cell is bitwise what waterfill gives at that
    power alone.

    A dense side's spectrum holds numpy's OpenBLAS at one thread itself, and
    the realizations run under this function's own hold, which restores the
    caller's count on return, so the bits do not depend on the caller's BLAS
    threads.  When worker_count() and realizations are both above 1, the
    seeds are split into contiguous blocks that run on min(worker_count(),
    realizations) forked workers (_pooled_capacity); otherwise they run in
    this process.  Every realization depends on its seed alone, and the
    blocks are joined in seed order before the mean and standard error, so
    both paths give the same bits for any worker count.

    A channel whose gains are all zero, as when a side has no non-negligible
    variance, carries 0 bits at every power.  realizations must be a positive
    integer, base_seed an integer in [0, 2**64) and noise_var a positive
    finite number, whatever the gains; anything else raises a ValueError
    naming the argument.
    """
    power_grid_dbw = tuple(float(p) for p in power_grid_dbw)
    if not power_grid_dbw:
        raise ValueError("power grid must not be empty")
    seeds = realization_seeds(base_seed, realizations)
    _check_noise_var(noise_var)
    powers_w = np.array([dbw_to_watts(f"power_grid_dbw[{i}]", p)
                         for i, p in enumerate(power_grid_dbw)])
    plans = [_plan(model.angular()) for model in models]
    with blas.one_thread():
        workers = min(worker_count(), realizations)
        if workers > 1:
            capacity = _pooled_capacity(plans, seeds, powers_w, noise_var, workers)
        else:
            capacity = _capacity_block(plans, seeds, powers_w, noise_var)
    results = []
    for per_model in capacity:
        if realizations > 1:
            stderr = per_model.std(axis=0, ddof=1) / math.sqrt(realizations)
        else:
            stderr = np.full(len(power_grid_dbw), np.nan)
        results.append(CapacityResult(capacity_bits=per_model.mean(axis=0), stderr_bits=stderr))
    return results


def ergodic_capacity(
    model: CorrelationModel,
    power_grid_dbw,
    noise_var: float,
    realizations: int,
    base_seed: int,
) -> CapacityResult:
    """Monte Carlo ergodic capacity (bit/s/Hz) of one model over a power grid.

    The one-model case of ergodic_capacities, with the same checks and the
    same bits.
    """
    return ergodic_capacities((model,), power_grid_dbw, noise_var, realizations, base_seed)[0]
