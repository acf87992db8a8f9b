"""Correlation-matrix construction and channel synthesis.

All three channel families are separable, H = R_r^(1/2) W R_s^(1/2) with W
i.i.d. complex Gaussian: the wavenumber-multiplexed model has diagonal
per-side correlation (the per-index coupling variances), the spatially
sampled Jakes model has a real Toeplitz correlation, and i.i.d. Rayleigh is
the identity.  Every builder gives tr(R_s) = n_s and tr(R_r) = n_r by
default so E||H||_F^2 = n_s * n_r for all families, which is the only
normalization under which their capacities are comparable; the raw
length-scaled diagonal form stays available behind a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg, special

from .wavenumber import PhysicalConfig, VarianceProfile

__all__ = [
    "CorrelationModel",
    "build_wdm_correlation",
    "build_jakes_correlation",
    "build_iid_correlation",
    "draw_channel",
]

_HERMITIAN_TOL = 1e-12
_EIG_CLAMP_TOL = 1e-10
_MATRICES = ("R_s", "R_r", "R_s_sqrt", "R_r_sqrt")


@dataclass(eq=False)
class CorrelationModel:
    """Per-side correlations with square roots computed on first use.

    A diagonal side (WDM and i.i.d.) is stored as its 1-D variance vector and
    acts on W as a per-row or per-column scale; a dense side (Jakes) is a
    Hermitian matrix.  R_s_sqrt and R_r_sqrt have the same form as their side
    and are cached, so the Hermitian square root of a dense side is taken
    once, and only if a channel is drawn; sides that are one array share
    one root.  dense() gives the n x n matrix of any of the four, and
    angular() the diagonal model of the eigenvalues.
    """

    R_s: np.ndarray
    R_r: np.ndarray

    def __post_init__(self) -> None:
        # sides that are one array (square Jakes) are checked once
        shared = self.R_r is self.R_s
        self.R_s = _check_correlation("R_s", self.R_s)
        self.R_r = self.R_s if shared else _check_correlation("R_r", self.R_r)

    @property
    def diagonal(self) -> bool:
        """Whether both sides are stored as variance vectors."""
        return self.R_s.ndim == 1 and self.R_r.ndim == 1

    @cached_property
    def R_s_sqrt(self) -> np.ndarray:
        return _side_sqrt("R_s", self.R_s)

    @cached_property
    def R_r_sqrt(self) -> np.ndarray:
        if self.R_r is self.R_s:
            return self.R_s_sqrt
        return _side_sqrt("R_r", self.R_r)

    def dense(self, name: str) -> np.ndarray:
        """The n x n matrix of R_s, R_r, R_s_sqrt or R_r_sqrt."""
        if name not in _MATRICES:
            raise ValueError(f"name must be one of {_MATRICES}, got {name!r}")
        value = getattr(self, name)
        return np.diag(value) if value.ndim == 1 else value

    def angular(self) -> "CorrelationModel":
        """The same channel in the angular (eigen) basis of each side.

        W is unitarily invariant, so R_r^(1/2) W R_s^(1/2) and
        diag(eig R_r)^(1/2) W diag(eig R_s)^(1/2) have identically
        distributed singular values.  Each dense side is replaced by its
        eigenvalues (ascending, clipped at 0); a diagonal model is its own
        angular form and is returned as is.  No square root is taken, and
        sides that are one array (square Jakes) are solved once.
        """
        if self.diagonal:
            return self
        w_s = _side_spectrum("R_s", self.R_s)
        if self.R_r is self.R_s:
            return CorrelationModel(w_s, w_s)
        return CorrelationModel(w_s, _side_spectrum("R_r", self.R_r))


def _check_correlation(name: str, R) -> np.ndarray:
    R = np.asarray(R)
    if R.ndim == 1:
        if not (np.isrealobj(R) and np.all(np.isfinite(R)) and np.all(R >= 0.0)):
            raise ValueError(f"{name} variances must be real, finite and non-negative")
        return R
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(
            f"{name} must be a variance vector or a square matrix, got shape {R.shape}"
        )
    scale = max(1.0, float(np.abs(R).max()))
    if float(np.abs(R - R.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return R


def _clipped_eigenvalues(name: str, w: np.ndarray, R: np.ndarray) -> np.ndarray:
    # Eigenvalues of a valid correlation matrix are non-negative up to
    # roundoff; anything below -1e-10 * trace means bad input.
    trace = float(np.trace(R).real)
    if w.min() < -_EIG_CLAMP_TOL * max(trace, 1.0):
        raise ValueError(f"{name} has a significantly negative eigenvalue ({w.min():.3e})")
    return np.clip(w, 0.0, None)


def _hermitian_sqrt(name: str, R: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(R)
    w = _clipped_eigenvalues(name, w, R)
    return (v * np.sqrt(w)) @ v.conj().T


def _side_sqrt(name: str, R: np.ndarray) -> np.ndarray:
    return np.sqrt(R) if R.ndim == 1 else _hermitian_sqrt(name, R)


def _side_spectrum(name: str, R: np.ndarray) -> np.ndarray:
    if R.ndim == 1:
        return R
    return _clipped_eigenvalues(name, np.linalg.eigvalsh(R), R)


def _trace_normalized(R: np.ndarray) -> np.ndarray:
    trace = float(R.sum())
    if trace <= 0.0:
        raise ValueError("correlation matrix has non-positive trace")
    return R * (R.size / trace)


def build_wdm_correlation(
    profile_s: VarianceProfile,
    profile_r: VarianceProfile,
    L_s: float,
    L_r: float,
    trace_normalize: bool = True,
) -> CorrelationModel:
    """Diagonal correlation from per-index variances, stored as vectors.

    Raw diagonal entries are L * sigma^2 (the squared length-scaled standard
    deviations); with trace_normalize they are rescaled to tr(R) = n.
    """
    if profile_s.grid.side != "source" or profile_r.grid.side != "receiver":
        raise ValueError("profiles must be (source, receiver) in that order")
    for name, L in (("L_s", L_s), ("L_r", L_r)):
        if not (math.isfinite(L) and L > 0.0):
            raise ValueError(f"{name} must be positive, got {L}")
    R_s = profile_s.scaled_deviations(L_s) ** 2
    R_r = profile_r.scaled_deviations(L_r) ** 2
    if trace_normalize:
        R_s = _trace_normalized(R_s)
        R_r = _trace_normalized(R_r)
    return CorrelationModel(R_s, R_r)


def build_jakes_correlation(cfg: PhysicalConfig) -> CorrelationModel:
    """Toeplitz correlation of the lines sampled at half-wavelength spacing.

    The sample count per side matches the wavenumber mode count, so the Jakes
    and wavenumber spectra live on the same index axis.  Entry (i, j) is
    J0(k |i - j| lambda/2); the diagonal is J0(0) = 1, so tr R = n with no
    normalization.  Both sides are leading blocks of one Toeplitz matrix:
    the smaller side is a copy, and equal sides are one read-only array.
    """
    n_s, n_r = cfg.mode_count("source"), cfg.mode_count("receiver")
    n = max(n_s, n_r)
    R = linalg.toeplitz(special.j0(cfg.k * (0.5 * cfg.wavelength) * np.arange(n)))
    if n_s == n_r:
        R.flags.writeable = False
        return CorrelationModel(R, R)
    return CorrelationModel(
        R if n_s == n else R[:n_s, :n_s].copy(),
        R if n_r == n else R[:n_r, :n_r].copy(),
    )


def build_iid_correlation(n_s: int, n_r: int) -> CorrelationModel:
    """Identity correlation (i.i.d. Rayleigh fading), stored as unit vectors."""
    if n_s < 1 or n_r < 1:
        raise ValueError("sizes must be at least 1")
    return CorrelationModel(np.ones(n_s), np.ones(n_r))


def draw_channel(model: CorrelationModel, seed) -> np.ndarray:
    """Draw H = R_r^(1/2) W R_s^(1/2) with seeded i.i.d. CN(0, 1) entries in W.

    The same seed reproduces the same H bitwise; Monte Carlo derives one seed
    per realization (see metrics.realization_seeds).
    """
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    n_s = model.R_s.shape[0]
    n_r = model.R_r.shape[0]
    # one draw of all 2 n_r n_s normals, real parts first: the stream order
    # of two separate draws
    parts = np.random.default_rng(seed).standard_normal((2, n_r, n_s))
    parts *= math.sqrt(0.5)
    H = np.empty((n_r, n_s), dtype=complex)
    H.real, H.imag = parts
    # a diagonal side scales rows or columns in place, which is equal bitwise
    # to the dense product: every off-diagonal term is an exact zero
    sr, ss = model.R_r_sqrt, model.R_s_sqrt
    if sr.ndim == 1:
        H *= sr[:, None]
    else:
        H = sr @ H
    if ss.ndim == 1:
        H *= ss
    else:
        H = H @ ss
    return H
