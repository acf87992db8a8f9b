"""Correlation-matrix construction and channel synthesis.

All three channel families are separable, H = R_r^(1/2) W R_s^(1/2) with W
i.i.d. complex Gaussian: the wavenumber-multiplexed model has diagonal
per-side correlation (the per-index coupling variances), the spatially
sampled Jakes model has a real Toeplitz correlation, and i.i.d. Rayleigh is
the identity.  Every builder gives tr(R_s) = n_s and tr(R_r) = n_r, so
E||H||_F^2 = n_s * n_r for all families, which is the only normalization
under which their capacities are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .wavenumber import PhysicalConfig, VarianceProfile

__all__ = [
    "CorrelationModel",
    "build_wdm_correlation",
    "build_jakes_correlation",
    "build_iid_correlation",
    "draw_w",
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
        angular form and is returned as is.  No square root is taken, a
        real symmetric Toeplitz side (Jakes) is solved as two half-size
        eigenproblems, and sides that are one array (square Jakes) are
        solved once.
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
    if _symmetric_toeplitz(R):
        # exactly symmetric, so the Hermitian check below would pass it
        return R
    scale = max(1.0, float(np.abs(R).max()))
    if float(np.abs(R - R.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return R


def _symmetric_toeplitz(R: np.ndarray) -> bool:
    """Whether a square R is real and exactly symmetric Toeplitz.

    Its first row is then its first column, and every entry repeats the one
    above and to its left.  Apart from that one column, both tests read
    whole rows, in place of the strided transpose of the Hermitian check.
    """
    return (
        R.size > 0
        and np.isrealobj(R)
        and np.array_equal(R[0], R[:, 0])
        and np.array_equal(R[1:, 1:], R[:-1, :-1])
    )


def _toeplitz_view(c: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix c[|i - j|] as a read-only view.

    Row i is a window over the 2 n - 1 lags c[n-1], ..., c[1], c[0], ...,
    c[n-1], so the matrix holds O(n) memory in place of n^2.  c must not be
    empty.
    """
    return sliding_window_view(np.concatenate((c[:0:-1], c)), c.size)[::-1]


def _toeplitz_eigenvalues(t: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric Toeplitz matrix t[|i - j|].

    The matrix is centrosymmetric, so its spectrum is that of two half-size
    symmetric matrices (Cantoni and Butler, Linear Algebra Appl. 13, 1976).
    With m = n // 2, T = t[|i - j|] and the Hankel H = t[n - 1 - i - j] over
    i, j < m, they are T - H and T + H; for odd n, T + H is bordered by the
    column sqrt(2) t[m - i] and the corner t[0].  That is a quarter of the
    flops of the dense solve, and T and H are read-only views over t.
    """
    n = t.size
    m = n // 2
    if m:
        T = _toeplitz_view(t[:m])
        H = sliding_window_view(t[::-1][: 2 * m - 1], m)
    else:
        T = H = np.empty((0, 0))
    minus = T - H
    if n % 2:
        plus = np.empty((m + 1, m + 1))
        np.add(T, H, out=plus[:m, :m])
        plus[:m, m] = plus[m, :m] = math.sqrt(2.0) * t[m:0:-1]
        plus[m, m] = t[0]
    else:
        plus = T + H
    return np.sort(np.concatenate((np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus))))


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
    if _symmetric_toeplitz(R):
        w = _toeplitz_eigenvalues(R[0])
    else:
        w = np.linalg.eigvalsh(R)
    return _clipped_eigenvalues(name, w, R)


def _to_trace_n(R: np.ndarray) -> np.ndarray:
    trace = float(R.sum())
    if trace <= 0.0:
        raise ValueError("correlation matrix has non-positive trace")
    return R * (R.size / trace)


def build_wdm_correlation(
    profile_s: VarianceProfile, profile_r: VarianceProfile
) -> CorrelationModel:
    """Diagonal correlation from partition masses, each side scaled to tr(R) = n."""
    if profile_s.grid.side != "source" or profile_r.grid.side != "receiver":
        raise ValueError("profiles must be (source, receiver) in that order")
    return CorrelationModel(_to_trace_n(profile_s.variances), _to_trace_n(profile_r.variances))


def build_jakes_correlation(cfg: PhysicalConfig) -> CorrelationModel:
    """Toeplitz correlation of the lines sampled at half-wavelength spacing.

    The sample count per side matches the wavenumber mode count, so the Jakes
    and wavenumber spectra live on the same index axis.  Entry (i, j) is
    J0(k |i - j| lambda/2); the diagonal is J0(0) = 1, so tr R = n with no
    normalization.  Each side is a read-only strided view over its 2 n - 1
    lag values, and equal sides are one array.
    """
    n_s, n_r = cfg.mode_count("source"), cfg.mode_count("receiver")
    lags = special.j0(cfg.k * (0.5 * cfg.wavelength) * np.arange(max(n_s, n_r)))
    R_s = _toeplitz_view(lags[:n_s])
    return CorrelationModel(R_s, R_s if n_r == n_s else _toeplitz_view(lags[:n_r]))


def build_iid_correlation(n_s: int, n_r: int) -> CorrelationModel:
    """Identity correlation (i.i.d. Rayleigh fading), stored as unit vectors."""
    if n_s < 1 or n_r < 1:
        raise ValueError("sizes must be at least 1")
    return CorrelationModel(np.ones(n_s), np.ones(n_r))


def check_seed(seed, name: str = "seed") -> int:
    """seed as an int; a ValueError naming it unless it is an integer in [0, 2**64)."""
    # bools are ints to Python, and int() would take a float or a string
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def draw_w(n_r: int, n_s: int, seed) -> np.ndarray:
    """Draw the n_r x n_s matrix W of seeded i.i.d. CN(0, 1) entries.

    The same seed reproduces the same W bitwise; Monte Carlo derives one seed
    per realization (see metrics.realization_seeds).
    """
    seed = check_seed(seed)
    # one draw of all 2 n_r n_s normals, real parts first: the stream order
    # of two separate draws
    parts = np.random.default_rng(seed).standard_normal((2, n_r, n_s))
    parts *= math.sqrt(0.5)
    W = np.empty((n_r, n_s), dtype=complex)
    W.real, W.imag = parts
    return W


def draw_channel(model: CorrelationModel, seed) -> np.ndarray:
    """Draw H = R_r^(1/2) W R_s^(1/2), with W from draw_w(n_r, n_s, seed).

    The same seed reproduces the same H bitwise.
    """
    H = draw_w(model.R_r.shape[0], model.R_s.shape[0], seed)
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
