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
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .blas import one_thread
from .specfun import bessel_j0
from .wavenumber import PhysicalConfig, VarianceProfile

__all__ = [
    "CorrelationModel",
    "build_wdm_correlation",
    "build_jakes_correlation",
    "build_iid_correlation",
    "draw_w",
    "draw_channel",
]

_EIG_CLAMP_TOL = 1e-10
_MATRICES = ("R_s", "R_r", "R_s_sqrt", "R_r_sqrt")


@dataclass(eq=False)
class CorrelationModel:
    """Per-side correlations with square roots computed on first use.

    A side is one of two kinds, and neither may be empty.  A diagonal side
    (WDM and i.i.d.) is its real, finite, non-negative 1-D variance vector; a
    dense side (Jakes) is a real 2-D array equal to the symmetric Toeplitz
    view of its first row.  Any other side raises a ValueError naming R_s or
    R_r.  R_s_sqrt and R_r_sqrt have the same form as their side and are
    cached, so the square root of a dense side is taken once, and only if a
    channel is drawn; sides that are one array share one root.  dense()
    gives the n x n matrix of any of the four, and angular() the diagonal
    model of the eigenvalues.
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
        dense side is solved as two half-size eigenproblems, and sides that
        are one array (square Jakes) are solved once.
        """
        if self.diagonal:
            return self
        w_s = side_spectrum("R_s", self.R_s)
        if self.R_r is self.R_s:
            return CorrelationModel(w_s, w_s)
        return CorrelationModel(w_s, side_spectrum("R_r", self.R_r))


def _check_correlation(name: str, R) -> np.ndarray:
    # the one admission rule: a non-empty real side that is a finite,
    # non-negative variance vector or the symmetric Toeplitz view of its first row
    R = np.asarray(R)
    if R.size and np.isrealobj(R):
        if R.ndim == 1 and np.all(np.isfinite(R)) and np.all(R >= 0.0):
            return R
        if R.ndim == 2 and np.array_equal(R, _toeplitz_view(R[0])):
            return R
    raise ValueError(
        f"{name} must be a non-empty variance vector (real, finite, non-negative) "
        f"or a real symmetric Toeplitz matrix, got shape {R.shape}"
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

    The halves are formed and solved side by side, T - H on a second thread
    and T + H on the calling one, both at one BLAS thread (blas.one_thread)
    whatever the caller's setting, so the bits depend on neither.  The second
    thread is joined before the return, and an error on it is raised here.
    """
    n = t.size
    m = n // 2
    if m:
        T = _toeplitz_view(t[:m])
        H = sliding_window_view(t[::-1][: 2 * m - 1], m)
    else:
        T = H = np.empty((0, 0))
    minus = []

    def solve_minus() -> None:
        try:
            minus.append(np.linalg.eigvalsh(T - H))
        except Exception as exc:
            minus.append(exc)

    with one_thread():
        beside = threading.Thread(target=solve_minus)
        beside.start()
        try:
            if n % 2:
                plus = np.empty((m + 1, m + 1))
                np.add(T, H, out=plus[:m, :m])
                plus[:m, m] = plus[m, :m] = math.sqrt(2.0) * t[m:0:-1]
                plus[m, m] = t[0]
            else:
                plus = T + H
            w_plus = np.linalg.eigvalsh(plus)
        finally:
            beside.join()
    if isinstance(minus[0], Exception):
        raise minus[0]
    return np.sort(np.concatenate((w_plus, minus[0])))


def _clipped_eigenvalues(name: str, w: np.ndarray, R: np.ndarray) -> np.ndarray:
    # Eigenvalues of a valid correlation matrix are non-negative up to
    # roundoff; anything below -1e-10 * trace means bad input.
    trace = float(np.trace(R))
    if w.min() < -_EIG_CLAMP_TOL * max(trace, 1.0):
        raise ValueError(f"{name} has a significantly negative eigenvalue ({w.min():.3e})")
    return np.clip(w, 0.0, None)


def _hermitian_sqrt(name: str, R: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(R)
    w = _clipped_eigenvalues(name, w, R)
    return (v * np.sqrt(w)) @ v.T


def _side_sqrt(name: str, R: np.ndarray) -> np.ndarray:
    return np.sqrt(R) if R.ndim == 1 else _hermitian_sqrt(name, R)


def side_spectrum(name: str, R: np.ndarray) -> np.ndarray:
    """Eigenvalues of R: a variance vector as it is, a Toeplitz side ascending and clipped at 0."""
    if R.ndim == 1:
        return R
    return _clipped_eigenvalues(name, _toeplitz_eigenvalues(R[0]), R)


def _to_trace_n(R: np.ndarray) -> np.ndarray:
    trace = float(R.sum())
    if trace <= 0.0:
        raise ValueError("correlation matrix has non-positive trace")
    return R * (R.size / trace)


def build_wdm_correlation(
    profile_s: VarianceProfile, profile_r: VarianceProfile
) -> CorrelationModel:
    """Diagonal correlation from partition masses, each side scaled to tr(R) = n."""
    if profile_s.side != "source" or profile_r.side != "receiver":
        raise ValueError("profiles must be (source, receiver) in that order")
    return CorrelationModel(_to_trace_n(profile_s.variances), _to_trace_n(profile_r.variances))


def build_jakes_correlation(cfg: PhysicalConfig) -> CorrelationModel:
    """Toeplitz correlation of the lines sampled at half-wavelength spacing.

    The sample count per side matches the wavenumber mode count, so the Jakes
    and wavenumber spectra live on the same index axis.  Entry (i, j) is
    J0(k |i - j| lambda/2) = J0(pi |i - j|), from specfun.bessel_j0 on the
    whole lag array; the diagonal is J0(0) = 1, so tr R = n with no
    normalization.  Each side is a read-only strided view over its 2 n - 1
    lag values, and equal sides are one array.
    """
    n_s, n_r = cfg.mode_count("source"), cfg.mode_count("receiver")
    lags = bessel_j0(math.pi * np.arange(max(n_s, n_r)))
    R_s = _toeplitz_view(lags[:n_s])
    return CorrelationModel(R_s, R_s if n_r == n_s else _toeplitz_view(lags[:n_r]))


def build_iid_correlation(n_s: int, n_r: int) -> CorrelationModel:
    """Identity correlation (i.i.d. Rayleigh fading), stored as unit vectors."""
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
    W = draw_w(model.R_r.shape[0], model.R_s.shape[0], seed)
    return model.dense("R_r_sqrt") @ W @ model.dense("R_s_sqrt")
