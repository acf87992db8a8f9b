"""Correlation-matrix construction, channel synthesis, and discrete link simulation.

All three channel families are separable, H = R_r^(1/2) W R_s^(1/2) with W
i.i.d. complex Gaussian: the wavenumber-multiplexed model has diagonal
per-side correlation (the per-index coupling variances), the spatially
sampled Jakes model has a real Toeplitz correlation, and i.i.d. Rayleigh is
the identity.  Every builder trace-normalizes to tr(R_s) = n_s and
tr(R_r) = n_r by default so E||H||_F^2 = n_s * n_r for all families, which is
the only normalization under which their capacities are comparable; the raw
length-scaled diagonal form stays available behind a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j0
from .wavenumber import PhysicalConfig, VarianceProfile

__all__ = [
    "MODEL_KINDS",
    "CorrelationModel",
    "ChannelRealization",
    "build_wdm_correlation",
    "build_jakes_correlation",
    "build_iid_correlation",
    "draw_channel",
    "simulate_link",
]

MODEL_KINDS = ("wdm", "jakes_sampled", "iid_rayleigh")

_HERMITIAN_TOL = 1e-12
_EIG_CLAMP_TOL = 1e-10


@dataclass(eq=False)
class CorrelationModel:
    """Per-side correlation matrices with cached Hermitian square roots.

    diagonal marks models whose four matrices are all diagonal (WDM and
    i.i.d.), so their square roots act on W as per-row and per-column scales.
    """

    kind: str
    R_s: np.ndarray
    R_r: np.ndarray
    R_s_sqrt: np.ndarray
    R_r_sqrt: np.ndarray
    diagonal: bool = False


@dataclass(eq=False)
class ChannelRealization:
    """One synthesized channel matrix plus the seed that produced it.

    tx_variances carries diag(R_s) so link simulation can rank transmit
    indices without re-deriving the model.
    """

    H: np.ndarray
    seed: int
    model_kind: str
    tx_variances: np.ndarray


def _check_hermitian(name: str, R: np.ndarray) -> np.ndarray:
    R = np.asarray(R)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"{name} must be square, got shape {R.shape}")
    scale = max(1.0, float(np.abs(R).max()))
    if float(np.abs(R - R.conj().T).max()) > _HERMITIAN_TOL * scale:
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return R


def _hermitian_sqrt(name: str, R: np.ndarray) -> np.ndarray:
    # Eigenvalues of a valid correlation matrix are non-negative up to
    # roundoff; anything below -1e-10 * trace means bad input.
    w, v = np.linalg.eigh(R)
    trace = float(np.trace(R).real)
    if w.min() < -_EIG_CLAMP_TOL * max(trace, 1.0):
        raise ValueError(f"{name} has a significantly negative eigenvalue ({w.min():.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _finalize(kind: str, R_s: np.ndarray, R_r: np.ndarray, diagonal: bool) -> CorrelationModel:
    R_s = _check_hermitian("R_s", R_s)
    R_r = _check_hermitian("R_r", R_r)
    if diagonal:
        R_s_sqrt = np.diag(np.sqrt(np.clip(np.diag(R_s).real, 0.0, None)))
        R_r_sqrt = np.diag(np.sqrt(np.clip(np.diag(R_r).real, 0.0, None)))
    else:
        R_s_sqrt = _hermitian_sqrt("R_s", R_s)
        R_r_sqrt = _hermitian_sqrt("R_r", R_r)
    return CorrelationModel(
        kind=kind, R_s=R_s, R_r=R_r, R_s_sqrt=R_s_sqrt, R_r_sqrt=R_r_sqrt, diagonal=diagonal
    )


def _trace_normalized(R: np.ndarray) -> np.ndarray:
    n = R.shape[0]
    trace = float(np.trace(R).real)
    if trace <= 0.0:
        raise ValueError("correlation matrix has non-positive trace")
    return R * (n / trace)


def build_wdm_correlation(
    profile_s: VarianceProfile,
    profile_r: VarianceProfile,
    L_s: float,
    L_r: float,
    trace_normalize: bool = True,
) -> CorrelationModel:
    """Diagonal correlation from per-index variances.

    Raw diagonal entries are L * sigma^2 (the squared length-scaled standard
    deviations); with trace_normalize they are rescaled to tr(R) = n.
    """
    if profile_s.grid.side != "source" or profile_r.grid.side != "receiver":
        raise ValueError("profiles must be (source, receiver) in that order")
    for name, L in (("L_s", L_s), ("L_r", L_r)):
        if not (math.isfinite(L) and L > 0.0):
            raise ValueError(f"{name} must be positive, got {L}")
    R_s = np.diag(profile_s.scaled_deviations(L_s) ** 2)
    R_r = np.diag(profile_r.scaled_deviations(L_r) ** 2)
    if trace_normalize:
        R_s = _trace_normalized(R_s)
        R_r = _trace_normalized(R_r)
    return _finalize("wdm", R_s, R_r, diagonal=True)


def build_jakes_correlation(cfg: PhysicalConfig) -> CorrelationModel:
    """Toeplitz correlation of the lines sampled at half-wavelength spacing.

    The sample count per side matches the wavenumber mode count, so the Jakes
    and wavenumber spectra live on the same index axis.
    """
    def one_side(side: str) -> np.ndarray:
        n = cfg.mode_count(side)
        spacing = 0.5 * cfg.wavelength
        gains = np.array([bessel_j0(cfg.k * spacing * m) for m in range(n)])
        i = np.arange(n)
        R = gains[np.abs(i[:, None] - i[None, :])]
        return _trace_normalized(R)

    return _finalize("jakes_sampled", one_side("source"), one_side("receiver"), diagonal=False)


def build_iid_correlation(n_s: int, n_r: int) -> CorrelationModel:
    """Identity correlation (i.i.d. Rayleigh fading)."""
    if n_s < 1 or n_r < 1:
        raise ValueError("sizes must be at least 1")
    return _finalize("iid_rayleigh", np.eye(n_s), np.eye(n_r), diagonal=True)


def _check_seed(seed) -> int:
    seed = int(seed)
    if not (0 <= seed < 2**64):
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    return seed


def draw_channel(model: CorrelationModel, seed) -> ChannelRealization:
    """Draw H = R_r^(1/2) W R_s^(1/2) with seeded i.i.d. CN(0, 1) entries in W.

    The same seed reproduces the same H bitwise; parallel Monte Carlo should
    derive one seed per realization (see metrics.realization_seeds).
    """
    seed = _check_seed(seed)
    n_s = model.R_s.shape[0]
    n_r = model.R_r.shape[0]
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n_r, n_s)) + 1j * rng.standard_normal((n_r, n_s))
    w *= math.sqrt(0.5)
    if model.diagonal:
        # equal bitwise to the dense product: every off-diagonal term is an
        # exact zero
        H = np.diag(model.R_r_sqrt)[:, None] * w * np.diag(model.R_s_sqrt)
    else:
        H = model.R_r_sqrt @ w @ model.R_s_sqrt
    return ChannelRealization(
        H=H,
        seed=seed,
        model_kind=model.kind,
        tx_variances=np.diag(model.R_s).real.copy(),
    )


def simulate_link(
    realization: ChannelRealization,
    x: np.ndarray,
    noise_var: float,
    seed,
) -> np.ndarray:
    """Received samples y = H[:, used] x + z with z i.i.d. CN(0, noise_var).

    When fewer streams than transmit modes are used, the N highest-variance
    transmit indices carry the data; the selected columns keep ascending index
    order, so x[m] rides the m-th selected column.
    """
    x = np.asarray(x, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    n_r, n_s = realization.H.shape
    if x.size < 1 or x.size > min(n_s, n_r):
        raise ValueError(f"stream count must lie in [1, {min(n_s, n_r)}], got {x.size}")
    if not (math.isfinite(noise_var) and noise_var >= 0.0):
        raise ValueError(f"noise_var must be non-negative, got {noise_var}")
    seed = _check_seed(seed)

    order = np.argsort(-realization.tx_variances, kind="stable")[: x.size]
    cols = np.sort(order)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_r) + 1j * rng.standard_normal(n_r)
    z *= math.sqrt(0.5 * noise_var)
    return realization.H[:, cols] @ x + z
