"""Discrete wavenumber grids and their per-index variance profiles.

The propagating plane-wave directions of a line aperture of length L discretize
into the integers m with |m| <= L/lambda; there are floor(2L/lambda) of them.
Each index owns an angular partition between consecutive arccos values, and
integrating the scattering density over a partition gives that index's
coupling variance.  Every quantity here depends on the apertures through
L/lambda alone, so the geometry is given in wavelengths.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .scattering import ScatteringSpec, integrate_density

__all__ = [
    "SIDES",
    "PhysicalConfig",
    "VarianceProfile",
    "build_grid",
    "variance_profile",
]

SIDES = ("source", "receiver")

# Tolerance for 2L/lambda landing a hair under an integer in floating point.
_SNAP = 1e-9


def _check_side(side: str) -> str:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return side


@dataclass(frozen=True)
class PhysicalConfig:
    """Geometry of the coaxial parallel line apertures, in wavelengths.

    Each field is a line's length L divided by the wavelength.  The
    Fourier-series channel model assumes electrically large lines; a warning
    is emitted below L/lambda = 8.
    """

    L_s_over_lambda: float
    L_r_over_lambda: float

    def __post_init__(self) -> None:
        for name in ("L_s_over_lambda", "L_r_over_lambda"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if min(self.L_s_over_lambda, self.L_r_over_lambda) < 8.0:
            warnings.warn(
                "aperture shorter than 8 wavelengths; the Fourier-series channel "
                "model degrades on electrically small lines",
                stacklevel=3,
            )

    def aperture(self, side: str) -> float:
        """L/lambda of one side."""
        return self.L_s_over_lambda if _check_side(side) == "source" else self.L_r_over_lambda

    def mode_count(self, side: str) -> int:
        ratio = 2.0 * self.aperture(side)
        if math.isinf(ratio):
            raise ValueError(f"{side} aperture of 2 L / lambda = {ratio} has no finite mode count")
        n = math.floor(ratio + _SNAP)
        if n < 1:
            raise ValueError(f"{side} aperture shorter than half a wavelength carries no modes")
        return n


@dataclass(eq=False)
class VarianceProfile:
    """Raw scattering mass of the angular partition of each index of one side.

    One minus their sum is the mass outside [0, pi]; only
    channel.build_wdm_correlation scales a side, to tr R = n.
    """

    indices: np.ndarray
    side: str
    variances: np.ndarray

    def __post_init__(self) -> None:
        if self.variances.shape != self.indices.shape:
            raise ValueError("variance vector does not match the index count")
        if np.any(self.variances < 0.0):
            raise ValueError("variances must be non-negative")


def build_grid(cfg: PhysicalConfig, side: str) -> np.ndarray:
    """Ordered propagating-mode indices of one side.

    The n = floor(2L/lambda) integers of smallest magnitude, ties between +m
    and -m resolved toward the negative index: {-(n // 2), ..., n - n // 2 - 1}.
    All satisfy |m| <= L/lambda, and an integer L/lambda yields exactly
    {-L/lambda, ..., L/lambda - 1}, whose angular partitions tile [0, pi].
    """
    n = cfg.mode_count(side)
    return np.arange(-(n // 2), n - n // 2, dtype=np.int64)


def _partition_bounds(cfg: PhysicalConfig, side: str, indices: np.ndarray):
    # one division per edge: at an integer L/lambda the ends are exactly 0 and pi
    ratio = cfg.aperture(side)
    lo = np.arccos(np.clip((indices + 1) / ratio, -1.0, 1.0))
    hi = np.arccos(np.clip(indices / ratio, -1.0, 1.0))
    return lo, hi


def variance_profile(cfg: PhysicalConfig, spec: ScatteringSpec, side: str) -> VarianceProfile:
    """Integrate the scattering density over every index's angular partition.

    One call to scattering.integrate_density takes all partitions: each is
    split at the cluster means inside it and bisected until every panel's
    20- and 10-point Gauss-Legendre values agree.  A partition error above
    1e-10 raises a RuntimeError.  A profile without mass, as of a narrow
    cluster in the sliver near 0 or pi that the partitions leave uncovered
    at non-integer L/lambda, raises a ValueError.  Entries are independent
    of each other and of any evaluation parallelism a caller might add.
    """
    indices = build_grid(cfg, side)
    variances, err = integrate_density(spec, *_partition_bounds(cfg, side, indices))
    worst = int(np.argmax(err))
    if err[worst] > 1e-10:
        raise RuntimeError(
            f"partition quadrature error {err[worst]:.3e} at {side} index {indices[worst]}"
        )
    if float(variances.sum()) <= 0.0:
        raise ValueError(f"scattering density carries no mass on the {side} partitions")
    return VarianceProfile(indices=indices, side=side, variances=variances)
