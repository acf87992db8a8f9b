"""Discrete wavenumber grids and their per-index variance profiles.

The propagating plane-wave directions of a line aperture of length L discretize
into the integers m with |2 pi m / L| <= k; there are floor(2L/lambda) of them.
Each index owns an angular partition between consecutive arccos values, and
integrating the scattering density over a partition gives that index's
coupling variance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import scattering
from .scattering import ScatteringSpec

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
    """Geometry of the coaxial parallel line apertures.

    wavelength and the two lengths are in meters; d is the separation, carried
    for completeness but unused by the NLoS statistics.  The Fourier-series
    channel model assumes electrically large lines; a warning is emitted below
    L/lambda = 8.
    """

    wavelength: float
    L_s: float
    L_r: float
    d: float = 0.0

    def __post_init__(self) -> None:
        for name in ("wavelength", "L_s", "L_r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (math.isfinite(self.d) and self.d >= 0.0):
            raise ValueError(f"d must be non-negative and finite, got {self.d}")
        if math.isinf(self.k):
            raise ValueError(f"k = 2 pi / wavelength overflows at wavelength {self.wavelength}")
        if min(self.L_s, self.L_r) / self.wavelength < 8.0:
            warnings.warn(
                "aperture shorter than 8 wavelengths; the Fourier-series channel "
                "model degrades on electrically small lines",
                stacklevel=3,
            )

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def aperture(self, side: str) -> float:
        return self.L_s if _check_side(side) == "source" else self.L_r

    def mode_count(self, side: str) -> int:
        # the bits of 2 L / lambda wherever 2 L is finite; scaling by 2 is exact
        ratio = 2.0 * (self.aperture(side) / self.wavelength)
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
    ratio = cfg.wavelength / cfg.aperture(side)
    lo = np.arccos(np.clip(ratio * (indices + 1), -1.0, 1.0))
    hi = np.arccos(np.clip(ratio * indices, -1.0, 1.0))
    return lo, hi


def variance_profile(cfg: PhysicalConfig, spec: ScatteringSpec, side: str) -> VarianceProfile:
    """Integrate the scattering density over every index's angular partition.

    All partitions are integrated at once with a 20-point Gauss-Legendre
    rule; the 10-point rule on the same partition estimates its error.  A
    partition is refined by adaptive bisection with the same pair of rules
    (see scattering._refine_partition) when a cluster mean lies in it or on
    its boundary, or when the estimate exceeds max(1e-13, 1e-12 * |G20|); a
    refined error above 1e-10 raises a RuntimeError.  A profile without mass,
    as of a narrow cluster in the sliver near 0 or pi that the partitions
    leave uncovered at non-integer L/lambda, raises a ValueError.
    Entries are independent of each other and of any evaluation parallelism
    a caller might add.
    """
    indices = build_grid(cfg, side)
    lo, hi = _partition_bounds(cfg, side, indices)
    variances, estimate = scattering._gauss_pair(spec, lo, hi)
    means = np.array([c.mean_angle for c in spec.clusters])
    holds_mean = ((lo[:, None] <= means) & (means <= hi[:, None])).any(axis=1)
    rough = np.abs(variances - estimate) > np.maximum(1e-13, 1e-12 * np.abs(variances))
    for i in np.flatnonzero(holds_mean | rough):
        values, err = scattering._refine_partition(spec, lo[i], hi[i])
        if err > 1e-10:
            raise RuntimeError(
                f"partition quadrature error {err:.3e} at {side} index {indices[i]}"
            )
        variances[i] = math.fsum(values)
    variances = np.maximum(variances, 0.0)
    if float(variances.sum()) <= 0.0:
        raise ValueError(f"scattering density carries no mass on the {side} partitions")
    return VarianceProfile(indices=indices, side=side, variances=variances)
