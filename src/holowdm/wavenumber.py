"""Discrete wavenumber grids and their per-index variance profiles.

The propagating plane-wave directions of a line aperture of length L discretize
into the integers m with |m| <= L/lambda; there are floor(2L/lambda) of them.
Each index owns an angular partition between consecutive arccos values, and
integrating the scattering density over a partition gives that index's
coupling variance.  Every quantity here depends on the apertures through
L/lambda alone, so the geometry is given in wavelengths, and each function
takes one line's L/lambda: a source and a receiver differ in nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scattering import ScatteringSpec, integrate_density

__all__ = [
    "VarianceProfile",
    "build_grid",
    "mode_count",
    "variance_profile",
]

# Doubling is exact, so a half-integer L/lambda read from a config needs no
# snap; it serves a ratio a caller computed as a quotient: 1.2 / 0.1 is
# 11.999999999999998, whose 2 L / lambda lands a hair under 24.  A ratio
# within 5e-10 below a half-integer counts as that half-integer.
_SNAP = 1e-9


def mode_count(L_over_lambda: float) -> int:
    """Propagating modes of a line L/lambda wavelengths long: floor(2 L / lambda)."""
    ratio = 2.0 * L_over_lambda
    if not math.isfinite(ratio):
        raise ValueError(f"2 L / lambda = {ratio} has no finite mode count")
    n = math.floor(ratio + _SNAP)
    if n < 1:
        raise ValueError("an aperture shorter than half a wavelength carries no modes")
    return n


@dataclass(eq=False)
class VarianceProfile:
    """Raw scattering mass of the angular partition of each index of one line.

    One minus their sum is the mass outside [0, pi]; only
    channel.build_wdm_correlation scales a side, to tr R = n.
    """

    variances: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.variances < 0.0):
            raise ValueError("variances must be non-negative")


def build_grid(L_over_lambda: float) -> np.ndarray:
    """Ordered propagating-mode indices of a line L/lambda wavelengths long.

    The n = floor(2L/lambda) integers of smallest magnitude, ties between +m
    and -m resolved toward the negative index: {-(n // 2), ..., n - n // 2 - 1}.
    All satisfy |m| <= L/lambda, and an integer L/lambda yields exactly
    {-L/lambda, ..., L/lambda - 1}, whose angular partitions tile [0, pi].
    """
    n = mode_count(L_over_lambda)
    return np.arange(-(n // 2), n - n // 2, dtype=np.int64)


def _partition_bounds(L_over_lambda: float, indices: np.ndarray):
    # one division per edge: at an integer L/lambda the ends are exactly 0 and pi
    lo = np.arccos(np.clip((indices + 1) / L_over_lambda, -1.0, 1.0))
    hi = np.arccos(np.clip(indices / L_over_lambda, -1.0, 1.0))
    return lo, hi


def variance_profile(L_over_lambda: float, spec: ScatteringSpec) -> VarianceProfile:
    """Integrate the scattering density over every index's angular partition
    of a line L/lambda wavelengths long.

    One call to scattering.integrate_density takes all partitions: each is
    split at the cluster means inside it and bisected until every panel's
    20- and 10-point Gauss-Legendre values agree.  A partition error above
    1e-10 raises a RuntimeError.  A profile without mass, as of a narrow
    cluster in the sliver near 0 or pi that the partitions leave uncovered
    at non-integer L/lambda, raises a ValueError.  Entries are independent
    of each other and of any evaluation parallelism a caller might add.
    """
    indices = build_grid(L_over_lambda)
    variances, err = integrate_density(spec, *_partition_bounds(L_over_lambda, indices))
    worst = int(np.argmax(err))
    if err[worst] > 1e-10:
        raise RuntimeError(f"partition quadrature error {err[worst]:.3e} at index {indices[worst]}")
    if float(variances.sum()) <= 0.0:
        raise ValueError("scattering density carries no mass on the partitions")
    return VarianceProfile(variances)
