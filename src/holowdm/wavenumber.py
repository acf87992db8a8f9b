"""Discrete wavenumber grids and their per-index variance profiles.

The propagating plane-wave directions of a line aperture of length L discretize
into the 2 L/lambda integers m from -L/lambda to L/lambda - 1.  Each index owns
an angular partition between consecutive arccos values, and these tile [0, pi]
only at a whole L/lambda, the one kind of ratio accepted.  Integrating the
scattering density over a partition gives that index's coupling variance.
Every quantity here depends on the apertures through L/lambda alone, so the
geometry is given in wavelengths, and each function takes one line's
L/lambda: a source and a receiver differ in nothing else.
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


def mode_count(L_over_lambda: float) -> int:
    """Propagating modes of a line L/lambda wavelengths long: 2 L / lambda.

    A ratio that is not a whole number of wavelengths is refused: its
    partitions would leave the ends of [0, pi] to no index.  So is a bool,
    which Python and numpy would take as 1 or 0.
    """
    if isinstance(L_over_lambda, (bool, np.bool_)):
        raise ValueError(f"{L_over_lambda!r} is a bool, not a length in wavelengths")
    try:
        ratio = 2.0 * L_over_lambda
    except OverflowError:
        # an int past the range of a double
        ratio = math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"2 L / lambda = {ratio} has no finite mode count")
    if ratio < 1.0:
        raise ValueError("an aperture shorter than half a wavelength carries no modes")
    if not float(L_over_lambda).is_integer():
        raise ValueError(
            f"{L_over_lambda!r} is not a whole number of wavelengths, "
            "so its partitions would not tile [0, pi]"
        )
    return int(ratio)


@dataclass(eq=False)
class VarianceProfile:
    """Raw scattering mass of the angular partition of each index of one line.

    One minus their sum is the mass outside [0, pi]; only
    channel.build_wdm_correlation scales a side, to tr R = n.
    """

    variances: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.variances) & (self.variances >= 0.0)):
            raise ValueError("variances must be finite and non-negative")


def build_grid(L_over_lambda: float) -> np.ndarray:
    """Ordered propagating-mode indices of a line L/lambda wavelengths long:
    {-L/lambda, ..., L/lambda - 1}, whose angular partitions tile [0, pi]."""
    half = mode_count(L_over_lambda) // 2
    return np.arange(-half, half, dtype=np.int64)


def _partition_bounds(L_over_lambda: float, indices: np.ndarray):
    # one division per edge: every quotient lies in [-1, 1], and the ends
    # are exactly 0 and pi
    return np.arccos((indices + 1) / L_over_lambda), np.arccos(indices / L_over_lambda)


def variance_profile(L_over_lambda: float, spec: ScatteringSpec) -> VarianceProfile:
    """Integrate the scattering density over every index's angular partition
    of a line L/lambda wavelengths long.

    One call to scattering.integrate_density takes all partitions: each is
    split at the cluster means inside it and bisected until every panel's
    20- and 10-point Gauss-Legendre values agree.  A partition error above
    1e-10, as of a cluster too narrow for the quadrature, raises a
    ValueError.  The error estimate is the 10-point rule's |G20 - G10|, while
    each entry is the 20-point rule's value, so the refusal is conservative.
    Entries are independent of each other and of any evaluation parallelism
    a caller might add.
    """
    indices = build_grid(L_over_lambda)
    variances, err = integrate_density(spec, *_partition_bounds(L_over_lambda, indices))
    worst = int(np.argmax(err))
    if err[worst] > 1e-10:
        raise ValueError(f"partition quadrature error {err[worst]:.3e} at index {indices[worst]}")
    return VarianceProfile(variances)
