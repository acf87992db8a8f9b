"""Angular scattering models: vMF mixtures, their spatial ACF and wavenumber PSD.

Directions are forward-traveling only, theta in [0, pi).  A scattering spec is
either isotropic (uniform density 1/pi over the half circle) or a weighted
mixture of 2D von Mises-Fisher clusters.  The mixture density is normalized
over the full circle, so a small amount of mass can leak outside [0, pi);
consumers that need unit mass renormalize (see wavenumber.variance_profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (
    bessel_i0_scaled,
    bessel_j0,
    bessel_ratio_i1_i0,
    solve_concentration,
)

__all__ = [
    "ISOTROPIC_DENSITY",
    "Cluster",
    "ScatteringSpec",
    "psf_density",
    "acf",
    "acf_quadrature",
    "psd",
]

ISOTROPIC_DENSITY = 1.0 / math.pi

_CONSISTENCY_TOL = 1e-9


@dataclass(frozen=True)
class Cluster:
    """One vMF scattering cluster: weight, mean angle, spread, concentration.

    The concentration is the solved counterpart of the circular variance; the
    two must satisfy circ_variance = 1 - (I1(a)/I0(a))^2 within 1e-9.  Use
    :meth:`from_circular_variance` to build a consistent cluster.
    """

    weight: float
    mean_angle: float
    circ_variance: float
    concentration: float

    def __post_init__(self) -> None:
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise ValueError(f"cluster weight must be positive, got {self.weight}")
        if not (0.0 <= self.mean_angle < math.pi):
            raise ValueError(f"mean_angle must lie in [0, pi), got {self.mean_angle}")
        if not (0.0 < self.circ_variance <= 1.0):
            raise ValueError(f"circ_variance must lie in (0, 1], got {self.circ_variance}")
        if not (self.concentration >= 0.0 and math.isfinite(self.concentration)):
            raise ValueError(f"concentration must be non-negative, got {self.concentration}")
        residual = abs((1.0 - bessel_ratio_i1_i0(self.concentration) ** 2) - self.circ_variance)
        if residual > _CONSISTENCY_TOL:
            raise ValueError(
                f"concentration {self.concentration} inconsistent with "
                f"circ_variance {self.circ_variance} (residual {residual:.3e})"
            )

    @classmethod
    def from_circular_variance(cls, weight: float, mean_angle: float, circ_variance: float) -> "Cluster":
        return cls(weight, mean_angle, circ_variance, solve_concentration(circ_variance))


@dataclass(frozen=True)
class ScatteringSpec:
    """Either the isotropic half-circle model or a vMF mixture."""

    kind: str
    clusters: tuple[Cluster, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("isotropic", "mixture"):
            raise ValueError(f"unknown scattering kind {self.kind!r}")
        if self.kind == "isotropic":
            if self.clusters:
                raise ValueError("isotropic spec must not carry clusters")
            return
        if not self.clusters:
            raise ValueError("mixture spec needs at least one cluster")
        total = math.fsum(c.weight for c in self.clusters)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"cluster weights must sum to 1, got {total}")

    @classmethod
    def isotropic(cls) -> "ScatteringSpec":
        return cls("isotropic")

    @classmethod
    def mixture(cls, clusters) -> "ScatteringSpec":
        return cls("mixture", tuple(clusters))

    @property
    def is_isotropic(self) -> bool:
        return self.kind == "isotropic"


def _raw_density(spec: ScatteringSpec, theta):
    """Density without the [0, pi) domain check; valid on the closed interval.

    Written with the exponentially scaled I0 so arbitrarily large
    concentrations cannot overflow.
    """
    theta = np.asarray(theta, dtype=float)
    if spec.is_isotropic:
        return np.full_like(theta, ISOTROPIC_DENSITY)
    total = np.zeros_like(theta)
    for c in spec.clusters:
        scale = c.weight / (2.0 * math.pi * bessel_i0_scaled(c.concentration))
        total += scale * np.exp(c.concentration * (np.cos(theta - c.mean_angle) - 1.0))
    return total


def psf_density(spec: ScatteringSpec, theta):
    """Angular power density at theta in [0, pi); scalar or ndarray.

    Isotropic specs return 1/pi exactly; mixtures evaluate the weighted vMF
    densities (full-circle normalization).
    """
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta must be finite")
    if np.any(arr < 0.0) or np.any(arr >= math.pi):
        raise ValueError("theta must lie in [0, pi)")
    out = _raw_density(spec, arr)
    return out if isinstance(theta, np.ndarray) else float(out)


def _interior_points(spec: ScatteringSpec, a: float, b: float):
    pts = [c.mean_angle for c in spec.clusters if a < c.mean_angle < b]
    return pts or None


def acf_quadrature(spec: ScatteringSpec, k: float, r_x: float, abs_tol: float = 1e-10) -> complex:
    """Spatial autocorrelation by quadrature over the angular density.

    Integrates density(theta) * exp(j k cos(theta) r_x) over [0, pi].  Cluster
    mean angles are passed as break points so narrow vMF peaks are never
    missed by the initial panels.  scipy.integrate is imported here, since no
    stage of the study calls this.
    """
    from scipy import integrate

    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k}")
    r_x = float(r_x)
    if not math.isfinite(r_x):
        raise ValueError(f"r_x must be finite, got {r_x}")

    def integrand(theta, osc):
        return _raw_density(spec, theta) * osc(k * math.cos(theta) * r_x)

    pts = _interior_points(spec, 0.0, math.pi)
    re, re_err = integrate.quad(integrand, 0.0, math.pi, args=(math.cos,),
                                epsabs=abs_tol, epsrel=1e-11, limit=400, points=pts)
    im, im_err = integrate.quad(integrand, 0.0, math.pi, args=(math.sin,),
                                epsabs=abs_tol, epsrel=1e-11, limit=400, points=pts)
    if re_err + im_err > 1e-9:
        raise RuntimeError(f"ACF quadrature error {re_err + im_err:.3e} at r_x={r_x}")
    return complex(re, im)


def acf(spec: ScatteringSpec, k: float, r_x: float) -> complex:
    """Spatial autocorrelation of the channel along the aperture.

    The isotropic model has the closed form J0(k * r_x); mixtures fall back to
    quadrature (absolute error <= 1e-9).
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k}")
    r_x = float(r_x)
    if not math.isfinite(r_x):
        raise ValueError(f"r_x must be finite, got {r_x}")
    if spec.is_isotropic:
        return complex(bessel_j0(k * r_x))
    return acf_quadrature(spec, k, r_x)


def psd(spec: ScatteringSpec, k: float, k_x: float) -> float:
    """Wavenumber power spectral density on the visible region |k_x| <= k.

    Zero outside the visible region; the edge |k_x| = k is an integrable
    inverse-square-root singularity and returns inf as a sentinel.  Consumers
    integrate in the angular variable, never across the edge in k_x.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k}")
    k_x = float(k_x)
    if not math.isfinite(k_x):
        raise ValueError(f"k_x must be finite, got {k_x}")
    if abs(k_x) > k:
        return 0.0
    if abs(k_x) == k:
        return math.inf
    theta = math.acos(min(1.0, max(-1.0, k_x / k)))
    density = float(_raw_density(spec, theta))
    return 2.0 * math.pi * density / math.sqrt(k * k - k_x * k_x)
