"""Angular scattering models: vMF mixtures, their density and its quadrature.

Directions are forward-traveling only, theta in [0, pi).  A scattering spec is
either isotropic (uniform density 1/pi over the half circle) or a weighted
mixture of 2D von Mises-Fisher clusters.  The mixture density is normalized
over the full circle, so a small amount of mass can leak outside [0, pi);
channel.build_wdm_correlation scales it away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .specfun import bessel_i0_scaled, solve_concentration

__all__ = [
    "ISOTROPIC_DENSITY",
    "Cluster",
    "ScatteringSpec",
    "psf_density",
    "integrate_density",
    "acf_quadrature",
]

ISOTROPIC_DENSITY = 1.0 / math.pi


@dataclass(frozen=True)
class Cluster:
    """One vMF cluster; its concentration a solves circ_variance = 1 - (I1(a)/I0(a))^2.

    Each field is checked on its own, by a ValueError: weight positive and
    finite, mean_angle in [0, pi), and circ_variance in (0, 1] with a root
    that specfun.solve_concentration can reach.
    """

    weight: float
    mean_angle: float
    circ_variance: float
    concentration: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise ValueError(f"cluster weight must be positive and finite, got {self.weight}")
        if not (0.0 <= self.mean_angle < math.pi):
            raise ValueError(f"mean_angle must lie in [0, pi), got {self.mean_angle}")
        if not (0.0 < self.circ_variance <= 1.0):
            raise ValueError(f"circ_variance must lie in (0, 1], got {self.circ_variance}")
        object.__setattr__(self, "concentration", solve_concentration(self.circ_variance))


@dataclass(frozen=True)
class ScatteringSpec:
    """The isotropic half-circle model when it has no clusters, else a vMF mixture."""

    clusters: tuple[Cluster, ...] = ()

    def __post_init__(self) -> None:
        total = math.fsum(c.weight for c in self.clusters)
        if self.clusters and abs(total - 1.0) > 1e-12:
            raise ValueError(f"cluster weights must sum to 1, got {total}")

    @classmethod
    def isotropic(cls) -> "ScatteringSpec":
        return cls()

    @classmethod
    def mixture(cls, clusters) -> "ScatteringSpec":
        clusters = tuple(clusters)
        if not clusters:
            raise ValueError("mixture spec needs at least one cluster")
        return cls(clusters)

    @property
    def is_isotropic(self) -> bool:
        return not self.clusters


def _raw_density(spec: ScatteringSpec, theta):
    """Density without the [0, pi) domain check; valid on the closed interval.

    Written with the exponentially scaled I0 so arbitrarily large
    concentrations cannot overflow, and with cos(d) - 1 as -2 sin^2(d/2): near
    the mean cos(d) rounds to 1, which would cost kappa * 1e-16 relative.
    """
    theta = np.asarray(theta, dtype=float)
    if spec.is_isotropic:
        return np.full_like(theta, ISOTROPIC_DENSITY)
    total = np.zeros_like(theta)
    for c in spec.clusters:
        scale = c.weight / (2.0 * math.pi * bessel_i0_scaled(c.concentration))
        half_sine = np.sin(0.5 * (theta - c.mean_angle))
        total += scale * np.exp(-2.0 * c.concentration * half_sine**2)
    return total


def psf_density(spec: ScatteringSpec, theta):
    """Angular power density at theta in [0, pi): a float for a scalar,
    an ndarray of theta's shape for an array or a sequence.

    Isotropic specs return 1/pi exactly; mixtures evaluate the weighted vMF
    densities (full-circle normalization).
    """
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta must be finite")
    if np.any(arr < 0.0) or np.any(arr >= math.pi):
        raise ValueError("theta must lie in [0, pi)")
    out = _raw_density(spec, arr)
    return float(out) if out.ndim == 0 else out


def _phase(k: float, r_x) -> float:
    if not (math.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k}")
    phase = k * float(r_x)
    if not math.isfinite(phase):
        raise ValueError(f"r_x must keep the phase k * r_x finite, got r_x = {r_x} at k = {k}")
    return phase


@cache
def _gauss_legendre():
    """Nodes of the 20- and 10-point Gauss-Legendre rules on [-1, 1], then their weights."""
    x20, w20 = np.polynomial.legendre.leggauss(20)
    x10, w10 = np.polynomial.legendre.leggauss(10)
    return np.concatenate((x20, x10)), w20, w10


# Most panels the refinement of one interval may reach, as quad's limit=200.
_PANEL_LIMIT = 200


def _gauss_pair(spec: ScatteringSpec, a: np.ndarray, b: np.ndarray, weight=None):
    """20- and 10-point Gauss-Legendre integrals of density * weight over each [a, b]."""
    nodes, w20, w10 = _gauss_legendre()
    half = 0.5 * (b - a)
    theta = 0.5 * (a + b)[:, None] + half[:, None] * nodes
    density = _raw_density(spec, theta)
    if weight is not None:
        density = density * weight(theta)
    return half * (density[:, :20] * w20).sum(axis=1), half * (density[:, 20:] * w10).sum(axis=1)


def integrate_density(spec: ScatteringSpec, lo: np.ndarray, hi: np.ndarray, weight=None):
    """Integrals of the (weighted) density over each [lo, hi] by adaptive bisection.

    Returns each interval's value and summed error estimate.  Each interval
    is first split at the cluster means strictly inside it.  A panel is
    accepted when its 20- and 10-point Gauss-Legendre values agree within
    max(1e-15, 1e-13 * |G20|) and, if it ends at a cluster mean, when it is no
    wider than 16 of that cluster's spreads 1/sqrt(concentration); otherwise
    it is halved.  The width rule keeps a peak narrower than the nodes'
    spacing from passing unseen, with both rules near 0: the node nearest a
    panel end lies 0.0034 panel widths in.  Once halving would take an
    interval past _PANEL_LIMIT panels, its open panels are accepted as they
    are, so its summed |G20 - G10| reports what was not reached.  Value and
    error are running sums of the accepted panels, pass by pass, and an
    interval's panels keep their order, so each has the interval's own bits.
    """
    def sums(own, values):
        if np.iscomplexobj(values):
            return sums(own, values.real) + 1j * sums(own, values.imag)
        return np.bincount(own, weights=values, minlength=lo.size)

    # 16 spreads is a margin: a peak at a panel end is lost only past 2000
    # spreads; at 32 or 1024 no profile of variance 1e-1 to 1e-9 moves
    peaks = [(c.mean_angle, 16.0 / math.sqrt(c.concentration))
             for c in spec.clusters if c.concentration > 0.0]
    means = np.fromiter({m for m, _ in peaks}, float)
    rows, cols = np.nonzero((lo[:, None] < means) & (means < hi[:, None]))
    # an interval's start and the means inside it, sorted, start its
    # panels; those means and its end, sorted, end them
    own = np.concatenate((np.arange(lo.size), rows))
    a, b = np.concatenate((lo, means[cols])), np.concatenate((hi, means[cols]))
    a, b, own = a[np.lexsort((a, own))], b[np.lexsort((b, own))], np.sort(own)
    panels = np.bincount(own, minlength=lo.size)
    total, err = np.zeros(lo.size), np.zeros(lo.size)
    while a.size:
        g20, g10 = _gauss_pair(spec, a, b, weight)
        gap = np.abs(g20 - g10)
        # the floor of 1e-15 is a margin: at 0 a cluster of circular variance
        # 1e-9 runs into the panel limit; at 1e-14 the default profiles keep
        # their bits, and up to variance 1e-6 no value moves by 1.5e-15
        done = gap <= np.maximum(1e-15, 1e-13 * np.abs(g20))
        for mean, width in peaks:
            done &= ~(((a == mean) | (b == mean)) & (b - a > width))
        done |= (panels + np.bincount(own[~done], minlength=lo.size) > _PANEL_LIMIT)[own]
        total, err = total + sums(own[done], g20[done]), err + sums(own[done], gap[done])
        split = ~done
        panels += np.bincount(own[split], minlength=lo.size)
        mid = 0.5 * (a[split] + b[split])
        a, b, own = np.append(a[split], mid), np.append(mid, b[split]), np.tile(own[split], 2)
    return total, err


def acf_quadrature(spec: ScatteringSpec, k: float, r_x: float) -> complex:
    """Spatial autocorrelation by quadrature over the angular density.

    Integrates density(theta) * exp(j k cos(theta) r_x) over [0, pi] with
    integrate_density, the engine of the variance profiles, on one interval
    per 64 radians of k |r_x| (at most 200) so that a long lag does not run
    into one interval's panel limit; the intervals' values and errors are
    summed.  An error estimate above 1e-9 raises; so does a phase k r_x that
    is not finite.
    """
    phase = _phase(k, r_x)

    def weight(theta):
        return np.exp(1j * phase * np.cos(theta))

    # 64 radians is a margin: up to 12800 radians the summed estimate stays
    # near 4e-13 at one piece per 320 radians, and passes 1e-9 near 512
    pieces = max(1, math.ceil(min(200.0, abs(phase) / 64.0)))
    edges = np.linspace(0.0, math.pi, pieces + 1)
    values, err = integrate_density(spec, edges[:-1], edges[1:], weight)
    err = err.sum()
    # the estimate is the 10-point rule's error and overstates the value's:
    # at 1.2e5 radians it reads 1.3e-8 and raises, with the value 1.4e-14 off J0
    if not err <= 1e-9:
        raise RuntimeError(f"ACF quadrature error {err:.3e} at r_x={r_x}")
    return values.sum()
