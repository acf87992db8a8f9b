"""Independent test oracles: special-function evaluators and the PSD.

The production functions in holowdm.specfun evaluate their own series and
expansions; these plain Maclaurin sums and large-argument expansions,
configured through :class:`BesselEvalPolicy` and written apart from them, are
the cross-check path the tests compare them against on logarithmic grids.
:func:`psd` is the paper's wavenumber-domain characterization of a scattering
spec, which the tests transform back to its spatial ACF.

It needs nothing beyond holowdm and the standard library, so the acceptance
tests can import it where mpmath is not installed.
"""

import math
from dataclasses import dataclass

from holowdm.scattering import psf_density
from holowdm.specfun import _as_finite_float


@dataclass(frozen=True)
class BesselEvalPolicy:
    """Knobs for the series/asymptotic reference evaluators.

    series_cutoff: argument magnitude below which the Maclaurin series is
        used; above it the large-argument expansion takes over.
    asymptotic_terms: cap on the number of asymptotic terms (the expansions
        are divergent, so summation also stops at the smallest term).
    abs_tol: term size at which summation is considered converged.
    """

    series_cutoff: float
    asymptotic_terms: int
    abs_tol: float

    def __post_init__(self) -> None:
        if not (self.series_cutoff > 0.0):
            raise ValueError("series_cutoff must be positive")
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if self.asymptotic_terms < 1:
            raise ValueError("asymptotic_terms must be at least 1")


# J0 series keeps ~5e-11 absolute accuracy up to the cutoff (alternating-term
# cancellation grows like I0(x)*eps); the Hankel expansion's smallest term is
# already ~2e-12 there, so the two branches meet comfortably inside 1e-10.
J0_REFERENCE_POLICY = BesselEvalPolicy(series_cutoff=13.5, asymptotic_terms=24, abs_tol=1e-17)

# Below the cutoff the ratio comes from the (cancellation-free) I1/I0 series;
# above it the quotient of the two large-argument expansions is accurate to
# well under 1e-13.
RATIO_REFERENCE_POLICY = BesselEvalPolicy(series_cutoff=64.0, asymptotic_terms=30, abs_tol=1e-17)


# ---------------------------------------------------------------------------
# Reference evaluators (independent cross-check path)
# ---------------------------------------------------------------------------


def i0_reference(x: float, policy: BesselEvalPolicy | None = None) -> float:
    """Maclaurin-series I0; all terms positive, so no cancellation up to overflow."""
    policy = policy or RATIO_REFERENCE_POLICY
    x = _as_finite_float("x", x)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 4000):
        term *= q / (k * k)
        total += term
        if term < policy.abs_tol * total:
            return total
    raise RuntimeError(f"I0 series did not converge at x={x}")


def i1_reference(x: float, policy: BesselEvalPolicy | None = None) -> float:
    """Maclaurin-series I1."""
    policy = policy or RATIO_REFERENCE_POLICY
    x = _as_finite_float("x", x)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    if x == 0.0:
        return 0.0
    for k in range(1, 4000):
        term *= q / (k * (k + 1))
        total += term
        if term < policy.abs_tol * total:
            return total
    raise RuntimeError(f"I1 series did not converge at x={x}")


def _j0_series(x: float, policy: BesselEvalPolicy) -> float:
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < policy.abs_tol:
            return total
    raise RuntimeError(f"J0 series did not converge at x={x}")


def _j0_asymptotic(x: float, policy: BesselEvalPolicy) -> float:
    # Hankel expansion: J0(x) = sqrt(2/(pi x)) * (P cos(x - pi/4) - Q sin(x - pi/4)),
    # with P summing the even-index coefficients and Q the odd ones.  The series
    # is divergent; stop at the smallest term or the policy cap.
    p = 0.0
    q = 0.0
    t = 1.0  # c_j / x^j, starting at j = 0
    prev = math.inf
    for j in range(0, 2 * policy.asymptotic_terms):
        if abs(t) > prev:
            break
        m, rem = divmod(j, 2)
        sign = -1.0 if m % 2 else 1.0
        if rem == 0:
            p += sign * t
        else:
            q += sign * t
        prev = abs(t)
        jj = j + 1
        t *= -((2 * jj - 1) ** 2) / (8.0 * jj * x)
        if abs(t) < policy.abs_tol:
            m, rem = divmod(jj, 2)
            sign = -1.0 if m % 2 else 1.0
            if rem == 0:
                p += sign * t
            else:
                q += sign * t
            break
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def j0_reference(x: float, policy: BesselEvalPolicy | None = None) -> float:
    """Series/asymptotic J0 on the whole real line (even in x)."""
    policy = policy or J0_REFERENCE_POLICY
    x = abs(_as_finite_float("x", x))
    if x <= policy.series_cutoff:
        return _j0_series(x, policy)
    return _j0_asymptotic(x, policy)


def _i_asymptotic_factor(nu: int, alpha: float, policy: BesselEvalPolicy) -> float:
    # Large-argument expansion of e^-x sqrt(2 pi x) I_nu(x); shared exponential
    # prefactors cancel in the ratio, so only this series matters.
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, policy.asymptotic_terms + 1):
        term *= ((2 * k - 1) ** 2 - 4 * nu * nu) / (8.0 * k * alpha)
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < policy.abs_tol:
            break
    return total


def ratio_reference(alpha: float, policy: BesselEvalPolicy | None = None) -> float:
    """Series/asymptotic I1/I0 ratio."""
    policy = policy or RATIO_REFERENCE_POLICY
    alpha = _as_finite_float("alpha", alpha)
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if alpha <= policy.series_cutoff:
        return i1_reference(alpha, policy) / i0_reference(alpha, policy)
    return _i_asymptotic_factor(1, alpha, policy) / _i_asymptotic_factor(0, alpha, policy)


def psd(spec, k: float, k_x: float) -> float:
    """Wavenumber power spectral density of spec inside the visible region |k_x| < k.

    2 pi p(theta) / sqrt(k^2 - k_x^2) at the direction theta = arccos(k_x / k),
    for the angular density p of holowdm.scattering.psf_density.
    """
    return 2.0 * math.pi * psf_density(spec, math.acos(k_x / k)) / math.sqrt(k * k - k_x * k_x)
