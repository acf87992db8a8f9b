"""Independent test oracles: special-function evaluators and the PSD.

The production functions in holowdm.specfun evaluate their own series and
expansions; these plain Maclaurin sums and large-argument expansions, written
apart from them and sharing no code with them, are the cross-check path the
tests compare them against on logarithmic grids.  :func:`psd` is the paper's
wavenumber-domain characterization of a scattering spec, which the tests
transform back to its spatial ACF.

It needs nothing beyond holowdm and the standard library, so the acceptance
tests can import it where mpmath is not installed.
"""

import math

from holowdm.scattering import psf_density

# J0 series keeps ~5e-11 absolute accuracy up to the cutoff (alternating-term
# cancellation grows like I0(x)*eps); the Hankel expansion's smallest term is
# already ~2e-12 there, so the two branches meet comfortably inside 1e-10.
# The expansions are divergent, so summation stops at the smallest term or
# at the cap on the number of terms.
J0_SERIES_CUTOFF = 13.5
J0_ASYMPTOTIC_TERMS = 24

# Below the cutoff the ratio comes from the (cancellation-free) I1/I0 series;
# above it the quotient of the two large-argument expansions is accurate to
# well under 1e-13.
RATIO_SERIES_CUTOFF = 64.0
RATIO_ASYMPTOTIC_TERMS = 30

# Term size at which a summation is converged (relative for the I series).
ABS_TOL = 1e-17


def _non_negative(name: str, x: float) -> float:
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {x}")
    return x


# ---------------------------------------------------------------------------
# Reference evaluators (independent cross-check path)
# ---------------------------------------------------------------------------


def i0_reference(x: float) -> float:
    """Maclaurin-series I0; all terms positive, so no cancellation up to overflow."""
    x = _non_negative("x", x)
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 4000):
        term *= q / (k * k)
        total += term
        if term < ABS_TOL * total:
            return total
    raise RuntimeError(f"I0 series did not converge at x={x}")


def i1_reference(x: float) -> float:
    """Maclaurin-series I1."""
    x = _non_negative("x", x)
    q = 0.25 * x * x
    term = 0.5 * x
    total = term
    if x == 0.0:
        return 0.0
    for k in range(1, 4000):
        term *= q / (k * (k + 1))
        total += term
        if term < ABS_TOL * total:
            return total
    raise RuntimeError(f"I1 series did not converge at x={x}")


def _j0_series(x: float) -> float:
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 200):
        term *= -q / (k * k)
        total += term
        if abs(term) < ABS_TOL:
            return total
    raise RuntimeError(f"J0 series did not converge at x={x}")


def _j0_asymptotic(x: float) -> float:
    # Hankel expansion: J0(x) = sqrt(2/(pi x)) * (P cos(x - pi/4) - Q sin(x - pi/4)),
    # with P summing the even-index coefficients and Q the odd ones.  The series
    # is divergent; stop at the smallest term or the cap.
    p = 0.0
    q = 0.0
    t = 1.0  # c_j / x^j, starting at j = 0
    prev = math.inf
    for j in range(0, 2 * J0_ASYMPTOTIC_TERMS):
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
        if abs(t) < ABS_TOL:
            m, rem = divmod(jj, 2)
            sign = -1.0 if m % 2 else 1.0
            if rem == 0:
                p += sign * t
            else:
                q += sign * t
            break
    chi = x - 0.25 * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p * math.cos(chi) - q * math.sin(chi))


def j0_reference(x: float) -> float:
    """Series/asymptotic J0 on the whole real line (even in x)."""
    x = _non_negative("|x|", abs(float(x)))
    if x <= J0_SERIES_CUTOFF:
        return _j0_series(x)
    return _j0_asymptotic(x)


def _i_asymptotic_factor(nu: int, alpha: float) -> float:
    # Large-argument expansion of e^-x sqrt(2 pi x) I_nu(x); shared exponential
    # prefactors cancel in the ratio, so only this series matters.
    total = 1.0
    term = 1.0
    prev = math.inf
    for k in range(1, RATIO_ASYMPTOTIC_TERMS + 1):
        term *= ((2 * k - 1) ** 2 - 4 * nu * nu) / (8.0 * k * alpha)
        if abs(term) > prev:
            break
        total += term
        prev = abs(term)
        if abs(term) < ABS_TOL:
            break
    return total


def ratio_reference(alpha: float) -> float:
    """Series/asymptotic I1/I0 ratio."""
    alpha = _non_negative("alpha", alpha)
    if alpha <= RATIO_SERIES_CUTOFF:
        return i1_reference(alpha) / i0_reference(alpha)
    return _i_asymptotic_factor(1, alpha) / _i_asymptotic_factor(0, alpha)


def psd(spec, k: float, k_x: float) -> float:
    """Wavenumber power spectral density of spec inside the visible region |k_x| < k.

    2 pi p(theta) / sqrt(k^2 - k_x^2) at the direction theta = arccos(k_x / k),
    for the angular density p of holowdm.scattering.psf_density.
    """
    return 2.0 * math.pi * psf_density(spec, math.acos(k_x / k)) / math.sqrt(k * k - k_x * k_x)
