"""Scalar special functions and the circular-variance concentration solver.

Evaluation delegates to scipy.special (Cephes-backed, accurate to a few ulp).
The test suite checks these functions against independent series/asymptotic
evaluators that live with the tests, in tests/oracles.py.

The concentration solve uses :func:`_brentq`, an operation-for-operation port
of scipy's Brent root finder (scipy/optimize/Zeros/brentq.c).  It returns the
same double as ``scipy.optimize.brentq`` for the same arguments, without
importing ``scipy.optimize`` at run time.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "bessel_i0",
    "bessel_i0_scaled",
    "bessel_i1",
    "bessel_j0",
    "bessel_ratio_i1_i0",
    "solve_concentration",
]


def _as_finite_float(name: str, value) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order 0.

    Overflows to inf past x ~ 709; callers needing large arguments should use
    the scaled variant or :func:`bessel_ratio_i1_i0`.
    """
    x = _as_finite_float("x", x)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    # the rational approximation can land a couple of ulp under the true
    # value near x = 0; I0 >= 1 holds identically
    return max(1.0, float(special.i0(x)))


def bessel_i1(x: float) -> float:
    """Modified Bessel function of the first kind, order 1."""
    x = _as_finite_float("x", x)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    return float(special.i1(x))


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x); overflow-free for any x >= 0."""
    x = _as_finite_float("x", x)
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    return float(special.i0e(x))


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order 0.

    Evaluated at |x| so the even symmetry J0(-x) = J0(x) holds exactly.
    """
    x = _as_finite_float("x", x)
    return float(special.j0(abs(x)))


def bessel_ratio_i1_i0(alpha: float) -> float:
    """I1(alpha)/I0(alpha), in [0, 1).

    Computed from the exponentially scaled Bessel functions, so there is no
    overflow at any alpha (tested up to 1e8 and beyond).
    """
    alpha = _as_finite_float("alpha", alpha)
    if alpha < 0.0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return float(special.i1e(alpha) / special.i0e(alpha))


def solve_concentration(nu_sq: float) -> float:
    """Invert nu^2 = 1 - (I1(alpha)/I0(alpha))^2 for the concentration alpha.

    nu_sq must lie in (0, 1]; nu_sq = 1 maps to alpha = 0 exactly.  nu_sq = 0
    is rejected because the concentration diverges there.  The returned root
    satisfies |1 - ratio(alpha)^2 - nu_sq| <= 1e-10.
    """
    nu_sq = _as_finite_float("nu_sq", nu_sq)
    if not (0.0 < nu_sq <= 1.0):
        raise ValueError(f"nu_sq must lie in (0, 1], got {nu_sq}")
    if nu_sq == 1.0:
        return 0.0

    def gap(alpha: float) -> float:
        return (1.0 - bessel_ratio_i1_i0(alpha) ** 2) - nu_sq

    # The map alpha -> 1 - ratio(alpha)^2 decreases monotonically from 1
    # toward 0 (asymptotically ~ 1/alpha), so doubling always brackets.
    hi = 2.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError(f"failed to bracket concentration for nu_sq={nu_sq}")
    alpha = _brentq(gap, 0.0, hi, xtol=1e-12, rtol=4 * 2.3e-16, maxiter=200)
    residual = abs(gap(alpha))
    if residual > 1e-10:
        raise RuntimeError(f"concentration solve residual {residual:.3e} exceeds 1e-10")
    return alpha


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [xa, xb] by Brent's method, as scipy/optimize/Zeros/brentq.c.

    Every arithmetic step is the C code's, in its order, so the iterates and
    the returned root are the same doubles as ``scipy.optimize.brentq``.
    f(xa) and f(xb) must differ in sign; a bracket without a sign change
    raises ValueError and an unconverged solve raises RuntimeError.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    fcur = float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"Brent solve failed to converge after {maxiter} iterations, value {xcur}")
