"""Special functions and the circular-variance concentration solver.

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

import numpy as np
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


def _non_negative(name: str, value) -> float:
    x = _as_finite_float(name, value)
    if x < 0.0:
        raise ValueError(f"{name} must be non-negative, got {x}")
    return x


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order 0.

    Overflows to inf past x ~ 709; callers needing large arguments should use
    the scaled variant or :func:`bessel_ratio_i1_i0`.
    """
    x = _non_negative("x", x)
    # the rational approximation can land a couple of ulp under the true
    # value near x = 0; I0 >= 1 holds identically
    return max(1.0, float(special.i0(x)))


def bessel_i1(x: float) -> float:
    """Modified Bessel function of the first kind, order 1."""
    x = _non_negative("x", x)
    return float(special.i1(x))


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x); overflow-free for any x >= 0."""
    x = _non_negative("x", x)
    return float(special.i0e(x))


def bessel_j0(x):
    """Bessel function of the first kind, order 0: a float for a scalar,
    an ndarray of x's shape for an array or a sequence.

    Evaluated at |x| so the even symmetry J0(-x) = J0(x) holds exactly; a
    non-finite entry raises a ValueError.  An array gives the bits of the
    scalar calls, and channel.build_jakes_correlation takes its lags from
    one array call.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    out = special.j0(np.abs(arr))
    return float(out) if out.ndim == 0 else out


def bessel_ratio_i1_i0(alpha: float) -> float:
    """I1(alpha)/I0(alpha), in [0, 1).

    Computed from the exponentially scaled Bessel functions, so there is no
    overflow at any alpha (tested up to 1e8 and beyond).
    """
    alpha = _non_negative("alpha", alpha)
    return float(special.i1e(alpha) / special.i0e(alpha))


def _one_minus_ratio_sq(alpha: float) -> float:
    """1 - (I1(alpha)/I0(alpha))^2 for alpha >= 0, without cancellation.

    Formed from the ratio, it cancels to 3e-16 / value relative.  So from
    alpha = 2048 on it is d (2 S0 - d) / S0^2, with S0 and S1 the series of
    e^-alpha sqrt(2 pi alpha) I0 and I1 (Abramowitz & Stegun 9.7.1) and
    d = S0 - S1 summed term by term; its first omitted term is 6e-14 of d there.
    """
    if alpha < 2048.0:
        return 1.0 - bessel_ratio_i1_i0(alpha) ** 2
    t = 1.0 / alpha
    s0 = 1.0 + t * (1 / 8 + t * (9 / 128 + t * (225 / 3072)))
    d = t * (1 / 2 + t * (3 / 16 + t * (45 / 256 + t * (525 / 2048))))
    return d * (2.0 * s0 - d) / (s0 * s0)


def solve_concentration(nu_sq: float) -> float:
    """Invert nu^2 = 1 - (I1(alpha)/I0(alpha))^2 for the concentration alpha.

    nu_sq must lie in (0, 1]; nu_sq = 1 maps to alpha = 0 exactly.  nu_sq = 0,
    where the root diverges, and nu_sq below 1.7e-18, where it lies past
    5.8e17, are rejected.  The root satisfies |1 - ratio^2 - nu_sq| <= 1e-10 nu_sq.
    """
    nu_sq = _as_finite_float("nu_sq", nu_sq)
    if not (0.0 < nu_sq <= 1.0):
        raise ValueError(f"nu_sq must lie in (0, 1], got {nu_sq}")
    if nu_sq == 1.0:
        return 0.0

    def gap(alpha: float) -> float:
        return _one_minus_ratio_sq(alpha) - nu_sq

    # The map alpha -> 1 - ratio(alpha)^2 decreases monotonically from 1
    # toward 0 (asymptotically ~ 1/alpha), so doubling always brackets.
    hi = 2.0
    while gap(hi) > 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError(f"failed to bracket concentration for nu_sq={nu_sq}")
    alpha = _brentq(gap, 0.0, hi, xtol=1e-12, rtol=4 * 2.3e-16, maxiter=200)
    residual = abs(gap(alpha))
    if residual > 1e-10 * nu_sq:
        raise RuntimeError(f"concentration solve residual {residual:.3e} exceeds 1e-10 nu_sq")
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
