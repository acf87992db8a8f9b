"""Special functions and the circular-variance concentration solver.

Three Bessel functions are evaluated here, from numpy and the standard library:
- e^-x I0 and I1/I0, from e^-x I0 and e^-x I1, taken from their power series
  below x = 20, every term positive and the terms summed by math.fsum, and
  from their large-argument expansion (Abramowitz & Stegun 9.7.1) from 20 on;
- J0 from its power series, summed in 50-digit decimal arithmetic because
  its terms cancel, below x = 20, and from its Hankel expansion (A&S 9.2.5),
  which has the coefficients of I0's with alternating signs, from x = 20 on.
The tests check them against mpmath at 40 digits, and against the
independent series/asymptotic evaluators of tests/oracles.py.

The concentration solve bisects a doubling bracket down to adjacent doubles,
so it has no tolerance or iteration cap to tune.
"""

from __future__ import annotations

import decimal
import math

import numpy as np

__all__ = [
    "bessel_i0_scaled",
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


def _expansion_coefficients(mu: int, count: int) -> tuple[float, ...]:
    """c_0..c_(count-1) of e^-x sqrt(2 pi x) I_nu(x) ~ sum c_k x^-k, mu = 4 nu^2,
    each the exact rational (A&S 9.7.1) rounded once."""
    coefficients, numerator, denominator = [], 1, 1
    for k in range(count):
        coefficients.append(numerator / denominator)
        numerator *= (2 * k + 1) ** 2 - mu
        denominator *= 8 * (k + 1)
    return tuple(coefficients)


# From this argument on, I0, I1 and J0 come from their large-argument
# expansions, cut after 30 terms: there the first term left out is below 3e-18
# and the terms still fall.  Below it, they come from their power series.
_EXPANSION_FROM = 20.0
_I0_EXPANSION = _expansion_coefficients(0, 30)
_I1_EXPANSION = _expansion_coefficients(4, 30)
# J0(x) ~ sqrt(2 / (pi x)) (P cos(x - pi/4) - Q sin(x - pi/4)) with
# P = sum (-1)^k c_2k x^-2k and Q = -sum (-1)^k c_(2k+1) x^-(2k+1), the c_n
# those of I0 (A&S 9.2.9, 9.2.10); stored highest power first for Horner's rule
_SIGNS = (-1.0) ** np.arange(len(_I0_EXPANSION) // 2)
_J0_P = (_SIGNS * _I0_EXPANSION[0::2])[::-1]
_J0_Q = -(_SIGNS * _I0_EXPANSION[1::2])[::-1]


def _expansion_terms(x: float) -> tuple[list[float], list[float]]:
    """The terms c_k x^-k of the expansions of e^-x sqrt(2 pi x) I0(x) and I1(x)."""
    terms0, terms1, power = [], [], 1.0
    for c0, c1 in zip(_I0_EXPANSION, _I1_EXPANSION):
        terms0.append(c0 * power)
        terms1.append(c1 * power)
        power /= x
    return terms0, terms1


def _power_series(x: float) -> tuple[list[float], list[float]]:
    """The terms (x/2)^(2k) / k!^2 of I0(x) and (x/2)^(2k+1) / (k! (k+1)!) of I1(x).

    Each is the last one times (x/2) / k, alternating between the two series,
    so every term carries the roundings of its own chain alone.  Below
    x = 20, the 40th term of each is below 1e-22 of its sum.
    """
    half = 0.5 * x
    terms0, terms1 = [1.0], []
    for k in range(1, 40):
        terms1.append(terms0[-1] * half / k)
        terms0.append(terms1[-1] * half / k)
    return terms0, terms1


def _scaled_i0_i1(x: float) -> tuple[float, float]:
    """e^-x I0(x) and e^-x I1(x) for x >= 0."""
    if x < _EXPANSION_FROM:
        terms0, terms1 = _power_series(x)
        norm = math.exp(x)
    else:
        terms0, terms1 = _expansion_terms(x)
        norm = math.sqrt(2.0 * math.pi) * math.sqrt(x)
    return math.fsum(terms0) / norm, math.fsum(terms1) / norm


def bessel_i0_scaled(x: float) -> float:
    """exp(-x) * I0(x); overflow-free for any x >= 0."""
    return _scaled_i0_i1(_non_negative("x", x))[0]


def _j0_series(x: float) -> float:
    """J0(x) from its power series, summed at 50 digits and rounded once.

    The terms reach about e^x / sqrt(2 pi x), 4e7 at x = 20, before they
    cancel to at most 1, so a double sum would lose eight digits.
    """
    with decimal.localcontext() as context:
        context.prec = 50
        q = decimal.Decimal(x) ** 2 / 4
        term = total = decimal.Decimal(1)
        negligible = decimal.Decimal("1e-40")
        k = 0
        while abs(term) > negligible:
            k += 1
            term = -term * q / (k * k)
            total += term
        return float(total)


def bessel_j0(x):
    """Bessel function of the first kind, order 0: a float for a scalar,
    an ndarray of x's shape for an array or a sequence.

    Evaluated at |x| so the even symmetry J0(-x) = J0(x) holds exactly; a
    non-finite entry raises a ValueError.  An array gives the bits of the
    scalar calls, and channel.build_jakes_correlation takes its lags from
    one array call.  Below x = 20 each entry is a power series in decimal
    arithmetic; from 20 on the Hankel expansion runs on the whole array, with
    cos(x - pi/4) and sin(x - pi/4) formed from cos x and sin x, so a large
    x loses nothing to the shift.
    """
    arr = np.abs(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    out = np.empty_like(arr)
    near = arr < _EXPANSION_FROM
    out[near] = [_j0_series(float(v)) for v in arr[near]]
    far = arr[~near]
    y = 1.0 / far
    z = y * y
    p, q = np.zeros_like(far), np.zeros_like(far)
    for cp, cq in zip(_J0_P, _J0_Q):
        p = p * z + cp
        q = q * z + cq
    cos, sin = np.cos(far), np.sin(far)
    out[~near] = (p * (cos + sin) + q * y * (cos - sin)) * np.sqrt(1.0 / np.pi / far)
    return float(out) if out.ndim == 0 else out


def bessel_ratio_i1_i0(alpha: float) -> float:
    """I1(alpha)/I0(alpha), in [0, 1).

    The quotient of the two scaled functions, so there is no overflow at any
    alpha (tested up to 1e8 and beyond).
    """
    i0e, i1e = _scaled_i0_i1(_non_negative("alpha", alpha))
    return i1e / i0e


def _one_minus_ratio_sq(alpha: float) -> float:
    """1 - (I1(alpha)/I0(alpha))^2 for alpha >= 0, without cancellation.

    Formed from the ratio, it cancels to about 3e-16 / value relative: 6e-15
    at alpha = 20, and the value falls as 1/alpha.  So on the expansions'
    range it is d (2 S0 - d) / S0^2, with S0 and S1 the expansions of
    e^-alpha sqrt(2 pi alpha) I0 and I1 and d = S0 - S1 summed term by term.
    """
    if alpha < _EXPANSION_FROM:
        return 1.0 - bessel_ratio_i1_i0(alpha) ** 2
    terms0, terms1 = _expansion_terms(alpha)
    s0 = math.fsum(terms0)
    d = math.fsum(a - b for a, b in zip(terms0, terms1))
    return d * (2.0 * s0 - d) / (s0 * s0)


def solve_concentration(nu_sq: float) -> float:
    """Invert nu^2 = 1 - (I1(alpha)/I0(alpha))^2 for the concentration alpha.

    nu_sq must lie in (0, 1]; nu_sq = 1 maps to alpha = 0 exactly.  nu_sq = 0,
    where the root diverges, and nu_sq below 1.7e-18, where it lies past
    5.8e17, are rejected.  The result is the first double at which the gap
    changes sign: gap(alpha) <= 0 < gap(nextafter(alpha, 0)), with gap =
    _one_minus_ratio_sq - nu_sq.  It is within 6e-15 relative of mpmath's
    root for nu_sq in [1.8e-18, 0.99]; nearer 1 the gap flattens (its slope
    is about -alpha/2), so a rounding of it moves the root by about
    1.1e-16 / alpha^2 relative.  |1 - ratio^2 - nu_sq| <= 1e-10 nu_sq is checked.
    """
    nu_sq = _as_finite_float("nu_sq", nu_sq)
    if not (0.0 < nu_sq <= 1.0):
        raise ValueError(f"nu_sq must lie in (0, 1], got {nu_sq}")
    if nu_sq == 1.0:
        return 0.0

    def gap(alpha: float) -> float:
        return _one_minus_ratio_sq(alpha) - nu_sq

    # The map alpha -> 1 - ratio(alpha)^2 decreases monotonically from 1
    # toward 0 (asymptotically ~ 1/alpha), so doubling always brackets, and
    # bisection keeps gap(lo) > 0 >= gap(hi) until lo and hi are adjacent.
    lo, hi = 0.0, 2.0
    while gap(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e18:
            raise ValueError(f"failed to bracket concentration for nu_sq={nu_sq}")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    alpha = hi
    residual = abs(gap(alpha))
    if residual > 1e-10 * nu_sq:
        raise RuntimeError(f"concentration solve residual {residual:.3e} exceeds 1e-10 nu_sq")
    return alpha
