"""Scalar and bivariate normal probability functions and bracketed root
finding.

All functions are pure and deterministic. Nothing here integrates
numerically: the expected utilities are closed forms in these functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, owens_t

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class NumericError(RuntimeError):
    """A numeric computation broke its own contract (exit code 3 in the CLI)."""


def std_normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal distribution function (scipy ndtr, <1e-15 abs error)."""
    out = ndtr(np.asarray(x, dtype=float))
    return float(out) if np.ndim(out) == 0 else out


def std_normal_quantile(p):
    """Inverse of :func:`std_normal_cdf`; requires p in (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("quantile requires p in the open interval (0, 1)")
    out = ndtri(p_arr)
    return float(out) if p_arr.ndim == 0 else out


def _one_sided_critical(level: float) -> float:
    """z threshold for 'one-sided p <= level'; +inf at level 0, -inf at 1."""
    if level <= 0.0:
        return math.inf
    if level >= 1.0:
        return -math.inf
    return float(ndtri(1.0 - level))


def bivariate_normal_cdf(x, y, rho, rho_c):
    """P(X <= x, Y <= y) for a standard bivariate normal with correlation rho.

    Elementwise over broadcasting scalars or arrays, with y finite; x may
    be infinite. The caller passes rho_c = sqrt(1 - rho^2), which it often
    knows in closed form. Uses Owen's T function (Owen 1956, Ann. Math.
    Stat. 27:1075; scipy's owens_t follows Patefield & Tandy 2000), with
    the limits at x = 0, y = 0, infinite x and rho = +-1 taken explicitly.
    """
    inf_x = np.isinf(x)
    zero = (x == 0.0) | (y == 0.0)
    unit = rho_c == 0.0
    if not (inf_x | zero | unit).any():
        return _owen_cdf(x, y, rho, rho_c)
    x, y, rho, rho_c = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, y, rho, rho_c)))
    # finite, nonzero stand-ins where a limit replaces Owen's form below
    rho_s, rho_cs = np.where(unit, 0.0, rho), np.where(unit, 1.0, rho_c)
    out = _owen_cdf(np.where(inf_x | zero, 1.0, x), np.where(zero, 1.0, y), rho_s, rho_cs)
    out = np.where(x == 0.0, 0.5 * ndtr(y) + owens_t(y, rho_s / rho_cs), out)
    out = np.where(y == 0.0, 0.5 * ndtr(x) + owens_t(x, rho_s / rho_cs), out)
    out = np.where(unit, np.where(rho > 0.0, ndtr(np.minimum(x, y)),
                                  np.maximum(0.0, ndtr(x) - ndtr(-y))), out)
    return np.where(inf_x, np.where(x > 0.0, ndtr(y), 0.0), out)


def _owen_cdf(x, y, rho, rho_c):
    """Owen's form of the bivariate normal CDF for finite nonzero x, y."""
    return (0.5 * (ndtr(x) + ndtr(y))
            - owens_t(x, (y - rho * x) / (x * rho_c))
            - owens_t(y, (x - rho * y) / (y * rho_c))
            - 0.5 * (x * y < 0.0))


def bivariate_upper_orthant(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k) for standard bivariate normal with correlation rho.

    Exact limits at infinite bounds and at rho in {-1, 0, 1}; otherwise the
    Owen's-T form of :func:`bivariate_normal_cdf` (absolute error ~1e-16).
    """
    if math.isnan(rho) or abs(rho) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if math.isnan(h) or math.isnan(k):
        raise ValueError("orthant limits must not be NaN")
    if h == math.inf or k == math.inf:
        return 0.0
    if h == -math.inf:
        return float(ndtr(-k))
    if k == -math.inf:
        return float(ndtr(-h))
    if rho == 1.0:
        return float(ndtr(-max(h, k)))
    if rho == -1.0:
        return max(0.0, float(ndtr(-k) - ndtr(h)))
    if rho == 0.0:
        return float(ndtr(-h) * ndtr(-k))
    return float(bivariate_normal_cdf(-h, -k, rho, math.sqrt((1.0 - rho) * (1.0 + rho))))


def find_root(g, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Root of g inside the sign-changing bracket [lo, hi] (Brent's method).

    The returned x satisfies |g(x)| <= tol or lies in a bracket of width
    <= tol. Raises NumericError when g does not change sign on the bracket.
    """
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise NumericError(
            f"no sign change on bracket [{lo}, {hi}]: g(lo)={g_lo:g}, g(hi)={g_hi:g}"
        )
    x = brentq(g, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    return float(x)
