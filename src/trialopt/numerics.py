"""Scalar and bivariate normal probability functions and a Newton root
finder for increasing convex functions.

All functions are pure and deterministic. Nothing here integrates
numerically: the expected utilities are closed forms in these functions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Newton's method stops once a step moves its point by at most this share.
_NEWTON_RTOL = 1e-14
_NEWTON_MAX_ITER = 50


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
    # -ndtri(level), not ndtri(1 - level): 1 - level would round away the
    # low bits of a small tail level
    return float(-ndtri(level))


def bivariate_normal_cdf(x, y, rho, rho_c):
    """P(X <= x, Y <= y) for a standard bivariate normal with correlation rho.

    Elementwise over broadcasting scalars or arrays, with x and y finite
    and |rho| < 1. The caller passes rho_c = sqrt(1 - rho^2) > 0, which it
    often knows in closed form. Uses Owen's T function (Owen 1956, Ann.
    Math. Stat. 27:1075; scipy's owens_t follows Patefield & Tandy 2000),
    with the limits at x = 0 and y = 0 taken explicitly. Each limit is
    evaluated on its own elements only, and Owen's form on the rest.
    """
    zero_x, zero_y = x == 0.0, y == 0.0
    if not np.any(zero_x | zero_y):
        return _owen_cdf(x, y, rho, rho_c)
    x, y, rho, rho_c, zero_x, zero_y = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, y, rho, rho_c)), zero_x, zero_y)
    out = np.empty(x.shape)
    # Where both limits meet, y = 0 decides.
    sel = zero_y
    out[sel] = 0.5 * ndtr(x[sel]) + owens_t(x[sel], rho[sel] / rho_c[sel])
    sel = zero_x & ~zero_y
    out[sel] = 0.5 * ndtr(y[sel]) + owens_t(y[sel], rho[sel] / rho_c[sel])
    rest = ~(zero_x | zero_y)
    out[rest] = _owen_cdf(x[rest], y[rest], rho[rest], rho_c[rest])
    return out


def _owen_cdf(x, y, rho, rho_c):
    """Owen's form of the bivariate normal CDF for finite nonzero x, y."""
    return (0.5 * (ndtr(x) + ndtr(y))
            - owens_t(x, (y - rho * x) / (x * rho_c))
            - owens_t(y, (x - rho * y) / (y * rho_c))
            - 0.5 * (x * y < 0.0))


def bivariate_upper_orthant(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k) for standard bivariate normal with correlation rho.

    Exact limits at infinite bounds and at rho in {-1, 0, 1}; otherwise
    Owen's-T form. Nonzero h and k take it directly on the Python floats,
    with no array dispatch; only the h = 0 and k = 0 limits go through
    :func:`bivariate_normal_cdf`, whose limit gate serves the kernels'
    arrays. Both routes evaluate the same expressions on the same doubles,
    so every value is the same. Its absolute error is
    ~1e-16 for rho^2 up to about 0.99999. Closer to rho = 1 the ratios
    (y - rho x) / (x rho_c) in Owen's T grow like 1 / rho_c and the
    rounding grows with them: at rho^2 in [0.99999, 1 - 2e-9], the level
    condition's union misses alpha by up to 3.6e-14 (alpha_S near alpha,
    alpha = 0.45), and about 2e-15 at alpha = 0.025.
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
    rho_c = math.sqrt((1.0 - rho) * (1.0 + rho))
    if h == 0.0 or k == 0.0:
        return float(bivariate_normal_cdf(-h, -k, rho, rho_c))
    return float(_owen_cdf(-h, -k, rho, rho_c))


def find_root(g, x0: float, tol: float = 0.0) -> float:
    """Root of an increasing convex g by Newton's method started at x0.

    ``g(x)`` returns the pair (g(x), g'(x)), with g accurate to about
    ``tol``. From a start at or right of the root, the tangent of a convex
    g meets zero between the root and the current point, so the iterates
    descend monotonically onto the root: no bracket is needed. The solve
    returns the first point where |g| <= tol, or the end of a step shorter
    than _NEWTON_RTOL times its point. A step that rounding in g carries
    past the root brackets it with the point before; the one of the two
    with the smaller |g| is returned. A start where g < -tol lies left of
    the root and raises NumericError, as does an exhausted iteration cap.
    """
    x, before = x0, None
    for _ in range(_NEWTON_MAX_ITER):
        value, slope = g(x)
        if value < -tol:
            if before is None:
                raise NumericError(f"g({x!r}) = {value:g} < 0: the start lies left of "
                                   "the root, or g is not increasing")
            return x if -value < before[1] else before[0]
        if value <= tol:
            return x
        before = (x, value)
        step = value / slope
        x -= step
        if step <= _NEWTON_RTOL * x:
            return x
    raise NumericError(f"Newton's method did not converge in {_NEWTON_MAX_ITER} "
                       f"iterations from {x0!r}; last point {x!r}")
