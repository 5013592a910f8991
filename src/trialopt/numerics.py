"""What scipy lacks of the normal functions the closed forms need: the
bivariate normal, a density silent on overflow and the one-sided critical
value. The plain normal CDF and quantile are scipy's ``ndtr`` and
``ndtri``, called directly.

All functions are pure and deterministic. Nothing here integrates
numerically: the expected utilities are closed forms in these functions.

Arrays go through scipy.special's ufuncs. The level solve's scalar calls
(:func:`_one_sided_critical`, and the Owen's form that
:func:`trialopt.testing.alpha_F_given_alpha_S` evaluates itself) go
through :data:`SCALAR`, the same double routines from
``scipy.special.cython_special``: on a Python float they return the same
double without numpy's ufunc dispatch, which costs more than the function
itself (``owens_t``: about 0.11 µs against 0.8 µs).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import cython_special, ndtr, owens_t

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Scalar special functions on Python floats. cython_special's ndtr is fused
# over double and double complex; its double specialization also takes ints.
SCALAR = SimpleNamespace(ndtr=cython_special.ndtr["double"], ndtri=cython_special.ndtri,
                         owens_t=cython_special.owens_t)


class NumericError(RuntimeError):
    """A numeric computation broke its own contract (exit code 3 in the CLI)."""


def require_finite(what: str, **values) -> None:
    """Every number a result holds is finite: NumericError naming ``what``
    and each value that is not."""
    bad = [f"{name} = {float(v)!r}" for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise NumericError(f"{what} is not finite: {', '.join(bad)}")


def std_normal_pdf(x):
    """Standard normal density."""
    x = np.asarray(x, dtype=float)
    # -0.5 * x * x overflows to -inf above |x| ~ 1.9e154, where the density is 0
    with np.errstate(over="ignore"):
        out = np.exp(-0.5 * x * x) / _SQRT_2PI
    return float(out) if out.ndim == 0 else out


def _one_sided_critical(level: float) -> float:
    """z threshold for 'one-sided p <= level', for a level in [0, 1]: +inf
    at level 0, -inf at 1."""
    # -ndtri(level), not ndtri(1 - level): 1 - level would round away the
    # low bits of a small tail level
    return -SCALAR.ndtri(level)


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
    :func:`bivariate_normal_cdf` at (-h, -k). Its absolute error is
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
        return SCALAR.ndtr(-k)
    if k == -math.inf:
        return SCALAR.ndtr(-h)
    if rho == 1.0:
        return SCALAR.ndtr(-max(h, k))
    if rho == -1.0:
        return max(0.0, SCALAR.ndtr(-k) - SCALAR.ndtr(h))
    if rho == 0.0:
        return SCALAR.ndtr(-h) * SCALAR.ndtr(-k)
    return float(bivariate_normal_cdf(-h, -k, rho, math.sqrt((1.0 - rho) * (1.0 + rho))))
