"""What scipy lacks of the normal functions the closed forms need: the
bivariate normal, a density silent on overflow and the one-sided critical
value. The plain normal CDF and quantile are scipy's ``ndtr`` and
``ndtri``, called directly.

All functions are pure and deterministic. The expected utilities are
closed forms in these functions; the one quadrature here is a fixed
Gauss-Legendre rule over an angle, inside the bivariate normal CDF.

The bivariate normal CDF has two forms. :func:`bivariate_normal_cdf`
(Owen's T) takes a correlation per element and serves the orthant and
the level solve. The stratified kernel's calls share one correlation
each, and :func:`bivariate_normal_cdf_fixed_rho` takes them: the exact
product at rho = 0, Genz's Gauss-Legendre form below |rho| = 0.925, at
about a third of Owen's cost per element, and Owen's form above. The two
forms agree within 1e-15 absolute, and both lie within 1.4e-16 of a
40-digit reference on 200 seeded points.

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
    # A ratio that overflows (x near 1e-300, y near 1e300) is +-inf, the
    # limit owens_t takes.
    with np.errstate(over="ignore"):
        return (0.5 * (ndtr(x) + ndtr(y))
                - owens_t(x, (y - rho * x) / (x * rho_c))
                - owens_t(y, (x - rho * y) / (y * rho_c))
                # the signs, not x * y, which can overflow or underflow to -0.0
                - 0.5 * ((x < 0.0) != (y < 0.0)))


# The nonnegative halves of the 12- and 20-point Gauss-Legendre rules on
# [-1, 1] (nodes, then weights; the rules are symmetric), as numpy's
# leggauss gives them, each with the |rho| below which Genz's BVNU uses it.
# Genz's 6-point rule below |rho| = 0.3 is left out: the 12-point rule is
# at least as accurate there, and no benchmark workload draws lambda_S
# below 0.09 to show the 6-point rule faster.
_GAUSS_LEGENDRE = (
    (0.75,
     (0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047,
      0.9041172563704748, 0.9815606342467192),
     (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642,
      0.10693932599531907, 0.04717533638651141)),
    (0.925,
     (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
      0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
      0.9639719272779138, 0.993128599185095),
     (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
      0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
      0.040601429800386446, 0.017614007139150893)),
)

# Beyond this bound the CDF is saturated in double precision: Phi(-40) is
# about 4e-350, below the smallest double.
_SATURATED = 40.0


def bivariate_normal_cdf_fixed_rho(x, y, rho: float, rho_c: float):
    """P(X <= x, Y <= y) for a standard bivariate normal with correlation
    rho, elementwise over arrays x and y of finite values at one scalar
    rho in (-1, 1); rho_c = sqrt(1 - rho^2).

    rho = 0 is the exact product Phi(x) Phi(y). Below |rho| = 0.925 it is
    the Drezner-Wesolowsky form as Genz's BVNU evaluates it (Genz 2004,
    Statist. Comput. 14:251-260): Phi(x) Phi(y) plus the integral over
    theta in [0, asin rho] of exp(-(x^2 + y^2 - 2 x y sin theta) /
    (2 cos^2 theta)) / (2 pi), by the 12-point Gauss-Legendre rule below
    |rho| = 0.75 and the 20-point rule above, with x and y clipped to the
    saturated range [-40, 40] so that no square overflows. The rule runs
    one node at a time, so its temporaries have the inputs' size and each
    element's value does not depend on the others. At |rho| >= 0.925,
    Genz's own switch point, it is :func:`bivariate_normal_cdf` (Owen's
    form), which is also the test oracle of the rule.
    """
    if rho == 0.0:
        return ndtr(x) * ndtr(y)
    if abs(rho) >= _GAUSS_LEGENDRE[-1][0]:
        return bivariate_normal_cdf(x, y, rho, rho_c)
    nodes, weights = next((t, w) for bound, t, w in _GAUSS_LEGENDRE if abs(rho) < bound)
    x = np.clip(x, -_SATURATED, _SATURATED)
    y = np.clip(y, -_SATURATED, _SATURATED)
    xy, half_sq = x * y, 0.5 * (x * x + y * y)
    half = 0.5 * math.asin(rho)
    total, term, spare = np.zeros(xy.shape), np.empty(xy.shape), np.empty(xy.shape)
    for t, w in zip(nodes, weights):
        for sn in (math.sin(half * (1.0 - t)), math.sin(half * (1.0 + t))):
            # exp((sn x y - (x^2 + y^2) / 2) / (1 - sn^2)), times the weight
            scale = 1.0 / (1.0 - sn * sn)
            np.subtract(np.multiply(xy, sn * scale, out=term),
                        np.multiply(half_sq, scale, out=spare), out=term)
            np.exp(term, out=term)
            term *= w
            total += term
    return total * (half / (2.0 * math.pi)) + ndtr(x) * ndtr(y)


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
