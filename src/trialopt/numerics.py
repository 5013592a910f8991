"""Scalar and bivariate normal probability functions, analytic Gaussian
segment integrals, adaptive Gauss-Kronrod quadrature, and bracketed root
finding.

All functions are pure and deterministic. Integrands passed to
:func:`integrate_1d` must be vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, owens_t

# Beyond 8 standard deviations the normal tail mass is < 1e-15, which is
# below double-precision resolution of the integrals computed here.
TAIL_TRUNCATION = 8.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class NumericError(RuntimeError):
    """A numeric computation broke its own contract (exit code 3 in the CLI)."""


class IntegrationError(NumericError):
    """Adaptive quadrature ran out of subdivision budget.

    Carries the best available estimate and its error bound so callers can
    decide whether to accept a degraded result.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound

    def __reduce__(self):
        # Rebuild with all three fields, so the error crosses process pools.
        return type(self), (self.args[0], self.estimate, self.error_bound)


@dataclass(frozen=True)
class Interval:
    """Closed interval, possibly with infinite endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"interval lo={self.lo} exceeds hi={self.hi}")

    def bounded(self, limit: float = TAIL_TRUNCATION) -> "Interval":
        """Resolve infinite endpoints to the +-limit truncation bounds."""
        lo = -limit if math.isinf(self.lo) else self.lo
        hi = limit if math.isinf(self.hi) else self.hi
        return Interval(min(lo, hi), max(lo, hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo


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


def linear_gaussian_segment(c0, c1, iv: Interval):
    """Closed form of the phi-weighted linear integral over an interval.

    Returns c0*(Phi(hi) - Phi(lo)) + c1*(phi(lo) - phi(hi)), which is
    integral of (c0 + c1*z) phi(z) dz over [lo, hi].
    """
    return _segment(c0, c1, iv.lo, iv.hi)


def _segment(c0, c1, lo, hi):
    """Vectorized core of :func:`linear_gaussian_segment`."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # phi(+-inf) = 0 without warnings
    pdf_lo = np.where(np.isinf(lo), 0.0, np.exp(-0.5 * np.minimum(np.abs(lo), 40.0) ** 2) / _SQRT_2PI)
    pdf_hi = np.where(np.isinf(hi), 0.0, np.exp(-0.5 * np.minimum(np.abs(hi), 40.0) ** 2) / _SQRT_2PI)
    out = c0 * (ndtr(hi) - ndtr(lo)) + c1 * (pdf_lo - pdf_hi)
    return float(out) if out.ndim == 0 else out


# 15-point Kronrod nodes with embedded 7-point Gauss weights (QUADPACK).
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GK_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _gk_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Apply G7/K15 to a batch of segments in one vectorized call of f.

    f maps an (m,) array to an (m,) or (m, k) array. Returns per-segment
    Kronrod estimates and error bounds, shapes (s, k) and (s,).
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = (mid[:, None] + half[:, None] * _GK_NODES[None, :]).ravel()
    vals = np.asarray(f(pts), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    vals = vals.reshape(lo.size, _GK_NODES.size, -1)
    k15 = np.einsum("j,sjk->sk", _GK_WK, vals) * half[:, None]
    g7 = np.einsum("j,sjk->sk", _GK_WG, vals) * half[:, None]
    diff = np.max(np.abs(k15 - g7), axis=1)
    err = np.minimum(diff, (200.0 * diff) ** 1.5)
    return k15, err


def _adaptive_gk(f, lo, hi, abs_tol, breakpoints, max_segments, init_width):
    edges = [lo]
    for b in sorted(set(float(b) for b in breakpoints)):
        if lo < b < hi:
            edges.append(b)
    edges.append(hi)
    seg_lo, seg_hi = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        pieces = max(1, int(math.ceil((b - a) / init_width)))
        cuts = np.linspace(a, b, pieces + 1)
        seg_lo.extend(cuts[:-1])
        seg_hi.extend(cuts[1:])
    seg_lo = np.array(seg_lo)
    seg_hi = np.array(seg_hi)
    vals, errs = _gk_eval(f, seg_lo, seg_hi)
    seg_lo, seg_hi = list(seg_lo), list(seg_hi)
    vals, errs = list(vals), list(errs)

    while True:
        total_err = math.fsum(errs)
        if total_err <= abs_tol:
            break
        if len(errs) >= max_segments:
            est = np.sum(np.asarray(vals), axis=0)
            raise IntegrationError(
                f"quadrature did not reach abs_tol={abs_tol:g} within "
                f"{max_segments} segments (error bound {total_err:g})",
                estimate=float(est[0]) if est.size == 1 else est,
                error_bound=total_err,
            )
        worst = int(np.argmax(errs))
        a, b = seg_lo[worst], seg_hi[worst]
        m = 0.5 * (a + b)
        if not (a < m < b):
            # segment is at floating-point resolution; accept its estimate
            errs[worst] = 0.0
            continue
        new_vals, new_errs = _gk_eval(f, np.array([a, m]), np.array([m, b]))
        seg_lo[worst], seg_hi[worst] = a, m
        vals[worst], errs[worst] = new_vals[0], new_errs[0]
        seg_lo.append(m)
        seg_hi.append(b)
        vals.append(new_vals[1])
        errs.append(new_errs[1])

    return np.sum(np.asarray(vals), axis=0), math.fsum(errs)


def integrate_1d(f, iv: Interval, abs_tol: float = 1e-9, breakpoints=(),
                 max_segments: int = 2048) -> float:
    """Adaptive Gauss-Kronrod integral of f over the interval.

    Infinite endpoints are truncated at +-TAIL_TRUNCATION, matching the
    phi-weighted integrands this library produces. ``breakpoints`` are
    honored as mandatory subdivision points, so integrands may kink or jump
    there. ``f`` must accept an ndarray of abscissae and return values of
    the same length.

    Raises IntegrationError (carrying the best estimate) if the subdivision
    budget is exhausted before the error bound falls below ``abs_tol``.
    """
    iv = iv.bounded()
    if iv.lo == iv.hi:
        return 0.0
    total, _ = _adaptive_gk(f, iv.lo, iv.hi, abs_tol, breakpoints,
                            max_segments, init_width=2.0)
    return float(total[0])


def find_root(g, bracket: Interval, tol: float = 1e-10) -> float:
    """Root of g inside a sign-changing bracket (Brent's method).

    The returned x satisfies |g(x)| <= tol or lies in a bracket of width
    <= tol. Raises ValueError when g does not change sign on the bracket.
    """
    lo, hi = bracket.lo, bracket.hi
    g_lo = g(lo)
    g_hi = g(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if g_lo * g_hi > 0.0:
        raise ValueError(
            f"no sign change on bracket [{lo}, {hi}]: g(lo)={g_lo:g}, g(hi)={g_hi:g}"
        )
    x = brentq(g, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    return float(x)
