"""Multiple testing machinery for the stratified design: the level
condition linking the subgroup and full-population significance weights,
rejection indicators for the consistency-modified closed test, and the
geometry of the acceptance regions in the (z_S, z_Sc) plane.

z convention: the integration variables z_S, z_Sc are standard normal
given the true effects; the estimates are reconstructed as
delta_hat_S = delta_S + z_S * sqrt(2 sigma^2 / (lambda_S n)) (and the
analogue for the complement), so every test threshold is a straight line
in (z_S, z_Sc).

Correlation of the subgroup and stratified full-population test statistics
under the global null is sqrt(lambda_S): the stratified estimate
delta_hat_F = lambda_S delta_hat_S + lambda_Sc delta_hat_Sc has variance
2 sigma^2 / n, and Cov(delta_hat_F, delta_hat_S) = lambda_S
Var(delta_hat_S) = 2 sigma^2 / n, hence Corr = sqrt(lambda_S) after
standardizing. Equivalently Z_F = sqrt(lambda_S) Z_S +
sqrt(1 - lambda_S) Z_Sc holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import ALPHA_S_SLACK, Scenario
from .numerics import SCALAR, NumericError, _one_sided_critical

# Above this correlation the subgroup and pooled statistics are treated as
# perfectly dependent (nested rejection regions); protects the root finder.
_RHO_DEGENERATE = 1.0 - 1e-9

# Accuracy of the union probability in units in the last place of alpha:
# its terms are at most alpha each. The level solve stops once the union is
# this close to alpha, and a union this far below alpha at alpha_F = alpha
# is rounding.
_UNION_ULPS = 32

# Newton's method stops once a step moves its point by at most this share.
_NEWTON_RTOL = 1e-14
_NEWTON_MAX_ITER = 50


def alpha_F_given_alpha_S(alpha_S: float, lambda_S: float, alpha: float = 0.025) -> float:
    """Largest alpha_F keeping the closed test at familywise level alpha.

    Solves P(Z_S >= z_{1-alpha_S} or Z_F >= z_{1-alpha_F}) = alpha for the
    standard bivariate normal with correlation sqrt(lambda_S), capping the
    result at alpha. Endpoints are exact: alpha_F(0) = alpha and, below
    the degenerate-correlation guard, alpha_F(alpha) = 0.

    The union excess g(alpha_F) = alpha_S + alpha_F - P(Z_S > h, Z_F > k)
    - alpha is increasing and convex in alpha_F, with slope
    Phi((h - rho k) / sqrt(1 - rho^2)), and exactly g(alpha) >= 0, so
    Newton's method started at alpha descends onto the root with no
    bracket. The orthant is Owen's form (:func:`trialopt.numerics._owen_cdf`)
    at (-h, -k), its k-free terms computed once per solve and every
    operation in the same order: the double that
    :func:`trialopt.numerics.bivariate_upper_orthant` returns. The solve
    returns the first point where |g| <= tol (_UNION_ULPS ulps of alpha),
    or the end of a step shorter than _NEWTON_RTOL times its point. A step
    that rounding carries past the root brackets it with the point before,
    and the one with the smaller |g| is returned; a step past 0 ends at 0,
    where the union is alpha_S. A start with g < -tol, or an exhausted
    iteration cap, raises NumericError.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 0.5)")
    if not (0.0 <= alpha_S <= alpha + ALPHA_S_SLACK):
        raise ValueError(f"alpha_S={alpha_S} outside [0, alpha={alpha}]")
    if not (0.0 < lambda_S < 1.0):
        raise ValueError("lambda_S must lie in (0, 1)")
    rho = math.sqrt(lambda_S)
    if alpha_S == 0.0:
        return alpha
    if rho >= _RHO_DEGENERATE:
        # Nested one-sided tests: the union event is the larger of the two.
        return alpha
    if alpha_S >= alpha:
        return 0.0

    ndtr, ndtri, owens_t = SCALAR.ndtr, SCALAR.ndtri, SCALAR.owens_t
    h = _one_sided_critical(alpha_S)
    spread = math.sqrt(1.0 - lambda_S)
    # Owen's form at x = -h, y = -k; x * y > 0, so it has no half-plane term
    x = -h
    rho_c = math.sqrt((1.0 - rho) * (1.0 + rho))
    ndtr_x, rho_x, x_rho_c = ndtr(x), rho * x, x * rho_c
    # With the subgroup event inside the pooled one to double precision, the
    # excess at alpha can round a few 1e-18 below 0: alpha then keeps the level.
    tol = _UNION_ULPS * math.ulp(alpha)
    alpha_F, before, before_excess = alpha, None, 0.0
    for _ in range(_NEWTON_MAX_ITER):
        if alpha_F > 0.0:
            y = ndtri(alpha_F)
            orthant = (0.5 * (ndtr_x + ndtr(y))
                       - owens_t(x, (y - rho_x) / x_rho_c)
                       - owens_t(y, (x - rho * y) / (y * rho_c)))
        else:
            # alpha_F = 0: the pooled test never rejects
            orthant = 0.0
        excess = alpha_S + alpha_F - orthant - alpha
        if excess < -tol:
            if before is None:
                raise NumericError(f"g({alpha_F!r}) = {excess:g} < 0: the start lies left of "
                                   "the root, or g is not increasing")
            return alpha_F if -excess < before_excess else before
        if excess <= tol:
            return alpha_F
        before, before_excess = alpha_F, excess
        step = excess / ndtr((h + rho * y) / spread)  # the slope at k = -y
        alpha_F -= step
        if alpha_F < 0.0:
            alpha_F = 0.0
        if step <= _NEWTON_RTOL * alpha_F:
            return alpha_F
    raise NumericError(f"Newton's method did not converge in {_NEWTON_MAX_ITER} "
                       f"iterations from {alpha!r}; last point {alpha_F!r}")


@dataclass(frozen=True)
class _Geometry:
    """Linear-constraint coefficients of one (effects, n, test levels) setting.

    Lower bounds in z_Sc for membership of A_F are the constant line L1
    (complement consistency) and lines of common slope -sqrt(lambda)/
    sqrt(1-lambda): L2 (pooled test at level alpha), L4 (pooled test at
    level alpha_F, active only when z_S misses the alpha_S gate) and the
    sponsor floor line for the pooled estimate.

    The fields are floats, or arrays broadcasting against each other when
    a batch of settings shares lambda_S and sigma.
    """

    se_S: float
    se_F: float
    shift_S: float      # delta_S / se_S
    shift_Sc: float
    shift_F: float
    sq_lam: float
    sq_lamc: float
    crit_alpha: float
    crit_alpha_S: float
    crit_alpha_F: float
    crit_tau_S: float
    crit_tau_Sc: float
    mu_S_cut: float     # z_S floor from the sponsor mu_S constraint (-inf if none)
    mu_F_line: float    # intercept (mu_F - delta_F)/se_F of the sponsor floor (-inf if none)

    @property
    def tau_line(self):
        """Constant z_Sc bound of the complement consistency condition."""
        return self.crit_tau_Sc - self.shift_Sc

    @property
    def pooled_slope(self) -> float:
        """Slope in z_S of every pooled-statistic line."""
        return -self.sq_lam / self.sq_lamc


def _line_geometry(lam, alpha, alpha_S, alpha_F, tau_S, tau_Sc, delta_S, delta_Sc,
                   n, sigma, mu_S, mu_F) -> _Geometry:
    """Geometry from plain values; alpha_S, alpha_F, delta_S, delta_Sc and
    n may be arrays, which broadcast elementwise into every field."""
    lamc = 1.0 - lam
    se_S = sigma * np.sqrt(2.0 / (lam * n))
    se_Sc = sigma * np.sqrt(2.0 / (lamc * n))
    se_F = sigma * np.sqrt(2.0 / n)
    delta_F = lam * delta_S + lamc * delta_Sc
    return _Geometry(
        se_S=se_S, se_F=se_F,
        shift_S=delta_S / se_S,
        shift_Sc=delta_Sc / se_Sc,
        shift_F=delta_F / se_F,
        sq_lam=math.sqrt(lam), sq_lamc=math.sqrt(lamc),
        crit_alpha=_one_sided_critical(alpha),
        # -ndtri(level) is +inf at level 0, as _one_sided_critical
        crit_alpha_S=-ndtri(alpha_S),
        crit_alpha_F=-ndtri(alpha_F),
        crit_tau_S=_one_sided_critical(tau_S),
        crit_tau_Sc=_one_sided_critical(tau_Sc),
        mu_S_cut=-math.inf if mu_S is None else (mu_S - delta_S) / se_S,
        mu_F_line=-math.inf if mu_F is None else (mu_F - delta_F) / se_F,
    )


def _upper_line(geom: _Geometry, intercept, z_S):
    """(a, b) of the higher of the consistency line and the pooled line
    with the given intercept, at abscissae z_S; z_Sc = a + b z_S."""
    a_pool = intercept / geom.sq_lamc
    slope = geom.pooled_slope
    use_tau = geom.tau_line >= a_pool + slope * z_S
    return np.where(use_tau, geom.tau_line, a_pool), np.where(use_tau, 0.0, slope)


def _region_lines(geom: _Geometry, z_S, sponsor: bool):
    """Every line z_Sc = a + b z_S the closed form integrates, at
    abscissae z_S: (alive, a, b, alive_S). alive, a and b hold one line
    per entry of a leading axis; infinite lines have b = 0.

    - Line 0 bounds A_F, the full approvals, from below: A_F's slice is
      [a + b z_S, +inf) where alive.
    - Line 1 bounds A_S, the subgroup-only approvals, from below. A_S's
      upper bound is where psi_F turns on: line 0 where that is alive and
      +inf elsewhere.
    - With the ``sponsor`` floors, line 2 is line 0 raised to the floor of
      the pooled estimate, alive only where it differs from line 0; A_F's
      mask is the same. The floor of the subgroup estimate cuts A_S in z_S
      only: alive_S is line 1's mask with z_S > mu_S_cut. Without the
      floors there is no line 2, and alive_S is line 1's mask.
    """
    z_S = np.asarray(z_S, dtype=float)
    t_S = z_S + geom.shift_S
    gate_by_z = t_S >= geom.crit_alpha_S
    pooled_alpha = geom.crit_alpha - geom.shift_F
    pooled_alpha_F = geom.crit_alpha_F - geom.shift_F
    # psi_F = 1 iff z_Sc clears consistency and the pooled test, at level
    # alpha on the alpha_S gate and at both levels off it.
    pooled = np.where(gate_by_z, pooled_alpha, np.maximum(pooled_alpha, pooled_alpha_F))
    alive_f = t_S >= geom.crit_tau_S
    a_f, b_f = _upper_line(geom, pooled, z_S)
    # On the gate psi_S needs nothing from z_Sc; off it, the pooled test
    # at level alpha_F.
    a_s = np.where(gate_by_z, -np.inf, pooled_alpha_F / geom.sq_lamc)
    b_s = np.where(gate_by_z, 0.0, geom.pooled_slope)
    # Line 1 never lies above line 0, and off the gate it often equals it:
    # an empty slice. The comparison kills those pieces. It is for speed:
    # without it the results are the same, but the zero-width slices reach
    # the CDF, and the decisions of optimize seed 11 ran 4% slower (13.7
    # against 13.1 ms each, 2 vCPUs).
    alive_s = (t_S >= geom.crit_alpha) & (
        a_s + b_s * z_S < np.where(alive_f, a_f + b_f * z_S, np.inf))
    lines = [(alive_f, a_f, b_f), (alive_s, a_s, b_s)]
    alive_S = alive_s
    if sponsor:
        a_r, b_r = _upper_line(geom, np.maximum(pooled, geom.mu_F_line), z_S)
        lines.append((alive_f & ((a_r != a_f) | (b_r != b_f)), a_r, b_r))
        alive_S = alive_s & (z_S > geom.mu_S_cut)
    alive, a, b = (np.stack(v) for v in zip(*lines))
    return alive, a, b, alive_S


def _decide(t_S, t_Sc, t_F, scenario: Scenario, alpha_S: float, alpha_F: float):
    """Closed-test indicators from uncentered z statistics (vectorized), at
    the scenario's alpha and consistency levels and the weights alpha_S and
    alpha_F."""
    gate = (t_S >= _one_sided_critical(alpha_S)) | (t_F >= _one_sided_critical(alpha_F))
    crit_alpha = _one_sided_critical(scenario.alpha)
    psi_S = (t_S >= crit_alpha) & gate
    psi_F = (
        (t_F >= crit_alpha)
        & gate
        & (t_S >= _one_sided_critical(scenario.tau_S))
        & (t_Sc >= _one_sided_critical(scenario.tau_Sc))
    )
    return psi_S, psi_F


def region_breakpoints(geom: _Geometry) -> np.ndarray:
    """z_S abscissae where the slice structure of A_F or A_S changes.

    These are the z_S-only thresholds plus the crossings of the constant
    complement-consistency line with each pooled-scale line (the pooled
    lines are mutually parallel, so they never cross each other). The
    geometry's fields are floats, or arrays whose last axis has length 1.
    Returns the points along a last axis of fixed length 7: written into
    one array, their non-finite entries set to +inf, then sorted in place,
    so absent points are trailing +inf.
    """
    with np.errstate(invalid="ignore"):
        crossings = [(intercept - geom.sq_lamc * geom.tau_line) / geom.sq_lam
                     for intercept in (geom.crit_alpha - geom.shift_F,
                                       geom.crit_alpha_F - geom.shift_F,
                                       geom.mu_F_line)]
    values = (geom.crit_tau_S - geom.shift_S, geom.crit_alpha_S - geom.shift_S,
              geom.crit_alpha - geom.shift_S, geom.mu_S_cut, *crossings)
    points = np.empty((np.broadcast(*values).shape or (1,))[:-1] + (len(values),))
    for i, value in enumerate(values):
        points[..., i:i + 1] = value
    points[~np.isfinite(points)] = np.inf
    points.sort(axis=-1)
    return points


def _pieces(geom: _Geometry):
    """Pieces [lo, hi] of the z_S line between consecutive region
    breakpoints, and an interior abscissa of each; last axis = piece.

    The abscissa of a padding piece (lo = hi = +inf) is NaN, which fails
    every region test of :func:`_region_lines`, so such a piece is never
    alive.
    """
    points = region_breakpoints(geom)
    lo = np.empty(points.shape[:-1] + (points.shape[-1] + 1,))
    hi = np.empty(lo.shape)
    lo[..., 0], lo[..., 1:] = -np.inf, points
    hi[..., :-1], hi[..., -1] = points, np.inf
    # The alpha-level cut crit_alpha - shift_S is always finite, so no
    # piece spans the whole line.
    mid = np.where(np.isinf(lo), hi - 1.0, np.where(np.isinf(hi), lo + 1.0, 0.5 * (lo + hi)))
    return lo, hi, np.where(lo < hi, mid, np.nan)
