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
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .model import EffectPair, Scenario
from .numerics import _one_sided_critical, bivariate_upper_orthant, find_root

# Above this correlation the subgroup and pooled statistics are treated as
# perfectly dependent (nested rejection regions); protects the root finder.
_RHO_DEGENERATE = 1.0 - 1e-9

# Accuracy of the union probability in units in the last place of alpha:
# its terms are at most alpha each. The level solve stops once the union is
# this close to alpha, and a union this far below alpha at alpha_F = alpha
# is rounding.
_UNION_ULPS = 32


@dataclass(frozen=True)
class StratifiedTestParams:
    """Resolved parameters of the consistency-modified closed test."""

    alpha: float
    alpha_S: float
    alpha_F: float
    tau_S: float
    tau_Sc: float
    lambda_S: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5):
            raise ValueError("alpha must lie in (0, 0.5)")
        for name in ("alpha_S", "alpha_F"):
            value = getattr(self, name)
            if not (0.0 <= value <= self.alpha + 1e-12):
                raise ValueError(f"{name}={value} outside [0, alpha={self.alpha}]")
        if self.alpha_S + self.alpha_F < self.alpha - 1e-9:
            raise ValueError(
                "alpha_S + alpha_F below the Bonferroni floor; "
                "the pair cannot come from the level condition"
            )
        if not (0.0 < self.lambda_S < 1.0):
            raise ValueError("lambda_S must lie in (0, 1)")
        for name in ("tau_S", "tau_Sc"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


@lru_cache(maxsize=4096)
def alpha_F_given_alpha_S(alpha_S: float, lambda_S: float, alpha: float = 0.025) -> float:
    """Largest alpha_F keeping the closed test at familywise level alpha.

    Solves P(Z_S >= z_{1-alpha_S} or Z_F >= z_{1-alpha_F}) = alpha for the
    standard bivariate normal with correlation sqrt(lambda_S), capping the
    result at alpha. Endpoints are exact: alpha_F(0) = alpha and, below
    the degenerate-correlation guard, alpha_F(alpha) = 0.
    """
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 0.5)")
    if not (0.0 <= alpha_S <= alpha + 1e-15):
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

    h = _one_sided_critical(alpha_S)
    spread = math.sqrt(1.0 - lambda_S)

    def union_excess(alpha_F: float):
        # The excess is increasing and convex in alpha_F, with slope
        # 1 - P(Z_S > h | Z_F = k) = Phi((h - rho k) / sqrt(1 - rho^2)).
        k = _one_sided_critical(alpha_F)
        return (alpha_S + alpha_F - bivariate_upper_orthant(h, k, rho) - alpha,
                float(ndtr((h - rho * k) / spread)))

    # Exactly, union_excess(alpha) = P(Z_S >= h, Z_F < z_{1-alpha}) >= 0, so
    # Newton starts right of the root. Where the subgroup event lies inside
    # the pooled one to double precision, that excess can round a few 1e-18
    # below zero; alpha_F = alpha then keeps the level.
    return find_root(union_excess, alpha, tol=_UNION_ULPS * math.ulp(alpha))


def params_for_scenario(scenario: Scenario, alpha_S: float) -> StratifiedTestParams:
    """Solve the level condition and bundle the test parameters."""
    alpha_F = alpha_F_given_alpha_S(alpha_S, scenario.lambda_S, scenario.alpha)
    return StratifiedTestParams(
        alpha=scenario.alpha, alpha_S=alpha_S, alpha_F=alpha_F,
        tau_S=scenario.tau_S, tau_Sc=scenario.tau_Sc,
        lambda_S=scenario.lambda_S,
    )


@dataclass(frozen=True)
class _Geometry:
    """Linear-constraint coefficients of one (effects, n, params) setting.

    Lower bounds in z_Sc for membership of A_F are the constant line L1
    (complement consistency) and lines of common slope -sqrt(lambda)/
    sqrt(1-lambda): L2 (pooled test at level alpha), L4 (pooled test at
    level alpha_F, active only when z_S misses the alpha_S gate) and the
    sponsor floor line for the pooled estimate.

    The fields are floats, or arrays broadcasting against each other when
    a batch of settings shares lambda_S and sigma.
    """

    se_S: float
    se_Sc: float
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
        se_S=se_S, se_Sc=se_Sc, se_F=se_F,
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


def _decide(t_S, t_Sc, t_F, params: StratifiedTestParams):
    """Closed-test indicators from uncentered z statistics (vectorized)."""
    gate = (t_S >= _one_sided_critical(params.alpha_S)) | (
        t_F >= _one_sided_critical(params.alpha_F)
    )
    crit_alpha = _one_sided_critical(params.alpha)
    psi_S = (t_S >= crit_alpha) & gate
    psi_F = (
        (t_F >= crit_alpha)
        & gate
        & (t_S >= _one_sided_critical(params.tau_S))
        & (t_Sc >= _one_sided_critical(params.tau_Sc))
    )
    return psi_S, psi_F


def reject_stratified(z_S, z_Sc, params: StratifiedTestParams,
                      effects: EffectPair, n: float, sigma: float):
    """Rejection indicators (psi_S, psi_F) of the modified closed test.

    z_S and z_Sc follow the centered convention (standard normal given the
    true effects); scalars or arrays. The pooled statistic is
    sqrt(lambda_S) t_S + sqrt(1-lambda_S) t_Sc on the uncentered scale.
    """
    geom = _line_geometry(params.lambda_S, params.alpha, params.alpha_S, params.alpha_F,
                          params.tau_S, params.tau_Sc, effects.delta_S, effects.delta_Sc,
                          n, sigma, mu_S=None, mu_F=None)
    z_S = np.asarray(z_S, dtype=float)
    z_Sc = np.asarray(z_Sc, dtype=float)
    t_S = z_S + geom.shift_S
    t_Sc = z_Sc + geom.shift_Sc
    t_F = geom.sq_lam * t_S + geom.sq_lamc * t_Sc
    psi_S, psi_F = _decide(t_S, t_Sc, t_F, params)
    if z_S.ndim == 0 and z_Sc.ndim == 0:
        return int(psi_S), int(psi_F)
    return psi_S.astype(int), psi_F.astype(int)


def region_breakpoints(geom: _Geometry) -> np.ndarray:
    """z_S abscissae where the slice structure of A_F or A_S changes.

    These are the z_S-only thresholds plus the crossings of the constant
    complement-consistency line with each pooled-scale line (the pooled
    lines are mutually parallel, so they never cross each other). Returns
    the points sorted along a last axis of fixed length 7, with absent
    points as trailing +inf.
    """
    crossings = []
    with np.errstate(invalid="ignore"):
        for intercept in (geom.crit_alpha - geom.shift_F,
                          geom.crit_alpha_F - geom.shift_F,
                          geom.mu_F_line):
            crossings.append((intercept - geom.sq_lamc * geom.tau_line) / geom.sq_lam)
    points = np.concatenate(np.broadcast_arrays(*[
        np.atleast_1d(np.asarray(p, dtype=float)) for p in (
            geom.crit_tau_S - geom.shift_S,
            geom.crit_alpha_S - geom.shift_S,
            geom.crit_alpha - geom.shift_S,
            geom.mu_S_cut,
            *crossings,
        )]), axis=-1)
    return np.sort(np.where(np.isfinite(points), points, np.inf), axis=-1)


def _pieces(geom: _Geometry):
    """Pieces [lo, hi] of the z_S line between consecutive region
    breakpoints, and an interior abscissa of each; last axis = piece.

    The abscissa of a padding piece (lo = hi = +inf) is NaN, which fails
    every region test of :func:`_region_lines`, so such a piece is never
    alive.
    """
    points = region_breakpoints(geom)
    edge = np.full(points.shape[:-1] + (1,), np.inf)
    lo = np.concatenate((-edge, points), axis=-1)
    hi = np.concatenate((points, edge), axis=-1)
    # The alpha-level cut crit_alpha - shift_S is always finite, so no
    # piece spans the whole line.
    mid = np.where(np.isinf(lo), hi - 1.0, np.where(np.isinf(hi), lo + 1.0, 0.5 * (lo + hi)))
    return lo, hi, np.where(lo < hi, mid, np.nan)
