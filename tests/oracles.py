"""Reference implementations the closed-form kernels are pinned against:
independent derivations of a closed form, and the oracles of replaced
kernels that nothing else pins yet over their whole domain.

- :func:`adaptive_stratified` is the stratified expected utility by
  adaptive Gauss-Kronrod quadrature over z_S, with the analytic
  linear-Gaussian step in z_Sc, breakpoints at every region kink and
  infinite limits truncated at 8 SDs. Its region slices are taken pointwise
  as the maximum of the constraint lines, independently of the active-line
  selection the closed form makes per piece.
- :func:`scalar_single_test` is the classical or enrichment expected
  utility for one atom in scalar arithmetic, one validated result per
  call: the form the library used before the array kernel, which must
  reproduce it bit for bit.
- :func:`labelled_estimates` is the Monte Carlo accumulator that draws
  one atom label per replicate and scatters each atom's replicates back
  to their positions, and :func:`iid_strata_counts` draws each replicate's
  binomial subgroup counts on its own, redrawing empty strata, as the
  library did before atom blocks and strata-count histograms; the library
  form must agree with them in distribution (within standard errors), since
  it draws the same replicates in another order.
- :func:`reject_stratified` is the modified closed test's pair of
  rejection indicators at given (z_S, z_Sc), point by point, from the
  test statistics themselves: the region tests hold the piecewise lines
  the closed form integrates to it.
- :func:`level_solve` is the level condition's solve as the library
  made it before it ran Newton's method inline on Owen's form: the union
  excess through :func:`bivariate_upper_orthant` (the array CDF), solved
  by the general Newton root finder :func:`find_root`. Wherever it
  returns, the library's solve must return the same double; where its
  Newton step lands below 0 it raises, and the library ends that step at
  0.
- :func:`concatenated_pieces` is the region breakpoints and the pieces
  between them as the library built them before it wrote them into
  preallocated arrays: each point made at least 1-d, broadcast,
  concatenated, its non-finite entries replaced in a copy and the copy
  sorted. The library's arrays must equal these by ``repr``.
"""

import math

import numpy as np
from scipy.special import ndtr

from trialopt.mc_oracle import _CHUNK, _chunk_rng, _estimate, _simulate_batch, _workspace
from trialopt.model import ALPHA_S_SLACK, ENRICHMENT, SPONSOR, STRATIFIED, EffectPair
from trialopt.model import pooled_effect, trial_cost
from trialopt.numerics import (
    SCALAR,
    NumericError,
    _one_sided_critical,
    bivariate_upper_orthant,
    std_normal_pdf,
)
from trialopt.testing import (
    _NEWTON_MAX_ITER,
    _NEWTON_RTOL,
    _RHO_DEGENERATE,
    _UNION_ULPS,
    _decide,
    _line_geometry,
    alpha_F_given_alpha_S,
    region_breakpoints,
)
from trialopt.utility import EvaluationResult, classical_variance

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def _assemble(reward_S, reward_F, cost, p_s_only, p_f) -> EvaluationResult:
    p_s_only, p_f = _clamp01(p_s_only), _clamp01(p_f)
    return EvaluationResult(reward_S + reward_F - cost, p_s_only, p_f,
                            _clamp01(p_s_only + p_f), reward_S, reward_F, cost)


def scalar_single_test(kind, effects, n, scenario):
    """Classical or enrichment expected utility of one atom, scalar form."""
    n = float(n)
    rewards = scenario.rewards
    if kind == ENRICHMENT:
        delta, mu = effects.delta_S, rewards.mu_S
        scale = scenario.lambda_S * rewards.NrS
        variance = 2.0 * scenario.sigma ** 2 / n
    else:
        delta, mu = pooled_effect(effects, scenario.lambda_S), rewards.mu_F
        scale = rewards.NrF
        variance = classical_variance(effects, scenario.lambda_S, scenario.sigma, n)
    cost = trial_cost(kind, n, scenario.costs, scenario.lambda_S)
    se = math.sqrt(variance)
    crit = _one_sided_critical(scenario.alpha)
    p_reject = float(ndtr(delta / se - crit))
    if rewards.perspective == SPONSOR:
        kappa = (max(crit * se, mu) - delta) / se
        reward = scale * ((1.0 - float(ndtr(kappa))) * (delta - mu)
                          + se * float(std_normal_pdf(kappa)))
    else:
        reward = scale * (delta - mu) * p_reject
    if kind == ENRICHMENT:
        return _assemble(reward, 0.0, cost, p_reject, 0.0)
    return _assemble(0.0, reward, cost, 0.0, p_reject)


# Accuracy contract of the closed form against the quadrature oracle.
PROB_TOL = 1e-10
MUSD_TOL = 1e-8


def assert_matches_oracle(got, want):
    """Probabilities within 1e-10, MUSD fields finite and within 1e-8."""
    for name in ("prob_reject_S_only", "prob_reject_F", "power_any"):
        assert abs(getattr(got, name) - getattr(want, name)) <= PROB_TOL, name
    for name in ("expected_utility", "expected_reward_S", "expected_reward_F", "cost"):
        assert math.isfinite(getattr(got, name)), name
        assert abs(getattr(got, name) - getattr(want, name)) <= MUSD_TOL, name


TAIL_TRUNCATION = 8.0
_QUAD_TOL = 1e-12


def _segment(c0, c1, lo, hi):
    """Integral of (c0 + c1 z) phi(z) dz over [lo, hi], elementwise:
    c0 (Phi(hi) - Phi(lo)) + c1 (phi(lo) - phi(hi))."""
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
            raise NumericError(
                f"quadrature did not reach abs_tol={abs_tol:g} within "
                f"{max_segments} segments (estimate {est}, error bound {total_err:g})"
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


def _pooled_line(geom, intercept, z_S):
    """z_Sc lower bound of 'sqrt(lam) z_S + sqrt(lamc) z_Sc >= intercept'."""
    return (intercept - geom.sq_lam * z_S) / geom.sq_lamc


def _af_lower(geom, z_S):
    """A_F slice at z_S: (alive mask, z_Sc lower bound), the slice being
    [lower, +inf) where alive."""
    z_S = np.asarray(z_S, dtype=float)
    t_S = z_S + geom.shift_S
    alive = t_S >= geom.crit_tau_S
    lower = np.maximum(
        geom.crit_tau_Sc - geom.shift_Sc,
        _pooled_line(geom, geom.crit_alpha - geom.shift_F, z_S),
    )
    gate_missed = t_S < geom.crit_alpha_S
    lower = np.where(
        gate_missed,
        np.maximum(lower, _pooled_line(geom, geom.crit_alpha_F - geom.shift_F, z_S)),
        lower,
    )
    if geom.mu_F_line > -math.inf:
        lower = np.maximum(lower, _pooled_line(geom, geom.mu_F_line, z_S))
    return alive, lower


def _as_bounds(geom, z_S):
    """A_S slice at z_S: (alive mask, lower, upper) in z_Sc."""
    z_S = np.asarray(z_S, dtype=float)
    t_S = z_S + geom.shift_S
    alive = (t_S >= geom.crit_alpha) & (z_S > geom.mu_S_cut)
    gate_by_z = t_S >= geom.crit_alpha_S
    consistency_z = t_S >= geom.crit_tau_S
    line_tau = geom.crit_tau_Sc - geom.shift_Sc
    line_alpha = _pooled_line(geom, geom.crit_alpha - geom.shift_F, z_S)
    line_alpha_F = _pooled_line(geom, geom.crit_alpha_F - geom.shift_F, z_S)
    lower = np.where(gate_by_z, -np.inf, line_alpha_F)
    psi_f_from = np.maximum(line_tau, line_alpha)
    psi_f_from = np.where(gate_by_z, psi_f_from, np.maximum(psi_f_from, line_alpha_F))
    upper = np.where(consistency_z, psi_f_from, np.inf)
    alive = alive & (lower < upper)
    return alive, lower, upper


def _integrate_multi(f, breakpoints):
    """Adaptive G7/K15 integral of the column stack f over +-8 SDs."""
    total, _ = _adaptive_gk(f, -TAIL_TRUNCATION, TAIL_TRUNCATION, _QUAD_TOL,
                            [float(b) for b in breakpoints if math.isfinite(b)],
                            max_segments=2048, init_width=2.0)
    return np.asarray(total)


def adaptive_stratified(effects, n, alpha_S, scenario):
    """Stratified expected utility by adaptive quadrature over z_S."""
    n = float(n)
    alpha_F = alpha_F_given_alpha_S(alpha_S, scenario.lambda_S, scenario.alpha)
    rewards = scenario.rewards
    sponsor = rewards.perspective == SPONSOR

    def geometry(mu_S, mu_F):
        return _line_geometry(scenario.lambda_S, scenario.alpha, alpha_S, alpha_F,
                              scenario.tau_S, scenario.tau_Sc, effects.delta_S, effects.delta_Sc,
                              n, scenario.sigma, mu_S, mu_F)

    geom_pub = geometry(None, None)
    geom_rew = geometry(rewards.mu_S, rewards.mu_F) if sponsor else geom_pub
    delta_F = pooled_effect(effects, scenario.lambda_S)
    gain_F = delta_F - rewards.mu_F
    gain_S = effects.delta_S - rewards.mu_S

    def columns(z):
        weight = std_normal_pdf(z)
        alive_f, lo_f = _af_lower(geom_pub, z)
        p_f = np.where(alive_f, _segment(1.0, 0.0, lo_f, np.inf), 0.0)
        alive_s, lo_s, hi_s = _as_bounds(geom_pub, z)
        p_s = np.where(alive_s, _segment(1.0, 0.0, lo_s, hi_s), 0.0)
        cols = [p_f * weight, p_s * weight]
        if sponsor:
            alive_f, lo_f = _af_lower(geom_rew, z)
            c0 = gain_F + geom_rew.se_F * geom_rew.sq_lam * z
            c1 = geom_rew.se_F * geom_rew.sq_lamc
            r_f = np.where(alive_f, _segment(c0, c1, lo_f, np.inf), 0.0)
            alive_s, lo_s, hi_s = _as_bounds(geom_rew, z)
            r_s = np.where(
                alive_s,
                (gain_S + geom_rew.se_S * z) * _segment(1.0, 0.0, lo_s, hi_s),
                0.0,
            )
            cols += [r_f * weight, r_s * weight]
        return np.stack(cols, axis=-1)

    breaks = set(region_breakpoints(geom_pub)) | set(region_breakpoints(geom_rew))
    values = _integrate_multi(columns, breaks)
    p_f, p_s_only = float(values[0]), float(values[1])
    cost = trial_cost(STRATIFIED, n, scenario.costs, scenario.lambda_S)
    if sponsor:
        reward_F = rewards.NrF * float(values[2])
        reward_S = scenario.lambda_S * rewards.NrS * float(values[3])
    else:
        reward_F = rewards.NrF * gain_F * _clamp01(p_f)
        reward_S = scenario.lambda_S * rewards.NrS * gain_S * _clamp01(p_s_only)
    return _assemble(reward_S, reward_F, cost, p_s_only, p_f)


def reject_stratified(z_S, z_Sc, alpha_S, effects, n, scenario):
    """Rejection indicators (psi_S, psi_F) of the modified closed test at
    subgroup weight alpha_S, with alpha_F solved from the level condition.

    z_S and z_Sc follow the centered convention (standard normal given the
    true effects); scalars or arrays. The pooled statistic is
    sqrt(lambda_S) t_S + sqrt(1-lambda_S) t_Sc on the uncentered scale.
    """
    alpha_F = alpha_F_given_alpha_S(alpha_S, scenario.lambda_S, scenario.alpha)
    geom = _line_geometry(scenario.lambda_S, scenario.alpha, alpha_S, alpha_F,
                          scenario.tau_S, scenario.tau_Sc, effects.delta_S, effects.delta_Sc,
                          n, scenario.sigma, mu_S=None, mu_F=None)
    z_S = np.asarray(z_S, dtype=float)
    z_Sc = np.asarray(z_Sc, dtype=float)
    t_S = z_S + geom.shift_S
    t_Sc = z_Sc + geom.shift_Sc
    t_F = geom.sq_lam * t_S + geom.sq_lamc * t_Sc
    psi_S, psi_F = _decide(t_S, t_Sc, t_F, scenario, alpha_S, alpha_F)
    if z_S.ndim == 0 and z_Sc.ndim == 0:
        return int(psi_S), int(psi_F)
    return psi_S.astype(int), psi_F.astype(int)


def labelled_estimates(design, effects_or_prior, scenario, config, value_fns):
    """Chunked mean/SE of each value_fn(utility, psi_S, psi_F), with one
    atom label drawn per replicate by weight and each atom's replicates
    scattered back to their labelled positions. Each batch is simulated
    in a fresh workspace of its own size."""
    if isinstance(effects_or_prior, EffectPair):
        effects_or_prior = [(effects_or_prior, 1.0)]
    atoms = list(effects_or_prior)
    weights = np.array([w for _, w in atoms])
    weights = weights / weights.sum()
    total = config.replicates
    s1 = [0.0] * len(value_fns)
    s2 = [0.0] * len(value_fns)
    done = 0
    index = 0
    while done < total:
        m = min(_CHUNK, total - done)
        rng = _chunk_rng(config.seed, index)
        idx = rng.choice(len(atoms), size=m, p=weights)
        values = [np.empty(m) for _ in value_fns]
        for j, (atom, _) in enumerate(atoms):
            sel = idx == j
            count = int(sel.sum())
            if count == 0:
                continue
            ws = _workspace(design.kind, config.strata_mode, True, count)
            batch = _simulate_batch(design, atom, scenario, config.strata_mode, rng, count,
                                    ws=ws)
            for v, fn in zip(values, value_fns):
                v[sel] = fn(*batch)
        for i, v in enumerate(values):
            s1[i] += float(v.sum())
            s2[i] += float((v * v).sum())
        done += m
        index += 1
    return [_estimate(a, b, total) for a, b in zip(s1, s2)]


def iid_strata_counts(rng, n, lam, interior, k_t, k_c):
    """Per-arm subgroup counts written into ``k_t`` and ``k_c``, one
    Binomial(n, lam) draw per replicate and arm; with ``interior``,
    replicates with an empty stratum in either arm are redrawn until
    0 < k < n in both."""
    m = len(k_t)
    k_t[:] = rng.binomial(n, lam, m)
    k_c[:] = rng.binomial(n, lam, m)
    while interior:
        bad = (k_t == 0) | (k_t == n) | (k_c == 0) | (k_c == n)
        if not bad.any():
            break
        count = int(bad.sum())
        k_t[bad] = rng.binomial(n, lam, count)
        k_c[bad] = rng.binomial(n, lam, count)


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


def level_solve(alpha_S: float, lambda_S: float, alpha: float = 0.025) -> float:
    """alpha_F solving the level condition, by :func:`find_root` on the
    union excess through :func:`bivariate_upper_orthant`; the domain
    checks and endpoints are the library's."""
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 0.5)")
    if not (0.0 <= alpha_S <= alpha + ALPHA_S_SLACK):
        raise ValueError(f"alpha_S={alpha_S} outside [0, alpha={alpha}]")
    if not (0.0 < lambda_S < 1.0):
        raise ValueError("lambda_S must lie in (0, 1)")
    rho = math.sqrt(lambda_S)
    if alpha_S == 0.0 or rho >= _RHO_DEGENERATE:
        return alpha
    if alpha_S >= alpha:
        return 0.0
    h = _one_sided_critical(alpha_S)
    spread = math.sqrt(1.0 - lambda_S)

    def union_excess(alpha_F: float):
        k = _one_sided_critical(alpha_F)
        return (alpha_S + alpha_F - bivariate_upper_orthant(h, k, rho) - alpha,
                SCALAR.ndtr((h - rho * k) / spread))

    return find_root(union_excess, alpha, tol=_UNION_ULPS * math.ulp(alpha))


def concatenated_pieces(geom):
    """(breakpoints, lo, hi, mid) of a geometry, built by concatenation."""
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
    points = np.sort(np.where(np.isfinite(points), points, np.inf), axis=-1)
    edge = np.full(points.shape[:-1] + (1,), np.inf)
    lo = np.concatenate((-edge, points), axis=-1)
    hi = np.concatenate((points, edge), axis=-1)
    mid = np.where(np.isinf(lo), hi - 1.0, np.where(np.isinf(hi), lo + 1.0, 0.5 * (lo + hi)))
    return points, lo, hi, np.where(lo < hi, mid, np.nan)
