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
- :func:`array_route_orthant` is the bivariate normal upper orthant that
  hands every case past the scalar limits to the array CDF
  :func:`bivariate_normal_cdf`, through its limit gate, as the library
  did before nonzero bounds took Owen's form directly; the library form
  must reproduce it bit for bit.
"""

import math

import numpy as np
from scipy.special import ndtr

from trialopt.mc_oracle import _CHUNK, _chunk_rng, _estimate, _simulate_batch
from trialopt.model import ENRICHMENT, SPONSOR, STRATIFIED, EffectPair, pooled_effect
from trialopt.model import trial_cost
from trialopt.numerics import (
    NumericError,
    _one_sided_critical,
    bivariate_normal_cdf,
    std_normal_pdf,
)
from trialopt.testing import _line_geometry, params_for_scenario, region_breakpoints
from trialopt.utility import EvaluationResult, _check_n, classical_variance

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _clamp01(p: float) -> float:
    return min(1.0, max(0.0, p))


def _assemble(reward_S, reward_F, cost, p_s_only, p_f) -> EvaluationResult:
    p_s_only, p_f = _clamp01(p_s_only), _clamp01(p_f)
    return EvaluationResult(reward_S + reward_F - cost, p_s_only, p_f,
                            _clamp01(p_s_only + p_f), reward_S, reward_F, cost)


def scalar_single_test(kind, effects, n, scenario):
    """Classical or enrichment expected utility of one atom, scalar form."""
    n = _check_n(n, scenario)
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
    n = _check_n(n, scenario)
    params = params_for_scenario(scenario, alpha_S)
    rewards = scenario.rewards
    sponsor = rewards.perspective == SPONSOR

    def geometry(mu_S, mu_F):
        return _line_geometry(params.lambda_S, params.alpha, params.alpha_S, params.alpha_F,
                              params.tau_S, params.tau_Sc, effects.delta_S, effects.delta_Sc,
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


def labelled_estimates(design, effects_or_prior, scenario, config, value_fns):
    """Chunked mean/SE of each value_fn(utility, psi_S, psi_F), with one
    atom label drawn per replicate by weight and each atom's replicates
    scattered back to their labelled positions."""
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
            batch = _simulate_batch(design, atom, scenario, config.strata_mode, rng, count)
            for v, fn in zip(values, value_fns):
                v[sel] = fn(*batch)
        for i, v in enumerate(values):
            s1[i] += float(v.sum())
            s2[i] += float((v * v).sum())
        done += m
        index += 1
    return [_estimate(a, b, total) for a, b in zip(s1, s2)]


def iid_strata_counts(rng, n, lam, m, interior):
    """Per-arm subgroup counts, one Binomial(n, lam) draw per replicate and
    arm; with ``interior``, replicates with an empty stratum in either arm
    are redrawn until 0 < k < n in both."""
    k_t = rng.binomial(n, lam, m)
    k_c = rng.binomial(n, lam, m)
    while interior:
        bad = (k_t == 0) | (k_t == n) | (k_c == 0) | (k_c == n)
        if not bad.any():
            break
        count = int(bad.sum())
        k_t[bad] = rng.binomial(n, lam, count)
        k_c[bad] = rng.binomial(n, lam, count)
    return k_t, k_c


def array_route_orthant(h: float, k: float, rho: float) -> float:
    """P(Z1 > h, Z2 > k): the scalar limits, then the array CDF."""
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
