"""Expected utility of each design, averaged over a discrete prior on the
true effects; one effect atom is a one-atom prior.

Enrichment and classical designs use the closed truncated-normal forms.
The stratified design is closed-form as well: between consecutive
breakpoints of the region geometry from :mod:`trialopt.testing`, every
region bound in z_Sc is one straight line a + b z_S, so each probability
and reward integral over z_S is a sum of bivariate-normal and
normal-density terms. The bivariate-normal CDF is evaluated once per
distinct (line, breakpoint), in one call per kernel call: adjacent pieces
on the same line share their common end, the infinite ends are closed
forms, A_S's upper bound is read from the A_F line it equals, and the
sponsor's floor line is integrated only where it differs from A_F's.
Each family has one array kernel that scores a
whole batch of (atom, n, alpha_S) settings at a time, with the per-group
size n on an array axis of its own; :func:`grid_row` averages it over the
prior. Every element is computed as it would be alone, so a block of
sizes scores exactly as its rows one by one. The kernels' temporaries
grow with the block, so the optimizer caps the settings per call to keep
peak memory flat. :func:`eu_prior_averaged` is the one point evaluation:
one concrete design, one :func:`grid_row` element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import ndtr

from .model import (
    CLASSICAL,
    ENRICHMENT,
    NO_TRIAL,
    SPONSOR,
    STRATIFIED,
    DesignSpec,
    EffectPair,
    Scenario,
    pooled_effect,
    trial_cost,
)
from .numerics import NumericError, _one_sided_critical, bivariate_normal_cdf, std_normal_pdf
from .testing import _line_geometry, _pieces, _region_lines, alpha_F_given_alpha_S

# Field order of EvaluationResult, the leading axis of batched evaluations.
_FIELDS = ("expected_utility", "prob_reject_S_only", "prob_reject_F", "power_any",
           "expected_reward_S", "expected_reward_F", "cost")


@dataclass(frozen=True)
class EvaluationResult:
    """Expected utility of one design under one true-effect configuration,
    with the approval probabilities and reward components behind it."""

    expected_utility: float
    prob_reject_S_only: float
    prob_reject_F: float
    power_any: float
    expected_reward_S: float
    expected_reward_F: float
    cost: float

    def __post_init__(self):
        for name in ("prob_reject_S_only", "prob_reject_F", "power_any"):
            p = getattr(self, name)
            if not (-1e-9 <= p <= 1.0 + 1e-9):
                raise NumericError(f"{name}={p} is not a probability")
        if self.prob_reject_S_only + self.prob_reject_F > 1.0 + 1e-9:
            raise NumericError("disjoint approval probabilities exceed 1")


_ZERO_RESULT = EvaluationResult(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def classical_variance(effects: EffectPair, lambda_S: float, sigma: float,
                       n: float) -> float:
    """Variance of the unstratified full-population estimate.

    Each arm samples a two-component normal mixture, which inflates the
    per-observation variance by lambda_S*(1-lambda_S) times the squared
    between-strata mean gap of that arm.
    """
    mix = lambda_S * (1.0 - lambda_S) * (
        effects.treatment_arm_gap ** 2 + effects.control_arm_gap ** 2
    )
    return (2.0 * sigma ** 2 + mix) / n


def _check_n(n, scenario: Scenario):
    """n as a float, or a block of sizes as a float array; raises
    ValueError naming the smallest size below the scenario's n_min."""
    sizes = np.asarray(n, dtype=float)
    low = sizes[~(sizes >= scenario.n_min - 1e-9)]
    if low.size:
        raise ValueError(f"n={float(np.min(low))} below the minimal per-group size "
                         f"{scenario.n_min}")
    return float(sizes) if sizes.ndim == 0 else sizes


def _single_test_fields(kind: str, atoms, n, scenario: Scenario) -> np.ndarray:
    """Evaluation fields of the enrichment (subgroup test, subgroup
    approval) or the classical design (pooled test, full approval) for
    every atom and every size in ``n`` (a float or an array of sizes): an
    array of shape (7, len(atoms)) + np.shape(n) + (1,) in EvaluationResult
    field order, from the truncated-normal closed form of the z-test.
    """
    n = np.asarray(_check_n(n, scenario))[..., None]
    lam = scenario.lambda_S
    rewards = scenario.rewards
    per_atom = (len(atoms),) + (1,) * n.ndim
    if kind == ENRICHMENT:
        delta = [e.delta_S for e in atoms]
        se = np.sqrt(2.0 * scenario.sigma ** 2 / n)
        mu, scale = rewards.mu_S, lam * rewards.NrS
    else:
        delta = [pooled_effect(e, lam) for e in atoms]
        se = np.sqrt([classical_variance(e, lam, scenario.sigma, n) for e in atoms])
        mu, scale = rewards.mu_F, rewards.NrF
    delta = np.array(delta).reshape(per_atom)
    crit = _one_sided_critical(scenario.alpha)
    p_reject = ndtr(delta / se - crit)
    if rewards.perspective == SPONSOR:
        kappa = (np.maximum(crit * se, mu) - delta) / se
        reward = scale * ((1.0 - ndtr(kappa)) * (delta - mu) + se * std_normal_pdf(kappa))
    else:
        reward = scale * (delta - mu) * p_reject
    p_reject = np.clip(p_reject, 0.0, 1.0)
    zero = np.zeros(p_reject.shape)
    if kind == ENRICHMENT:
        p_s, p_f, reward_S, reward_F = p_reject, zero, reward, zero
    else:
        p_s, p_f, reward_S, reward_F = zero, p_reject, zero, reward
    cost = np.full(p_reject.shape, trial_cost(kind, n, scenario.costs, lam))
    return np.stack((reward_S + reward_F - cost, p_s, p_f,
                     np.clip(p_s + p_f, 0.0, 1.0), reward_S, reward_F, cost))


def _line_integrals(a, b, lo, hi, alive, moments: bool):
    """Integrals over z in [lo, hi] of phi(z) times the upper tail beyond
    the line z_Sc = a + b z, for every line and piece that is alive (zero
    elsewhere); a may be +-inf (then b = 0): an empty or a full tail.
    Pieces run along the last axis, each starting where the one before
    ends; an alive piece has lo < +inf and hi > -inf.

    Returns I0 = int phi(z) Phi_bar(a + b z) dz, and with ``moments`` also
    J1 = int z phi(z) Phi_bar(a + b z) dz and J2 = int phi(z) phi(a + b z) dz.

    Each integral is a difference of terms at the piece's ends: a
    bivariate-normal CDF value for I0, Phi(s (z + m)) for J2 (with
    s^2 = 1 + b^2 and m = a b / s^2) and the edge phi(z) Phi_bar(a + b z)
    for J1. Every term is computed once per distinct (line, breakpoint),
    the CDF in one call: at the upper end of every piece, and at a lower
    end only where the piece below is not alive on the same (a, b). The
    infinite ends are closed forms (the CDF is 0 at -inf and Phi(-a / s)
    at +inf, Phi(s (z + m)) is 0 and 1, the edge 0), so the CDF sees no
    limit in x. Each piece's difference is taken from the same values as
    when every end is evaluated on its own, so the results are the same
    bit for bit.
    """
    lo, hi = np.broadcast_to(lo, alive.shape), np.broadcast_to(hi, alive.shape)
    i0, j1, j2 = np.zeros(alive.shape), np.zeros(alive.shape), np.zeros(alive.shape)
    full = alive & (a == -np.inf)
    i0[full] = ndtr(hi[full]) - ndtr(lo[full])
    j1[full] = std_normal_pdf(lo[full]) - std_normal_pdf(hi[full])
    sel = alive & np.isfinite(a)
    # A piece's lower end is the upper end of the piece below. Where that
    # piece is selected on the same (a, b), it is the selected piece just
    # before in order, and its end terms serve both.
    shared = np.zeros(sel.shape, dtype=bool)
    shared[..., 1:] = sel[..., :-1] & (a[..., 1:] == a[..., :-1]) & (b[..., 1:] == b[..., :-1])
    shared = np.flatnonzero(shared[sel])
    a, b, lo, hi = a[sel], b[sel], lo[sel], hi[sel]
    s = np.sqrt(1.0 + b * b)
    # (Z, W) independent: P(Z <= z, W > a + b Z) = P(Z <= z, Y <= -a / s)
    # with Y = (b Z - W) / s, standard normal at correlation b / s with Z.
    y, rho, rho_c = -a / s, b / s, 1.0 / s
    finite_hi, own_lo = np.isfinite(hi), np.isfinite(lo)
    own_lo[shared] = False
    # Each end term is evaluated at the finite upper ends, then the own
    # lower ends, and read back through k_hi and k_lo, which point past
    # those values to the closed forms: the +inf upper ends' in order, then
    # the -inf lower ends'. A shared lower end reads the upper end below.
    ends = np.concatenate((np.flatnonzero(finite_hi), np.flatnonzero(own_lo)))
    z = np.concatenate((hi[finite_hi], lo[own_lo]))
    uppers, tops = np.count_nonzero(finite_hi), np.count_nonzero(~finite_hi)
    k_hi = np.empty(hi.shape, dtype=np.intp)
    k_hi[finite_hi] = np.arange(uppers)
    k_hi[~finite_hi] = z.size + np.arange(tops)
    k_lo = np.full(lo.shape, z.size + tops)
    k_lo[own_lo] = np.arange(uppers, z.size)
    k_lo[shared] = k_hi[shared - 1]

    def spread(values, top, bottom):
        """Per-piece (upper, lower) end terms from their values at z, with
        the closed forms top at +inf and bottom at -inf."""
        values = np.concatenate((values, np.broadcast_to(top, (tops,)), (bottom,)))
        return values[k_hi], values[k_lo]

    cdf_hi, cdf_lo = spread(bivariate_normal_cdf(z, y[ends], rho[ends], rho_c[ends]),
                            ndtr(y[~finite_hi]), 0.0)
    i0[sel] = cdf_hi - cdf_lo
    if moments:
        m = a * b / (s * s)
        nd_hi, nd_lo = spread(ndtr(s[ends] * (z + m[ends])), 1.0, 0.0)
        edge_hi, edge_lo = spread(std_normal_pdf(z) * ndtr(-(a[ends] + b[ends] * z)), 0.0, 0.0)
        j2_sel = std_normal_pdf(a / s) / s * (nd_hi - nd_lo)
        j2[sel] = j2_sel
        j1[sel] = edge_lo - edge_hi - b * j2_sel
    return i0, j1, j2


def _stratified_fields(atoms, n, alpha_S, scenario: Scenario) -> np.ndarray:
    """Evaluation fields of the stratified design for every atom, every
    size in ``n`` (a float or an array of sizes) and every alpha_S: an
    array of shape (7, len(atoms)) + np.shape(n) + (len(alpha_S),) in
    EvaluationResult field order.

    P(A_F), P(A_S) and the sponsor reward integrals are sums over the
    pieces between region breakpoints, over the whole z_S line, of the
    closed forms in :func:`_line_integrals`; on each piece the active
    constraint line is picked at an interior point.
    """
    n = np.asarray(_check_n(n, scenario))
    lam = scenario.lambda_S
    rewards = scenario.rewards
    sponsor = rewards.perspective == SPONSOR
    alpha_S = np.asarray(alpha_S, dtype=float)
    alpha_F = np.array([alpha_F_given_alpha_S(float(a), lam, scenario.alpha)
                        for a in alpha_S])
    # Axes: atom, then the axes of n, then alpha_S, then the z_S piece.
    per_atom = (len(atoms),) + (1,) * (n.ndim + 2)
    delta_S = np.array([e.delta_S for e in atoms]).reshape(per_atom)
    delta_Sc = np.array([e.delta_Sc for e in atoms]).reshape(per_atom)
    geom = _line_geometry(
        lam, scenario.alpha, alpha_S[:, None], alpha_F[:, None],
        scenario.tau_S, scenario.tau_Sc, delta_S, delta_Sc,
        n[..., None, None], scenario.sigma,
        rewards.mu_S if sponsor else None, rewards.mu_F if sponsor else None)
    lo, hi, mid = _pieces(geom)
    alive, a, b, alive_S = _region_lines(geom, mid, sponsor)
    i0, j1, j2 = _line_integrals(a, b, lo, hi, alive, sponsor)
    # A_S runs from line 1 up to line 0, whose integrals are 0 where it is
    # dead (+inf).
    i0_s = i0[1] - np.where(alive[1], i0[0], 0.0)

    p_f = np.clip(np.sum(i0[0], axis=-1), 0.0, 1.0)
    p_s = np.clip(np.sum(i0_s, axis=-1), 0.0, 1.0)
    gain_F = lam * delta_S + (1.0 - lam) * delta_Sc - rewards.mu_F
    gain_S = delta_S - rewards.mu_S
    if sponsor:
        i0_rf, j1_rf, j2_rf = (np.where(alive[2], v[2], v[0]) for v in (i0, j1, j2))
        r_f = gain_F * i0_rf + geom.se_F * (geom.sq_lam * j1_rf + geom.sq_lamc * j2_rf)
        r_s = gain_S * i0_s + geom.se_S * (j1[1] - np.where(alive[1], j1[0], 0.0))
        reward_F = rewards.NrF * np.sum(r_f, axis=-1)
        reward_S = lam * rewards.NrS * np.sum(np.where(alive_S, r_s, 0.0), axis=-1)
    else:
        reward_F = rewards.NrF * gain_F[..., 0] * p_f
        reward_S = lam * rewards.NrS * gain_S[..., 0] * p_s
    cost = np.full(p_f.shape, trial_cost(STRATIFIED, n[..., None], scenario.costs, lam))
    return np.stack((reward_S + reward_F - cost, p_s, p_f,
                     np.clip(p_s + p_f, 0.0, 1.0), reward_S, reward_F, cost))


def _atom_key(kind: str, effects: EffectPair) -> Tuple[float, ...]:
    # The enrichment design never sees the complement, so priors sharing a
    # delta_S marginal must evaluate identically (bit for bit).
    if kind == ENRICHMENT:
        return (effects.delta_S,)
    return (effects.delta_S, effects.delta_Sc, effects.prognostic_offset)


def _merged_atoms(kind: str, scenario: Scenario):
    """Atoms distinct to the design family, with exactly rounded weights."""
    groups: dict = {}
    for effects, weight in scenario.prior:
        key = _atom_key(kind, effects)
        if key in groups:
            groups[key][1].append(weight)
        else:
            groups[key] = (effects, [weight])
    return [(effects, math.fsum(weights)) for effects, weights in groups.values()]


def grid_row(kind: str, n, alphas, scenario: Scenario) -> np.ndarray:
    """Prior-averaged evaluation of a trial design at every size in ``n``
    (a float, or an array of sizes) for every alpha_S in ``alphas``
    (``[None]`` for the one-test families), in one batched call: an array
    of shape (7,) + np.shape(n) + (len(alphas),) in EvaluationResult field
    order, probabilities not yet clamped. Row 0 holds the expected
    utilities. Each element equals the one a scalar-n call computes.
    """
    merged = _merged_atoms(kind, scenario)
    atoms = [e for e, _ in merged]
    if kind == STRATIFIED:
        fields = _stratified_fields(atoms, n, alphas, scenario)
    elif kind in (CLASSICAL, ENRICHMENT):
        fields = _single_test_fields(kind, atoms, n, scenario)
    else:
        raise ValueError(f"unknown design kind {kind!r}")
    total = 0.0
    for (_, weight), atom_fields in zip(merged, np.moveaxis(fields, 1, 0)):
        total = total + weight * atom_fields
    return total


def _positive_part_mean(m, s):
    """E[max(X, 0)] for X ~ N(m, s^2): m Phi(m/s) + s phi(m/s), or m+ at
    s = 0. It grows with s, so it never increases in the trial size."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = m / s
        mean = m * ndtr(t) + s * std_normal_pdf(t)
    return np.where(s > 0.0, mean, np.maximum(m, 0.0))


def _utility_bound(kind: str, n, scenario: Scenario):
    """An upper bound on the prior-averaged expected utility of every
    design of the family at each size in ``n`` (a float or an array of
    sizes), whatever its alpha_S; it never increases in n.

    The approvals are disjoint, so per atom the reward is at most the
    larger of U+ and V+, where U = NrF (delta_F - mu_F) is paid on a full
    approval and V = lambda_S NrS (delta_S - mu_S) on a subgroup one. The
    public perspective pays them at the true effects, so the bound is
    max(0, U, V); the sponsor pays them at the estimates, normal with
    Cov(est_F, est_S) = se_F^2 under the stratified design, and
    E max(U+, V+) <= min(E U+ + E (V - U)+, E V+ + E (U - V)+). Each
    one-test family pays one of the two, on its own estimate.
    """
    n = np.asarray(n, dtype=float)
    lam = scenario.lambda_S
    rewards = scenario.rewards
    atoms = [e for e, _ in scenario.prior]
    weights = np.array([w for _, w in scenario.prior])
    per_atom = (len(atoms),) + (1,) * n.ndim
    gain_F = np.array([rewards.NrF * (pooled_effect(e, lam) - rewards.mu_F)
                       for e in atoms]).reshape(per_atom)
    gain_S = np.array([lam * rewards.NrS * (e.delta_S - rewards.mu_S)
                       for e in atoms]).reshape(per_atom)
    if rewards.perspective != SPONSOR:
        reward = np.maximum(0.0, {CLASSICAL: gain_F, ENRICHMENT: gain_S,
                                  STRATIFIED: np.maximum(gain_F, gain_S)}[kind])
    elif kind == CLASSICAL:
        se = np.sqrt([classical_variance(e, lam, scenario.sigma, n) for e in atoms])
        reward = _positive_part_mean(gain_F, rewards.NrF * se)
    elif kind == ENRICHMENT:
        se = np.sqrt(2.0 * scenario.sigma ** 2 / n)
        reward = _positive_part_mean(gain_S, lam * rewards.NrS * se)
    else:
        # Standard deviations of U, V and V - U, each a multiple of se_F.
        se_F = scenario.sigma * np.sqrt(2.0 / n)
        sd_U, sd_V = rewards.NrF * se_F, math.sqrt(lam) * rewards.NrS * se_F
        sd_gap = math.sqrt(lam * (rewards.NrS - rewards.NrF) ** 2
                           + (1.0 - lam) * rewards.NrF ** 2) * se_F
        reward = np.minimum(
            _positive_part_mean(gain_F, sd_U) + _positive_part_mean(gain_S - gain_F, sd_gap),
            _positive_part_mean(gain_S, sd_V) + _positive_part_mean(gain_F - gain_S, sd_gap))
    return (np.tensordot(weights, np.broadcast_to(reward, per_atom[:1] + n.shape), axes=1)
            - trial_cost(kind, n, scenario.costs, lam))


def eu_prior_averaged(design: DesignSpec, scenario: Scenario) -> EvaluationResult:
    """Prior-weighted expected utility and approval probabilities of a
    concrete design: the one point evaluation, where one effect atom is a
    one-atom prior.

    Atoms indistinguishable to the design family are merged first, with
    exactly rounded weight sums, so equivalent priors produce identical
    results and degenerate grids collapse to single evaluations.
    """
    design.check_against(scenario)
    if design.kind == NO_TRIAL:
        return _ZERO_RESULT
    totals = grid_row(design.kind, design.n, (design.alpha_S,), scenario)[:, 0]
    totals[1:4] = np.clip(totals[1:4], 0.0, 1.0)
    return EvaluationResult(*(float(f) for f in totals))
