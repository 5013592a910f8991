"""Monte Carlo simulator of complete trials: the independent validation
oracle for the analytic expected utilities, approval probabilities, and
familywise error rates.

Streams are derived per chunk of replicates as
``SeedSequence(seed, spawn_key=(chunk_index,))``, so estimates are
bit-reproducible for a given (seed, replicates, mode) and chunks could be
simulated in parallel without changing the result. Each call simulates
its replicates once and reads every estimate it returns from that one
simulation: the three approval probabilities of
:func:`mc_rejection_probs` come from the same trials, which are the
trials :func:`mc_expected_utility` simulates for the same inputs.

Within a chunk, a prior's per-atom replicate counts are drawn first, as
one multinomial over the weights, and each atom is then simulated as one
contiguous block, in prior order. In binomial strata mode, each block
draws its per-arm subgroup counts as one multinomial histogram over
0..n, expanded in order, and pairs the arms by a random permutation of
the control arm. Every estimate depends only on the multiset of
replicates, so both draws have the distribution of per-replicate atom
labels and per-replicate binomial counts. A single effect pair, or a
one-atom prior, draws no split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import (
    CLASSICAL,
    ENRICHMENT,
    NO_TRIAL,
    SPONSOR,
    DesignSpec,
    EffectPair,
    Scenario,
    pooled_effect,
    trial_cost,
)
from .numerics import _one_sided_critical
from .testing import _decide, params_for_scenario
from .utility import classical_variance

# Strata sizes follow the population split exactly (the analytic
# approximation), or are drawn binomially per arm (the realistic mode).
FIXED_PROPORTIONAL = "fixed"
BINOMIAL_RANDOM = "binomial"

UTILITY = "utility"
REJECTION_PROBS = "rejection"
FWER = "fwer"

_CHUNK = 1 << 17

# Largest per-group size binomial strata mode simulates: each chunk builds
# the Binomial(n, lambda_S) pmf over 0..n, about 31 MB per 10^6.
MAX_BINOMIAL_N = 10 ** 6


@dataclass(frozen=True)
class SimConfig:
    """Replication count, seed, and strata mode."""

    replicates: int
    seed: int
    strata_mode: str = FIXED_PROPORTIONAL

    def __post_init__(self):
        for name, least in (("replicates", 1), ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
                    or value < least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.strata_mode not in (FIXED_PROPORTIONAL, BINOMIAL_RANDOM):
            raise ValueError(f"unknown strata mode {self.strata_mode!r}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    replicates: int

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _rewards(scenario: Scenario, psi_S, psi_F, est_S, est_F, effects: EffectPair):
    """Realized reward per replicate under the scenario's perspective."""
    r = scenario.rewards
    lam = scenario.lambda_S
    if r.perspective == SPONSOR:
        paid_F = r.NrF * np.maximum(est_F - r.mu_F, 0.0)
        paid_S = lam * r.NrS * np.maximum(est_S - r.mu_S, 0.0)
    else:
        delta_F = pooled_effect(effects, lam)
        paid_F = r.NrF * (delta_F - r.mu_F)
        paid_S = lam * r.NrS * (effects.delta_S - r.mu_S)
    return np.where(psi_F, paid_F, np.where(psi_S, paid_S, 0.0))


def _strata_counts(rng, n, lam, m, interior):
    """Per-arm subgroup counts of m replicates, each Binomial(n, lam) and,
    with ``interior``, conditioned on 0 < k < n.

    Each arm's counts are drawn as one multinomial histogram over 0..n and
    expanded in order; the control arm is then permuted, so the pairs are
    distributed as m independent draws per arm. An n above MAX_BINOMIAL_N
    is rejected before the pmf is built.
    """
    if n > MAX_BINOMIAL_N:
        raise ValueError(f"binomial strata mode takes n <= {MAX_BINOMIAL_N}, got n={n}")
    k = np.arange(n + 1)
    log_pmf = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n + 1 - k)
               + k * math.log(lam) + (n - k) * math.log1p(-lam))
    if interior:
        if n < 2:
            raise ValueError(f"both strata of an arm must be non-empty, impossible at n={n}")
        log_pmf[0] = log_pmf[n] = -np.inf
    pmf = np.exp(log_pmf - log_pmf.max())
    pmf /= pmf.sum()
    k_t = np.repeat(k, rng.multinomial(m, pmf))
    k_c = rng.permutation(np.repeat(k, rng.multinomial(m, pmf)))
    return k_t, k_c


def _simulate_batch(design: DesignSpec, effects: EffectPair, scenario: Scenario,
                    strata_mode: str, rng: np.random.Generator, m: int):
    """m replicates of the trial: (utility, psi_S, psi_F) arrays, the
    indicators boolean."""
    n = design.n
    sigma = scenario.sigma
    lam = scenario.lambda_S
    crit = _one_sided_critical(scenario.alpha)
    cost = trial_cost(design.kind, n, scenario.costs, lam)

    if design.kind == ENRICHMENT:
        se = sigma * math.sqrt(2.0 / n)
        est = effects.delta_S + se * rng.standard_normal(m)
        psi_S = est >= crit * se
        psi_F = np.zeros(m, dtype=bool)
        utility = _rewards(scenario, psi_S, psi_F, est, np.zeros(m), effects) - cost
        return utility, psi_S, psi_F

    if design.kind == CLASSICAL:
        variance = classical_variance(effects, lam, sigma, n)
        if strata_mode == FIXED_PROPORTIONAL:
            est = pooled_effect(effects, lam) + math.sqrt(variance) * rng.standard_normal(m)
        else:
            # Arm means of n mixture draws: binomial subgroup counts set the
            # conditional mean, the normal part contributes sigma^2/n.
            theta_t = (effects.prognostic_offset + effects.delta_S,
                       effects.delta_Sc)
            theta_c = (effects.prognostic_offset, 0.0)
            k_t, k_c = _strata_counts(rng, n, lam, m, interior=False)
            mean_t = (k_t * theta_t[0] + (n - k_t) * theta_t[1]) / n
            mean_c = (k_c * theta_c[0] + (n - k_c) * theta_c[1]) / n
            noise = sigma / math.sqrt(n)
            est = (mean_t - mean_c
                   + noise * rng.standard_normal(m)
                   - noise * rng.standard_normal(m))
        psi_F = est >= crit * math.sqrt(variance)
        psi_S = np.zeros(m, dtype=bool)
        utility = _rewards(scenario, psi_S, psi_F, np.zeros(m), est, effects) - cost
        return utility, psi_S, psi_F

    params = params_for_scenario(scenario, design.alpha_S)
    lamc = 1.0 - lam
    if strata_mode == FIXED_PROPORTIONAL:
        var_S = 2.0 * sigma ** 2 / (lam * n)
        var_Sc = 2.0 * sigma ** 2 / (lamc * n)
        est_S = effects.delta_S + math.sqrt(var_S) * rng.standard_normal(m)
        est_Sc = effects.delta_Sc + math.sqrt(var_Sc) * rng.standard_normal(m)
    else:
        k_t, k_c = _strata_counts(rng, n, lam, m, interior=True)
        var_S = sigma ** 2 * (1.0 / k_t + 1.0 / k_c)
        var_Sc = sigma ** 2 * (1.0 / (n - k_t) + 1.0 / (n - k_c))
        est_S = effects.delta_S + np.sqrt(var_S) * rng.standard_normal(m)
        est_Sc = effects.delta_Sc + np.sqrt(var_Sc) * rng.standard_normal(m)
    t_S = est_S / np.sqrt(var_S)
    t_Sc = est_Sc / np.sqrt(var_Sc)
    est_F = lam * est_S + lamc * est_Sc
    var_F = lam ** 2 * var_S + lamc ** 2 * var_Sc
    t_F = est_F / np.sqrt(var_F)
    psi_S, psi_F = _decide(t_S, t_Sc, t_F, params)
    utility = _rewards(scenario, psi_S, psi_F, est_S, est_F, effects) - cost
    return utility, psi_S, psi_F


def _accumulate(design, effects_or_prior, scenario, config, value_fns):
    """Chunked mean/SE of each value_fn(utility, psi_S, psi_F): one
    McEstimate per function, all read from one simulation per chunk and
    atom. With a prior, each chunk draws its per-atom replicate counts as
    one multinomial and simulates every atom as one block, in prior order.
    The no-trial option runs no trial, so its estimates are exactly zero."""
    if design.kind == NO_TRIAL:
        return [McEstimate(0.0, 0.0, config.replicates) for _ in value_fns]
    pairs = ([(effects_or_prior, 1.0)] if isinstance(effects_or_prior, EffectPair)
             else list(effects_or_prior))
    atoms = [atom for atom, _ in pairs]
    weights = np.array([w for _, w in pairs])
    weights = weights / weights.sum()

    total = config.replicates
    s1 = [0.0] * len(value_fns)
    s2 = [0.0] * len(value_fns)
    done = 0
    index = 0
    while done < total:
        m = min(_CHUNK, total - done)
        rng = _chunk_rng(config.seed, index)
        counts = [m] if len(atoms) == 1 else rng.multinomial(m, weights)
        for atom, count in zip(atoms, counts):
            if count == 0:
                continue
            batch = _simulate_batch(design, atom, scenario, config.strata_mode, rng, int(count))
            for i, fn in enumerate(value_fns):
                v = fn(*batch)
                s1[i] += float(v.sum())
                s2[i] += float((v * v).sum())
        done += m
        index += 1
    return [_estimate(a, b, total) for a, b in zip(s1, s2)]


def _estimate(s1, s2, total):
    mean = s1 / total
    if total > 1:
        variance = max(0.0, (s2 - s1 * s1 / total) / (total - 1))
        se = math.sqrt(variance / total)
    else:
        se = 0.0
    return McEstimate(mean=mean, std_error=se, replicates=total)


def _approved(u, ps, pf):
    return (ps | pf).astype(float)


def mc_expected_utility(design: DesignSpec, effects_or_prior, scenario: Scenario,
                        config: SimConfig) -> McEstimate:
    """Simulated expected utility for a fixed effect pair or a prior.

    With a prior, each chunk's replicates are split among the atoms by one
    multinomial draw over the weights; a single-atom prior draws no split,
    so it matches a plain EffectPair run replicate for replicate under the
    same seed.
    """
    design.check_against(scenario)
    return _accumulate(design, effects_or_prior, scenario, config, (lambda u, ps, pf: u,))[0]


def mc_rejection_probs(design: DesignSpec, effects_or_prior, scenario: Scenario,
                       config: SimConfig) -> dict:
    """Simulated approval probabilities: any, full-population, subgroup-only.

    The three estimates are read from one simulation of the replicates,
    the same trials :func:`mc_expected_utility` simulates for this design,
    input and config.
    """
    design.check_against(scenario)
    estimates = _accumulate(design, effects_or_prior, scenario, config, (
        _approved,
        lambda u, ps, pf: pf.astype(float),
        lambda u, ps, pf: (ps & ~pf).astype(float)))
    return dict(zip(("any", "F", "S_only"), estimates))


def mc_fwer(design: DesignSpec, scenario: Scenario, null_effects: EffectPair,
            config: SimConfig) -> McEstimate:
    """Simulated probability of any rejection under a global null."""
    design.check_against(scenario)
    if null_effects.delta_S > 1e-12:
        raise ValueError("null effects require delta_S <= 0")
    if pooled_effect(null_effects, scenario.lambda_S) > 1e-12:
        raise ValueError("null effects require the pooled effect <= 0")
    return _accumulate(design, null_effects, scenario, config, (_approved,))[0]
