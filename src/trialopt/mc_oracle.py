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

Each block is built in place: every estimate on its own normal draw, and
the t-statistics, the pooled estimate and the binomial-mode variances in
buffers whose earlier contents are dead. Each estimator builds only what
it reads. :func:`mc_expected_utility` builds every replicate's payoff by
masked copies, into a new array for the one-test families and into the
stratified t_S buffer; :func:`mc_rejection_probs` and :func:`mc_fwer`
read the two approval masks and build no payoff. The draws and masks are
the same either way. Approval estimates count the True entries of a
boolean mask, which is the exact sum of its 0.0/1.0 values and of their
squares. Every random draw comes in the same order and every
floating-point value keeps the operands and operation order of its
closed form, so the estimates are those of an out-of-place evaluation,
bit for bit. A full 131,072-replicate chunk of one atom peaks at about
6.3 MB of arrays (binomial stratified). The one-test families in fixed
mode peak at 2.4 MB with the payoff and 1.3 MB without it.
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
from .testing import _decide, alpha_F_given_alpha_S
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


def _utility(scenario: Scenario, effects: EffectPair, cost: float, out,
             psi_S=None, est_S=None, psi_F=None, est_F=None):
    """Realized utility per replicate, written into ``out``: the reward of
    the approval each replicate gets under the scenario's perspective,
    less the cost. A full-population approval outranks a subgroup one;
    an approval the design cannot give is passed as None. The estimates
    are overwritten with the sponsor's payoffs."""
    r = scenario.rewards
    lam = scenario.lambda_S
    out.fill(0.0)
    for psi, est, scale, mu, true_effect in (
            (psi_S, est_S, lam * r.NrS, r.mu_S, effects.delta_S),
            (psi_F, est_F, r.NrF, r.mu_F, pooled_effect(effects, lam))):
        if psi is None:
            continue
        if r.perspective == SPONSOR:
            est -= mu
            np.maximum(est, 0.0, out=est)
            est *= scale
            paid = est
        else:
            paid = scale * (true_effect - mu)
        np.copyto(out, paid, where=psi)
    out -= cost
    return out


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


def _normal(rng, m, mean, sd, out=None):
    """m draws of mean + sd * Z, built in place on the normal draw (in
    ``out`` if given)."""
    z = rng.standard_normal(m, out=out)
    z *= sd
    z += mean
    return z


def _simulate_batch(design: DesignSpec, effects: EffectPair, scenario: Scenario,
                    strata_mode: str, rng: np.random.Generator, m: int, *,
                    need_utility: bool = True):
    """m replicates of the trial: (utility, psi_S, psi_F) arrays, the
    indicators boolean, built in place as the module docstring says.
    Without ``need_utility`` no payoff is built and the utility is None;
    the draws and the indicators are the same."""
    n = design.n
    sigma = scenario.sigma
    lam = scenario.lambda_S
    crit = _one_sided_critical(scenario.alpha)
    cost = trial_cost(design.kind, n, scenario.costs, lam)

    if design.kind == ENRICHMENT:
        se = sigma * math.sqrt(2.0 / n)
        est = _normal(rng, m, effects.delta_S, se)
        psi_S = est >= crit * se
        utility = (_utility(scenario, effects, cost, np.empty(m), psi_S=psi_S, est_S=est)
                   if need_utility else None)
        return utility, psi_S, np.zeros(m, dtype=bool)

    if design.kind == CLASSICAL:
        sd = math.sqrt(classical_variance(effects, lam, sigma, n))
        if strata_mode == FIXED_PROPORTIONAL:
            est = _normal(rng, m, pooled_effect(effects, lam), sd)
        else:
            # Arm means of n mixture draws: binomial subgroup counts set the
            # conditional mean, the normal part contributes sigma^2/n. Each
            # arm's mean is (k theta_1 + (n - k) theta_2) / n, and the
            # estimate is mean_t - mean_c + noise z_1 - noise z_2.
            k_t, k_c = _strata_counts(rng, n, lam, m, interior=False)
            est = _arm_mean(k_t, n, effects.prognostic_offset + effects.delta_S,
                            effects.delta_Sc)
            del k_t
            est -= _arm_mean(k_c, n, effects.prognostic_offset, 0.0)
            del k_c
            noise = sigma / math.sqrt(n)
            z = rng.standard_normal(m)
            z *= noise
            est += z
            rng.standard_normal(out=z)
            z *= noise
            est -= z
        psi_F = est >= crit * sd
        utility = (_utility(scenario, effects, cost, np.empty(m), psi_F=psi_F, est_F=est)
                   if need_utility else None)
        return utility, np.zeros(m, dtype=bool), psi_F

    alpha_F = alpha_F_given_alpha_S(design.alpha_S, lam, scenario.alpha)
    lamc = 1.0 - lam
    if strata_mode == FIXED_PROPORTIONAL:
        var_S = 2.0 * sigma ** 2 / (lam * n)
        var_Sc = 2.0 * sigma ** 2 / (lamc * n)
        sd_S = math.sqrt(var_S)
        sd_Sc = math.sqrt(var_Sc)
        est_S = _normal(rng, m, effects.delta_S, sd_S)
        est_Sc = _normal(rng, m, effects.delta_Sc, sd_Sc)
        t_S = est_S / sd_S
        t_Sc = est_Sc / sd_Sc
        est_Sc *= lamc
        est_F = est_S * lam
        est_F += est_Sc
        # est_Sc's buffer takes t_F
        t_F = np.divide(est_F, math.sqrt(lam ** 2 * var_S + lamc ** 2 * var_Sc), out=est_Sc)
    else:
        k_t, k_c = _strata_counts(rng, n, lam, m, interior=True)
        var_S = _inverse_sum(k_t, k_c, sigma ** 2)
        np.subtract(n, k_t, out=k_t)
        np.subtract(n, k_c, out=k_c)
        var_Sc = _inverse_sum(k_t, k_c, sigma ** 2)
        del k_t, k_c
        # each standard deviation's buffer takes its t-statistic; var_S's
        # takes var_F, then its root, then t_F; var_Sc's takes est_Sc
        t_S = np.sqrt(var_S)
        est_S = _normal(rng, m, effects.delta_S, t_S)
        np.divide(est_S, t_S, out=t_S)
        t_Sc = np.sqrt(var_Sc)
        var_S *= lam ** 2
        var_Sc *= lamc ** 2
        var_S += var_Sc
        est_Sc = _normal(rng, m, effects.delta_Sc, t_Sc, out=var_Sc)
        del var_Sc
        np.divide(est_Sc, t_Sc, out=t_Sc)
        est_Sc *= lamc
        est_F = est_S * lam
        est_F += est_Sc
        del est_Sc
        t_F = np.sqrt(var_S, out=var_S)
        np.divide(est_F, t_F, out=t_F)
    psi_S, psi_F = _decide(t_S, t_Sc, t_F, scenario, design.alpha_S, alpha_F)
    # t_S's buffer takes the utility
    utility = (_utility(scenario, effects, cost, t_S, psi_S=psi_S, est_S=est_S,
                        psi_F=psi_F, est_F=est_F)
               if need_utility else None)
    return utility, psi_S, psi_F


def _arm_mean(k, n, theta_1, theta_2):
    """(k theta_1 + (n - k) theta_2) / n for subgroup counts k, which are
    overwritten with n - k."""
    mean = k * theta_1
    np.subtract(n, k, out=k)
    mean += k * theta_2
    mean /= n
    return mean


def _inverse_sum(k_t, k_c, scale):
    """scale * (1 / k_t + 1 / k_c)."""
    out = 1.0 / k_t
    out += 1.0 / k_c
    out *= scale
    return out


def _accumulate(design, effects_or_prior, scenario, config, value_fns, *,
                need_utility=True):
    """Chunked mean/SE of each value_fn(utility, psi_S, psi_F): one
    McEstimate per function, all read from one simulation per chunk and
    atom. A function returns floats, or a boolean mask whose True count
    is its sum. Without ``need_utility`` no payoff is built and the
    functions are given None for the utility. With a prior, each chunk
    draws its per-atom replicate counts as one multinomial and simulates
    every atom as one block, in prior order. The no-trial option runs no
    trial, so its estimates are exactly zero."""
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
            batch = _simulate_batch(design, atom, scenario, config.strata_mode, rng, int(count),
                                    need_utility=need_utility)
            for i, fn in enumerate(value_fns):
                v = fn(*batch)
                if v.dtype == bool:
                    # the exact sum of v and of v * v over 0.0/1.0 values
                    hits = int(np.count_nonzero(v))
                    s1[i] += hits
                    s2[i] += hits
                else:
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
    return ps | pf


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
        lambda u, ps, pf: pf,
        lambda u, ps, pf: ps & ~pf), need_utility=False)
    return dict(zip(("any", "F", "S_only"), estimates))


def mc_fwer(design: DesignSpec, scenario: Scenario, null_effects: EffectPair,
            config: SimConfig) -> McEstimate:
    """Simulated probability of any rejection under a global null."""
    design.check_against(scenario)
    if null_effects.delta_S > 1e-12:
        raise ValueError("null effects require delta_S <= 0")
    if pooled_effect(null_effects, scenario.lambda_S) > 1e-12:
        raise ValueError("null effects require the pooled effect <= 0")
    return _accumulate(design, null_effects, scenario, config, (_approved,),
                       need_utility=False)[0]
