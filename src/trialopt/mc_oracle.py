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
0..n, expanded in order, and pairs the arms by shuffling the control arm
in place (the draws of a random permutation of it). Every estimate
depends only on the multiset of replicates, so both draws have the
distribution of per-replicate atom labels and per-replicate binomial
counts. A single effect pair, or a one-atom prior, draws no split.

Each call allocates one workspace, :func:`_workspace`'s float rows by the
replicates of its largest chunk, and builds every block of every chunk in
row prefixes of it: each estimate on its own normal draw, and the
t-statistics, the binomial-mode counts (as int64) and variances, the
pooled estimate and the payoff in rows whose earlier contents are dead.
Every row is written before it is read. So each block reuses the pages
the last one touched, where fresh arrays per block were mapped and
faulted in again. A workspace has one row per array alive at once: from
one (a one-test design, approvals only) to five (stratified, binomial
mode). With a payoff, the stratified pooled estimate is the one array
made outside it, since est_S stays alive for the payoff: a sixth row would
make that workspace the widest of all, and in the validate benchmark the
allocator then held the narrower ones' pages beside it, about 2 MB more
peak RSS. An approval the design cannot give is the scalar False.

Each estimator builds only what it reads. :func:`mc_expected_utility`
builds every replicate's payoff by masked copies into a workspace row;
:func:`mc_rejection_probs` and :func:`mc_fwer` read the two approval masks
and build no payoff. The draws and masks are the same either way.
Approval estimates count the True entries of a boolean mask, which is the
exact sum of its 0.0/1.0 values and of their squares; a payoff's square
is written into a dead row. Every random draw comes in the same order and
every floating-point value keeps the operands and operation order of its
closed form, so the estimates are those of an out-of-place evaluation,
bit for bit. A full 131,072-replicate chunk of one atom peaks at about
6.9 MB of arrays (binomial stratified with the payoff, 53 bytes per
replicate). The one-test families in fixed mode peak at 2.2 MB with the
payoff and 1.4 MB without it.
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
    STRATIFIED,
    DesignSpec,
    EffectPair,
    Scenario,
    is_integer,
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
            if not is_integer(value) or value < least:
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


def _strata_counts(rng, n, lam, interior, k_t, k_c):
    """Per-arm subgroup counts, written into the int64 arrays ``k_t`` and
    ``k_c`` (one entry per replicate), each Binomial(n, lam) and, with
    ``interior``, conditioned on 0 < k < n.

    Each arm's counts are drawn as one multinomial histogram over 0..n and
    expanded in order; the control arm is then shuffled in place, so the
    pairs are distributed as independent draws per arm. An n above
    MAX_BINOMIAL_N is rejected before the pmf is built.
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
    m = len(k_t)
    k_t[:] = np.repeat(k, rng.multinomial(m, pmf))
    k_c[:] = np.repeat(k, rng.multinomial(m, pmf))
    rng.shuffle(k_c)


def _normal(rng, mean, sd, out):
    """Draws of mean + sd * Z, one per entry of ``out``, built in place
    there."""
    z = rng.standard_normal(out=out)
    z *= sd
    z += mean
    return z


def _workspace(kind, strata_mode, need_utility, columns):
    """The float rows :func:`_simulate_batch` writes for a design kind,
    strata mode and estimator, ``columns`` replicates long: one row per
    array its plan keeps alive at once. A one-test design's payoff takes
    a row, where classical binomial mode has a dead count row for it; the
    stratified design writes its payoff over t_S."""
    if kind == STRATIFIED:
        rows = 4 + (strata_mode == BINOMIAL_RANDOM)
    elif kind == CLASSICAL and strata_mode == BINOMIAL_RANDOM:
        rows = 4
    else:
        rows = 1 + need_utility
    return np.empty((rows, columns))


def _simulate_batch(design: DesignSpec, effects: EffectPair, scenario: Scenario,
                    strata_mode: str, rng: np.random.Generator, m: int, *,
                    ws, need_utility: bool = True):
    """m replicates of the trial: (utility, psi_S, psi_F) arrays, the
    indicators boolean, built in place as the module docstring says.

    Every float array but one is a row prefix of the workspace ``ws``
    (made by :func:`_workspace`), written before it is read; the stratified
    pooled estimate beside a payoff is a fresh array. Row 0 is dead once
    the batch returns. Without ``need_utility`` no payoff is built and the
    utility is None; the draws and the indicators are the same. An
    approval the design cannot give is the scalar False, which
    broadcasts."""
    n = design.n
    sigma = scenario.sigma
    lam = scenario.lambda_S
    crit = _one_sided_critical(scenario.alpha)
    cost = trial_cost(design.kind, n, scenario.costs, lam)
    w = ws[:, :m]

    if design.kind == ENRICHMENT:
        se = sigma * math.sqrt(2.0 / n)
        est = _normal(rng, effects.delta_S, se, w[0])
        psi_S = est >= crit * se
        utility = (_utility(scenario, effects, cost, w[1], psi_S=psi_S, est_S=est)
                   if need_utility else None)
        return utility, psi_S, np.False_

    if design.kind == CLASSICAL:
        sd = math.sqrt(classical_variance(effects, lam, sigma, n))
        if strata_mode == FIXED_PROPORTIONAL:
            est = _normal(rng, pooled_effect(effects, lam), sd, w[0])
        else:
            # Arm means of n mixture draws: binomial subgroup counts set the
            # conditional mean, the normal part contributes sigma^2/n. Each
            # arm's mean is (k theta_1 + (n - k) theta_2) / n, and the
            # estimate is mean_t - mean_c + noise z_1 - noise z_2. The
            # counts take rows 1-2; row 3 takes the control arm's mean,
            # then z.
            k_t, k_c = w[1].view(np.int64), w[2].view(np.int64)
            _strata_counts(rng, n, lam, False, k_t, k_c)
            est = _arm_mean(k_t, n, effects.prognostic_offset + effects.delta_S,
                            effects.delta_Sc, out=w[0], tmp=w[3])
            est -= _arm_mean(k_c, n, effects.prognostic_offset, 0.0, out=w[3], tmp=w[1])
            noise = sigma / math.sqrt(n)
            z = rng.standard_normal(out=w[3])
            z *= noise
            est += z
            rng.standard_normal(out=z)
            z *= noise
            est -= z
        psi_F = est >= crit * sd
        utility = (_utility(scenario, effects, cost, w[1], psi_F=psi_F, est_F=est)
                   if need_utility else None)
        return utility, np.False_, psi_F

    alpha_F = alpha_F_given_alpha_S(design.alpha_S, lam, scenario.alpha)
    lamc = 1.0 - lam
    if strata_mode == FIXED_PROPORTIONAL:
        # rows: 0 est_S, 1 est_Sc then t_F, 2 t_S, 3 t_Sc
        var_S = 2.0 * sigma ** 2 / (lam * n)
        var_Sc = 2.0 * sigma ** 2 / (lamc * n)
        sd_S = math.sqrt(var_S)
        sd_Sc = math.sqrt(var_Sc)
        est_S = _normal(rng, effects.delta_S, sd_S, w[0])
        est_Sc = _normal(rng, effects.delta_Sc, sd_Sc, w[1])
        t_S = np.divide(est_S, sd_S, out=w[2])
        t_Sc = np.divide(est_Sc, sd_Sc, out=w[3])
        sd_F = math.sqrt(lam ** 2 * var_S + lamc ** 2 * var_Sc)
        t_F_row = est_Sc
    else:
        # rows: 0 var_S, then var_F, its root and t_F; 1 var_Sc, then
        # est_Sc; 2 sd_S, then t_S; 3 and 4 the counts, then est_S and
        # sd_Sc, then t_Sc
        k_t, k_c = w[3].view(np.int64), w[4].view(np.int64)
        _strata_counts(rng, n, lam, True, k_t, k_c)
        var_S = _inverse_sum(k_t, k_c, sigma ** 2, out=w[0], tmp=w[1])
        np.subtract(n, k_t, out=k_t)
        np.subtract(n, k_c, out=k_c)
        var_Sc = _inverse_sum(k_t, k_c, sigma ** 2, out=w[1], tmp=w[2])
        t_S = np.sqrt(var_S, out=w[2])
        est_S = _normal(rng, effects.delta_S, t_S, w[3])
        np.divide(est_S, t_S, out=t_S)
        t_Sc = np.sqrt(var_Sc, out=w[4])
        var_S *= lam ** 2
        var_Sc *= lamc ** 2
        var_S += var_Sc
        est_Sc = _normal(rng, effects.delta_Sc, t_Sc, var_Sc)
        np.divide(est_Sc, t_Sc, out=t_Sc)
        sd_F = t_F_row = np.sqrt(var_S, out=var_S)
    est_Sc *= lamc
    # the payoff reads est_S, so est_F is then a fresh array (a row for it
    # would make this the widest workspace of all); without a payoff it is
    # built on est_S's row
    est_F = est_S * lam if need_utility else np.multiply(est_S, lam, out=est_S)
    est_F += est_Sc
    t_F = np.divide(est_F, sd_F, out=t_F_row)
    psi_S, psi_F = _decide(t_S, t_Sc, t_F, scenario, design.alpha_S, alpha_F)
    # t_S's row takes the utility
    utility = (_utility(scenario, effects, cost, t_S, psi_S=psi_S, est_S=est_S,
                        psi_F=psi_F, est_F=est_F)
               if need_utility else None)
    return utility, psi_S, psi_F


def _arm_mean(k, n, theta_1, theta_2, out, tmp):
    """(k theta_1 + (n - k) theta_2) / n for subgroup counts k, which are
    overwritten with n - k, built in ``out`` with ``tmp`` as scratch."""
    mean = np.multiply(k, theta_1, out=out)
    np.subtract(n, k, out=k)
    mean += np.multiply(k, theta_2, out=tmp)
    mean /= n
    return mean


def _inverse_sum(k_t, k_c, scale, out, tmp):
    """scale * (1 / k_t + 1 / k_c), built in ``out`` with ``tmp`` as
    scratch."""
    inv = np.divide(1.0, k_t, out=out)
    inv += np.divide(1.0, k_c, out=tmp)
    inv *= scale
    return inv


def _accumulate(design, effects_or_prior, scenario, config, value_fns, *,
                need_utility=True):
    """Chunked mean/SE of each value_fn(utility, psi_S, psi_F): one
    McEstimate per function, all read from one simulation per chunk and
    atom. A function returns floats, or a boolean mask whose True count
    is its sum. Without ``need_utility`` no payoff is built and the
    functions are given None for the utility. With a prior, each chunk
    draws its per-atom replicate counts as one multinomial and simulates
    every atom as one block, in prior order. Every block is built in one
    workspace, made once per call. The no-trial option runs no trial, so
    its estimates are exactly zero."""
    if design.kind == NO_TRIAL:
        return [McEstimate(0.0, 0.0, config.replicates) for _ in value_fns]
    pairs = ([(effects_or_prior, 1.0)] if isinstance(effects_or_prior, EffectPair)
             else list(effects_or_prior))
    atoms = [atom for atom, _ in pairs]
    weights = np.array([w for _, w in pairs])
    weights = weights / weights.sum()

    total = config.replicates
    ws = _workspace(design.kind, config.strata_mode, need_utility, min(_CHUNK, total))
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
            count = int(count)
            batch = _simulate_batch(design, atom, scenario, config.strata_mode, rng, count,
                                    ws=ws, need_utility=need_utility)
            for i, fn in enumerate(value_fns):
                v = fn(*batch)
                if v.dtype == bool:
                    # the exact sum of v and of v * v over 0.0/1.0 values
                    hits = int(np.count_nonzero(v))
                    s1[i] += hits
                    s2[i] += hits
                else:
                    s1[i] += float(v.sum())
                    # row 0 is dead: it takes the square
                    s2[i] += float(np.multiply(v, v, out=ws[0, :count]).sum())
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
