"""Property tests over random settings of the whole domain: the closed-form
stratified evaluation agrees with the adaptive quadrature oracle, no
design family rejects with more than probability alpha at the global null,
and every family's analytic utility and approval probabilities agree with
the Monte Carlo oracle's in fixed strata mode.

Each property draws from a fixed, named seed, so every run draws the same
examples, and an edit to a test's body leaves its draws as they were (a
derandomized profile would seed them from the body's source).
"""

import math

from hypothesis import example, given, seed, settings, strategies as st
from scipy.special import ndtr

from trialopt.mc_oracle import SimConfig, mc_expected_utility, mc_rejection_probs
from trialopt.model import CLASSICAL, ENRICHMENT, SPONSOR, STRATIFIED
from trialopt.model import DesignSpec, DiscretePrior, EffectPair, pooled_effect
from trialopt.utility import _FIELDS, classical_variance, eu_prior_averaged, grid_row
from conftest import atom_result, make_scenario
from oracles import adaptive_stratified, assert_matches_oracle

settings.register_profile("trialopt-seeded", derandomize=False, database=None,
                          deadline=None, max_examples=80, print_blob=True)
SEED = 20260810


@seed(SEED)
@settings(settings.get_profile("trialopt-seeded"))
@given(
    lam=st.floats(0.001, 0.999),
    n=st.floats(50.0, 1e6),
    alpha_share=st.floats(0.0, 1.0),
    tau_S=st.floats(0.0, 1.0),
    tau_Sc=st.floats(0.0, 1.0),
    delta_Sc=st.floats(-0.5, 0.5),
    predictive=st.floats(0.0, 0.6),
    perspective=st.sampled_from(["sponsor", "public"]),
)
def test_closed_form_matches_oracle(lam, n, alpha_share, tau_S, tau_Sc, delta_Sc,
                                    predictive, perspective):
    scenario = make_scenario(lambda_S=lam, perspective=perspective, case=1,
                             tau_S=tau_S, tau_Sc=tau_Sc)
    atom = EffectPair(delta_Sc + predictive, delta_Sc)
    alpha_S = alpha_share * scenario.alpha
    got = atom_result(STRATIFIED, atom, n, scenario, alpha_S)
    assert all(math.isfinite(getattr(got, f)) for f in got.__dataclass_fields__)
    assert_matches_oracle(got, adaptive_stratified(atom, n, alpha_S, scenario))


@seed(SEED)
@settings(settings.get_profile("trialopt-seeded"))
@given(
    lam=st.floats(0.01, 0.99),
    alpha_share=st.floats(0.0, 1.0),
    tau_S=st.floats(0.0, 1.0),
    tau_Sc=st.floats(0.0, 1.0),
    n=st.floats(50.0, 1e6),
    perspective=st.sampled_from(["sponsor", "public"]),
)
def test_familywise_error_at_global_null(lam, alpha_share, tau_S, tau_Sc, n, perspective):
    null = DiscretePrior(((EffectPair(0.0, 0.0), 1.0),))
    scenario = make_scenario(lambda_S=lam, perspective=perspective,
                             tau_S=tau_S, tau_Sc=tau_Sc, prior=null)
    power_any = _FIELDS.index("power_any")
    alphas = {CLASSICAL: [None], ENRICHMENT: [None],
              STRATIFIED: [alpha_share * scenario.alpha]}
    for kind, row_alphas in alphas.items():
        fwer = grid_row(kind, n, row_alphas, scenario)[power_any, 0]
        assert fwer <= scenario.alpha + 1e-10, kind


MC_REPS = 200_000


def _utility_se_floor(kind, atom, n, scenario, exact):
    """A lower bound on the standard error of the simulated utility, from
    the analytic result.

    The payoff X = utility + cost is nonzero on the full and the
    subgroup-only approval branch only, with expected values
    expected_reward_F and expected_reward_S. By Cauchy-Schwarz on each
    branch, E[X^2] >= r^2 / q, where q bounds the probability that the
    branch pays: its approval probability and, for the sponsor, the
    probability that its estimate clears the reward floor. The simulation's
    own standard error misses this variance when it draws none of the rare
    paying replicates.
    """
    rewards, lam, sigma = scenario.rewards, scenario.lambda_S, scenario.sigma
    q_S, q_F = exact.prob_reject_S_only, exact.prob_reject_F
    if rewards.perspective == SPONSOR:
        se_S = sigma * math.sqrt(2.0 / (n if kind == ENRICHMENT else lam * n))
        se_F = (math.sqrt(classical_variance(atom, lam, sigma, n)) if kind == CLASSICAL
                else sigma * math.sqrt(2.0 / n))
        q_S = min(q_S, ndtr((atom.delta_S - rewards.mu_S) / se_S))
        q_F = min(q_F, ndtr((pooled_effect(atom, lam) - rewards.mu_F) / se_F))
    mean = exact.expected_reward_S + exact.expected_reward_F
    second = sum(r * r / q for r, q in ((exact.expected_reward_S, q_S),
                                        (exact.expected_reward_F, q_F)) if q > 0.0)
    return math.sqrt(max(0.0, second - mean * mean) / MC_REPS)


@seed(SEED)
@settings(settings.get_profile("trialopt-seeded"), max_examples=120)
@given(
    lam=st.floats(0.01, 0.99),
    n=st.integers(50, 10 ** 6),
    alpha_share=st.floats(0.0, 1.0),
    tau_S=st.floats(0.0, 1.0),
    tau_Sc=st.floats(0.0, 1.0),
    delta_Sc=st.floats(-0.5, 0.5),
    predictive=st.floats(0.0, 0.6),
    offset=st.floats(-0.5, 0.5),
    perspective=st.sampled_from(["sponsor", "public"]),
    kind=st.sampled_from([CLASSICAL, STRATIFIED, ENRICHMENT]),
    case=st.sampled_from([1, 2, 3]),
)
# a classical and a stratified sponsor design of market case 1
@example(lam=0.5, n=300, alpha_share=0.0, tau_S=0.3, tau_Sc=0.3, delta_Sc=0.15,
         predictive=0.15, offset=0.0, perspective="sponsor", kind=CLASSICAL, case=1)
@example(lam=0.5, n=300, alpha_share=0.5, tau_S=0.3, tau_Sc=0.3, delta_Sc=0.3,
         predictive=0.0, offset=0.0, perspective="sponsor", kind=STRATIFIED, case=1)
def test_analytic_matches_monte_carlo(lam, n, alpha_share, tau_S, tau_Sc, delta_Sc,
                                      predictive, offset, perspective, kind, case):
    # Within 4 SE, where an estimate's SE is the larger of the simulation's
    # own and a lower bound on the true one from the analytic result (the
    # binomial SE for a probability), plus the rounding of a mean of
    # 2e5 equal values.
    atom = EffectPair(delta_Sc + predictive, delta_Sc, offset)
    scenario = make_scenario(lambda_S=lam, perspective=perspective, case=case, tau_S=tau_S,
                             tau_Sc=tau_Sc, prior=DiscretePrior(((atom, 1.0),)))
    alpha_S = alpha_share * scenario.alpha if kind == STRATIFIED else None
    design = DesignSpec(kind, n=n, alpha_S=alpha_S)
    exact = eu_prior_averaged(design, scenario)
    config = SimConfig(MC_REPS, 7)
    utility = mc_expected_utility(design, scenario.prior, scenario, config)
    probs = mc_rejection_probs(design, scenario.prior, scenario, config)
    checks = [(utility, exact.expected_utility,
               _utility_se_floor(kind, atom, n, scenario, exact))]
    for name, p in (("any", exact.power_any), ("F", exact.prob_reject_F),
                    ("S_only", exact.prob_reject_S_only)):
        checks.append((probs[name], p, math.sqrt(p * (1.0 - p) / MC_REPS)))
    for est, want, floor in checks:
        se = max(est.std_error, floor)
        assert abs(est.mean - want) <= 4.0 * se + 1e-12 * max(1.0, abs(want)), (
            est, want, floor)
