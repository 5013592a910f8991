"""
Validating the analytic engine by simulating whole trials
=========================================================

The Monte Carlo oracle replays the complete pipeline per replicate: draw
estimates from their sampling distributions, apply the exact multiple
test, pay the realized reward, subtract costs. Fixed-strata mode must
agree with the analytic numbers to Monte Carlo accuracy; the binomial
mode quantifies how much the fixed-strata approximation matters.
"""

from trialopt import (
    BINOMIAL_RANDOM,
    CostStructure,
    DesignSpec,
    DiscretePrior,
    EffectPair,
    RewardStructure,
    Scenario,
    SimConfig,
    builtin_prior,
    eu_prior_averaged,
    mc_expected_utility,
    mc_fwer,
)

costs = CostStructure(setup=1.0, per_patient=0.05)
rewards = RewardStructure("sponsor", NrS=1000.0, NrF=1000.0, mu_S=0.1, mu_F=0.1)
scenario = Scenario(lambda_S=0.5, costs=costs, rewards=rewards,
                    prior=builtin_prior("weak", 0.3))
design = DesignSpec.stratified(200, alpha_S=0.0125)
atom = EffectPair(0.3, 0.15)

# The analytic value at these true effects: a prior with a single atom.
at_atom = scenario.with_prior(DiscretePrior(((atom, 1.0),)))
analytic = eu_prior_averaged(design, at_atom).expected_utility
fixed = mc_expected_utility(design, atom, scenario,
                            SimConfig(replicates=10**6, seed=1))
print(f"analytic expected utility : {analytic:10.4f} MUSD")
print(f"simulated (fixed strata)  : {fixed.mean:10.4f} +- {fixed.std_error:.4f}")
print(f"deviation in SE units     : {(analytic - fixed.mean) / fixed.std_error:+.2f}")

# Realistic mode: the number of biomarker-positive patients per arm is
# binomial, so subgroup estimates have random precision. Report the gap;
# at n = 200 it is well inside a few MUSD.
binomial = mc_expected_utility(design, atom, scenario,
                               SimConfig(replicates=10**6, seed=1,
                                         strata_mode=BINOMIAL_RANDOM))
print(f"simulated (binomial)      : {binomial.mean:10.4f} +- {binomial.std_error:.4f}")
print(f"fixed-vs-binomial gap     : {abs(fixed.mean - binomial.mean):.4f} MUSD")

# Familywise error under the global null: the consistency thresholds make
# the modified test conservative; removing them (tau = 1) restores exact
# level alpha.
null = EffectPair(0.0, 0.0)
fwer = mc_fwer(design, scenario, null, SimConfig(replicates=10**6, seed=2))
print(f"\nFWER with tau = 0.3       : {fwer.mean:.5f} +- {fwer.std_error:.5f}"
      f"  (level {scenario.alpha})")
plain = Scenario(lambda_S=0.5, costs=costs, rewards=rewards,
                 prior=scenario.prior, tau_S=1.0, tau_Sc=1.0)
fwer_plain = mc_fwer(design, plain, null, SimConfig(replicates=10**6, seed=2))
print(f"FWER with tau disabled    : {fwer_plain.mean:.5f} +- {fwer_plain.std_error:.5f}")
