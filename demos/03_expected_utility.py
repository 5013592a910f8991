"""
Expected utility of a design, before choosing the sample size
=============================================================

Given true effects, each design's expected utility has a closed form:
reward from approval minus trial cost. The sponsor is paid on the
*observed* effect (so noise has option value); the public view pays on
the *true* effect (so false approvals hurt). This script contrasts the
two along the sample-size axis. Known true effects are a prior with a
single atom, evaluated like any other prior.
"""

from trialopt import (
    CostStructure,
    DesignSpec,
    DiscretePrior,
    EffectPair,
    RewardStructure,
    Scenario,
    eu_prior_averaged,
)

costs = CostStructure(setup=1.0, per_patient=0.05)
atom = EffectPair(0.3, 0.15)  # subgroup works well, complement half as much
prior = DiscretePrior(((atom, 1.0),))

for perspective in ("sponsor", "public"):
    rewards = RewardStructure(perspective, NrS=1000.0, NrF=1000.0,
                              mu_S=0.1, mu_F=0.1)
    scenario = Scenario(lambda_S=0.5, costs=costs, rewards=rewards, prior=prior)
    print(f"\n{perspective} view, true effects (0.3, 0.15), prevalence 0.5")
    print("     n   classical  stratified  enrichment")
    for n in (50, 100, 200, 400, 800, 1600):
        designs = (DesignSpec.classical(n), DesignSpec.stratified(n, 0.0125),
                   DesignSpec.enrichment(n))
        row = [eu_prior_averaged(design, scenario).expected_utility for design in designs]
        print(f"  {n:4d}   {row[0]:9.2f}  {row[1]:10.2f}  {row[2]:10.2f}")

# The sponsor curve peaks earlier: past the peak, more patients just cost
# money and shrink the upside of a lucky high estimate. The public curve
# keeps rising longer because precision protects against paying for an
# ineffective drug.

# At the null the perspectives split qualitatively: a trial retains
# positive value for the sponsor (false positives still sell) but is pure
# loss for public health.
null = DiscretePrior(((EffectPair(0.0, 0.0), 1.0),))
for perspective in ("sponsor", "public"):
    rewards = RewardStructure(perspective, NrS=1000.0, NrF=1000.0,
                              mu_S=0.1, mu_F=0.1)
    scenario = Scenario(lambda_S=0.5, costs=costs, rewards=rewards, prior=null)
    value = eu_prior_averaged(DesignSpec.classical(50), scenario).expected_utility
    print(f"classical n=50 at the global null, {perspective}: {value:+.2f} MUSD")
