"""
Building blocks: effects, priors, designs, and trial costs
==========================================================

A pivotal trial for a targeted therapy is described by the true treatment
effects in the biomarker-positive subgroup S and its complement, a prior
over those effects, a design choice, and a cost structure. This script
walks through each piece.
"""

from trialopt import (
    CostStructure,
    DesignSpec,
    EffectPair,
    builtin_prior,
    pooled_effect,
    trial_cost,
)

# True effects: 0.3 outcome-SDs in the subgroup, nothing in the complement.
effects = EffectPair(delta_S=0.3, delta_Sc=0.0)
print("subgroup effect:", effects.delta_S, " complement effect:", effects.delta_Sc)

# The full-population effect is the prevalence-weighted mixture.
for lam in (0.2, 0.5, 0.8):
    print(f"  prevalence {lam}: pooled effect {pooled_effect(effects, lam):.3f}")

# Two reference priors on the grid (0,0), (d,0), (d,d/2), (d,d): 'weak'
# hedges towards homogeneous effects, 'strong' concentrates on
# subgroup-only efficacy.
for kind in ("weak", "strong"):
    prior = builtin_prior(kind, 0.3)
    print(f"{kind} prior:")
    for atom, weight in prior:
        print(f"  delta_S={atom.delta_S:4.2f} delta_Sc={atom.delta_Sc:5.2f}"
              f"  weight={weight}")

# Costs: 1 MUSD setup, 0.05 MUSD per recruited patient, plus biomarker
# development and per-patient screening when the biomarker is used.
costs = CostStructure(setup=1.0, per_patient=0.05, biomarker=10.0, screening=0.005)
print("costs at n = 100 per arm, prevalence 0.5:")
for design in (DesignSpec.classical(100),
               DesignSpec.stratified(100, alpha_S=0.0125),
               DesignSpec.enrichment(100),
               DesignSpec.no_trial()):
    print(f"  {design.label:<11} {trial_cost(design.kind, design.n, costs, 0.5):6.2f} MUSD")

# Enrichment screens 2n/lambda_S patients to enroll 2n positives, so its
# cost explodes as the subgroup gets rare.
print("enrichment cost vs prevalence (n = 100):")
for lam in (0.5, 0.2, 0.1, 0.05):
    cost = trial_cost("enrichment", 100, costs, lam)
    print(f"  lambda_S={lam:4.2f}: {cost:7.2f} MUSD")
