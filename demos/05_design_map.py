"""
Design selection map over prevalence and effect size
====================================================

Rebuilding the prior of the template's kind at each effect-size parameter
and optimizing at each prevalence yields a map of optimal designs. From the
public-health view a grey (no-trial) band appears at small effects; from
the sponsor view some trial is always worth running, with the minimal
sample size at the null.
"""

import numpy as np

from trialopt import (
    CostStructure,
    GridConfig,
    RewardStructure,
    Scenario,
    builtin_prior,
    sweep_contour,
)

SYMBOL = {"classical": "C", "stratified": "S", "enrichment": "E", "no_trial": "."}

quick = GridConfig(n_grid=(50, 70, 100, 145, 210, 310, 450, 660, 970, 1400, 2000),
                   alpha_points=9)
costs = CostStructure(setup=1.0, per_patient=0.05)
lambdas = np.linspace(0.05, 0.95, 10)
deltas = np.linspace(0.0, 1.0, 9)

for perspective in ("sponsor", "public"):
    rewards = RewardStructure(perspective, NrS=1000.0, NrF=1000.0,
                              mu_S=0.1, mu_F=0.1)
    scenario = Scenario(lambda_S=0.5, costs=costs, rewards=rewards,
                        prior=builtin_prior("weak", 0.3))
    matrix = sweep_contour(scenario, lambdas, deltas, quick)
    print(f"\n{perspective} view, weak prior, small market "
          "(C classical, S stratified, E enrichment, . no trial)")
    print("delta\\lambda " + " ".join(f"{lam:4.2f}" for lam in lambdas))
    for row in reversed(matrix):  # large effects on top
        cells = "    ".join(SYMBOL[d.selected] for d in row)
        print(f"  {row[0].scenario.prior.delta:4.2f}       {cells}")

# Under the sponsor view the map never shows '.' or 'E': a sponsor always
# gains from running something, and enriching throws away the complement
# market that a stratified trial might still capture.
