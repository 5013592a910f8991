"""
Optimal designs as the biomarker prevalence varies
==================================================

For each prevalence, every family is optimized (sample size, and the
level split for the stratified design) and the best family is selected
against the no-trial baseline. With a weak biomarker prior and a large
market a characteristic pattern emerges: classical wins at low
prevalence, stratified elsewhere, and enrichment never wins for the
sponsor despite having the highest approval probability.
"""

from trialopt import (
    CostStructure,
    GridConfig,
    RewardStructure,
    Scenario,
    builtin_prior,
    sweep_prevalence,
)

# A coarse search grid keeps this demo quick; drop grid_config for the
# publication-grade default resolution.
quick = GridConfig(n_grid=(50, 65, 85, 110, 145, 190, 250, 330, 430, 560,
                           730, 950, 1250, 1600, 2100, 2700),
                   alpha_points=11)

costs = CostStructure(setup=1.0, per_patient=0.05)
rewards = RewardStructure("sponsor", NrS=10000.0, NrF=10000.0, mu_S=0.1, mu_F=0.1)
scenario = Scenario(lambda_S=0.5, costs=costs, rewards=rewards,
                    prior=builtin_prior("weak", 0.3))

decisions = sweep_prevalence(scenario, (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9), quick)

print("sponsor view, weak prior, large market (no biomarker costs)")
print("lambda   classical          stratified                        enrichment         selected")
print("         n     EU   power   n     EU   power  aS     aF       n     EU   power")
for d in decisions:
    c = d.outcomes["classical"]
    s = d.outcomes["stratified"]
    e = d.outcomes["enrichment"]
    print(f"{d.scenario.lambda_S:5.2f}  {c.best_design.n:4d} {c.result.expected_utility:7.0f}"
          f" {c.result.power_any:6.3f}  {s.best_design.n:4d}"
          f" {s.result.expected_utility:7.0f} {s.result.power_any:6.3f}"
          f" {s.best_design.alpha_S:.4f} {s.derived_alpha_F:.4f}"
          f"  {e.best_design.n:4d} {e.result.expected_utility:7.0f}"
          f" {e.result.power_any:6.3f}   {d.selected}")

# Stratified sample sizes fall with prevalence (the subgroup must carry
# both its own test and the consistency requirement), enrichment sizes
# rise (a bigger future market justifies more evidence), and the optimal
# level split shifts weight to alpha_S as the subgroup grows.
