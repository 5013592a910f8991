"""
Splitting the significance level between subgroup and full population
=====================================================================

The stratified design tests H_S and H_F with a closed intersection test.
Spending alpha_S on the subgroup leaves a full-population weight alpha_F
determined by the familywise level condition

    P(p_S <= alpha_S  or  p_F <= alpha_F) = alpha

under the global null, where the two z statistics are bivariate normal
with correlation sqrt(lambda_S). This script maps that trade-off.
"""

import numpy as np
from scipy.special import ndtri

from trialopt import alpha_F_given_alpha_S, bivariate_upper_orthant

ALPHA = 0.025

# At alpha_S = 0 the whole level goes to H_F; at alpha_S = alpha nothing
# is left (any alpha_F > 0 would inflate the union probability).
print("endpoints:", alpha_F_given_alpha_S(0.0, 0.5), alpha_F_given_alpha_S(ALPHA, 0.5))

header = "alpha_S " + "".join(f"  lam={lam:<5}" for lam in (0.1, 0.3, 0.5, 0.7, 0.9))
print(header)
for alpha_S in np.linspace(0.0, ALPHA, 11):
    cells = []
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        cells.append(f"  {alpha_F_given_alpha_S(float(alpha_S), lam):.5f}")
    print(f"{alpha_S:7.5f}" + "".join(cells))

# Higher prevalence means more correlated statistics, so less multiplicity
# correction is needed and alpha_F(alpha_S) rises towards the diagonal.

# Verify one solved pair by plugging it back into the union probability.
lam, alpha_S = 0.5, 0.0125
alpha_F = alpha_F_given_alpha_S(alpha_S, lam)
h = ndtri(1 - alpha_S)
k = ndtri(1 - alpha_F)
union = alpha_S + alpha_F - bivariate_upper_orthant(h, k, np.sqrt(lam))
print(f"check: union probability at the solved pair = {union:.10f} (target {ALPHA})")
