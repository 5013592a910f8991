"""Decision-theoretic design of biomarker-subgroup pivotal trials.

Evaluates and maximizes the expected utility of classical, stratified, and
enrichment designs from a sponsor or public-health perspective, with a
Monte Carlo oracle validating every analytic result.
"""

__version__ = "0.1.0"

from .model import (
    CLASSICAL,
    ENRICHMENT,
    NO_TRIAL,
    PUBLIC,
    SPONSOR,
    STRATIFIED,
    CostStructure,
    DesignSpec,
    DiscretePrior,
    EffectPair,
    RewardStructure,
    Scenario,
    builtin_prior,
    pooled_effect,
    trial_cost,
)
from .numerics import bivariate_upper_orthant, std_normal_pdf
from .testing import alpha_F_given_alpha_S
from .utility import (
    EvaluationResult,
    classical_variance,
    eu_prior_averaged,
)
from .optimizer import (
    Decision,
    GridConfig,
    OptimizationOutcome,
    optimize_family,
    select_design,
    sweep_contour,
    sweep_prevalence,
)
from .mc_oracle import (
    BINOMIAL_RANDOM,
    FIXED_PROPORTIONAL,
    McEstimate,
    SimConfig,
    mc_expected_utility,
    mc_fwer,
)
