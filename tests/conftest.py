"""Shared scenario builders for the test suite."""

import pytest

# The oracles module holds assert helpers: rewritten like a test module,
# its asserts still run under python -O.
pytest.register_assert_rewrite("oracles")

from trialopt import (
    CostStructure,
    RewardStructure,
    Scenario,
    builtin_prior,
)

# Reward scales of the three reference market cases (MUSD per unit effect).
CASE1 = dict(Nr=10000.0, biomarker=0.0, screening=0.0)
CASE2 = dict(Nr=1000.0, biomarker=0.0, screening=0.0)
CASE3 = dict(Nr=1000.0, biomarker=10.0, screening=0.005)


def make_scenario(lambda_S=0.5, perspective="sponsor", case=CASE2,
                  prior_kind="weak", delta=0.3, **overrides):
    costs = CostStructure(setup=1.0, per_patient=0.05,
                          biomarker=case["biomarker"], screening=case["screening"])
    rewards = RewardStructure(perspective, NrS=case["Nr"], NrF=case["Nr"],
                              mu_S=0.1, mu_F=0.1)
    fields = dict(lambda_S=lambda_S, costs=costs, rewards=rewards,
                  prior=builtin_prior(prior_kind, delta))
    fields.update(overrides)
    return Scenario(**fields)


@pytest.fixture
def scenario():
    return make_scenario()


@pytest.fixture
def broken_orthant(monkeypatch):
    """The level condition with an orthant that always returns 1.0, so its
    Newton solve starts left of any root; alpha_F's cache is cleared on
    both sides so no solved value leaks in or out."""
    import trialopt.testing as testing

    monkeypatch.setattr(testing, "bivariate_upper_orthant", lambda h, k, rho: 1.0)
    testing.alpha_F_given_alpha_S.cache_clear()
    yield
    testing.alpha_F_given_alpha_S.cache_clear()
