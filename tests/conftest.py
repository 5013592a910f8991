"""Shared scenario builders for the test suite."""

from types import SimpleNamespace

import pytest

# The oracles module holds assert helpers: rewritten like a test module,
# its asserts still run under python -O.
pytest.register_assert_rewrite("oracles")

from trialopt import (
    CostStructure,
    DiscretePrior,
    EvaluationResult,
    RewardStructure,
    Scenario,
    builtin_prior,
)
from trialopt.utility import grid_row

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


def one_atom(scenario, effects):
    """``scenario`` with its whole prior mass on one effect atom."""
    return scenario.with_prior(DiscretePrior(((effects, 1.0),)))


def atom_result(kind, effects, n, scenario, alpha_S=None):
    """Evaluation of one design at one effect atom and a size n that may
    be fractional, which a DesignSpec does not take: grid_row's element on
    a one-atom prior."""
    row = grid_row(kind, n, [alpha_S], one_atom(scenario, effects))[:, 0]
    return EvaluationResult(*(float(f) for f in row))


@pytest.fixture
def scenario():
    return make_scenario()


@pytest.fixture
def broken_orthant(monkeypatch):
    """The level condition with an Owen's T that always returns -1.0, so
    its orthant exceeds 1 and its Newton solve starts left of any root."""
    import trialopt.testing as testing

    monkeypatch.setattr(testing, "SCALAR", SimpleNamespace(
        ndtr=testing.SCALAR.ndtr, ndtri=testing.SCALAR.ndtri, owens_t=lambda h, a: -1.0))
