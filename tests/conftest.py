"""Shared scenario builders and fixtures for the test suite."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

# The oracles module holds assert helpers: rewritten like a test module,
# its asserts still run under python -O.
pytest.register_assert_rewrite("oracles")

from trialopt import DiscretePrior, EvaluationResult
from trialopt.utility import grid_row
from workloads import make_scenario as market_scenario


def make_scenario(lambda_S=0.5, perspective="sponsor", case=2,
                  prior_kind="weak", delta=0.3, **overrides):
    """perfbench's scenario of market case 1, 2 or 3 (``workloads.CASES``),
    with the given fields replaced."""
    return replace(market_scenario(lambda_S, perspective, case, prior_kind, delta),
                   **overrides)


def with_rewards(scenario, **kw):
    """``scenario`` with the given reward fields replaced."""
    return replace(scenario, rewards=replace(scenario.rewards, **kw))


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


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(modules, name, record)`` wraps the function ``name``
    of a module, or of each module in a tuple, so that every call first
    appends ``record(*args, **kwargs)`` (by default the positional
    arguments) to a list, and returns that list."""
    def wrap(modules, name, record=lambda *args, **kwargs: args):
        modules = modules if isinstance(modules, tuple) else (modules,)
        function, calls = getattr(modules[0], name), []

        def recorded(*args, **kwargs):
            calls.append(record(*args, **kwargs))
            return function(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, recorded)
        return calls
    return wrap
