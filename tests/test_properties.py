"""Property tests over random settings of the whole domain: the closed-form
stratified evaluation agrees with the adaptive quadrature oracle, and no
design family rejects with more than probability alpha at the global null.

Runs under a derandomized hypothesis profile, so every run draws the same
examples and the suite stays deterministic.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from trialopt.model import CLASSICAL, ENRICHMENT, STRATIFIED  # noqa: E402
from trialopt.model import DiscretePrior, EffectPair  # noqa: E402
from trialopt.utility import _FIELDS, eu_stratified, grid_row  # noqa: E402
from conftest import CASE1, make_scenario  # noqa: E402
from oracles import adaptive_stratified, assert_matches_oracle  # noqa: E402

settings.register_profile("trialopt-seeded", derandomize=True, database=None,
                          deadline=None, max_examples=80, print_blob=True)


@settings(settings.get_profile("trialopt-seeded"))
@given(
    lam=st.floats(0.001, 0.999),
    n=st.floats(50.0, 1e6),
    alpha_share=st.floats(0.0, 1.0),
    tau_S=st.floats(0.0, 1.0),
    tau_Sc=st.floats(0.0, 1.0),
    delta_Sc=st.floats(-0.5, 0.5),
    predictive=st.floats(0.0, 0.6),
    perspective=st.sampled_from(["sponsor", "public"]),
)
def test_closed_form_matches_oracle(lam, n, alpha_share, tau_S, tau_Sc, delta_Sc,
                                    predictive, perspective):
    scenario = make_scenario(lambda_S=lam, perspective=perspective, case=CASE1,
                             tau_S=tau_S, tau_Sc=tau_Sc)
    atom = EffectPair(delta_Sc + predictive, delta_Sc)
    alpha_S = alpha_share * scenario.alpha
    got = eu_stratified(atom, n, alpha_S, scenario)
    assert all(math.isfinite(getattr(got, f)) for f in got.__dataclass_fields__)
    assert_matches_oracle(got, adaptive_stratified(atom, n, alpha_S, scenario))


@settings(settings.get_profile("trialopt-seeded"))
@given(
    lam=st.floats(0.01, 0.99),
    alpha_share=st.floats(0.0, 1.0),
    tau_S=st.floats(0.0, 1.0),
    tau_Sc=st.floats(0.0, 1.0),
    n=st.floats(50.0, 1e6),
    perspective=st.sampled_from(["sponsor", "public"]),
)
def test_familywise_error_at_global_null(lam, alpha_share, tau_S, tau_Sc, n, perspective):
    null = DiscretePrior(((EffectPair(0.0, 0.0), 1.0),))
    scenario = make_scenario(lambda_S=lam, perspective=perspective,
                             tau_S=tau_S, tau_Sc=tau_Sc, prior=null)
    power_any = _FIELDS.index("power_any")
    alphas = {CLASSICAL: [None], ENRICHMENT: [None],
              STRATIFIED: [alpha_share * scenario.alpha]}
    for kind, row_alphas in alphas.items():
        fwer = grid_row(kind, n, row_alphas, scenario)[power_any, 0]
        assert fwer <= scenario.alpha + 1e-10, kind
