"""The Monte Carlo oracle's fixed-seed estimates and per-chunk memory,
pinned across versions.

GOLDEN holds the repr of every estimate for each family, strata mode,
estimator and input, at ``_CHUNK + 3001`` replicates (a full chunk and a
partial second one). A rewrite of the oracle's inner loop that keeps every
random draw and every floating-point operation must reproduce them bit for
bit.
"""

import tracemalloc

import pytest

from trialopt.mc_oracle import (
    _CHUNK,
    BINOMIAL_RANDOM,
    FIXED_PROPORTIONAL,
    SimConfig,
    mc_expected_utility,
    mc_fwer,
    mc_rejection_probs,
)
from trialopt.model import DesignSpec, EffectPair
from conftest import make_scenario

FAMILIES = {"classical": DesignSpec.classical(120),
            "stratified": DesignSpec.stratified(150, 0.01),
            "enrichment": DesignSpec.enrichment(90)}
MODES = (FIXED_PROPORTIONAL, BINOMIAL_RANDOM)
ATOM = EffectPair(0.3, 0.1)
NULL = EffectPair(0.0, -0.05)
SEED = 83


def estimate(family, mode, estimator, effects, replicates=_CHUNK + 3001):
    """reprs of one estimator call's estimates, in the order it returns
    them; ``effects`` is 'atom' or 'prior' (the FWER runs at the null atom
    whatever it is given)."""
    perspective = "public" if estimator == "utility-public" else "sponsor"
    scenario = make_scenario(lambda_S=0.35, perspective=perspective)
    design = FAMILIES[family]
    config = SimConfig(replicates, SEED, strata_mode=mode)
    given = ATOM if effects == "atom" else scenario.prior
    if estimator == "fwer":
        return (repr(mc_fwer(design, scenario, NULL, config)),)
    if estimator == "rejection":
        return tuple(map(repr, mc_rejection_probs(design, given, scenario, config).values()))
    return (repr(mc_expected_utility(design, given, scenario, config)),)


def cases():
    for family in FAMILIES:
        for mode in MODES:
            for estimator in ("utility-sponsor", "utility-public", "rejection"):
                for effects in ("atom", "prior"):
                    yield family, mode, estimator, effects
            yield family, mode, "fwer", "null"


GOLDEN = {
    "classical/fixed/utility-sponsor/atom": (
        "McEstimate(mean=47.364857825672324, std_error=0.2915882559067769, replicates=134073)",
    ),
    "classical/fixed/utility-sponsor/prior": (
        "McEstimate(mean=71.376157737936, std_error=0.3545696637833655, replicates=134073)",
    ),
    "classical/fixed/utility-public/atom": (
        "McEstimate(mean=5.254309219604242, std_error=0.08393647990726777, replicates=134073)",
    ),
    "classical/fixed/utility-public/prior": (
        "McEstimate(mean=35.68884861232313, std_error=0.21959227762031, replicates=134073)",
    ),
    "classical/fixed/rejection/atom": (
        "McEstimate(mean=0.2607758459943464, std_error=0.0011990925701038254, replicates=134073)",
        "McEstimate(mean=0.2607758459943464, std_error=0.0011990925701038254, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
    ),
    "classical/fixed/rejection/prior": (
        "McEstimate(mean=0.32645648266243016, std_error=0.0012806381488102028, replicates=134073)",
        "McEstimate(mean=0.32645648266243016, std_error=0.0012806381488102028, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
    ),
    "classical/fixed/fwer/null": (
        "McEstimate(mean=0.01364928061578394, std_error=0.00031688488187557145, replicates=134073)",
    ),
    "classical/binomial/utility-sponsor/atom": (
        "McEstimate(mean=47.16465360917035, std_error=0.29174126320470584, replicates=134073)",
    ),
    "classical/binomial/utility-sponsor/prior": (
        "McEstimate(mean=70.93743257210707, std_error=0.35351465848600344, replicates=134073)",
    ),
    "classical/binomial/utility-public/atom": (
        "McEstimate(mean=5.1389243173495, std_error=0.08376401398906527, replicates=134073)",
    ),
    "classical/binomial/utility-public/prior": (
        "McEstimate(mean=35.69668016677481, std_error=0.21946104100043412, replicates=134073)",
    ),
    "classical/binomial/rejection/atom": (
        "McEstimate(mean=0.25912749024785003, std_error=0.0011966287712723614, replicates=134073)",
        "McEstimate(mean=0.25912749024785003, std_error=0.0011966287712723614, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
    ),
    "classical/binomial/rejection/prior": (
        "McEstimate(mean=0.32551669612822864, std_error=0.001279685332888997, replicates=134073)",
        "McEstimate(mean=0.32551669612822864, std_error=0.001279685332888997, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
    ),
    "classical/binomial/fwer/null": (
        "McEstimate(mean=0.01352994264318692, std_error=0.0003155156368009316, replicates=134073)",
    ),
    "stratified/fixed/utility-sponsor/atom": (
        "McEstimate(mean=53.86782961347522, std_error=0.2758136483870519, replicates=134073)",
    ),
    "stratified/fixed/utility-sponsor/prior": (
        "McEstimate(mean=71.6841365048422, std_error=0.33429196056691535, replicates=134073)",
    ),
    "stratified/fixed/utility-public/atom": (
        "McEstimate(mean=8.564453693137317, std_error=0.09123939317388188, replicates=134073)",
    ),
    "stratified/fixed/utility-public/prior": (
        "McEstimate(mean=36.70574612338055, std_error=0.216733178683916, replicates=134073)",
    ),
    "stratified/fixed/rejection/atom": (
        "McEstimate(mean=0.3509207670448189, std_error=0.001303419902484027, replicates=134073)",
        "McEstimate(mean=0.2534365606796298, std_error=0.0011879521505516726, replicates=134073)",
        "McEstimate(mean=0.09748420636518912, std_error=0.0008100754887852844, replicates=134073)",
    ),
    "stratified/fixed/rejection/prior": (
        "McEstimate(mean=0.37723479000246135, std_error=0.0013237287358378426, replicates=134073)",
        "McEstimate(mean=0.32109373251885165, std_error=0.0012751221189215977, replicates=134073)",
        "McEstimate(mean=0.056141057483609674, std_error=0.0006286729841162514, replicates=134073)",
    ),
    "stratified/fixed/fwer/null": (
        "McEstimate(mean=0.016267257389631022, std_error=0.0003454830051132538, replicates=134073)",
    ),
    "stratified/binomial/utility-sponsor/atom": (
        "McEstimate(mean=53.5211005880724, std_error=0.276650374176832, replicates=134073)",
    ),
    "stratified/binomial/utility-sponsor/prior": (
        "McEstimate(mean=71.22502753743028, std_error=0.3348852258516493, replicates=134073)",
    ),
    "stratified/binomial/utility-public/atom": (
        "McEstimate(mean=8.302879774451227, std_error=0.09101317004449294, replicates=134073)",
    ),
    "stratified/binomial/utility-public/prior": (
        "McEstimate(mean=36.23659871860851, std_error=0.2164600525041769, replicates=134073)",
    ),
    "stratified/binomial/rejection/atom": (
        "McEstimate(mean=0.34718399677787476, std_error=0.0013001881434927566, replicates=134073)",
        "McEstimate(mean=0.2515047772482155, std_error=0.0011849460887942561, replicates=134073)",
        "McEstimate(mean=0.09567921952965922, std_error=0.0008033430177550403, replicates=134073)",
    ),
    "stratified/binomial/rejection/prior": (
        "McEstimate(mean=0.3739380785094687, std_error=0.001321415652907944, replicates=134073)",
        "McEstimate(mean=0.31878155929978447, std_error=0.001272684483571478, replicates=134073)",
        "McEstimate(mean=0.05515651920968428, std_error=0.0006234610362250579, replicates=134073)",
    ),
    "stratified/binomial/fwer/null": (
        "McEstimate(mean=0.01589432622526534, std_error=0.0003415646246716197, replicates=134073)",
    ),
    "enrichment/fixed/utility-sponsor/atom": (
        "McEstimate(mean=47.46866633622306, std_error=0.1626754603307438, replicates=134073)",
    ),
    "enrichment/fixed/utility-sponsor/prior": (
        "McEstimate(mean=36.282984532233975, std_error=0.1582626222423296, replicates=134073)",
    ),
    "enrichment/fixed/utility-public/atom": (
        "McEstimate(mean=26.58588977646506, std_error=0.09548886192682503, replicates=134073)",
    ),
    "enrichment/fixed/utility-public/prior": (
        "McEstimate(mean=19.01982502069768, std_error=0.09492846088584837, replicates=134073)",
    ),
    "enrichment/fixed/rejection/atom": (
        "McEstimate(mean=0.5226555682352152, std_error=0.001364126598954643, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
        "McEstimate(mean=0.5226555682352152, std_error=0.001364126598954643, replicates=134073)",
    ),
    "enrichment/fixed/rejection/prior": (
        "McEstimate(mean=0.4222997919044103, std_error=0.0013489400582858994, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
        "McEstimate(mean=0.4222997919044103, std_error=0.0013489400582858994, replicates=134073)",
    ),
    "enrichment/fixed/fwer/null": (
        "McEstimate(mean=0.02483721554675438, std_error=0.00042503135399448133, replicates=134073)",
    ),
    "enrichment/binomial/utility-sponsor/atom": (
        "McEstimate(mean=47.46866633622306, std_error=0.1626754603307438, replicates=134073)",
    ),
    "enrichment/binomial/utility-sponsor/prior": (
        "McEstimate(mean=36.282984532233975, std_error=0.1582626222423296, replicates=134073)",
    ),
    "enrichment/binomial/utility-public/atom": (
        "McEstimate(mean=26.58588977646506, std_error=0.09548886192682503, replicates=134073)",
    ),
    "enrichment/binomial/utility-public/prior": (
        "McEstimate(mean=19.01982502069768, std_error=0.09492846088584837, replicates=134073)",
    ),
    "enrichment/binomial/rejection/atom": (
        "McEstimate(mean=0.5226555682352152, std_error=0.001364126598954643, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
        "McEstimate(mean=0.5226555682352152, std_error=0.001364126598954643, replicates=134073)",
    ),
    "enrichment/binomial/rejection/prior": (
        "McEstimate(mean=0.4222997919044103, std_error=0.0013489400582858994, replicates=134073)",
        "McEstimate(mean=0.0, std_error=0.0, replicates=134073)",
        "McEstimate(mean=0.4222997919044103, std_error=0.0013489400582858994, replicates=134073)",
    ),
    "enrichment/binomial/fwer/null": (
        "McEstimate(mean=0.02483721554675438, std_error=0.00042503135399448133, replicates=134073)",
    ),
}


@pytest.mark.parametrize("family, mode, estimator, effects", list(cases()),
                         ids="/".join)
def test_estimates_match_golden(family, mode, estimator, effects):
    assert estimate(family, mode, estimator, effects) == \
        GOLDEN["/".join((family, mode, estimator, effects))]


# A chunk's float64 arrays take 8 bytes per replicate each: the bound
# allows eight of them alive at once. An approval-only estimate on a
# one-test design reading one normal draw holds that draw and two boolean
# masks, 10 bytes per replicate, as it builds no payoff.
BYTES_PER_REPLICATE = 64
APPROVALS_ONE_DRAW_BYTES_PER_REPLICATE = 12


@pytest.mark.parametrize("estimator", ("utility-sponsor", "rejection", "fwer"))
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", FAMILIES)
def test_chunk_peak_memory(family, mode, estimator):
    def one_chunk():
        return estimate(family, mode, estimator, "atom", replicates=_CHUNK)

    one_chunk()  # keeps first-call allocations outside the trace
    tracemalloc.start()
    try:
        one_chunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_draw = family == "enrichment" or (family == "classical" and mode == FIXED_PROPORTIONAL)
    bound = (APPROVALS_ONE_DRAW_BYTES_PER_REPLICATE
             if one_draw and estimator in ("rejection", "fwer") else BYTES_PER_REPLICATE)
    assert peak <= bound * _CHUNK, f"{peak / 1e6:.1f} MB"
