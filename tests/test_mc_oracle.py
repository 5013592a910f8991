import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import trialopt.mc_oracle as mc_oracle
from trialopt.mc_oracle import (
    _CHUNK,
    BINOMIAL_RANDOM,
    FIXED_PROPORTIONAL,
    McEstimate,
    SimConfig,
    mc_expected_utility,
    mc_fwer,
    mc_rejection_probs,
)
from trialopt.model import DesignSpec, DiscretePrior, EffectPair, trial_cost
from trialopt.utility import eu_prior_averaged
from conftest import make_scenario, one_atom, with_rewards
from oracles import iid_strata_counts, labelled_estimates
from test_mc_regression import (
    APPROVALS_ONE_DRAW_BYTES_PER_REPLICATE,
    BYTES_PER_REPLICATE,
    FAMILIES,
    GOLDEN,
    MODES,
    cases,
    estimate,
)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(replicates=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(replicates=10, seed=1, strata_mode="exotic")
        with pytest.raises(ValueError):
            McEstimate(0.0, -1.0, 10)

    @pytest.mark.parametrize("replicates, seed, field", [
        (1e5, 1, "replicates"), (2.5, 1, "replicates"), (True, 1, "replicates"),
        (10, -1, "seed"), (10, 1.0, "seed"), (10, False, "seed"), (10, None, "seed")])
    def test_counts_must_be_integers(self, replicates, seed, field):
        with pytest.raises(ValueError, match=field):
            SimConfig(replicates, seed)

    def test_numpy_integers_accepted(self):
        config = SimConfig(np.int64(10), np.uint32(3))
        assert (config.replicates, config.seed) == (10, 3)


class TestSimulateTrial:
    """Whole-trial replicates, read through the public estimators."""

    def test_zero_rewards_pay_minus_cost(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        design = DesignSpec.stratified(80, 0.0125)
        cost = trial_cost(design.kind, design.n, scenario.costs, scenario.lambda_S)
        est = mc_expected_utility(design, EffectPair(0.3, 0.0), scenario,
                                  SimConfig(replicates=20, seed=0))
        assert est.mean == -cost
        assert est.std_error == 0.0

    def test_overwhelming_effect_rejects(self):
        scenario = make_scenario()
        probs = mc_rejection_probs(
            DesignSpec.classical(50), EffectPair(5.0, 5.0), scenario,
            SimConfig(replicates=100_000, seed=5))
        assert probs["any"].mean >= 0.9999


class TestExpectedUtility:
    def test_no_trial(self, scenario):
        est = mc_expected_utility(DesignSpec.no_trial(), scenario.prior, scenario,
                                  SimConfig(replicates=1000, seed=1))
        assert (est.mean, est.std_error) == (0.0, 0.0)
        assert est.replicates == 1000

    def test_degenerate_prior_matches_direct_atom(self, scenario):
        atom = EffectPair(0.3, 0.15)
        degenerate = DiscretePrior(((atom, 1.0),))
        config = SimConfig(replicates=20_000, seed=13)
        design = DesignSpec.classical(100)
        via_prior = mc_expected_utility(design, degenerate, scenario, config)
        via_atom = mc_expected_utility(design, atom, scenario, config)
        assert via_prior == via_atom

    def test_oracle_contract_enrichment(self, scenario):
        atom = EffectPair(0.3, 0.0)
        design = DesignSpec.enrichment(200)
        est = mc_expected_utility(design, atom, scenario, SimConfig(replicates=10**6, seed=3))
        analytic = eu_prior_averaged(design, one_atom(scenario, atom)).expected_utility
        assert abs(analytic - est.mean) <= 3.0 * est.std_error

    def test_prior_draws_atoms_by_weight(self, scenario):
        # mean under the prior must sit between the per-atom means
        config = SimConfig(replicates=200_000, seed=21)
        design = DesignSpec.enrichment(150)
        est = mc_expected_utility(design, scenario.prior, scenario, config)
        per_atom = [eu_prior_averaged(design, one_atom(scenario, e)).expected_utility
                    for e, _ in scenario.prior]
        assert min(per_atom) - 1.0 <= est.mean <= max(per_atom) + 1.0

    def test_binomial_mode_runs_and_is_close(self):
        # report-only robustness mode: no tolerance asserted on the gap
        scenario = make_scenario(lambda_S=0.5)
        atom = EffectPair(0.3, 0.15)
        fixed = mc_expected_utility(DesignSpec.stratified(200, 0.0125), atom,
                                    scenario, SimConfig(10**5, 17))
        random_strata = mc_expected_utility(
            DesignSpec.stratified(200, 0.0125), atom, scenario,
            SimConfig(10**5, 17, strata_mode=BINOMIAL_RANDOM))
        print(f"fixed {fixed.mean:.3f}+-{fixed.std_error:.3f}  "
              f"binomial {random_strata.mean:.3f}+-{random_strata.std_error:.3f}  "
              f"gap {abs(fixed.mean - random_strata.mean):.3f}")
        assert math.isfinite(random_strata.mean)

    def test_binomial_mode_survives_tiny_prevalence(self):
        # lambda 0.05 at n = 50 leaves a stratum empty in 8% of binomial draws
        scenario = make_scenario(lambda_S=0.05)
        est = mc_expected_utility(
            DesignSpec.stratified(50, 0.0125), EffectPair(0.3, 0.0), scenario,
            SimConfig(20_000, 19, strata_mode=BINOMIAL_RANDOM))
        assert math.isfinite(est.mean)

    def test_classical_binomial_mixture_mode(self):
        scenario = make_scenario(lambda_S=0.4)
        atom = EffectPair(0.3, 0.0)
        design = DesignSpec.classical(200)
        est = mc_expected_utility(design, atom, scenario,
                                  SimConfig(10**5, 23, strata_mode=BINOMIAL_RANDOM))
        analytic = eu_prior_averaged(design, one_atom(scenario, atom)).expected_utility
        print(f"classical mixture-mode gap: {abs(est.mean - analytic):.3f} "
              f"(se {est.std_error:.3f})")
        assert math.isfinite(est.mean)


class TestFwer:
    def test_non_null_rejected(self, scenario):
        with pytest.raises(ValueError):
            mc_fwer(DesignSpec.classical(100), scenario, EffectPair(0.1, 0.0),
                    SimConfig(1000, 1))

    def test_classical_exact_level(self, scenario):
        est = mc_fwer(DesignSpec.classical(100), scenario, EffectPair(0.0, 0.0),
                      SimConfig(200_000, 29))
        assert abs(est.mean - 0.025) <= 3.0 * est.std_error

    def test_stratified_conservative(self, scenario):
        est = mc_fwer(DesignSpec.stratified(200, 0.0125), scenario,
                      EffectPair(0.0, 0.0), SimConfig(200_000, 37))
        assert est.mean <= 0.025 + 3.0 * est.std_error

    def test_negative_null_also_controlled(self):
        scenario = make_scenario(lambda_S=0.4)
        est = mc_fwer(DesignSpec.stratified(120, 0.02), scenario,
                      EffectPair(0.0, -0.2), SimConfig(200_000, 41))
        assert est.mean <= 0.025 + 3.0 * est.std_error

    def test_plain_closed_test_attains_level(self):
        # tau = 1 disables the consistency filter: equality at the boundary
        scenario = make_scenario(tau_S=1.0, tau_Sc=1.0)
        est = mc_fwer(DesignSpec.stratified(200, 0.0125), scenario,
                      EffectPair(0.0, 0.0), SimConfig(200_000, 43))
        assert abs(est.mean - 0.025) <= 3.0 * est.std_error


class TestOneSimulation:
    """mc_rejection_probs reads its three estimates from one simulation of
    the replicates, and must give exactly what estimating each from its
    own simulation of the same streams gives: one accumulation per value
    function."""

    PICKS = {"any": lambda u, ps, pf: (ps | pf).astype(float),
             "F": lambda u, ps, pf: pf.astype(float),
             "S_only": lambda u, ps, pf: (ps & ~pf).astype(float)}

    DESIGNS = [DesignSpec.classical(120), DesignSpec.enrichment(90),
               DesignSpec.stratified(150, 0.01), DesignSpec.no_trial()]

    @pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("mode", [FIXED_PROPORTIONAL, BINOMIAL_RANDOM])
    @pytest.mark.parametrize("prior", [False, True], ids=["atom", "prior"])
    def test_equals_three_pass_oracle(self, design, mode, prior):
        scenario = make_scenario(lambda_S=0.35)
        effects = scenario.prior if prior else EffectPair(0.3, 0.1)
        # two chunks, the second a partial one
        config = SimConfig(_CHUNK + 3001, 53, strata_mode=mode)
        got = mc_rejection_probs(design, effects, scenario, config)
        assert got == {name: mc_oracle._accumulate(design, effects, scenario, config, (fn,))[0]
                       for name, fn in self.PICKS.items()}
        if design.kind != "no_trial":
            assert 0.0 < got["any"].mean < 1.0

    def test_one_simulation_per_chunk_and_atom(self, record_calls, scenario):
        calls = record_calls(mc_oracle, "_simulate_batch", lambda *args, **kwargs: args[-1])
        design = DesignSpec.stratified(150, 0.01)
        config = SimConfig(_CHUNK + 3001, 59)
        counts = {}
        for estimator in (mc_expected_utility, mc_rejection_probs):
            calls.clear()
            estimator(design, scenario.prior, scenario, config)
            counts[estimator.__name__] = (len(calls), sum(calls))
        assert counts["mc_rejection_probs"] == counts["mc_expected_utility"]
        # every replicate simulated once
        assert counts["mc_expected_utility"][1] == config.replicates


class PayoffBuilt(Exception):
    pass


class TestApprovalOnly:
    """mc_rejection_probs and mc_fwer read approvals only and build no
    payoff; mc_expected_utility builds one."""

    DESIGNS = TestOneSimulation.DESIGNS[:3]

    @pytest.fixture
    def no_payoff(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise PayoffBuilt

        monkeypatch.setattr(mc_oracle, "_utility", refuse)

    @pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("mode", [FIXED_PROPORTIONAL, BINOMIAL_RANDOM])
    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    def test_approval_estimators_build_no_payoff(self, no_payoff, design, mode, perspective):
        scenario = make_scenario(lambda_S=0.35, perspective=perspective)
        config = SimConfig(5000, 67, strata_mode=mode)
        for effects in (EffectPair(0.3, 0.1), scenario.prior):
            probs = mc_rejection_probs(design, effects, scenario, config)
            assert 0.0 < probs["any"].mean < 1.0
        fwer = mc_fwer(design, scenario, EffectPair(0.0, -0.05), config)
        assert fwer.mean <= scenario.alpha + 4.0 * fwer.std_error

    @pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.kind)
    def test_expected_utility_builds_payoff(self, no_payoff, design, scenario):
        with pytest.raises(PayoffBuilt):
            mc_expected_utility(design, EffectPair(0.3, 0.1), scenario, SimConfig(100, 67))


class TestStrataCounts:
    """The binomial-mode subgroup counts: one multinomial histogram per arm
    over 0..n, the control arm permuted."""

    M = 200_000

    @staticmethod
    def exact_pmf(n, lam, interior):
        # integer weights comb(n, k) a^k b^(n-k) with lam = a / (a + b)
        lam = Fraction(str(lam))
        a, b = lam.numerator, lam.denominator - lam.numerator
        weights = [math.comb(n, k) * a ** k * b ** (n - k) for k in range(n + 1)]
        if interior:
            weights[0] = weights[n] = 0
        total = sum(weights)
        return np.array([w / total for w in weights])

    @pytest.mark.parametrize("n, lam", [(50, 0.05), (200, 0.5), (3000, 0.3)])
    @pytest.mark.parametrize("interior", [False, True])
    def test_histogram_matches_exact_pmf(self, n, lam, interior):
        rng = np.random.default_rng(n)
        k_t, k_c = np.empty((2, self.M), dtype=np.int64)
        mc_oracle._strata_counts(rng, n, lam, interior, k_t, k_c)
        pmf = self.exact_pmf(n, lam, interior)
        expected = self.M * pmf
        # cells expected below 10 counts are pooled into one, as a
        # per-cell bound cannot hold there
        rare = expected < 10.0
        for k in (k_t, k_c):
            assert len(k) == self.M
            seen = np.bincount(k, minlength=n + 1)
            assert len(seen) == n + 1
            cells = np.append(seen[~rare], seen[rare].sum())
            want = np.append(expected[~rare], expected[rare].sum())
            se = np.sqrt(want * (1.0 - want / self.M))
            assert np.all(np.abs(cells - want) <= 5.0 * se + 1e-9)
            if interior:
                assert k.min() >= 1 and k.max() <= n - 1
        r = np.corrcoef(k_t, k_c)[0, 1]
        assert abs(r) <= 5.0 / math.sqrt(self.M)

    def test_interior_needs_two_patients(self):
        with pytest.raises(ValueError, match="n=1"):
            mc_oracle._strata_counts(np.random.default_rng(0), 1, 0.5, True,
                                     *np.empty((2, 10), dtype=np.int64))
        scenario = make_scenario(n_min=1)
        with pytest.raises(ValueError):
            mc_expected_utility(DesignSpec.stratified(1, 0.01), EffectPair(0.3, 0.0),
                                scenario, SimConfig(100, 1, strata_mode=BINOMIAL_RANDOM))


class TestAtomBlocks:
    def test_one_block_per_atom_in_prior_order(self, monkeypatch, scenario):
        events = []
        simulate = mc_oracle._simulate_batch
        chunk_rng = mc_oracle._chunk_rng

        def logged_rng(seed, index):
            events.append(("chunk", index))
            return chunk_rng(seed, index)

        def logged_batch(design, atom, *args, **kwargs):
            events.append((atom, args[-1]))
            return simulate(design, atom, *args, **kwargs)

        monkeypatch.setattr(mc_oracle, "_chunk_rng", logged_rng)
        monkeypatch.setattr(mc_oracle, "_simulate_batch", logged_batch)
        config = SimConfig(_CHUNK + 3001, 61)
        mc_expected_utility(DesignSpec.stratified(150, 0.01), scenario.prior,
                            scenario, config)
        order = [atom for atom, _ in scenario.prior]
        chunks = []
        for event in events:
            if event[0] == "chunk":
                chunks.append([])
            else:
                chunks[-1].append(event)
        assert [c[1] for c in events if c[0] == "chunk"] == [0, 1]
        for blocks, size in zip(chunks, (_CHUNK, 3001)):
            positions = [order.index(atom) for atom, _ in blocks]
            assert positions == sorted(set(positions))
            assert all(count > 0 for _, count in blocks)
            assert sum(count for _, count in blocks) == size


class TestSamplersAgree:
    """Atom blocks and strata-count histograms draw the replicates of
    per-replicate atom labels and binomial counts in another order: the
    estimates agree in distribution."""

    REPS = 100_000

    @pytest.mark.parametrize("design", TestOneSimulation.DESIGNS[:3], ids=lambda d: d.kind)
    @pytest.mark.parametrize("mode", [FIXED_PROPORTIONAL, BINOMIAL_RANDOM])
    @pytest.mark.parametrize("prior", [False, True], ids=["atom", "prior"])
    def test_new_and_old_samplers_agree(self, monkeypatch, design, mode, prior):
        scenario = make_scenario(lambda_S=0.15)
        effects = scenario.prior if prior else EffectPair(0.25, 0.1)
        fns = (lambda u, ps, pf: u, lambda u, ps, pf: (ps | pf).astype(float),
               lambda u, ps, pf: pf.astype(float))
        new = mc_oracle._accumulate(design, effects, scenario,
                                    SimConfig(self.REPS, 67, strata_mode=mode), fns)
        monkeypatch.setattr(mc_oracle, "_strata_counts", iid_strata_counts)
        old = labelled_estimates(design, effects, scenario,
                                 SimConfig(self.REPS, 71, strata_mode=mode), fns)
        assert new[0].std_error > 0.0 and 0.0 < new[1].mean < 1.0
        for a, b in zip(new, old):
            assert abs(a.mean - b.mean) <= 4.0 * math.hypot(a.std_error, b.std_error)


class TestWorkspace:
    """Each estimator call builds every batch in one workspace: no row is
    read before the batch writes it, and the call allocates it once, so a
    call of many chunks and atoms peaks as one chunk does."""

    @pytest.fixture
    def workspaces(self, monkeypatch):
        """The workspace of every batch, in call order; each is filled with
        NaN before its batch, so a stale row would show in the estimate."""
        seen = []
        simulate = mc_oracle._simulate_batch

        def poisoned(*args, ws, **kwargs):
            seen.append(ws)
            ws.fill(np.nan)
            return simulate(*args, ws=ws, **kwargs)

        monkeypatch.setattr(mc_oracle, "_simulate_batch", poisoned)
        return seen

    @pytest.mark.parametrize("family, mode, estimator, effects", list(cases()),
                             ids="/".join)
    def test_no_row_is_read_before_it_is_written(self, workspaces, family, mode, estimator,
                                                 effects):
        assert estimate(family, mode, estimator, effects) == \
            GOLDEN["/".join((family, mode, estimator, effects))]
        # a full chunk and a partial one, every block in one workspace
        assert len(workspaces) >= 2
        assert all(ws is workspaces[0] for ws in workspaces)

    @pytest.mark.parametrize("estimator", ("utility-sponsor", "rejection", "fwer"))
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_three_chunk_prior_peaks_as_one_chunk(self, workspaces, family, mode, estimator):
        def three_chunks():
            return estimate(family, mode, estimator, "prior", replicates=3 * _CHUNK)

        three_chunks()  # keeps first-call allocations outside the trace
        workspaces.clear()
        tracemalloc.start()
        try:
            three_chunks()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(ws is workspaces[0] for ws in workspaces)
        assert len(workspaces) >= 3 and workspaces[0].shape[1] == _CHUNK
        one_draw = family == "enrichment" or (family == "classical"
                                              and mode == FIXED_PROPORTIONAL)
        bound = (APPROVALS_ONE_DRAW_BYTES_PER_REPLICATE
                 if one_draw and estimator in ("rejection", "fwer") else BYTES_PER_REPLICATE)
        assert peak <= bound * _CHUNK, f"{peak / 1e6:.1f} MB"
