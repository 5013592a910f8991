import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from trialopt import utility
from trialopt.model import DesignSpec, EffectPair, trial_cost
from trialopt.numerics import NumericError
from trialopt.optimizer import optimize_family
from trialopt.utility import (
    _FIELDS,
    EvaluationResult,
    classical_variance,
    eu_prior_averaged,
    grid_row,
)
from trialopt.utility import _line_integrals, _merged_atoms
from trialopt.model import builtin_prior, DiscretePrior
from conftest import atom_result, make_scenario, one_atom, with_rewards
from oracles import adaptive_stratified, assert_matches_oracle, scalar_single_test


class TestEvaluationResult:
    def test_probability_out_of_range_is_numeric_error(self):
        with pytest.raises(NumericError, match="not a probability"):
            EvaluationResult(0.0, 0.0, 1.5, 1.5, 0.0, 0.0, 0.0)

    def test_disjoint_probabilities_over_one_is_numeric_error(self):
        with pytest.raises(NumericError, match="exceed 1"):
            EvaluationResult(0.0, 0.6, 0.6, 1.0, 0.0, 0.0, 0.0)


class TestClassicalVariance:
    def test_homogeneous_reduces_to_plain(self):
        assert classical_variance(EffectPair(0.2, 0.2), 0.3, 1.0, 100) == \
            pytest.approx(0.02)

    def test_predictive_inflation(self):
        got = classical_variance(EffectPair(0.3, 0.0), 0.5, 1.0, 100)
        assert got == pytest.approx(0.020225)

    def test_prognostic_inflation(self):
        got = classical_variance(EffectPair(0.2, 0.2, prognostic_offset=0.2),
                                 0.5, 1.0, 100)
        assert got == pytest.approx((2.0 + 0.25 * (0.04 + 0.04)) / 100)


class TestEnrichment:
    def test_zero_reward_scale(self):
        scenario = with_rewards(make_scenario(), NrS=0.0)
        r = eu_prior_averaged(DesignSpec.enrichment(100),
                              one_atom(scenario, EffectPair(0.3, 0.0)))
        cost = trial_cost("enrichment", 100, scenario.costs, 0.5)
        assert r.expected_utility == pytest.approx(-cost, abs=1e-12)

    def test_public_at_threshold_effect(self):
        scenario = make_scenario(perspective="public")
        r = eu_prior_averaged(DesignSpec.enrichment(150),
                              one_atom(scenario, EffectPair(0.1, 0.0)))
        cost = trial_cost("enrichment", 150, scenario.costs, 0.5)
        assert r.expected_utility == pytest.approx(-cost, abs=1e-12)

    def test_power_fields(self):
        scenario = make_scenario()
        r = eu_prior_averaged(DesignSpec.enrichment(200),
                              one_atom(scenario, EffectPair(0.3, 0.0)))
        assert r.prob_reject_F == 0.0
        assert r.power_any == r.prob_reject_S_only > 0.5

    def test_n_floor_enforced(self, scenario):
        with pytest.raises(ValueError):
            eu_prior_averaged(DesignSpec.enrichment(20),
                              one_atom(scenario, EffectPair(0.3, 0.0)))


class TestClassical:
    def test_zero_reward_scale(self):
        scenario = with_rewards(make_scenario(), NrF=0.0)
        r = eu_prior_averaged(DesignSpec.classical(100),
                              one_atom(scenario, EffectPair(0.3, 0.0)))
        assert r.expected_utility == pytest.approx(-11.0, abs=1e-12)

    def test_public_null_exact(self):
        scenario = make_scenario(perspective="public")
        r = eu_prior_averaged(DesignSpec.classical(100),
                              one_atom(scenario, EffectPair(0.0, 0.0)))
        want = scenario.rewards.NrF * (0.0 - 0.1) * 0.025 - 11.0
        assert r.expected_utility == pytest.approx(want, abs=1e-9)
        assert r.expected_utility < -11.0 + 1e-12

    def test_power_increasing_in_effect_and_n(self):
        scenario = make_scenario()
        powers_d = [eu_prior_averaged(DesignSpec.classical(200),
                                      one_atom(scenario, EffectPair(d, d))).power_any
                    for d in (0.0, 0.1, 0.2, 0.3)]
        assert all(b > a for a, b in zip(powers_d, powers_d[1:]))
        powers_n = [eu_prior_averaged(DesignSpec.classical(n),
                                      one_atom(scenario, EffectPair(0.2, 0.2))).power_any
                    for n in (50, 100, 200, 400)]
        assert all(b > a for a, b in zip(powers_n, powers_n[1:]))


class TestStratified:
    def test_pure_cost_when_rewards_vanish(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        r = eu_prior_averaged(DesignSpec.stratified(120, 0.0125),
                              one_atom(scenario, EffectPair(0.3, 0.0)))
        cost = trial_cost("stratified", 120, scenario.costs, 0.5)
        assert r.expected_utility == pytest.approx(-cost, abs=1e-9)

    def test_reduces_to_enrichment_reward(self):
        # tau_Sc = 0 makes psi_F impossible; alpha_S = alpha turns the gate
        # into the plain level-alpha subgroup test; mu = 0 removes the
        # estimate floor. The S branch is then the enrichment reward at the
        # subgroup per-arm size lambda_S * n.
        lam, n = 0.4, 400
        scenario = make_scenario(lambda_S=lam, tau_S=1.0, tau_Sc=0.0)
        scenario = with_rewards(scenario, mu_S=0.0, mu_F=0.0, NrF=700.0)
        atom = EffectPair(0.3, 0.1)
        r_strat = eu_prior_averaged(DesignSpec.stratified(n, scenario.alpha),
                                    one_atom(scenario, atom))
        enrich_scenario = replace(scenario, n_min=1)
        r_enr = atom_result("enrichment", atom, lam * n, enrich_scenario)
        assert r_strat.prob_reject_F == 0.0
        assert r_strat.expected_reward_S == pytest.approx(
            r_enr.expected_reward_S, abs=1e-6)

    def test_public_decomposition_exact(self):
        scenario = make_scenario(perspective="public", lambda_S=0.35)
        atom = EffectPair(0.3, 0.1)
        r = eu_prior_averaged(DesignSpec.stratified(260, 0.01), one_atom(scenario, atom))
        delta_F = 0.35 * 0.3 + 0.65 * 0.1
        want = (scenario.rewards.NrF * (delta_F - 0.1) * r.prob_reject_F
                + 0.35 * scenario.rewards.NrS * (0.3 - 0.1) * r.prob_reject_S_only
                - r.cost)
        assert r.expected_utility == pytest.approx(want, abs=1e-9)

    def test_consistency_thresholds_reduce_full_approval(self):
        for lam in (0.3, 0.6):
            for n in (100, 300):
                strict = make_scenario(lambda_S=lam)
                relaxed = replace(strict, tau_S=1.0, tau_Sc=1.0)
                atom = EffectPair(0.3, 0.1)
                design = DesignSpec.stratified(n, 0.0125)
                p_strict = eu_prior_averaged(design, one_atom(strict, atom)).prob_reject_F
                p_relaxed = eu_prior_averaged(design, one_atom(relaxed, atom)).prob_reject_F
                assert p_relaxed >= p_strict - 1e-12

    def test_alpha_S_domain(self, scenario):
        with pytest.raises(ValueError):
            eu_prior_averaged(DesignSpec.stratified(100, 0.03),
                              one_atom(scenario, EffectPair(0.3, 0.0)))


class TestStratifiedClosedForm:
    # Domain edges: extreme prevalences, n up to 1e6, alpha_S at 0, at a
    # vanishing weight, mid and full alpha, consistency thresholds that
    # disable (0), default (0.3) or drop (1) the checks, effect pairs from
    # null to strongly predictive, both perspectives.
    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    @pytest.mark.parametrize("lam", [0.001, 0.02, 0.5, 0.98, 0.999])
    def test_edge_set_matches_quadrature_oracle(self, lam, perspective):
        effects = [EffectPair(0.3, 0.1), EffectPair(0.0, 0.0),
                   EffectPair(0.5, -0.2), EffectPair(0.2, 0.2)]
        for tau in (0.0, 0.3, 1.0):
            scenario = make_scenario(lambda_S=lam, perspective=perspective,
                                     case=1, tau_S=tau, tau_Sc=tau)
            alphas = (0.0, 1e-9, scenario.alpha / 2, scenario.alpha)
            for n, alpha_S, atom in itertools.product((50, 1e3, 1e6), alphas, effects):
                got = eu_prior_averaged(DesignSpec.stratified(n, alpha_S),
                                        one_atom(scenario, atom))
                assert_matches_oracle(got, adaptive_stratified(atom, n, alpha_S, scenario))

    def test_oracle_helper_rejects_a_mismatch(self):
        # under python -O this holds only because conftest registers the
        # oracles module for assert rewriting
        exact = eu_prior_averaged(DesignSpec.stratified(200, 0.01),
                                  one_atom(make_scenario(), EffectPair(0.3, 0.1)))
        with pytest.raises(AssertionError, match="power_any"):
            assert_matches_oracle(replace(exact, power_any=exact.power_any + 1e-6), exact)

    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    def test_batched_row_equals_pointwise(self, perspective):
        scenario = make_scenario(lambda_S=0.35, perspective=perspective, case=3)
        alphas = [float(a) for a in np.linspace(0.0, scenario.alpha, 21)]
        for n in (50, 230.5, 3000):
            row = grid_row("stratified", n, alphas, scenario)[0]
            want = [grid_row("stratified", n, [a], scenario)[0, 0] for a in alphas]
            assert np.max(np.abs(row - want)) <= 1e-12


def random_lines(seed, shape=(3, 4, 2, 5), pieces=8):
    """Random (line, atom, n, alpha_S, piece) arrays in the layout of the
    stratified kernel: sorted breakpoints shared by every line, some
    exactly 0, some trailing +inf padding; lines of random (a, b), some
    with a = +-inf and b = 0, some repeating the piece below's (a, b) or
    its a alone; alive pieces
    random among those of positive length."""
    rng = np.random.default_rng(seed)
    points = np.sort(rng.normal(0.0, 2.0, shape[1:] + (pieces - 1,)), axis=-1)
    points[rng.random(points.shape) < 0.1] = 0.0
    points = np.sort(points, axis=-1)
    padding = np.arange(pieces - 1) >= pieces - 1 - rng.integers(0, 3, shape[1:] + (1,))
    points[padding] = np.inf
    edge = np.full(shape[1:] + (1,), np.inf)
    lo = np.concatenate((-edge, points), axis=-1)
    hi = np.concatenate((points, edge), axis=-1)
    full = shape + (pieces,)
    a = rng.normal(0.0, 2.0, full)
    b = rng.choice([-1.7, -0.6, 0.0, 0.4, 2.5], full)
    limit = rng.random(full) < 0.1
    a[limit] = rng.choice([-np.inf, np.inf], np.count_nonzero(limit))
    b[limit] = 0.0
    for p in range(1, pieces):
        draw = rng.random(shape)
        a[..., p][draw < 0.6] = a[..., p - 1][draw < 0.6]
        b[..., p][draw < 0.45] = b[..., p - 1][draw < 0.45]
    alive = (rng.random(full) < 0.75) & (lo < hi)
    return a, b, lo, hi, alive


def assert_equals_pieces_alone(got, a, b, lo, hi, alive, moments):
    """``got`` equals, bit for bit, the integrals of the even and the odd
    pieces, each alive alone: no alive neighbour to share an end with, so
    each such call evaluates both ends of every piece."""
    even = np.arange(alive.shape[-1]) % 2 == 0
    want = [np.where(even, e, o) for e, o in
            zip(_line_integrals(a, b, lo, hi, alive & even, moments),
                _line_integrals(a, b, lo, hi, alive & ~even, moments))]
    for g, w in zip(got, want):
        assert g.tolist() == w.tolist()


class TestLineIntegrals:
    # Each (line, breakpoint) CDF value is computed once; the integrals
    # must equal those of pieces evaluated on their own, bit for bit.
    @pytest.mark.parametrize("moments", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_piece_oracle(self, moments, seed):
        a, b, lo, hi, alive = random_lines(seed)
        got = _line_integrals(a, b, lo, hi, alive, moments)
        assert_equals_pieces_alone(got, a, b, lo, hi, alive, moments)
        # the draw covers every case the sharing tells apart
        finite = alive & np.isfinite(a)
        same_a = a[..., 1:] == a[..., :-1]
        same_b = b[..., 1:] == b[..., :-1]
        pairs = finite[..., 1:] & finite[..., :-1]
        assert np.any(pairs & same_a & same_b) and np.any(pairs & ~same_a)
        assert np.any(pairs & same_a & ~same_b)
        assert np.any(finite[..., 2:] & ~alive[..., 1:-1] & finite[..., :-2])
        assert np.any(alive & (a == -np.inf)) and np.any(alive & (a == np.inf))
        assert np.any(finite & (b == 0.0)) and np.any(finite & (lo == 0.0))
        assert np.any(np.isinf(np.broadcast_to(lo, a.shape)[..., 1:]))
        assert np.any(finite & (hi == np.inf))

    @staticmethod
    def unpadded_pieces(shape=(2, 2, 3), pieces=8):
        """lo and hi of (atom, n, alpha_S, piece) settings with no padding,
        so every piece, the first and the last included, has positive
        length."""
        points = np.sort(np.random.default_rng(7).normal(0.0, 2.0, shape + (pieces - 1,)),
                         axis=-1)
        edge = np.full(shape + (1,), np.inf)
        return np.concatenate((-edge, points), axis=-1), np.concatenate((points, edge), axis=-1)

    @pytest.mark.parametrize("moments", [False, True])
    @pytest.mark.parametrize("mask", ["all", "ends", "last_and_second", "checker"])
    def test_no_end_shared_across_lines_or_settings(self, moments, mask):
        # One (a, b) on every slot: the selected slot just before a piece
        # 0 lies on the setting or line before, never on the same line, and
        # must not lend its end (+inf) as that piece's lower end (-inf).
        lo, hi = self.unpadded_pieces()
        full = (3,) + lo.shape
        a, b = np.full(full, 0.3), np.full(full, -0.6)
        piece = np.arange(full[-1])
        alive = {"all": np.ones(full, dtype=bool),
                 "ends": np.broadcast_to((piece == 0) | (piece == full[-1] - 1), full),
                 "last_and_second": np.broadcast_to((piece == 1) | (piece == full[-1] - 1), full),
                 "checker": (np.indices(full).sum(axis=0) % 2 == 0)}[mask]
        got = _line_integrals(a, b, lo, hi, alive, moments)
        assert_equals_pieces_alone(got, a, b, lo, hi, alive, moments)
        assert np.all(got[0][alive] != 0.0)

    @pytest.mark.parametrize("moments", [False, True])
    @pytest.mark.parametrize("differ", ["a", "b"])
    def test_no_end_shared_between_different_lines(self, moments, differ):
        # Consecutive alive pieces of one line and setting whose a, or b
        # alone, differs each evaluate their own lower end.
        lo, hi = self.unpadded_pieces()
        full = (3,) + lo.shape
        piece = np.arange(full[-1])
        a, b = np.full(full, 0.3), np.full(full, -0.6)
        if differ == "a":
            a = a + 0.25 * piece
        else:
            b = b + 0.25 * piece
        alive = np.ones(full, dtype=bool)
        got = _line_integrals(a, b, lo, hi, alive, moments)
        assert_equals_pieces_alone(got, a, b, lo, hi, alive, moments)


class TestCdfSharing:
    # A default-grid stratified optimize_family; the per-piece kernel this
    # replaced passed the CDF 133,200 elements (12,412 with infinite x) on
    # the sponsor scenario and 63,296 (8,472) on the public one.
    @pytest.mark.parametrize("perspective, per_piece", [("sponsor", 133_200),
                                                        ("public", 63_296)])
    def test_one_cdf_call_per_kernel_call(self, record_calls, perspective, per_piece):
        cdf_calls = record_calls(utility, "bivariate_normal_cdf", lambda x, y, rho, rho_c: (
            np.broadcast(x, y, rho, rho_c).size, int(np.count_nonzero(np.isinf(x)))))
        kernel_calls = record_calls(utility, "_stratified_fields", lambda *args: len(cdf_calls))
        optimize_family("stratified", make_scenario(perspective=perspective))
        kernel_calls.append(len(cdf_calls))
        assert set(np.diff(kernel_calls)) == {1}
        assert sum(infinite for _, infinite in cdf_calls) == 0
        assert sum(size for size, _ in cdf_calls) < per_piece / 2

    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    def test_one_region_lines_call_per_kernel_call(self, record_calls, perspective):
        # Every line the kernel integrates, the sponsor's included, comes
        # from one description of the regions per call.
        line_calls = record_calls(utility, "_region_lines", lambda *args: args[2])
        kernel_calls = record_calls(utility, "_stratified_fields", lambda *args: len(line_calls))
        optimize_family("stratified", make_scenario(perspective=perspective))
        kernel_calls.append(len(line_calls))
        assert set(np.diff(kernel_calls)) == {1}
        assert set(line_calls) == {perspective == "sponsor"}


class TestSizeBlocks:
    # n is an array axis of the kernels: a block of sizes must score
    # exactly as its rows one at a time, up to the top of refinement.
    @pytest.mark.parametrize("kind", ["classical", "stratified", "enrichment"])
    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    @pytest.mark.parametrize("prior", ["weak", "strong", "prognostic"])
    def test_block_equals_stacked_rows(self, kind, perspective, prior):
        scenario = make_scenario(lambda_S=0.35, perspective=perspective, case=3)
        if prior == "prognostic":
            scenario = scenario.with_prior(DiscretePrior((
                (EffectPair(0.3, 0.1, prognostic_offset=0.2), 0.3),
                (EffectPair(0.0, 0.0, prognostic_offset=-0.15), 0.3),
                (EffectPair(0.45, -0.1, prognostic_offset=0.05), 0.4))))
        else:
            scenario = scenario.with_prior(builtin_prior(prior, 0.3))
        alphas = ([float(a) for a in np.linspace(0.0, scenario.alpha, 21)]
                  if kind == "stratified" else [None])
        sizes = [scenario.n_min, 230.5, 3000, 6000]
        want = np.stack([grid_row(kind, n, alphas, scenario) for n in sizes], axis=1)
        block = grid_row(kind, np.array(sizes), alphas, scenario)
        assert block.shape == (7, 4, len(alphas))
        assert block.tolist() == want.tolist()
        square = grid_row(kind, np.reshape(sizes, (2, 2)), alphas, scenario)
        assert square.tolist() == want.reshape(7, 2, 2, len(alphas)).tolist()


class TestSingleTestArrayKernel:
    # The array kernel must reproduce the scalar closed form bit for bit,
    # per atom and prior-averaged, over the n range the optimizer searches.
    @pytest.mark.parametrize("kind", ["classical", "enrichment"])
    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    @pytest.mark.parametrize("prior", ["weak", "strong", "prognostic"])
    def test_equals_scalar_oracle(self, kind, perspective, prior):
        scenario = make_scenario(lambda_S=0.35, perspective=perspective, case=3)
        if prior == "prognostic":
            scenario = scenario.with_prior(DiscretePrior((
                (EffectPair(0.3, 0.1, prognostic_offset=0.2), 0.3),
                (EffectPair(0.0, 0.0, prognostic_offset=-0.15), 0.3),
                (EffectPair(0.45, -0.1, prognostic_offset=0.05), 0.4))))
        else:
            scenario = scenario.with_prior(builtin_prior(prior, 0.3))
        ns = [*np.linspace(scenario.n_min, 3000, 40), 61.5, 3000]
        for n in ns:
            for effects, _ in scenario.prior:
                assert atom_result(kind, effects, n, scenario) == \
                    scalar_single_test(kind, effects, n, scenario)
            # Prior average: merged atoms summed in prior order, as before.
            want = 0.0
            for effects, weight in _merged_atoms(kind, scenario):
                fields = vars(scalar_single_test(kind, effects, n, scenario))
                want = want + weight * np.array(list(fields.values()))
            assert grid_row(kind, n, [None], scenario)[:, 0].tolist() == want.tolist()


class TestSponsorMonotonicity:
    def test_nondecreasing_in_reward_scales(self):
        base = make_scenario(lambda_S=0.4)
        atom = EffectPair(0.3, 0.1)
        for factor in (1.5, 3.0):
            richer = with_rewards(base, NrS=base.rewards.NrS * factor)
            richer_f = with_rewards(base, NrF=base.rewards.NrF * factor)
            for design, rich in ((DesignSpec.stratified(200, 0.0125), richer),
                                 (DesignSpec.classical(200), richer_f)):
                assert eu_prior_averaged(design, one_atom(rich, atom)).expected_utility >= \
                    eu_prior_averaged(design, one_atom(base, atom)).expected_utility - 1e-9


class TestPriorAveraged:
    def test_degenerate_prior_equals_atom(self):
        # A one-atom prior is the kernel's per-atom element, every field.
        atom = EffectPair(0.3, 0.1)
        scenario = one_atom(make_scenario(), atom)
        averaged = eu_prior_averaged(DesignSpec.stratified(200, 0.0125), scenario)
        direct = utility._stratified_fields((atom,), 200, (0.0125,), scenario)[:, 0, 0]
        assert [getattr(averaged, f) for f in _FIELDS] == direct.tolist()

    def test_no_trial_is_zero(self, scenario):
        r = eu_prior_averaged(DesignSpec.no_trial(), scenario)
        assert r.expected_utility == 0.0
        assert r.power_any == 0.0

    def test_enrichment_identical_across_priors(self):
        weak = make_scenario(prior_kind="weak")
        strong = weak.with_prior(builtin_prior("strong", 0.3))
        for n in (60, 150, 400):
            r_w = eu_prior_averaged(DesignSpec.enrichment(n), weak)
            r_s = eu_prior_averaged(DesignSpec.enrichment(n), strong)
            assert r_w.expected_utility == r_s.expected_utility
            assert r_w.power_any == r_s.power_any

    def test_weighted_mixture(self):
        scenario = make_scenario()
        design = DesignSpec.classical(150)
        r = eu_prior_averaged(design, scenario)
        want = math.fsum(
            w * eu_prior_averaged(design, one_atom(scenario, e)).expected_utility
            for e, w in scenario.prior
        )
        assert r.expected_utility == pytest.approx(want, abs=1e-9)

    def test_power_is_prior_average(self):
        scenario = make_scenario()
        design = DesignSpec.enrichment(150)
        r = eu_prior_averaged(design, scenario)
        want = sum(w * eu_prior_averaged(design, one_atom(scenario, e)).power_any
                   for e, w in scenario.prior)
        assert r.power_any == pytest.approx(want, abs=1e-12)

    def test_unknown_kind_rejected(self, scenario):
        with pytest.raises(ValueError):
            grid_row("bayesian", 100, [None], scenario)

    def test_fractional_n_supported(self, scenario):
        r = grid_row("stratified", 123.4, [0.01], scenario)
        assert np.isfinite(r).all()
