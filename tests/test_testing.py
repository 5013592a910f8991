import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special

from trialopt.model import EffectPair, pooled_effect
from trialopt.numerics import NumericError, bivariate_upper_orthant
from trialopt.optimizer import decide
from trialopt.testing import (
    _line_geometry,
    _pieces,
    _region_lines,
    alpha_F_given_alpha_S,
    region_breakpoints,
)
from conftest import make_scenario
from oracles import concatenated_pieces, level_solve, reject_stratified
import trialopt.numerics as numerics
import trialopt.testing as testing
from workloads import frontier_inputs

# Frozen from an independent brentq-on-dblquad oracle (xtol 1e-13).
ALPHA_F_HALF = 0.016788350676614376


def union_probability(alpha_S, alpha_F, lambda_S):
    """P(p_S <= alpha_S or p_F <= alpha_F) under the global null."""
    h, k = -scipy.special.ndtri(alpha_S), -scipy.special.ndtri(alpha_F)
    return alpha_S + alpha_F - bivariate_upper_orthant(h, k, math.sqrt(lambda_S))


class TestLevelCondition:
    def test_midpoint_against_frozen_oracle(self):
        got = alpha_F_given_alpha_S(0.0125, 0.5)
        assert got == pytest.approx(ALPHA_F_HALF, abs=1e-9)
        assert 0.0125 <= got < 0.025

    def test_midpoint_against_monte_carlo_union(self):
        alpha_F = alpha_F_given_alpha_S(0.0125, 0.5)
        rng = np.random.default_rng(20260810)
        m = 10**7
        z1 = rng.standard_normal(m)
        z2 = rng.standard_normal(m)
        z_f = math.sqrt(0.5) * z1 + math.sqrt(0.5) * z2
        h = scipy.special.ndtri(1.0 - 0.0125)
        k = scipy.special.ndtri(1.0 - alpha_F)
        union = np.mean((z1 >= h) | (z_f >= k))
        se = math.sqrt(union * (1.0 - union) / m)
        assert abs(union - 0.025) <= 4.0 * se

    def test_nonincreasing_in_alpha_S(self):
        for lam in (0.2, 0.5, 0.8):
            values = [alpha_F_given_alpha_S(float(a), lam)
                      for a in np.linspace(0.0, 0.025, 21)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_lambda(self):
        for alpha_S in (0.005, 0.0125, 0.02):
            values = [alpha_F_given_alpha_S(alpha_S, float(lam))
                      for lam in np.linspace(0.05, 0.95, 10)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_degenerate_prevalence_guard(self):
        assert alpha_F_given_alpha_S(0.01, 1.0 - 1e-12) == 0.025

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            alpha_F_given_alpha_S(0.03, 0.5)
        with pytest.raises(ValueError):
            alpha_F_given_alpha_S(0.01, 0.0)
        with pytest.raises(ValueError, match="alpha must lie"):
            alpha_F_given_alpha_S(0.01, 0.5, alpha=0.5)

    def test_nested_subgroup_event_gives_alpha(self):
        # at lambda 0.96875 the tiny subgroup event sits inside the pooled
        # one, so the root lies within rounding of alpha
        alpha_S = 0.0078125 * 0.025
        alpha_F = alpha_F_given_alpha_S(alpha_S, 0.96875)
        assert abs(union_probability(alpha_S, alpha_F, 0.96875) - 0.025) <= 1e-15
        assert abs(alpha_F - 0.025) <= 1e-15

    def test_union_at_alpha_over_prevalence_scan(self):
        # 99 lambda in [0.01, 0.99] x 200 log-spaced alpha_S in [1e-9, alpha];
        # alpha_S = alpha itself is the exact endpoint alpha_F = 0
        worst_level = 0.0
        for lam in np.linspace(0.01, 0.99, 99).tolist():
            for alpha_S in np.geomspace(1e-9, 0.025, 200)[:-1].tolist():
                alpha_F = alpha_F_given_alpha_S(alpha_S, lam)
                worst_level = max(worst_level,
                                  abs(union_probability(alpha_S, alpha_F, lam) - 0.025))
        assert worst_level <= 1e-15

    @pytest.mark.parametrize("alpha", [0.025, 0.45])
    def test_alpha_S_ulps_below_alpha(self, alpha):
        # as alpha_S nears alpha the root alpha_F nears 0, where the slope
        # vanishes and Newton's steps magnify the rounding in the union
        for lam in (0.21, 0.5, 0.95, 0.99):
            for ulps in (1, 4, 33, 5355, 62605165, 10 ** 10):
                alpha_S = alpha - ulps * math.ulp(alpha)
                alpha_F = alpha_F_given_alpha_S(alpha_S, lam, alpha)
                union = union_probability(alpha_S, alpha_F, lam)
                assert abs(union - alpha) <= 32 * math.ulp(alpha)

    @pytest.mark.parametrize("lam", [0.9999994759516683, 0.9999999507937277])
    def test_near_singular_prevalence(self, lam):
        # the orthant's rounding here exceeds the solve's floor, so the last
        # Newton step can land a few 1e-16 past the root
        for ulps in (119377664171, 492388263170, 10 ** 12):
            alpha_S = 0.025 - ulps * math.ulp(0.025)
            alpha_F = alpha_F_given_alpha_S(alpha_S, lam)
            assert abs(union_probability(alpha_S, alpha_F, lam) - 0.025) <= 1e-13

    @pytest.mark.parametrize("alpha", [0.025, 0.2, 0.45])
    def test_union_near_unit_prevalence(self, alpha):
        # as rho -> 1 the orthant's rounding grows far above the solve's
        # 32-ulp floor: the worst miss on this scan is 3.6e-14 (alpha 0.45)
        worst = 0.0
        for lam in np.linspace(0.99999, 1.0 - 2e-9, 40).tolist():
            for alpha_S in (alpha * (1.0 - np.geomspace(1e-9, 1e-2, 40))).tolist():
                alpha_F = alpha_F_given_alpha_S(alpha_S, lam, alpha)
                worst = max(worst, abs(union_probability(alpha_S, alpha_F, lam) - alpha))
        assert worst <= 5e-14

    @staticmethod
    def assert_solve_equals_oracle(points):
        """The library's solve at each (alpha_S, lambda_S, alpha) against the
        oracle solve, by repr. Where the oracle's Newton step lands below 0
        (it raises on the NaN threshold), the library ends that step at 0,
        where the union is alpha_S: it returns 0.0 within the 32-ulp
        tolerance, or the closer end of the bracket. Returns the number of
        such points."""
        clamped = 0
        for alpha_S, lam, alpha in points:
            got = alpha_F_given_alpha_S(alpha_S, lam, alpha)
            try:
                want = level_solve(alpha_S, lam, alpha)
            except ValueError as exc:
                assert "must not be NaN" in str(exc)
                clamped += 1
                below = alpha - alpha_S
                if got == 0.0:
                    assert below <= 32 * math.ulp(alpha), (alpha_S, lam, alpha)
                else:
                    miss = abs(union_probability(alpha_S, got, lam) - alpha)
                    assert 0.0 < got <= alpha and miss < below, (alpha_S, lam, alpha)
                continue
            assert repr(got) == repr(want), (alpha_S, lam, alpha)
        return clamped

    def test_frontier_grids_equal_oracle_solve(self):
        # the benchmark's dense (lambda_S, alpha_S) grids; the oracle's
        # orthant takes every finite nonzero bound through the array CDF
        grid = []
        for seed in (1, 2, 3):
            inputs = frontier_inputs(seed)
            grid += itertools.product(inputs["alphas"], inputs["lambdas"], [0.025])
        assert len(grid) == 3 * 16 * 48
        assert self.assert_solve_equals_oracle(grid) == 0

    @pytest.mark.parametrize("alpha", [0.025, 0.2, 0.45])
    def test_random_domain_equals_oracle_solve(self, alpha):
        rng = np.random.default_rng(round(alpha * 1000))
        m = 250
        alpha_S = np.concatenate((
            rng.uniform(0.0, alpha, m),
            alpha - 10.0 ** rng.uniform(-15.0, -1.0, m),
            rng.uniform(0.0, alpha, m),
            10.0 ** rng.uniform(-300.0, math.log10(alpha), m)))
        lam = np.concatenate((
            rng.uniform(0.0, 1.0, 2 * m),
            1.0 - 10.0 ** rng.uniform(math.log10(3e-10), 0.0, m),
            10.0 ** rng.uniform(-300.0, 0.0, m)))
        points = [(a, l, alpha) for a, l in zip(alpha_S.tolist(), lam.tolist())
                  if 0.0 <= a <= alpha and 0.0 < l < 1.0]
        assert len(points) > 3.9 * m
        self.assert_solve_equals_oracle(points)

    @pytest.mark.parametrize("alpha", [0.025, 0.2, 0.45])
    def test_ulps_below_alpha_equal_oracle_or_clamp(self, alpha):
        # at small lambda_S a Newton step from just below alpha_S = alpha
        # can land below 0, where the oracle's threshold is NaN
        lams = [10.0 ** -e for e in range(1, 13)] + [0.05, 0.3, 0.5]
        points = [(alpha - ulps * math.ulp(alpha), lam, alpha)
                  for lam in lams for ulps in range(1, 40)]
        clamped = self.assert_solve_equals_oracle(points)
        assert clamped == (20 if alpha == 0.025 else 0)

    def test_cold_solve_makes_no_array_cdf_call(self, record_calls):
        calls = record_calls(numerics, "bivariate_normal_cdf")
        for lam in (0.1, 0.5, 0.9):
            for alpha_S in (1e-9, 0.0125, 0.0249):
                alpha_F_given_alpha_S(alpha_S, lam)
        assert calls == []

    def test_frontier_grids_make_no_scalar_ufunc_call(self, monkeypatch):
        # Python floats take cython_special's routines: numpy's dispatch of
        # a ufunc on one costs more than the function itself
        scalar_calls = []

        def counted(name, ufunc):
            def call(*args):
                if all(np.ndim(a) == 0 for a in args):
                    scalar_calls.append((name, args))
                return ufunc(*args)
            return call

        for module in (numerics, testing, scipy.special):
            for name in ("ndtr", "ndtri", "owens_t"):
                if isinstance(getattr(module, name, None), np.ufunc):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        grid = []
        for seed in (1, 2, 3):
            inputs = frontier_inputs(seed)
            grid += itertools.product(inputs["alphas"], inputs["lambdas"])
        for a, lam in grid:
            alpha_F_given_alpha_S(a, lam)
        assert scalar_calls == []

    def test_unbracketed_root_is_numeric_error(self, broken_orthant):
        with pytest.raises(NumericError, match="left of the root"):
            alpha_F_given_alpha_S(0.0125, 0.5)

    def test_solve_keeps_no_value_between_calls(self, request):
        # a solved point is solved again: the broken orthant reaches it
        alpha_F_given_alpha_S(0.0125, 0.5)
        request.getfixturevalue("broken_orthant")
        with pytest.raises(NumericError, match="left of the root"):
            alpha_F_given_alpha_S(0.0125, 0.5)

    def test_repeated_decisions_make_the_same_solves(self, monkeypatch):
        # a decision's level solves do not depend on the decisions before it
        calls = []
        scalar = testing.SCALAR

        def owens_t(h, a):
            calls.append(None)
            return scalar.owens_t(h, a)

        monkeypatch.setattr(testing, "SCALAR", SimpleNamespace(
            ndtr=scalar.ndtr, ndtri=scalar.ndtri, owens_t=owens_t))
        counts = []
        for _ in range(2):
            decide(make_scenario())
            counts.append(len(calls))
            calls.clear()
        assert counts[0] == counts[1] > 0

    def test_iteration_cap_raises(self, monkeypatch):
        # T(x, .) = d - Phi(x) / 2 makes the orthant Phi(x) + Phi(y) - 2 d,
        # so the excess is the constant 2 d - alpha = 2e-9: every step
        # moves alpha_F by about 4e-9 and none reaches a root
        scalar = testing.SCALAR
        d = 0.5 * 0.025 + 1e-9
        monkeypatch.setattr(testing, "SCALAR", SimpleNamespace(
            ndtr=scalar.ndtr, ndtri=scalar.ndtri, owens_t=lambda h, a: d - 0.5 * scalar.ndtr(h)))
        with pytest.raises(NumericError,
                           match=r"did not converge in 50 iterations from 0\.025; last point"):
            alpha_F_given_alpha_S(0.0125, 0.5)

    def test_solved_pair_is_valid(self):
        # the solved pair never falls below the Bonferroni floor
        for alpha_S, lam in itertools.product((0.0, 0.005, 0.0125, 0.02, 0.025),
                                              (0.1, 0.5, 0.9)):
            assert alpha_S + alpha_F_given_alpha_S(alpha_S, lam) >= 0.025 - 1e-9


def region_members(geom, z_S, z_Sc, sponsor):
    """Membership of the points (z_S, z_Sc) in A_F and A_S, read off the
    lines of _region_lines as the stratified kernel integrates them: A_F
    above line 0, or above the sponsor's floor line where that is alive;
    A_S as the tail above line 1 less the tail above line 0, so a point
    counted negatively shows as -1."""
    alive, a, b, alive_S = _region_lines(geom, z_S, sponsor)
    above = [alive[i] & (z_Sc >= a[i] + b[i] * z_S) for i in range(len(a))]
    in_f = np.where(alive[2], above[2], above[0]) if sponsor else above[0]
    in_s = np.where(alive_S, above[1].astype(int) - above[0], 0)
    return in_f, in_s


def in_region(region, z_S, z_Sc, scenario, alpha_S, effects, n, mu=None):
    """Membership of the points (z_S, z_Sc) in A_F or A_S at subgroup
    weight alpha_S. mu adds the sponsor's estimate floors: mu_F for A_F,
    mu_S for A_S."""
    alpha_F = alpha_F_given_alpha_S(alpha_S, scenario.lambda_S, scenario.alpha)
    geom = _line_geometry(scenario.lambda_S, scenario.alpha, alpha_S, alpha_F,
                          scenario.tau_S, scenario.tau_Sc, effects.delta_S, effects.delta_Sc,
                          n, scenario.sigma, mu_S=mu, mu_F=mu)
    in_f, in_s = region_members(geom, z_S, z_Sc, sponsor=mu is not None)
    return in_f if region == "A_F" else in_s


# The consistency levels the region tests cross: 0 puts its threshold at
# +inf, 0.3 is the reference design's, 0.5 puts it at 0, and 1 at -inf.
TAUS = (0.0, 0.3, 0.5, 1.0)


def region_domain(rng, tau_S, tau_Sc, sponsor):
    """Random settings of the kernel's domain at one tau pair: a random
    lambda_S, alpha_S in {0, random, alpha}, six random effect pairs and
    sizes, and with ``sponsor`` random estimate floors. Yields, per
    setting, membership of A_F and A_S read off _region_lines, the same
    from reject_stratified with the floors, and the lines at the kernel's
    piece abscissae plus random points, with those abscissae."""
    lam = float(rng.uniform(0.01, 0.99))
    scenario = make_scenario(lambda_S=lam, tau_S=tau_S, tau_Sc=tau_Sc)
    for alpha_S in (0.0, float(rng.uniform(0.0, 0.025)), 0.025):
        alpha_F = alpha_F_given_alpha_S(alpha_S, lam)
        for pair, n in zip(rng.uniform(-0.3, 0.6, (6, 2)), rng.uniform(50.0, 3000.0, 6)):
            # EffectPair takes delta_S >= delta_Sc only
            effects = EffectPair(*sorted(pair.tolist(), reverse=True))
            mu_S, mu_F = rng.uniform(-0.2, 0.5, 2) if sponsor else (None, None)
            geom = _line_geometry(lam, 0.025, alpha_S, alpha_F, tau_S, tau_Sc,
                                  effects.delta_S, effects.delta_Sc, n, 1.0, mu_S, mu_F)
            z_S = np.concatenate((_pieces(geom)[2], rng.normal(0.0, 3.0, 200)))[:, None]
            z_Sc = rng.normal(0.0, 3.0, (z_S.size, 40))
            psi_S, psi_F = reject_stratified(z_S, z_Sc, alpha_S, effects, n, scenario)
            want = [psi_F == 1, (psi_S == 1) & (psi_F == 0)]
            if sponsor:
                want[0] &= pooled_effect(effects, lam) + geom.se_F * (
                    geom.sq_lam * z_S + geom.sq_lamc * z_Sc) > mu_F
                want[1] &= effects.delta_S + geom.se_S * z_S > mu_S
            yield (region_members(geom, z_S, z_Sc, sponsor), want, z_S,
                   _region_lines(geom, z_S, sponsor))


def assert_pieces_equal_concatenated(geom):
    want = concatenated_pieces(geom)
    for got, ref in zip((region_breakpoints(geom), *_pieces(geom)), want):
        assert got.shape == ref.shape and repr(got.tolist()) == repr(ref.tolist())


class TestPieces:
    # The breakpoints and pieces, written into preallocated arrays and
    # sorted in place, equal those built by concatenation, -0.0, NaN and
    # padding included.
    @pytest.mark.parametrize("sponsor", [False, True])
    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.5, 1.0])
    def test_kernel_geometry(self, sponsor, tau):
        # the kernel's layout: atom, n, alpha_S, then a piece axis of 1;
        # public floors are -inf (padding), alpha_S = 0 puts the gate at
        # +inf, a tau_Sc of 0 or 1 makes crossings NaN, and tau = 0.5 puts
        # breakpoints at -0.0
        rng = np.random.default_rng(int(10 * tau) + sponsor)
        lam = float(rng.uniform(0.05, 0.95))
        alpha_S = np.array([0.0, 0.001, 0.0125, 0.025])
        alpha_F = np.array([alpha_F_given_alpha_S(float(a), lam) for a in alpha_S])
        delta_S = np.array([0.0, 0.3, 0.3, 1.0, 0.0]).reshape(5, 1, 1, 1)
        delta_Sc = np.array([0.0, 0.0, 0.15, 1.0, -0.0]).reshape(5, 1, 1, 1)
        n = np.array([50.0, 333.0, 2700.0])
        mu = (0.1, 0.1) if sponsor else (None, None)
        geom = _line_geometry(lam, 0.025, alpha_S[:, None], alpha_F[:, None], tau, tau,
                              delta_S, delta_Sc, n[..., None, None], 1.0, *mu)
        assert region_breakpoints(geom).shape == (5, 3, 4, 7)
        assert_pieces_equal_concatenated(geom)

    @pytest.mark.parametrize("sponsor", [False, True])
    def test_scalar_geometry(self, sponsor):
        # the oracles' float geometries, huge floors and sizes included
        rng = np.random.default_rng(sponsor)
        for _ in range(200):
            lam = float(rng.uniform(0.01, 0.99))
            alpha_S = float(rng.choice([0.0, rng.uniform(0.0, 0.025), 0.025]))
            delta_Sc, delta_S = sorted(rng.uniform(-0.3, 0.6, 2).tolist())
            tau_S, tau_Sc = rng.choice([0.0, 0.3, 0.5, 1.0], 2).tolist()
            mu_S, mu_F = (rng.choice([-0.2, 0.1, 1e300], 2).tolist() if sponsor
                          else (None, None))
            geom = _line_geometry(lam, 0.025, alpha_S, alpha_F_given_alpha_S(alpha_S, lam),
                                  tau_S, tau_Sc, delta_S, delta_Sc,
                                  float(rng.choice([50.0, 1e6])), 1.0, mu_S, mu_F)
            assert region_breakpoints(geom).shape == (7,)
            assert_pieces_equal_concatenated(geom)


class TestRejectStratified:
    def test_overwhelming_effect(self, scenario):
        psi = reject_stratified(10.0, 10.0, 0.0125, EffectPair(0.0, 0.0), 200, scenario)
        assert psi == (1, 1)

    def test_consistency_blocks_full_approval(self, scenario):
        psi_S, psi_F = reject_stratified(10.0, -10.0, 0.0125,
                                         EffectPair(0.0, 0.0), 200, scenario)
        assert psi_F == 0

    def test_boundary_flip_at_alpha_S_threshold(self, scenario):
        effects = EffectPair(0.0, 0.0)
        threshold = scipy.special.ndtri(1.0 - 0.0125)
        below = reject_stratified(threshold - 1e-9, -10.0, 0.0125, effects, 200, scenario)
        above = reject_stratified(threshold + 1e-9, -10.0, 0.0125, effects, 200, scenario)
        assert below == (0, 0)
        assert above == (1, 0)


class TestRegionSlices:
    def test_consistency_failure_empties_A_F(self, scenario):
        effects = EffectPair(0.0, 0.0)
        # z_S far below the tau_S threshold: no z_Sc can rescue psi_F
        z_Sc = np.linspace(-50.0, 50.0, 201)
        assert not in_region("A_F", -3.0, z_Sc, scenario, 0.0125, effects, 200).any()

    def test_half_line_from_explicit_half_planes(self):
        # lambda = 0.5, z_S clears every subgroup-side threshold; the slice
        # lower end is the max of the two remaining z_Sc constraints,
        # intersected by hand here.
        scenario = make_scenario(lambda_S=0.5)
        alpha_F = alpha_F_given_alpha_S(0.0125, 0.5)
        effects = EffectPair(0.0, 0.0)
        n, sigma, z_S = 200.0, 1.0, 4.0
        geom = _line_geometry(0.5, scenario.alpha, 0.0125, alpha_F,
                              scenario.tau_S, scenario.tau_Sc, effects.delta_S, effects.delta_Sc,
                              n, sigma, None, None)
        alive, a, b = (v[0] for v in _region_lines(geom, z_S, False)[:3])
        assert alive
        lam_sq = math.sqrt(0.5)
        line_tau = scipy.special.ndtri(1.0 - scenario.tau_Sc)
        line_alpha = (scipy.special.ndtri(1.0 - scenario.alpha) - lam_sq * z_S) / lam_sq
        want = max(line_tau, line_alpha)
        assert a + b * z_S == pytest.approx(want, abs=1e-12)

    def test_A_S_complement_structure_matches_indicators(self):
        # alpha_S = alpha forces alpha_F = 0; A_S must equal the set where
        # the test returns (1, 0), checked pointwise on a grid.
        scenario = make_scenario(lambda_S=0.4)
        assert alpha_F_given_alpha_S(scenario.alpha, 0.4) == 0.0
        effects = EffectPair(0.3, 0.1)
        n, z_S = 150.0, 5.0
        grid = np.linspace(-6.0, 6.0, 200) + 1.3e-4
        psi_S, psi_F = reject_stratified(np.full_like(grid, z_S), grid,
                                         scenario.alpha, effects, n, scenario)
        want = (psi_S == 1) & (psi_F == 0)
        got = in_region("A_S", z_S, grid, scenario, scenario.alpha, effects, n)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha_S", [0.0, 0.004, 0.0125, 0.02, 0.025])
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_region_indicator_coherence(self, alpha_S, lam):
        scenario = make_scenario(lambda_S=lam)
        effects = EffectPair(0.3, 0.1)
        n = 180.0
        grid = np.linspace(-4.2, 4.2, 101) + 1.7e-4
        for z_S in grid[::10]:
            psi_S, psi_F = reject_stratified(np.full_like(grid, z_S), grid,
                                             alpha_S, effects, n, scenario)
            in_f = in_region("A_F", z_S, grid, scenario, alpha_S, effects, n)
            in_s = in_region("A_S", z_S, grid, scenario, alpha_S, effects, n)
            assert np.array_equal(in_f, psi_F == 1)
            assert np.array_equal(in_s, (psi_S == 1) & (psi_F == 0))
            assert not np.any(in_f & in_s)

    def test_sponsor_floor_coherence(self):
        scenario = make_scenario(lambda_S=0.35)
        effects = EffectPair(0.3, 0.1)
        n, sigma = 180.0, scenario.sigma
        se_S = sigma * math.sqrt(2.0 / (0.35 * n))
        se_F = sigma * math.sqrt(2.0 / n)
        delta_F = pooled_effect(effects, 0.35)
        grid = np.linspace(-4.2, 4.2, 101) + 1.3e-4
        # the tests alone already force estimates above 0.1; a floor of 0.5
        # cuts into both regions
        for mu, z_S in itertools.product((0.1, 0.5), grid[::10]):
            psi_S, psi_F = reject_stratified(np.full_like(grid, z_S), grid,
                                             0.0125, effects, n, scenario)
            est_f = delta_F + se_F * (math.sqrt(0.35) * z_S
                                      + math.sqrt(0.65) * grid)
            est_s = effects.delta_S + se_S * z_S
            want_f = (psi_F == 1) & (est_f > mu)
            want_s = (psi_S == 1) & (psi_F == 0) & (est_s > mu)
            got_f = in_region("A_F", z_S, grid, scenario, 0.0125, effects, n, mu=mu)
            got_s = in_region("A_S", z_S, grid, scenario, 0.0125, effects, n, mu=mu)
            assert np.array_equal(got_f, want_f)
            assert np.array_equal(got_s, want_s)

    @pytest.mark.parametrize("tau_S", TAUS)
    @pytest.mark.parametrize("tau_Sc", TAUS)
    def test_A_S_upper_bound_is_the_A_F_line(self, tau_S, tau_Sc):
        # Without sponsor floors, A_F and A_S read off the lines (A_S
        # bounded above by the A_F line where A_F is alive, by +inf where
        # not) are the test's approvals, at the kernel's piece abscissae
        # and at random points.
        rng = np.random.default_rng(round(100 * tau_S + 10 * tau_Sc))
        bounded = 0
        for _ in range(8):
            for got, want, _, (alive, _, _, alive_S) in region_domain(rng, tau_S, tau_Sc, False):
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[1], want[1])
                assert len(alive) == 2 and np.array_equal(alive_S, alive[1])
                bounded += np.count_nonzero(got[1] & alive[0])
        # a zero tau_S empties A_F
        assert (bounded == 0) == (tau_S == 0.0)

    def test_sponsor_A_F_mask_is_the_public_one(self):
        # With the floors, A_F read off the lines (line 0's mask, the floor
        # line where it is alive and line 0 elsewhere) is the test's full
        # approvals with the pooled estimate above mu_F.
        rng = np.random.default_rng(41)
        cut = 0
        for tau_S, tau_Sc in itertools.product(TAUS, repeat=2):
            for got, want, _, (alive, _, _, _) in region_domain(rng, tau_S, tau_Sc, True):
                assert np.array_equal(got[0], want[0])
                assert not np.any(alive[2] & ~alive[0])
                cut += np.count_nonzero(alive[2])
        # the floor line is the highest somewhere
        assert cut > 0

    def test_sponsor_A_S_mask_is_the_public_one_cut_at_mu_S(self):
        # With the floors, A_S read off the lines (the public lines, under
        # the mask cut at z_S > mu_S_cut) is the test's subgroup-only
        # approvals with the subgroup estimate above mu_S.
        rng = np.random.default_rng(43)
        cut = 0
        for tau_S, tau_Sc in itertools.product(TAUS, repeat=2):
            for got, want, _, (alive, _, _, alive_S) in region_domain(rng, tau_S, tau_Sc, True):
                assert np.array_equal(got[1], want[1])
                assert not np.any(alive_S & ~alive[1])
                cut += np.count_nonzero(alive[1] & ~alive_S)
        # the floor cuts A_S somewhere
        assert cut > 0

    def test_no_zero_width_A_S_slice(self):
        # Line 1 never lies above line 0, and where it equals it A_S's
        # slice is empty: line 1 is dead there, so no zero-width slice
        # reaches the kernel's CDF.
        rng = np.random.default_rng(47)
        equal = 0
        for tau_S, tau_Sc in itertools.product(TAUS, repeat=2):
            for _, _, z_S, (alive, a, b, _) in region_domain(rng, tau_S, tau_Sc, False):
                same = alive[0] & (a[1] + b[1] * z_S == a[0] + b[0] * z_S)
                assert not np.any(same & alive[1])
                equal += np.count_nonzero(same)
        assert equal > 0

    def test_slice_bound(self, scenario):
        # every slice is one interval in z_Sc, and A_F's reaches +inf
        effects = EffectPair(0.3, 0.0)
        grid = np.linspace(-8.0, 8.0, 801)
        for z in np.linspace(-5, 5, 30):
            in_f = in_region("A_F", z, grid, scenario, 0.0125, effects, 120).astype(int)
            in_s = in_region("A_S", z, grid, scenario, 0.0125, effects, 120).astype(int)
            assert np.all(np.diff(in_f) >= 0)
            assert np.count_nonzero(np.diff(in_s)) <= 2
