import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from trialopt.model import EffectPair, pooled_effect
from trialopt.numerics import Interval, bivariate_upper_orthant, std_normal_quantile
from trialopt.testing import (
    RegionSlice,
    StratifiedTestParams,
    alpha_F_given_alpha_S,
    params_for_scenario,
    region_slices,
    reject_stratified,
)
from conftest import make_scenario

# Frozen from an independent brentq-on-dblquad oracle (xtol 1e-13).
ALPHA_F_HALF = 0.016788350676614376


class TestLevelCondition:
    def test_endpoints_exact(self):
        assert alpha_F_given_alpha_S(0.0, 0.5) == 0.025
        assert alpha_F_given_alpha_S(0.025, 0.5) == 0.0

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
        h = std_normal_quantile(1.0 - 0.0125)
        k = std_normal_quantile(1.0 - alpha_F)
        union = np.mean((z1 >= h) | (z_f >= k))
        se = math.sqrt(union * (1.0 - union) / m)
        assert abs(union - 0.025) <= 4.0 * se

    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_level_property(self, lam):
        rho = math.sqrt(lam)
        for alpha_S in np.linspace(0.0, 0.025, 11):
            alpha_F = alpha_F_given_alpha_S(float(alpha_S), lam)
            if alpha_S == 0.0 or alpha_F == 0.0:
                union = max(alpha_S, alpha_F)
            else:
                h = std_normal_quantile(1.0 - alpha_S)
                k = std_normal_quantile(1.0 - alpha_F)
                union = alpha_S + alpha_F - bivariate_upper_orthant(h, k, rho)
            assert union == pytest.approx(0.025, abs=1e-8)

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


class TestParamsValidation:
    def test_bonferroni_floor(self):
        with pytest.raises(ValueError, match="Bonferroni"):
            StratifiedTestParams(alpha=0.025, alpha_S=0.01, alpha_F=0.01,
                                 tau_S=0.3, tau_Sc=0.3, lambda_S=0.5)

    def test_solved_pair_is_valid(self):
        params = params_for_scenario(make_scenario(), 0.0125)
        assert params.alpha_S + params.alpha_F >= 0.025 - 1e-9


def _params(scenario, alpha_S, mu=None):
    return params_for_scenario(scenario, alpha_S, mu_constraint=mu)


class TestRejectStratified:
    def test_overwhelming_effect(self, scenario):
        params = _params(scenario, 0.0125)
        psi = reject_stratified(10.0, 10.0, params, EffectPair(0.0, 0.0), 200, 1.0)
        assert psi == (1, 1)

    def test_consistency_blocks_full_approval(self, scenario):
        params = _params(scenario, 0.0125)
        psi_S, psi_F = reject_stratified(10.0, -10.0, params,
                                         EffectPair(0.0, 0.0), 200, 1.0)
        assert psi_F == 0

    def test_boundary_flip_at_alpha_S_threshold(self, scenario):
        params = _params(scenario, 0.0125)
        effects = EffectPair(0.0, 0.0)
        threshold = std_normal_quantile(1.0 - params.alpha_S)
        below = reject_stratified(threshold - 1e-9, -10.0, params, effects, 200, 1.0)
        above = reject_stratified(threshold + 1e-9, -10.0, params, effects, 200, 1.0)
        assert below == (0, 0)
        assert above == (1, 0)


class TestRegionSlices:
    def test_consistency_failure_empties_A_F(self, scenario):
        params = _params(scenario, 0.0125)
        effects = EffectPair(0.0, 0.0)
        # z_S far below the tau_S threshold: no z_Sc can rescue psi_F
        slc = region_slices("A_F", -3.0, params, effects, 200,
                            scenario.lambda_S, 1.0)
        assert slc.empty

    def test_half_line_from_explicit_half_planes(self):
        # lambda = 0.5, z_S clears every subgroup-side threshold; the slice
        # lower end is the max of the two remaining z_Sc constraints,
        # intersected by hand here.
        scenario = make_scenario(lambda_S=0.5)
        params = _params(scenario, 0.0125)
        effects = EffectPair(0.0, 0.0)
        n, sigma, z_S = 200.0, 1.0, 4.0
        slc = region_slices("A_F", z_S, params, effects, n, 0.5, sigma)
        assert len(slc.intervals) == 1
        lam_sq = math.sqrt(0.5)
        line_tau = std_normal_quantile(1.0 - params.tau_Sc)
        line_alpha = (std_normal_quantile(1.0 - params.alpha) - lam_sq * z_S) / lam_sq
        want = max(line_tau, line_alpha)
        assert slc.intervals[0].lo == pytest.approx(want, abs=1e-12)
        assert slc.intervals[0].hi == math.inf

    def test_A_S_complement_structure_matches_indicators(self):
        # alpha_S = alpha forces alpha_F = 0; A_S must equal the set where
        # the test returns (1, 0), checked pointwise on a grid.
        scenario = make_scenario(lambda_S=0.4)
        params = _params(scenario, scenario.alpha)
        assert params.alpha_F == 0.0
        effects = EffectPair(0.3, 0.1)
        n, sigma, z_S = 150.0, 1.0, 5.0
        slc = region_slices("A_S", z_S, params, effects, n, 0.4, sigma)
        grid = np.linspace(-6.0, 6.0, 200) + 1.3e-4
        psi_S, psi_F = reject_stratified(np.full_like(grid, z_S), grid,
                                         params, effects, n, sigma)
        want = (psi_S == 1) & (psi_F == 0)
        got = np.array([slc.contains(z) for z in grid])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("alpha_S", [0.0, 0.004, 0.0125, 0.02, 0.025])
    @pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
    def test_region_indicator_coherence(self, alpha_S, lam):
        scenario = make_scenario(lambda_S=lam)
        params = _params(scenario, alpha_S)
        effects = EffectPair(0.3, 0.1)
        n, sigma = 180.0, 1.0
        grid = np.linspace(-4.2, 4.2, 101) + 1.7e-4
        for z_S in grid[::10]:
            slc_f = region_slices("A_F", float(z_S), params, effects, n, lam, sigma)
            slc_s = region_slices("A_S", float(z_S), params, effects, n, lam, sigma)
            psi_S, psi_F = reject_stratified(np.full_like(grid, z_S), grid,
                                             params, effects, n, sigma)
            in_f = np.array([slc_f.contains(z) for z in grid])
            in_s = np.array([slc_s.contains(z) for z in grid])
            assert np.array_equal(in_f, psi_F == 1)
            assert np.array_equal(in_s, (psi_S == 1) & (psi_F == 0))
            assert not np.any(in_f & in_s)

    def test_sponsor_floor_coherence(self):
        scenario = make_scenario(lambda_S=0.35)
        params = _params(scenario, 0.0125)
        with_mu = replace(params, mu_constraint=0.1)
        effects = EffectPair(0.3, 0.1)
        n, sigma = 180.0, 1.0
        se_S = sigma * math.sqrt(2.0 / (0.35 * n))
        se_F = sigma * math.sqrt(2.0 / n)
        delta_F = pooled_effect(effects, 0.35)
        grid = np.linspace(-4.2, 4.2, 101) + 1.3e-4
        for z_S in grid[::10]:
            slc_f = region_slices("A_F", float(z_S), with_mu, effects, n, 0.35, sigma)
            slc_s = region_slices("A_S", float(z_S), with_mu, effects, n, 0.35, sigma)
            psi_S, psi_F = reject_stratified(np.full_like(grid, z_S), grid,
                                             params, effects, n, sigma)
            est_f = delta_F + se_F * (math.sqrt(0.35) * z_S
                                      + math.sqrt(0.65) * grid)
            est_s = effects.delta_S + se_S * z_S
            want_f = (psi_F == 1) & (est_f > 0.1)
            want_s = (psi_S == 1) & (psi_F == 0) & (est_s > 0.1)
            assert np.array_equal(np.array([slc_f.contains(z) for z in grid]), want_f)
            assert np.array_equal(np.array([slc_s.contains(z) for z in grid]), want_s)

    def test_unknown_region_rejected(self, scenario):
        with pytest.raises(ValueError):
            region_slices("A_X", 0.0, _params(scenario, 0.01),
                          EffectPair(0.0, 0.0), 100, scenario.lambda_S, 1.0)

    def test_slice_bound(self, scenario):
        params = _params(scenario, 0.0125)
        for z in np.linspace(-5, 5, 30):
            for region in ("A_F", "A_S"):
                slc = region_slices(region, float(z), params,
                                    EffectPair(0.3, 0.0), 120, scenario.lambda_S, 1.0)
                assert isinstance(slc, RegionSlice)
                assert len(slc.intervals) <= 3

    def test_lambda_mismatch_rejected_under_optimize_flag(self):
        # python -O strips assert statements; the check must still fire
        code = (
            "from trialopt.model import EffectPair\n"
            "from trialopt.testing import params_for_scenario, region_slices\n"
            "from conftest import make_scenario\n"
            "s = make_scenario()\n"
            "try:\n"
            "    region_slices('A_F', 0.0, params_for_scenario(s, 0.01),\n"
            "                  EffectPair(0.0, 0.0), 100, 0.6, 1.0)\n"
            "except ValueError:\n"
            "    print('rejected')\n"
        )
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "rejected"

    def test_slice_invariants_are_checked(self):
        with pytest.raises(ValueError, match="disjoint"):
            RegionSlice((Interval(0.0, 2.0), Interval(1.0, 3.0)))
        with pytest.raises(ValueError, match="at most 3"):
            RegionSlice(tuple(Interval(float(i), i + 0.5) for i in range(4)))
