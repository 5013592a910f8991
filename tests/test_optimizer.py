import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from trialopt import optimizer, utility
from trialopt.model import ConfigError, DesignSpec, DiscretePrior, EffectPair
from trialopt.optimizer import (
    MAX_JOBS,
    ContourCell,
    GridConfig,
    SweepRow,
    default_n_grid,
    no_trial_outcome,
    optimize_family,
    select_design,
    sweep_contour,
    sweep_prevalence,
)
from trialopt.utility import eu_prior_averaged, grid_row
from conftest import CASE1, CASE3, make_scenario

# Coarse grid keeps optimizer tests quick; refinement recovers precision.
FAST = GridConfig(
    n_grid=(50, 65, 85, 110, 145, 190, 250, 330, 430, 560, 730, 950,
            1250, 1600, 2100, 2700),
    alpha_points=11,
)


def with_rewards(scenario, **kw):
    return replace(scenario, rewards=replace(scenario.rewards, **kw))


class TestGridConfig:
    def test_default_grid_shape(self):
        grid = default_n_grid()
        assert grid[0] == 50 and grid[-1] == 3000
        assert len(grid) == 40

    def test_consume_mapping_list(self):
        mapping = {"grid.n_points": "50,100,200", "grid.alpha_points": "5",
                   "refine.enabled": "false", "refine.tol": "1e-5"}
        config = GridConfig.consume_mapping(mapping)
        assert config.n_grid == (50, 100, 200)
        assert config.alpha_points == 5
        assert config.refine is False
        assert not mapping

    def test_sizes_stored_sorted_without_repeats(self):
        assert GridConfig(n_grid=(400, 100, 200, 100)).n_grid == (100, 200, 400)
        config = GridConfig.consume_mapping({"grid.n_points": "300,50,300,120"})
        assert config.n_grid == (50, 120, 300)

    def test_consume_mapping_count(self):
        config = GridConfig.consume_mapping({"grid.n_points": "12"}, n_min=50)
        assert len(config.n_grid) == 12
        assert config.n_grid[0] == 50 and config.n_grid[-1] == 3000

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            GridConfig.consume_mapping({"refine.enabled": "maybe"})
        with pytest.raises(ConfigError):
            GridConfig.consume_mapping({"grid.n_points": "x"})

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
    def test_refine_tol_outside_positive_finite_rejected(self, tol):
        # A NaN tolerance would never stop the alpha_S narrowing loop.
        with pytest.raises(ValueError):
            GridConfig(refine_tol=tol)
        with pytest.raises(ConfigError):
            GridConfig.consume_mapping({"refine.tol": repr(tol)})


class TestOptimizeFamily:
    def test_zero_rewards_pick_minimal_n(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        for family in ("classical", "stratified", "enrichment"):
            outcome = optimize_family(family, scenario, FAST)
            assert outcome.best_design.n == scenario.n_min

    def test_classical_matches_exhaustive_scan(self):
        # Independent oracle: every integer n in [50, 2000] via closed form.
        from trialopt.model import DiscretePrior, EffectPair
        scenario = make_scenario(perspective="public").with_prior(
            DiscretePrior(((EffectPair(0.3, 0.3), 1.0),)))
        best_n, best_eu = None, -math.inf
        for n in range(50, 2001):
            eu = eu_prior_averaged(DesignSpec.classical(n), scenario).expected_utility
            if eu > best_eu:
                best_n, best_eu = n, eu
        outcome = optimize_family("classical", scenario, FAST)
        assert outcome.result.expected_utility >= best_eu * (1.0 - 1e-3)
        assert abs(outcome.best_design.n - best_n) <= 2

    def test_refinement_never_loses(self):
        scenario = make_scenario(lambda_S=0.35)
        grid_only = optimize_family("stratified", scenario, replace(FAST, refine=False))
        refined = optimize_family("stratified", scenario, FAST)
        assert refined.expected_utility >= grid_only.expected_utility

    @pytest.mark.parametrize("family", ["classical", "stratified", "enrichment"])
    @pytest.mark.parametrize("lambda_S,perspective,case,prior_kind", [
        (0.35, "sponsor", CASE1, "weak"),
        (0.6, "public", CASE3, "strong"),
        (0.8, "sponsor", CASE3, "strong"),
    ])
    def test_matches_nelder_mead_oracle(self, family, lambda_S, perspective, case,
                                        prior_kind):
        # The name stays from the Nelder-Mead oracle this test compared
        # with; it now compares with integer scans: every n the refinement
        # can reach for the one-test families, and for the stratified
        # family n within 10 of the optimum crossed with 401 alpha_S in
        # [0, alpha].
        scenario = make_scenario(lambda_S=lambda_S, perspective=perspective, case=case,
                                 prior_kind=prior_kind)
        outcome = optimize_family(family, scenario, FAST)
        if family == "stratified":
            n = outcome.best_design.n
            sizes = np.arange(max(scenario.n_min, n - 10), n + 11)
            alphas = np.linspace(0.0, scenario.alpha, 401).tolist()
            eus = np.array([grid_row(family, float(m), alphas, scenario)[0].max()
                            for m in sizes])
        else:
            sizes = np.arange(scenario.n_min, 2 * max(FAST.n_grid) + 1)
            eus = grid_row(family, sizes.astype(float), [None], scenario)[0][:, 0]
        assert outcome.best_design.n == sizes[np.argmax(eus)]
        assert outcome.expected_utility >= eus.max() - FAST.refine_tol

    def test_deterministic(self):
        scenario = make_scenario(lambda_S=0.6, case=CASE1)
        a = optimize_family("stratified", scenario, FAST)
        b = optimize_family("stratified", scenario, FAST)
        assert a.best_design == b.best_design
        assert a.result.expected_utility == b.result.expected_utility

    def test_enrichment_public_n_increases_with_prevalence(self):
        ns = []
        for lam in (0.2, 0.4, 0.6, 0.8):
            scenario = make_scenario(lambda_S=lam, perspective="public")
            ns.append(optimize_family("enrichment", scenario, FAST).best_design.n)
        assert all(b >= a for a, b in zip(ns, ns[1:]))

    def test_stratified_reports_alpha_F(self):
        outcome = optimize_family("stratified", make_scenario(), FAST)
        assert outcome.derived_alpha_F is not None
        assert 0.0 <= outcome.derived_alpha_F <= 0.025

    def test_unknown_family(self, scenario):
        with pytest.raises(ValueError):
            optimize_family("bayesian", scenario)


class TestSizeBlocks:
    # The block cap bounds memory only: one size per call and the whole
    # grid in one call must decide exactly alike.
    @pytest.mark.parametrize("settings", [1, 10 ** 9])
    def test_block_cap_never_shows(self, monkeypatch, settings):
        scenarios = [make_scenario(lambda_S=0.35, case=CASE1),
                     make_scenario(lambda_S=0.6, perspective="public", case=CASE3,
                                   prior_kind="strong")]
        want = [optimizer.decide(s) for s in scenarios]
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", settings)
        assert [optimizer.decide(s) for s in scenarios] == want

    def test_stage_one_scores_blocks_of_sizes(self, monkeypatch):
        calls, blocks = [], []
        kernel = utility._stratified_fields

        def counted(atoms, n, alpha_S, scenario):
            calls.append((np.shape(n), len(alpha_S)))
            # Stage-1 rows span the 21-point alpha_S grid, refinement rows
            # a 9-point bracket.
            if len(alpha_S) == 21:
                blocks.append(np.atleast_1d(n).tolist())
            return kernel(atoms, n, alpha_S, scenario)

        monkeypatch.setattr(utility, "_stratified_fields", counted)
        scenario = make_scenario()
        optimize_family("stratified", scenario)
        monkeypatch.setattr(utility, "_stratified_fields", kernel)
        assert len(blocks) <= 10
        assert ((3,), 9) in calls
        # Each size is scored once, in grid order, and a block scores the
        # sizes whose bound clears the best utility of the blocks before
        # it; the sizes left over cannot beat the best.
        sizes = optimizer._grid_sizes(scenario, GridConfig())
        scored = [n for block in blocks for n in block]
        assert scored == sizes[:len(scored)] and len(scored) < len(sizes)
        alphas = [float(a) for a in np.linspace(0.0, scenario.alpha, 21)]
        grid = np.array(sizes, dtype=float)
        rows = grid_row("stratified", grid, alphas, scenario)[0].max(axis=-1)
        bounds = utility._utility_bound("stratified", grid, scenario)
        best, done = -math.inf, 0
        for block in blocks:
            assert np.all(bounds[done:done + len(block)] >= best - optimizer._PRUNE_MARGIN)
            best = max(best, rows[done:done + len(block)].max())
            done += len(block)
        assert np.all(bounds[done:] < best - optimizer._PRUNE_MARGIN)

    def test_long_alpha_rows_split_at_the_cap(self, monkeypatch):
        # 4 atoms x 201 alpha_S points is more than the cap in one row: the
        # row is scored in pieces and decides as one call over it would.
        scenario, config = make_scenario(), replace(FAST, alpha_points=201)
        cap = optimizer._BLOCK_SETTINGS
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", 10 ** 9)
        whole = optimize_family("stratified", scenario, config)
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", cap)
        settings = []
        kernel = utility._stratified_fields

        def counted(atoms, n, alpha_S, scenario):
            settings.append(len(atoms) * np.size(n) * len(alpha_S))
            return kernel(atoms, n, alpha_S, scenario)

        monkeypatch.setattr(utility, "_stratified_fields", counted)
        split = optimize_family("stratified", scenario, config)
        assert max(settings) <= cap
        assert ((split.best_design.n, split.best_design.alpha_S, split.expected_utility)
                == (whole.best_design.n, whole.best_design.alpha_S, whole.expected_utility))


def _bound_domain():
    """Scenarios for the bound's properties: both perspectives at the
    extreme and a middle prevalence, each reward scale zero in turn, zero
    clinical floors, a null and a subgroup-heavy prior, and prognostic
    offsets."""
    for lam, perspective, rewards, delta, offset in itertools.product(
            (0.05, 0.5, 0.95), ("sponsor", "public"),
            ({}, {"NrS": 0.0}, {"NrF": 0.0}, {"mu_S": 0.0, "mu_F": 0.0}),
            (0.0, 0.6), (0.0, 0.8)):
        scenario = with_rewards(make_scenario(lambda_S=lam, perspective=perspective,
                                              case=CASE1, delta=delta), **rewards)
        yield scenario.with_prior(DiscretePrior(tuple(
            (EffectPair(e.delta_S, e.delta_Sc, offset), w) for e, w in scenario.prior)))


class TestStageOnePruning:
    @pytest.mark.parametrize("family", ["classical", "stratified", "enrichment"])
    def test_bound_holds_and_never_increases(self, family):
        for scenario in _bound_domain():
            alphas = ([float(a) for a in np.linspace(0.0, scenario.alpha, 11)]
                      if family == "stratified" else [None])
            sizes = np.arange(scenario.n_min, 6001, dtype=float)
            bounds = utility._utility_bound(family, sizes, scenario)
            assert np.all(np.diff(bounds) <= 0.0)
            probes = np.array([0, 30, 150, 950, 2950, 5950])
            rows = grid_row(family, sizes[probes], alphas, scenario)[0]
            assert np.all(bounds[probes] >= rows.max(axis=-1) - 1e-9)

    def test_pruned_decisions_equal_full_scan(self, monkeypatch):
        # Skipping the sizes that cannot win changes no decision, so
        # refinement starts from the same grid point. Cases: the
        # lambda_S = 0.95 public scenario whose winning stage-1 row has two
        # alpha_S peaks (n = 200, indices 10 and 19), a delta = 0 contour
        # cell, zero rewards, and a spread of prevalences, perspectives,
        # market cases and priors.
        scenarios = [
            make_scenario(lambda_S=0.95, perspective="public", case=CASE1, delta=0.6),
            make_scenario(lambda_S=0.5, perspective="public", delta=0.0),
            with_rewards(make_scenario(), NrS=0.0, NrF=0.0),
            make_scenario(lambda_S=0.05, case=CASE1, prior_kind="strong", delta=1.0),
            make_scenario(lambda_S=0.3, case=CASE3, delta=0.15),
            make_scenario(lambda_S=0.7, perspective="public", case=CASE3,
                          prior_kind="strong", delta=0.4),
            make_scenario(lambda_S=0.95, case=CASE1, delta=0.6),
            make_scenario(lambda_S=0.35, perspective="public", case=CASE1, delta=0.3),
            make_scenario(lambda_S=0.6, prior_kind="strong", delta=0.3),
            make_scenario(lambda_S=0.8, perspective="public", delta=1.0),
            make_scenario(lambda_S=0.2, case=CASE3, prior_kind="strong", delta=0.0),
            with_rewards(make_scenario(lambda_S=0.45, perspective="public"),
                         mu_S=0.0, mu_F=0.0),
        ]
        scored = []
        scored_rows = optimizer._scored_rows

        def counted(family, sizes, alphas, scenario):
            scored.append(len(sizes))
            return scored_rows(family, sizes, alphas, scenario)

        monkeypatch.setattr(optimizer, "_scored_rows", counted)
        pruned = [repr(optimizer.decide(s)) for s in scenarios]
        pruned_rows = sum(scored)
        scored.clear()
        monkeypatch.setattr(optimizer, "_utility_bound",
                            lambda kind, n, scenario: np.full(np.shape(n), math.inf))
        assert [repr(optimizer.decide(s)) for s in scenarios] == pruned
        assert pruned_rows < sum(scored)


class TestBimodalRow:
    # At lambda_S = 0.95, public, case 1, weak prior, delta = 0.6, the
    # n = 200 stage-1 row has two alpha_S peaks: 3847.20658 at index 10
    # and 3847.22259 at index 19. Refinement narrows only around the best
    # grid point, so nothing near the other peak may beat its optimum.
    SCENARIO = dict(lambda_S=0.95, perspective="public", case=CASE1,
                    prior_kind="weak", delta=0.6)

    def test_stage_one_keeps_the_higher_peak(self):
        scenario = make_scenario(**self.SCENARIO)
        alphas = [float(a) for a in np.linspace(0.0, scenario.alpha, GridConfig().alpha_points)]
        row = grid_row("stratified", 200, alphas, scenario)[0]
        assert row[9] < row[10] > row[11]
        assert row[18] < row[19] > row[20]
        assert row[10] < row[19]
        grid = optimize_family("stratified", scenario, GridConfig(refine=False))
        assert (grid.best_design.n, grid.best_design.alpha_S) == (200, alphas[19])

    def test_optimum_beats_the_other_peak(self):
        # A 41-point alpha_S scan over +-one grid step around index 10, at
        # every n in [180, 220].
        scenario = make_scenario(**self.SCENARIO)
        step = scenario.alpha / (GridConfig().alpha_points - 1)
        scan = [float(a) for a in np.linspace(9 * step, 11 * step, 41)]
        scan_best = max(grid_row("stratified", n, scan, scenario)[0].max()
                        for n in range(180, 221))
        assert optimize_family("stratified", scenario).expected_utility >= scan_best


class TestSelectDesign:
    def test_zero_rewards_select_no_trial(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        outcome = select_design(scenario, FAST)
        assert outcome.best_design.kind == "no_trial"
        assert outcome.result.expected_utility == 0.0

    def test_case1_sponsor_midrange_prefers_stratified(self):
        scenario = make_scenario(lambda_S=0.5, case=CASE1)
        outcome = select_design(scenario, FAST)
        assert outcome.best_design.kind == "stratified"

    def test_utility_monotone_in_reward_scale(self):
        base = make_scenario(lambda_S=0.4)
        low = select_design(base, FAST).result.expected_utility
        richer = with_rewards(base, NrS=base.rewards.NrS * 2,
                              NrF=base.rewards.NrF * 2)
        high = select_design(richer, FAST).result.expected_utility
        assert high >= low - 1e-9


class TestSweeps:
    def test_single_point_sweep_matches_select(self):
        scenario = make_scenario(case=CASE1)
        rows = sweep_prevalence(scenario, [0.5], FAST)
        assert len(rows) == 1
        row = rows[0]
        assert isinstance(row, SweepRow)
        selected = select_design(scenario.with_lambda(0.5), FAST)
        assert row.selected == selected.best_design.kind
        assert row.outcomes[row.selected].best_design == selected.best_design

    def test_lambda_clamped_to_sweep_range(self):
        rows = sweep_prevalence(make_scenario(), [0.01, 0.99], FAST)
        assert rows[0].lambda_S == 0.05
        assert rows[1].lambda_S == 0.95

    def test_contour_single_cell(self):
        scenario = make_scenario(perspective="public")
        matrix = sweep_contour(scenario, [0.5], [0.3], "weak", FAST)
        assert len(matrix) == 1 and len(matrix[0]) == 1
        cell = matrix[0][0]
        assert isinstance(cell, ContourCell)
        direct = select_design(scenario.with_lambda(0.5), FAST)
        assert cell.selected == direct.best_design.kind

    def test_contour_zero_rewards_cell_is_no_trial(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        cell = sweep_contour(scenario, [0.5], [0.3], "weak", FAST)[0][0]
        assert cell.selected == "no_trial"
        assert cell.n_opt is None
        assert cell.expected_utility == 0.0

    def test_contour_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            sweep_contour(make_scenario(), [0.5], [-0.1], "weak", FAST)

    def test_parallel_jobs_match_serial(self):
        scenario = make_scenario()
        serial = sweep_prevalence(scenario, [0.3, 0.6], FAST, jobs=1)
        parallel = sweep_prevalence(scenario, [0.3, 0.6], FAST, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.selected == b.selected
            for family in a.outcomes:
                assert a.outcomes[family].best_design == b.outcomes[family].best_design
                assert (a.outcomes[family].result.expected_utility
                        == b.outcomes[family].result.expected_utility)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Worker counts asked of the process pool, replaced by a serial
    stand-in so that no test starts a pool of that size."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(optimizer, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestCellPool:
    TINY = GridConfig(n_grid=(50, 200), alpha_points=2, refine=False)

    def test_workers_capped_at_cell_count(self, pool_sizes):
        rows = sweep_prevalence(make_scenario(), [0.3, 0.6], self.TINY, jobs=MAX_JOBS)
        assert pool_sizes == [2]
        assert [r.lambda_S for r in rows] == [0.3, 0.6]
        sweep_contour(make_scenario(), [0.3, 0.6], [0.0, 0.3], "weak", self.TINY, jobs=3)
        assert pool_sizes == [2, 3]

    def test_single_cell_runs_serially(self, pool_sizes):
        sweep_prevalence(make_scenario(), [0.5], self.TINY, jobs=MAX_JOBS)
        sweep_contour(make_scenario(), [0.5], [0.3], "weak", self.TINY, jobs=8)
        assert pool_sizes == []

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, pool_sizes, jobs):
        with pytest.raises(ConfigError):
            sweep_prevalence(make_scenario(), [0.3, 0.6], self.TINY, jobs=jobs)
        assert pool_sizes == []


class TestNoTrialOutcome:
    def test_shape(self):
        outcome = no_trial_outcome()
        assert outcome.best_design == DesignSpec.no_trial()
        assert outcome.result.expected_utility == 0.0
        assert outcome.derived_alpha_F is None


class TestFibonacciMax:
    """The integer search against a brute-force max over every [lo, hi]
    with hi - lo <= 60 and every position of the peak: a strict peak, and
    a flat two-point top whose tie goes to the smaller n."""

    @staticmethod
    def shapes(peak, hi):
        yield lambda n: (-abs(n - peak), n)
        yield lambda n: (-3.0 * (peak - n) if n < peak else -0.5 * (n - peak), n)
        if peak < hi:
            yield lambda n: (-max(peak - n, n - peak - 1, 0), n)

    @pytest.mark.parametrize("lo", [0, 37])
    def test_matches_brute_force(self, lo):
        for hi in range(lo, lo + 61):
            for peak in range(lo, hi + 1):
                for score in self.shapes(peak, hi):
                    best = max(range(lo, hi + 1), key=lambda n: score(n)[0])
                    assert optimizer._fibonacci_max(score, lo, hi) == (best, score(best)), \
                        (lo, hi, peak)
