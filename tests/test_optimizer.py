import concurrent.futures
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from trialopt import optimizer, utility
from trialopt.model import DesignSpec, DiscretePrior, EffectPair
from trialopt.numerics import NumericError
from trialopt.optimizer import (
    MAX_JOBS,
    ContourCell,
    GridConfig,
    SweepRow,
    _outcome,
    decide,
    default_n_grid,
    optimize_family,
    select_design,
    sweep_contour,
    sweep_prevalence,
)
from trialopt.utility import eu_prior_averaged, grid_row
from conftest import CASE1, CASE3, make_scenario, one_atom, with_rewards

# Coarse grid keeps optimizer tests quick; refinement recovers precision.
FAST = GridConfig(
    n_grid=(50, 65, 85, 110, 145, 190, 250, 330, 430, 560, 730, 950,
            1250, 1600, 2100, 2700),
    alpha_points=11,
)


class TestGridConfig:
    def test_default_grid_shape(self):
        grid = default_n_grid()
        assert grid[0] == 50 and grid[-1] == 3000
        assert len(grid) == 40

    def test_consume_mapping_list(self):
        mapping = {"grid.n_points": "50,100,200", "grid.alpha_points": "5"}
        config = GridConfig.consume_mapping(mapping)
        assert config.n_grid == (50, 100, 200)
        assert config.alpha_points == 5
        assert not mapping

    def test_sizes_stored_sorted_without_repeats(self):
        assert GridConfig(n_grid=(400, 100, 200, 100)).n_grid == (100, 200, 400)
        config = GridConfig.consume_mapping({"grid.n_points": "300,50,300,120"})
        assert config.n_grid == (50, 120, 300)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="grid.n_points: bad value"):
            GridConfig.consume_mapping({"grid.n_points": "x"})


class TestOptimizeFamily:
    def test_zero_rewards_pick_minimal_n(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        for family in ("classical", "stratified", "enrichment"):
            outcome = optimize_family(family, scenario, FAST)
            assert outcome.best_design.n == scenario.n_min

    @pytest.mark.parametrize("family", ["classical", "stratified", "enrichment"])
    def test_no_finite_utility_is_numeric_error(self, monkeypatch, family):
        # a kernel that scores only NaN leaves stage 1 with no point to refine
        def nan_rows(family, sizes, alphas, scenario):
            yield sizes, np.full((7, len(sizes), len(alphas)), np.nan)

        monkeypatch.setattr(optimizer, "_scored_rows", nan_rows)
        with pytest.raises(NumericError, match=f"^{family}: no grid point has a finite"):
            optimize_family(family, make_scenario(), FAST)

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
        grid_eu, *_ = optimizer._grid_best("stratified", scenario, FAST)
        refined = optimize_family("stratified", scenario, FAST)
        assert refined.expected_utility >= grid_eu

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
        assert outcome.expected_utility >= eus.max() - optimizer._REFINE_TOL

    def test_enrichment_public_n_increases_with_prevalence(self):
        ns = []
        for lam in (0.2, 0.4, 0.6, 0.8):
            scenario = make_scenario(lambda_S=lam, perspective="public")
            ns.append(optimize_family("enrichment", scenario, FAST).best_design.n)
        assert all(b >= a for a, b in zip(ns, ns[1:]))

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

    @pytest.mark.parametrize("settings", [84, 10 ** 6])
    def test_block_cap_never_shows_in_outcomes(self, monkeypatch, settings):
        # One default stratified row per call, and every stage-1 grid in
        # one call, find every family's stage-1 point and outcome as the
        # default cap does.
        def outcomes():
            return [(grid_point(family, scenario), repr(optimize_family(family, scenario)))
                    for scenario in _mixed_scenarios()
                    for family in ("classical", "stratified", "enrichment")]

        want = outcomes()
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", settings)
        assert outcomes() == want

    def test_stage_one_scores_blocks_of_sizes(self, record_calls):
        calls = record_calls(utility, "_stratified_fields", lambda atoms, n, alpha_S, scenario:
                             (np.atleast_1d(n).tolist(), len(alpha_S)))
        scenario = make_scenario()
        optimize_family("stratified", scenario)
        # Stage-1 rows span the 21-point alpha_S grid, refinement rows a
        # 9-point bracket.
        blocks = [n for n, points in calls if points == 21]
        assert len(blocks) <= 10
        assert any(len(n) == 3 and points == 9 for n, points in calls)
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

    def test_long_alpha_rows_split_at_the_cap(self, monkeypatch, record_calls):
        # 4 atoms x 201 alpha_S points is more than the cap in one row: the
        # row is scored in pieces and decides as one call over it would.
        scenario, config = make_scenario(), replace(FAST, alpha_points=201)
        cap = optimizer._BLOCK_SETTINGS
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", 10 ** 9)
        whole = optimize_family("stratified", scenario, config)
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", cap)
        settings = record_calls(utility, "_stratified_fields", lambda atoms, n, alpha_S, scenario:
                                len(atoms) * np.size(n) * len(alpha_S))
        split = optimize_family("stratified", scenario, config)
        assert max(settings) <= cap
        assert ((split.best_design.n, split.best_design.alpha_S, split.expected_utility)
                == (whole.best_design.n, whole.best_design.alpha_S, whole.expected_utility))


def _row_best(n, fields, alphas):
    """The per-row pick the block-wide one replaced: the first best point
    (eu, n, alpha_S, fields) of one row's fields over ``alphas``."""
    i = int(np.argmax(fields[0]))
    return float(fields[0, i]), n, alphas[i], fields[:, i]


def _point_repr(point):
    eu, n, alpha_S, fields = point
    return repr((eu, n, alpha_S, None if fields is None else fields.tolist()))


class TestBlockPick:
    # One argmax per scored block picks what the per-row argmax and a
    # strict > across rows picked: the first best alpha_S of each row (a
    # NaN, where the row holds one, which never wins) and the earliest of
    # tied rows.
    @staticmethod
    def random_block(rng, rows, width):
        fields = rng.integers(-2, 3, (7, rows, width)).astype(float)
        fields[0][rng.random((rows, width)) < 0.08] = np.nan
        fields[0][rng.random((rows, width)) < 0.05] = -np.inf
        return fields

    @pytest.mark.parametrize("seed", range(12))
    def test_row_points_equal_row_best(self, seed):
        rng = np.random.default_rng(seed)
        rows, width = int(rng.integers(1, 7)), int(rng.integers(1, 12))
        chunk = [int(n) for n in rng.choice(np.arange(50, 3000), rows, replace=False)]
        alphas = [float(a) for a in rng.random(width)]
        fields = self.random_block(rng, rows, width)
        got = optimizer._row_points(chunk, fields, alphas)
        want = [_row_best(n, fields[:, r], alphas) for r, n in enumerate(chunk)]
        assert list(map(_point_repr, got)) == list(map(_point_repr, want))

    @pytest.mark.parametrize("seed", range(12))
    def test_stage_one_pick_equals_row_by_row(self, monkeypatch, seed):
        # every size scored (no pruning) in blocks of three rows of random
        # fields with exact ties, NaN and -inf
        rng = np.random.default_rng(seed)
        blocks = []

        def random_rows(family, sizes, alphas, scenario):
            fields = self.random_block(rng, len(sizes), len(alphas))
            blocks.append((list(sizes), fields, alphas))
            yield list(sizes), fields

        monkeypatch.setattr(optimizer, "_scored_rows", random_rows)
        monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", 4 * 5 * 3)
        monkeypatch.setattr(optimizer, "_utility_bound",
                            lambda kind, n, scenario: np.full(np.shape(n), math.inf))
        got = optimizer._grid_best("stratified", make_scenario(), replace(FAST, alpha_points=5))
        want = (-math.inf, None, None, None)
        for chunk, fields, alphas in blocks:
            for r, n in enumerate(chunk):
                want = max(want, _row_best(n, fields[:, r], alphas), key=lambda point: point[0])
        assert [len(chunk) for chunk, _, _ in blocks] == [3] * 5 + [1]
        assert want[1] is not None
        assert _point_repr(got) == _point_repr(want)


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


def grid_point(family, scenario):
    """The stage-1 point (eu, n, alpha_S, fields) of the default grid,
    its fields as a list."""
    eu, n, alpha_S, fields = optimizer._grid_best(family, scenario, GridConfig())
    return eu, n, alpha_S, fields.tolist()


def _mixed_scenarios():
    """The lambda_S = 0.95 public scenario whose winning stage-1 row has
    two alpha_S peaks (n = 200, indices 10 and 19), a delta = 0 contour
    cell, zero rewards, and a spread of prevalences, perspectives, market
    cases and priors."""
    return [
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

    def test_pruned_decisions_equal_full_scan(self, monkeypatch, record_calls):
        # Skipping the sizes that cannot win changes no decision, so
        # refinement starts from the same grid point. In the last case
        # patients are so cheap that a public one-atom bound lies within
        # 1e-3 MUSD of the utility, and with one size per block stage 1
        # finds n = 300, 280 and 400 (classical, enrichment, stratified)
        # only if no size near the best is skipped.
        cheap = make_scenario(perspective="public", case=CASE1)
        cheap = replace(cheap, costs=replace(cheap.costs, per_patient=1e-5))
        cases = [(scenario, optimizer._BLOCK_SETTINGS) for scenario in _mixed_scenarios()]
        cases.append((one_atom(cheap, EffectPair(0.6, 0.6)), 1))

        def decisions():
            for scenario, settings in cases:
                monkeypatch.setattr(optimizer, "_BLOCK_SETTINGS", settings)
                yield repr(optimizer.decide(scenario))

        scored = record_calls(optimizer, "_scored_rows",
                              lambda family, sizes, alphas, scenario: len(sizes))
        pruned = list(decisions())
        pruned_rows = sum(scored)
        scored.clear()
        monkeypatch.setattr(optimizer, "_utility_bound",
                            lambda kind, n, scenario: np.full(np.shape(n), math.inf))
        assert list(decisions()) == pruned
        assert pruned_rows < sum(scored)


class TestKernelCalls:
    # Stage 1 scores twelve default stratified rows per call, refinement
    # scores four section-search probes per call and the last window of
    # at most nine sizes in one call, and a family's outcome keeps the
    # evaluation its search scored.
    @pytest.mark.parametrize("perspective,most", [("sponsor", 17), ("public", 18)])
    def test_decide_kernel_calls(self, record_calls, perspective, most):
        # One probe per call and a second evaluation of every family's
        # winner took 37 (sponsor) and 41 (public) calls; two-step probes
        # with four stratified rows per stage-1 call took 22 and 24, and
        # a Fibonacci search with two steps per call 17 and 19.
        calls = record_calls((utility, optimizer), "grid_row")
        optimizer.decide(make_scenario(perspective=perspective))
        assert len(calls) <= most

    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    def test_stage_one_stratified_calls(self, record_calls, perspective):
        # Four default rows per call took 4 (sponsor) and 5 (public).
        calls = record_calls((utility, optimizer), "grid_row")
        optimizer._grid_best("stratified", make_scenario(perspective=perspective),
                             GridConfig())
        assert len(calls) <= 2

    def test_outcome_probabilities_clamped(self, monkeypatch):
        # Probabilities that round to just outside [0, 1] at the winner
        # read 0 and 1, as eu_prior_averaged clamps them.
        kernel = grid_row

        def rounded(*args):
            fields = kernel(*args)
            fields[1] = -1e-12
            fields[3] = 1.0 + 1e-12
            return fields

        monkeypatch.setattr(optimizer, "grid_row", rounded)
        for family in ("classical", "stratified", "enrichment"):
            result = optimize_family(family, make_scenario()).result
            assert (result.prob_reject_S_only, result.power_any) == (0.0, 1.0), family

    def test_outcome_is_the_design_evaluation(self):
        # Both the stage-1 winner's fields and the outcome's evaluation
        # equal the point evaluation of their design.
        for scenario in _mixed_scenarios():
            for family in ("classical", "stratified", "enrichment"):
                _, n, alpha_S, fields = optimizer._grid_best(family, scenario, GridConfig())
                assert (utility.result_from_fields(fields) == eu_prior_averaged(
                    DesignSpec(family, n=n, alpha_S=alpha_S), scenario)), (family, scenario)
                outcome = optimize_family(family, scenario)
                assert outcome.result == eu_prior_averaged(outcome.best_design, scenario), \
                    (family, scenario)


class TestSizeFloor:
    # The kernels take every size as given: the floor n >= n_min holds
    # because DesignSpec.check_against guards each design and the search
    # only builds sizes from n_min up, to at most twice the largest grid size.
    @pytest.mark.parametrize("grid", [GridConfig(), GridConfig(n_grid=(50, 100, 200, 400, 800),
                                                               alpha_points=5)],
                             ids=["default", "five-sizes"])
    @pytest.mark.parametrize("perspective", ["sponsor", "public"])
    @pytest.mark.parametrize("n_min", [75, 333])
    def test_every_scored_size_within_the_search_range(self, record_calls, grid,
                                                       perspective, n_min):
        calls = record_calls((utility, optimizer), "grid_row",
                             lambda kind, n, alphas, scenario: np.ravel(n))
        decide(make_scenario(perspective=perspective, n_min=n_min), grid)
        scored = np.concatenate(calls)
        assert min(scored) == n_min
        assert max(scored) <= 2 * max(grid.n_grid)


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
        _, n, alpha_S, _ = optimizer._grid_best("stratified", scenario, GridConfig())
        assert (n, alpha_S) == (200, alphas[19])

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
        matrix = sweep_contour(scenario, [0.5], [0.3], FAST)
        assert len(matrix) == 1 and len(matrix[0]) == 1
        cell = matrix[0][0]
        assert isinstance(cell, ContourCell)
        direct = select_design(scenario.with_lambda(0.5), FAST)
        assert cell.selected == direct.best_design.kind

    def test_contour_zero_rewards_cell_is_no_trial(self):
        scenario = with_rewards(make_scenario(), NrS=0.0, NrF=0.0)
        cell = sweep_contour(scenario, [0.5], [0.3], FAST)[0][0]
        assert cell.selected == "no_trial"
        assert cell.n_opt is None
        assert cell.expected_utility == 0.0

    def test_contour_rebuilds_the_template_prior_kind(self):
        # the cell's prior is the template's kind at the cell's delta, here
        # one where the weak prior gives another optimum
        cell = sweep_contour(make_scenario(perspective="public", prior_kind="strong"),
                             [0.5], [0.6], FAST)[0][0]
        outcomes, selected = decide(make_scenario(lambda_S=0.5, perspective="public",
                                                  prior_kind="strong", delta=0.6), FAST)
        best = outcomes[selected]
        assert ((cell.selected, cell.n_opt, cell.expected_utility)
                == (selected, best.best_design.n, best.expected_utility))
        weak = sweep_contour(make_scenario(perspective="public"), [0.5], [0.6], FAST)[0][0]
        assert weak.n_opt != cell.n_opt

    def test_contour_requires_a_prior_kind(self):
        template = make_scenario()
        template = template.with_prior(DiscretePrior(template.prior.atoms))
        with pytest.raises(ValueError, match="prior.kind"):
            sweep_contour(template, [0.5], [0.3], FAST)

    def test_contour_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            sweep_contour(make_scenario(), [0.5], [-0.1], FAST)


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

    # the optimizer imports the pool class where it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


class TestCellPool:
    TINY = GridConfig(n_grid=(50, 200), alpha_points=2)

    def test_workers_capped_at_cell_count(self, pool_sizes):
        rows = sweep_prevalence(make_scenario(), [0.3, 0.6], self.TINY, jobs=MAX_JOBS)
        assert pool_sizes == [2]
        assert [r.lambda_S for r in rows] == [0.3, 0.6]
        sweep_contour(make_scenario(), [0.3, 0.6], [0.0, 0.3], self.TINY, jobs=3)
        assert pool_sizes == [2, 3]

    def test_single_cell_runs_serially(self, pool_sizes):
        sweep_prevalence(make_scenario(), [0.5], self.TINY, jobs=MAX_JOBS)
        sweep_contour(make_scenario(), [0.5], [0.3], self.TINY, jobs=8)
        assert pool_sizes == []

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, pool_sizes, jobs):
        with pytest.raises(ValueError, match="jobs must lie in"):
            sweep_prevalence(make_scenario(), [0.3, 0.6], self.TINY, jobs=jobs)
        assert pool_sizes == []

    # Sizes, alpha_S points and workers are counts, checked as SimConfig
    # checks its replicates, before any search or pool starts.
    @pytest.mark.parametrize("grid, jobs", [
        (dict(n_grid=(60.0, 100.0)), 1),
        (dict(n_grid=(50.5, 100, 200)), 1),
        (dict(n_grid=(math.nan, 100)), 1),
        (dict(n_grid=(100, math.inf)), 1),
        (dict(alpha_points=5.0), 1),
        ({}, 2.0),
        ({}, True),
    ], ids=["float-size", "fractional-size", "nan-size", "inf-size", "float-alpha-points",
            "float-jobs", "bool-jobs"])
    def test_counts_must_be_integers(self, pool_sizes, grid, jobs):
        with pytest.raises(ValueError, match="integer"):
            config = GridConfig(**{"n_grid": (50, 200), "alpha_points": 2, **grid})
            sweep_prevalence(make_scenario(), [0.3, 0.6], config, jobs=jobs)
        assert pool_sizes == []


class TestNoTrialOutcome:
    def test_shape(self):
        outcome = _outcome(DesignSpec.no_trial(), make_scenario())
        assert outcome.best_design == DesignSpec.no_trial()
        assert outcome.result.expected_utility == 0.0
        assert outcome.derived_alpha_F is None


class TestSectionMax:
    """The integer search against a brute-force max: every [lo, hi] with
    hi - lo <= 60 and every position of the peak, for a strict peak and a
    flat two-point top whose tie goes to the smaller n, and unimodal
    integer scores on windows as wide as the default grid's top window.
    The search scores its probes in batches: no size twice, each batch
    inside [lo, hi], at most 4 sizes in every batch but the last, which
    holds at most 9, and no more batches than the window's width allows."""

    @staticmethod
    def shapes(peak, hi):
        yield lambda n: (-abs(n - peak), n)
        yield lambda n: (-3.0 * (peak - n) if n < peak else -0.5 * (n - peak), n)
        if peak < hi:
            yield lambda n: (-max(peak - n, n - peak - 1, 0), n)

    @staticmethod
    def most_calls(width):
        """Calls on a window hi - lo = ``width``: each call before the last
        leaves the two fifths, rounded up, around its best probe."""
        return 1 if width < 9 else 1 + TestSectionMax.most_calls(-(-2 * width // 5))

    def check(self, shape, lo, hi):
        batches = []

        def score(ns):
            batches.append(list(ns))
            return [shape(n) for n in ns]

        best = max(range(lo, hi + 1), key=lambda n: shape(n)[0])
        assert optimizer._section_max(score, lo, hi) == (best, shape(best))
        scored = [n for batch in batches for n in batch]
        assert len(scored) == len(set(scored))
        assert all(lo <= n <= hi for n in scored)
        *wide, last = batches
        assert all(1 <= len(batch) <= 4 for batch in wide)
        assert 1 <= len(last) <= 9
        assert len(batches) <= self.most_calls(hi - lo)

    @pytest.mark.parametrize("lo", [0, 37])
    def test_matches_brute_force(self, lo):
        for hi in range(lo, lo + 61):
            for peak in range(lo, hi + 1):
                for shape in self.shapes(peak, hi):
                    self.check(shape, lo, hi)

    def test_wide_unimodal_windows_match_brute_force(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @hypothesis.settings(derandomize=True, database=None, deadline=None,
                             max_examples=150, print_blob=True)
        @hypothesis.given(lo=st.integers(0, 3000), width=st.integers(0, 6000),
                          peak=st.floats(0.0, 1.0), top=st.integers(0, 3),
                          rise=st.integers(1, 9), fall=st.integers(1, 9),
                          powers=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
        def run(lo, width, peak, top, rise, fall, powers):
            hi = lo + width
            start = lo + round(peak * width)
            self.check(lambda n: (-rise * max(start - n, 0) ** powers[0]
                                  - fall * max(n - start - top, 0) ** powers[1], n), lo, hi)

        run()
