"""Expected-utility maximization per design family, overall design
selection against the no-trial baseline, and the prevalence / effect-size
sweep drivers.

Stage 1 scans a size-coarsening n grid (crossed with an alpha_S grid for
the stratified family); stage 2 refines the best grid point with a
Nelder-Mead simplex on continuous parameters and rounds n by evaluating
the neighboring integers. Refinement can only improve on the grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .model import (
    CLASSICAL,
    ENRICHMENT,
    NO_TRIAL,
    STRATIFIED,
    SWEEP_LAMBDA_RANGE,
    TRIAL_KINDS,
    ConfigError,
    DesignSpec,
    Scenario,
    builtin_prior,
)
from .numerics import NumericError
from .testing import alpha_F_given_alpha_S
from .utility import EvaluationResult, _ZERO_RESULT, grid_row, prior_averaged

# Exact utility ties resolve towards the cheaper commitment.
_PREFERENCE = (NO_TRIAL, CLASSICAL, ENRICHMENT, STRATIFIED)


def default_n_grid() -> Tuple[int, ...]:
    """Candidate per-group sizes, coarsening as n grows."""
    return tuple(
        list(range(50, 101, 10))
        + list(range(120, 301, 20))
        + list(range(350, 1001, 50))
        + list(range(1200, 3001, 200))
    )


@dataclass(frozen=True)
class GridConfig:
    """Search-resolution knobs, overridable through the config document."""

    n_grid: Tuple[int, ...] = default_n_grid()
    alpha_points: int = 21
    refine: bool = True
    refine_tol: float = 1e-6

    def __post_init__(self):
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must list positive sizes")
        if self.alpha_points < 2:
            raise ValueError("alpha_points must be >= 2")
        if self.refine_tol <= 0.0:
            raise ValueError("refine.tol must be positive")

    @classmethod
    def consume_mapping(cls, mapping: dict, n_min: int = 50) -> "GridConfig":
        """Pop grid.*/refine.* keys out of a parsed config mapping."""
        kwargs = {}
        if "grid.n_points" in mapping:
            raw = mapping.pop("grid.n_points")
            try:
                if "," in raw:
                    grid = tuple(int(float(p)) for p in raw.split(",") if p.strip())
                else:
                    count = int(raw)
                    grid = tuple(sorted({
                        int(round(x)) for x in np.geomspace(n_min, 3000, count)
                    }))
                kwargs["n_grid"] = grid
            except ValueError:
                raise ConfigError(f"grid.n_points: bad value {raw!r}") from None
        if "grid.alpha_points" in mapping:
            raw = mapping.pop("grid.alpha_points")
            try:
                kwargs["alpha_points"] = int(raw)
            except ValueError:
                raise ConfigError(f"grid.alpha_points: bad value {raw!r}") from None
        if "refine.enabled" in mapping:
            raw = mapping.pop("refine.enabled").lower()
            if raw not in ("true", "false"):
                raise ConfigError("refine.enabled must be true or false")
            kwargs["refine"] = raw == "true"
        if "refine.tol" in mapping:
            raw = mapping.pop("refine.tol")
            try:
                kwargs["refine_tol"] = float(raw)
            except ValueError:
                raise ConfigError(f"refine.tol: bad value {raw!r}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class OptimizationOutcome:
    """Best design found for one family (or the no-trial baseline)."""

    best_design: DesignSpec
    result: EvaluationResult
    derived_alpha_F: Optional[float] = None

    @property
    def expected_utility(self) -> float:
        return self.result.expected_utility


def no_trial_outcome() -> OptimizationOutcome:
    return OptimizationOutcome(DesignSpec.no_trial(), _ZERO_RESULT)


def _grid_scores(family: str, scenario: Scenario, config: GridConfig):
    """Stage-1 grid points with their prior-averaged expected utilities,
    n-major and alpha_S-minor. Each n row is scored in a single batched
    evaluation over the alpha_S grid (``[None]`` for the one-test
    families)."""
    ns = [scenario.n_min] + [n for n in config.n_grid if n > scenario.n_min]
    alphas = ([float(a) for a in np.linspace(0.0, scenario.alpha, config.alpha_points)]
              if family == STRATIFIED else [None])
    for n in ns:
        row = grid_row(family, n, alphas, scenario)[0]
        yield from (((n, a), float(eu)) for a, eu in zip(alphas, row))


def optimize_family(family: str, scenario: Scenario,
                    grid_config: Optional[GridConfig] = None) -> OptimizationOutcome:
    """Maximize prior-averaged expected utility within one design family."""
    if family not in TRIAL_KINDS:
        raise ValueError(f"family must be one of {TRIAL_KINDS}, got {family!r}")
    config = grid_config or GridConfig()

    def objective(n: float, alpha_S: Optional[float] = None) -> float:
        return prior_averaged(family, n, alpha_S, scenario).expected_utility

    best_n, best_alpha, best_eu = None, None, -math.inf
    for (n, alpha_S), eu in _grid_scores(family, scenario, config):
        if eu > best_eu:
            best_n, best_alpha, best_eu = n, alpha_S, eu
    grid_eu = best_eu

    if config.refine:
        # Nelder-Mead over n, and over alpha_S too where the grid has one.
        x0 = [float(best_n)] if best_alpha is None else [float(best_n), best_alpha]
        bounds = [(float(scenario.n_min), 2.0 * max(config.n_grid)), (0.0, scenario.alpha)]
        res = minimize(lambda x: -objective(*x), np.array(x0), method="Nelder-Mead",
                       bounds=bounds[:len(x0)],
                       options={"fatol": config.refine_tol, "xatol": 1e-3,
                                "maxiter": 400, "maxfev": 600})
        n_star = float(res.x[0])
        alpha_star = None if best_alpha is None else float(res.x[1])
        for n_int in sorted({max(scenario.n_min, math.floor(n_star)),
                             max(scenario.n_min, math.ceil(n_star))}):
            eu = objective(n_int, alpha_star)
            if eu > best_eu:
                best_n, best_alpha, best_eu = n_int, alpha_star, eu

    if best_eu < grid_eu:
        raise NumericError(f"refinement lost to the grid: {best_eu!r} < {grid_eu!r}")
    design = DesignSpec(family, n=best_n, alpha_S=best_alpha)
    result = prior_averaged(family, best_n, best_alpha, scenario)
    derived = (alpha_F_given_alpha_S(best_alpha, scenario.lambda_S, scenario.alpha)
               if family == STRATIFIED else None)
    return OptimizationOutcome(design, result, derived)


def _select(outcomes: dict) -> str:
    """Kind of the best outcome; max keeps the first of tied kinds."""
    return max(_PREFERENCE, key=lambda kind: outcomes[kind].expected_utility)


def decide(scenario: Scenario,
           grid_config: Optional[GridConfig] = None) -> Tuple[dict, str]:
    """The design decision: the optimal outcome of every family, keyed by
    kind in the order no trial (utility 0), then TRIAL_KINDS, and the kind
    selected among them."""
    outcomes = {NO_TRIAL: no_trial_outcome()}
    for family in TRIAL_KINDS:
        outcomes[family] = optimize_family(family, scenario, grid_config)
    return outcomes, _select(outcomes)


def select_design(scenario: Scenario,
                  grid_config: Optional[GridConfig] = None) -> OptimizationOutcome:
    """Best design overall, including the no-trial baseline at utility 0."""
    outcomes, selected = decide(scenario, grid_config)
    return outcomes[selected]


@dataclass(frozen=True)
class SweepRow:
    """Per-prevalence decision: every family's optimum (no trial included)
    and the selected kind."""

    lambda_S: float
    outcomes: dict
    selected: str


@dataclass(frozen=True)
class ContourCell:
    """Selected design for one (prevalence, effect size) combination."""

    lambda_S: float
    delta: float
    selected: str
    n_opt: Optional[int]
    expected_utility: float


def _clamp_lambda(values) -> list:
    lo, hi = SWEEP_LAMBDA_RANGE
    return [float(min(hi, max(lo, v))) for v in values]


def _map_cells(cell, tasks: list, jobs: int) -> list:
    """``cell`` applied to every task in order: serially, or in a process
    pool with at most one worker per task."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [cell(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(cell, tasks))


def _sweep_cell(args) -> SweepRow:
    scenario, grid_config = args
    return SweepRow(scenario.lambda_S, *decide(scenario, grid_config))


def sweep_prevalence(scenario_template: Scenario, lambda_grid: Sequence[float],
                     grid_config: Optional[GridConfig] = None,
                     jobs: int = 1) -> list:
    """Optimize every family at each prevalence (clamped to [0.05, 0.95])."""
    tasks = [(scenario_template.with_lambda(lam), grid_config)
             for lam in _clamp_lambda(lambda_grid)]
    return _map_cells(_sweep_cell, tasks, jobs)


def _contour_cell(args) -> ContourCell:
    scenario, delta, prior_kind, grid_config = args
    scenario = scenario.with_prior(builtin_prior(prior_kind, delta))
    outcomes, selected = decide(scenario, grid_config)
    best = outcomes[selected]
    return ContourCell(scenario.lambda_S, delta, selected,
                       best.best_design.n, best.expected_utility)


def sweep_contour(scenario_template: Scenario, lambda_grid: Sequence[float],
                  delta_grid: Sequence[float], prior_kind: str,
                  grid_config: Optional[GridConfig] = None,
                  jobs: int = 1) -> list:
    """Selected-design matrix over (lambda_S, delta), rows indexed by delta."""
    lams = _clamp_lambda(lambda_grid)
    deltas = [float(d) for d in delta_grid]
    if any(d < 0.0 for d in deltas):
        raise ValueError("effect-size grid must be nonnegative")
    tasks = [(scenario_template.with_lambda(lam), delta, prior_kind, grid_config)
             for delta in deltas for lam in lams]
    cells = _map_cells(_contour_cell, tasks, jobs)
    width = len(lams)
    return [cells[i * width:(i + 1) * width] for i in range(len(deltas))]
