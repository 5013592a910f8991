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
from .utility import EvaluationResult, _ZERO_RESULT, prior_averaged, stratified_grid_row

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
    keep_trace: bool = False

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
    trace: Optional[Tuple[Tuple[Tuple[float, ...], float], ...]] = None

    @property
    def expected_utility(self) -> float:
        return self.result.expected_utility


def no_trial_outcome() -> OptimizationOutcome:
    return OptimizationOutcome(DesignSpec.no_trial(), _ZERO_RESULT)


def _grid_scores(family: str, scenario: Scenario, config: GridConfig):
    """Stage-1 grid points with their prior-averaged expected utilities,
    n-major and alpha_S-minor. Stratified rows are scored one n at a time
    in a single batched evaluation over the alpha_S grid."""
    ns = [scenario.n_min] + [n for n in config.n_grid if n > scenario.n_min]
    if family == STRATIFIED:
        alphas = [float(a) for a in np.linspace(0.0, scenario.alpha,
                                                config.alpha_points)]
        for n in ns:
            row = stratified_grid_row(n, alphas, scenario)[0]
            yield from (((n, a), float(eu)) for a, eu in zip(alphas, row))
    else:
        for n in ns:
            yield (n, None), prior_averaged(family, n, None, scenario).expected_utility


def optimize_family(family: str, scenario: Scenario,
                    grid_config: Optional[GridConfig] = None) -> OptimizationOutcome:
    """Maximize prior-averaged expected utility within one design family."""
    if family not in TRIAL_KINDS:
        raise ValueError(f"family must be one of {TRIAL_KINDS}, got {family!r}")
    config = grid_config or GridConfig()

    def objective(n: float, alpha_S: Optional[float]) -> float:
        return prior_averaged(family, n, alpha_S, scenario).expected_utility

    trace = [] if config.keep_trace else None
    best_n, best_alpha, best_eu = None, None, -math.inf
    for (n, alpha_S), eu in _grid_scores(family, scenario, config):
        if trace is not None:
            trace.append(((float(n),) if alpha_S is None else (float(n), alpha_S), eu))
        if eu > best_eu:
            best_n, best_alpha, best_eu = n, alpha_S, eu
    grid_eu = best_eu

    if config.refine:
        n_cap = 2.0 * max(config.n_grid)
        if family == STRATIFIED:
            x0 = np.array([float(best_n), best_alpha])
            bounds = [(float(scenario.n_min), n_cap), (0.0, scenario.alpha)]
            fun = lambda x: -objective(x[0], x[1])
        else:
            x0 = np.array([float(best_n)])
            bounds = [(float(scenario.n_min), n_cap)]
            fun = lambda x: -objective(x[0], None)
        res = minimize(fun, x0, method="Nelder-Mead", bounds=bounds,
                       options={"fatol": config.refine_tol, "xatol": 1e-3,
                                "maxiter": 400, "maxfev": 600})
        n_star = float(res.x[0])
        alpha_star = float(res.x[1]) if family == STRATIFIED else None
        for n_int in sorted({max(scenario.n_min, math.floor(n_star)),
                             max(scenario.n_min, math.ceil(n_star))}):
            eu = objective(n_int, alpha_star)
            if eu > best_eu:
                best_n, best_alpha, best_eu = n_int, alpha_star, eu

    if best_eu < grid_eu:
        raise NumericError(f"refinement lost to the grid: {best_eu!r} < {grid_eu!r}")
    design = (DesignSpec.stratified(best_n, best_alpha) if family == STRATIFIED
              else DesignSpec(family, n=best_n))
    result = prior_averaged(family, best_n, best_alpha, scenario)
    derived = (alpha_F_given_alpha_S(best_alpha, scenario.lambda_S, scenario.alpha)
               if family == STRATIFIED else None)
    return OptimizationOutcome(design, result, derived,
                               tuple(trace) if trace is not None else None)


def _select(outcomes: dict) -> str:
    """Pick the best candidate, breaking exact ties towards simplicity."""
    selected = NO_TRIAL
    best = 0.0
    for kind in _PREFERENCE[1:]:
        eu = outcomes[kind].expected_utility
        if eu > best:
            selected, best = kind, eu
    return selected


def select_design(scenario: Scenario,
                  grid_config: Optional[GridConfig] = None) -> OptimizationOutcome:
    """Best design overall, including the no-trial baseline at utility 0."""
    outcomes = {family: optimize_family(family, scenario, grid_config)
                for family in TRIAL_KINDS}
    selected = _select(outcomes)
    if selected == NO_TRIAL:
        return no_trial_outcome()
    return outcomes[selected]


@dataclass(frozen=True)
class SweepRow:
    """Per-prevalence optimization summary across all families."""

    lambda_S: float
    outcomes: dict
    selected: str

    @property
    def selected_outcome(self) -> OptimizationOutcome:
        if self.selected == NO_TRIAL:
            return no_trial_outcome()
        return self.outcomes[self.selected]


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


def _sweep_cell(args) -> SweepRow:
    scenario, grid_config = args
    outcomes = {family: optimize_family(family, scenario, grid_config)
                for family in TRIAL_KINDS}
    return SweepRow(scenario.lambda_S, outcomes, _select(outcomes))


def sweep_prevalence(scenario_template: Scenario, lambda_grid: Sequence[float],
                     grid_config: Optional[GridConfig] = None,
                     jobs: int = 1) -> list:
    """Optimize every family at each prevalence (clamped to [0.05, 0.95])."""
    tasks = [(scenario_template.with_lambda(lam), grid_config)
             for lam in _clamp_lambda(lambda_grid)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_cell, tasks))
    return [_sweep_cell(t) for t in tasks]


def _contour_cell(args) -> ContourCell:
    scenario, delta, prior_kind, grid_config = args
    scenario = scenario.with_prior(builtin_prior(prior_kind, delta))
    outcomes = {family: optimize_family(family, scenario, grid_config)
                for family in TRIAL_KINDS}
    selected = _select(outcomes)
    if selected == NO_TRIAL:
        return ContourCell(scenario.lambda_S, delta, NO_TRIAL, None, 0.0)
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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_contour_cell, tasks))
    else:
        cells = [_contour_cell(t) for t in tasks]
    width = len(lams)
    return [cells[i * width:(i + 1) * width] for i in range(len(deltas))]
