"""Expected-utility maximization per design family, overall design
selection against the no-trial baseline, and the prevalence / effect-size
sweep drivers.

Stage 1 scans a size-coarsening n grid (crossed with an alpha_S grid for
the stratified family), scoring blocks of consecutive sizes in one
batched evaluation each, with n on an array axis of the kernels. Before
each block it drops the sizes whose utility bound
(:func:`trialopt.utility._utility_bound`, which never increases in n)
lies more than ``_PRUNE_MARGIN`` below the best utility so far, and it
stops when none remain: a dropped size cannot win, so stage 1 ends on
the grid point the full scan finds. Stage 2 refines the best grid point:
a Fibonacci search (Kiefer 1953, Proc. AMS 4:502) over the integers
between its grid neighbours scores each probe n as one batched row over
a 9-point alpha_S bracket of +-one grid step (the probes are sequential,
so one row per call); the stratified family then narrows that bracket 4x
per round, scoring the best n and its two neighbours as one block, until
the utility varies by less than ``refine.tol`` across it. Refinement
keeps a point only when it beats the best so far, so it can only improve
on the grid.

A block holds at most ``_BLOCK_SETTINGS`` (atom, n, alpha_S) settings:
the kernels' temporaries grow with the block, and beyond a few default
stratified rows a bigger block gains little speed for much more peak
memory. A row longer than the cap is scored in pieces along alpha_S.
Every element is computed as it would be alone, so the block size never
shows in a result.

The sweep drivers share one decision map. ``sweep_prevalence`` and
``sweep_contour`` build every cell's Scenario in the parent and pass the
list to ``_decisions``, which applies ``decide`` to each in order,
serially or in a process pool of ``jobs`` workers; the parent then builds
the rows and cells from the decisions, so no result depends on ``jobs``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

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
from .testing import alpha_F_given_alpha_S
from .utility import (
    EvaluationResult,
    _ZERO_RESULT,
    _merged_atoms,
    _utility_bound,
    eu_prior_averaged,
    grid_row,
)

# Exact utility ties resolve towards the cheaper commitment.
_PREFERENCE = (NO_TRIAL, CLASSICAL, ENRICHMENT, STRATIFIED)

# alpha_S points per refinement row.
_BRACKET_POINTS = 9

# Most (atom, n, alpha_S) settings one kernel call scores: four rows of a
# default stratified grid (4 atoms x 21 alpha_S). The kernels' temporaries
# grow with the block. On the optimize benchmark, blocks of 2, 4 and 8
# default stratified rows gave 9.3, 9.7 and 9.8 decisions/s at an
# unchanged peak RSS; all 40 rows in one call gave 10.5/s but raised peak
# RSS from 66.8 to 74.0 MB (+11%).
_BLOCK_SETTINGS = 336

# Stage 1 skips a size once its utility bound lies this far (MUSD) below
# the best utility so far. The bound holds exactly in arithmetic, but
# rounding put it up to 9e-13 below a kernel value, and a size that ties
# or barely beats the best must still be scored.
_PRUNE_MARGIN = 1e-6

# Caps on the counts a configuration sets: every grid is built in full
# before the first kernel call, so an unbounded count only ever allocates
# its way to a hang. A grid.n_points count spans [n_min, 3000], which
# holds at most 3,000 distinct integer sizes. MAX_GRID_COUNT caps a
# 'lo:hi:count' specification's values and a contour's cells, whose
# scenarios are built in the parent before the first decision.
# MAX_JOBS caps the pool, which under the fork start method starts all
# its workers at the first task.
MAX_ALPHA_POINTS = 1001
MAX_N_POINTS = 3000
MAX_GRID_COUNT = 10_000
MAX_JOBS = 256


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
    """Search-resolution knobs, overridable through the config document.
    ``n_grid`` is stored ascending and without repeats, as refinement's
    grid neighbours and stage 1's skipped sizes assume."""

    n_grid: Tuple[int, ...] = default_n_grid()
    alpha_points: int = 21
    refine: bool = True
    refine_tol: float = 1e-6

    def __post_init__(self):
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must list positive sizes")
        object.__setattr__(self, "n_grid", tuple(sorted(set(self.n_grid))))
        if not 2 <= self.alpha_points <= MAX_ALPHA_POINTS:
            raise ValueError(f"alpha_points must lie in [2, {MAX_ALPHA_POINTS}]")
        if not 0.0 < self.refine_tol < math.inf:
            raise ValueError("refine.tol must be positive and finite")

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
                    if count > MAX_N_POINTS:
                        raise ValueError
                    grid = tuple(sorted({
                        int(round(x)) for x in np.geomspace(n_min, 3000, count)
                    }))
                kwargs["n_grid"] = grid
            except (ValueError, OverflowError):
                raise ConfigError(f"grid.n_points: bad value {raw!r} (a list of sizes, "
                                  f"or a count of at most {MAX_N_POINTS})") from None
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


def _outcome(design: DesignSpec, scenario: Scenario) -> OptimizationOutcome:
    """The design with its prior-averaged evaluation and, for a stratified
    design, the alpha_F its alpha_S leaves to the full-population test."""
    alpha_F = (alpha_F_given_alpha_S(design.alpha_S, scenario.lambda_S, scenario.alpha)
               if design.kind == STRATIFIED else None)
    return OptimizationOutcome(design, eu_prior_averaged(design, scenario), alpha_F)


def _grid_sizes(scenario: Scenario, config: GridConfig) -> list:
    """Stage-1 sizes: n_min, then every grid size above it."""
    return [scenario.n_min] + [n for n in config.n_grid if n > scenario.n_min]


def _block_shape(family: str, alphas: list, scenario: Scenario) -> tuple:
    """(sizes per block, alpha_S points per piece of a row) that keep a
    kernel call within _BLOCK_SETTINGS (atom, n, alpha_S) settings."""
    atoms = len(_merged_atoms(family, scenario))
    width = max(1, _BLOCK_SETTINGS // atoms)
    return max(1, _BLOCK_SETTINGS // (atoms * min(width, len(alphas)))), width


def _scored_rows(family: str, sizes: list, alphas: list, scenario: Scenario):
    """(n, expected utilities over ``alphas``) for every n in ``sizes``, in
    order. Consecutive sizes share one batched evaluation, up to
    _BLOCK_SETTINGS (atom, n, alpha_S) settings per call; a row longer
    than that is scored in pieces of its alpha_S axis and joined."""
    block, width = _block_shape(family, alphas, scenario)
    for start in range(0, len(sizes), block):
        chunk = sizes[start:start + block]
        n = np.array(chunk, dtype=float)
        yield from zip(chunk, np.concatenate(
            [grid_row(family, n, alphas[a:a + width], scenario)[0]
             for a in range(0, len(alphas), width)], axis=-1))


def _fibonacci_max(score, lo: int, hi: int):
    """(n, score(n)) for the integer n in [lo, hi] maximizing a score that
    is unimodal there, where a score is a tuple led by the value.

    Fibonacci search (Kiefer 1953) on [lo, lo + F_k] with F_k >= hi - lo:
    each step drops the side of the poorer of two probes and reuses the
    other probe; probes above hi score -inf, and ties keep the smaller n.
    """
    fib = [1, 1]
    while fib[-1] < hi - lo:
        fib.append(fib[-1] + fib[-2])
    k = len(fib) - 1
    scores = {}

    def f(n):
        if n > hi:
            return (-math.inf,)
        if n not in scores:
            scores[n] = score(n)
        return scores[n]

    a = lo
    while k > 2:
        left, right = a + fib[k - 2], a + fib[k - 1]
        if f(left)[0] < f(right)[0]:
            a = left
        k -= 1
    n = max(range(a, min(a + fib[k], hi) + 1), key=lambda m: f(m)[0])
    return n, f(n)


def _row_best(row, alphas):
    """(expected utility, alpha_S) of the first best point of one row of
    utilities over ``alphas``, and the spread of the row."""
    i = int(np.argmax(row))
    return float(row[i]), alphas[i], float(np.ptp(row))


def _bracket(center: float, half_width: float, alpha: float) -> list:
    """The alpha_S row of a refinement probe: center +- half_width,
    clipped to [0, alpha]."""
    return [float(a) for a in np.linspace(max(0.0, center - half_width),
                                          min(alpha, center + half_width),
                                          _BRACKET_POINTS)]


def _refine(family: str, scenario: Scenario, config: GridConfig, best: tuple) -> tuple:
    """Stage 2 from the best grid point ``best`` = (eu, n, alpha_S): the
    best (eu, n, alpha_S) found, which is ``best`` unless a point beats it."""
    _, grid_n, grid_alpha = best
    sizes = _grid_sizes(scenario, config)
    top = max(2 * max(config.n_grid), sizes[-1])
    i = sizes.index(grid_n)
    hi = sizes[i + 1] if i + 1 < len(sizes) else top
    step = scenario.alpha / (config.alpha_points - 1)
    alphas = _bracket(grid_alpha, step, scenario.alpha) if family == STRATIFIED else [None]
    n, (eu, alpha_S, _) = _fibonacci_max(
        lambda m: _row_best(grid_row(family, m, alphas, scenario)[0], alphas),
        sizes[max(i - 1, 0)], hi)
    best = max(best, (eu, n, alpha_S), key=lambda point: point[0])
    if family != STRATIFIED:
        return best

    # Narrow the alpha_S bracket 4x per round around the best point, at
    # its n and both neighbours (one block), until the utility varies by
    # less than refine_tol over the bracket at the centre n: a smooth
    # utility varies at least that much between the bracket's best point
    # and the optimum.
    half_width = step
    while True:
        half_width /= 4.0
        _, center_n, center_alpha = best
        alphas = _bracket(center_alpha, half_width, scenario.alpha)
        sizes = [n for n in (center_n - 1, center_n, center_n + 1)
                 if scenario.n_min <= n <= top]
        for n, row in _scored_rows(family, sizes, alphas, scenario):
            eu, alpha_S, row_spread = _row_best(row, alphas)
            best = max(best, (eu, n, alpha_S), key=lambda point: point[0])
            if n == center_n:
                spread = row_spread
        if spread < config.refine_tol:
            return best


def optimize_family(family: str, scenario: Scenario,
                    grid_config: Optional[GridConfig] = None) -> OptimizationOutcome:
    """Maximize prior-averaged expected utility within one design family."""
    if family not in TRIAL_KINDS:
        raise ValueError(f"family must be one of {TRIAL_KINDS}, got {family!r}")
    config = grid_config or GridConfig()

    alphas = ([float(a) for a in np.linspace(0.0, scenario.alpha, config.alpha_points)]
              if family == STRATIFIED else [None])
    best = (-math.inf, None, None)
    sizes = _grid_sizes(scenario, config)
    block, _ = _block_shape(family, alphas, scenario)
    while sizes:
        for n, row in _scored_rows(family, sizes[:block], alphas, scenario):
            eu, alpha_S, _ = _row_best(row, alphas)
            best = max(best, (eu, n, alpha_S), key=lambda point: point[0])
        sizes = sizes[block:]
        if sizes:
            bounds = _utility_bound(family, np.array(sizes, dtype=float), scenario)
            sizes = [n for n, bound in zip(sizes, bounds) if bound >= best[0] - _PRUNE_MARGIN]
    if config.refine:
        best = _refine(family, scenario, config, best)
    _, best_n, best_alpha = best
    return _outcome(DesignSpec(family, n=best_n, alpha_S=best_alpha), scenario)


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


def _decisions(scenarios: list, grid_config: Optional[GridConfig], jobs: int) -> list:
    """``decide`` on every scenario, in order: serially, or in a process
    pool with at most one worker per scenario and MAX_JOBS in all."""
    if not 1 <= jobs <= MAX_JOBS:
        raise ConfigError(f"jobs must lie in [1, {MAX_JOBS}], got {jobs}")
    decide_one = partial(decide, grid_config=grid_config)
    workers = min(jobs, len(scenarios))
    if workers <= 1:
        return list(map(decide_one, scenarios))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(decide_one, scenarios))


def sweep_prevalence(scenario_template: Scenario, lambda_grid: Sequence[float],
                     grid_config: Optional[GridConfig] = None,
                     jobs: int = 1) -> list:
    """Optimize every family at each prevalence (clamped to [0.05, 0.95])."""
    scenarios = [scenario_template.with_lambda(lam) for lam in _clamp_lambda(lambda_grid)]
    return [SweepRow(scenario.lambda_S, *decision) for scenario, decision
            in zip(scenarios, _decisions(scenarios, grid_config, jobs))]


def sweep_contour(scenario_template: Scenario, lambda_grid: Sequence[float],
                  delta_grid: Sequence[float], prior_kind: str,
                  grid_config: Optional[GridConfig] = None,
                  jobs: int = 1) -> list:
    """Selected-design matrix over (lambda_S, delta), rows indexed by delta;
    a negative delta is rejected by the prior it builds, and a grid of
    more than MAX_GRID_COUNT cells before any scenario is built."""
    lams = _clamp_lambda(lambda_grid)
    deltas = [float(d) for d in delta_grid]
    if len(lams) * len(deltas) > MAX_GRID_COUNT:
        raise ConfigError(f"a contour holds at most {MAX_GRID_COUNT} cells, "
                          f"got {len(lams)} x {len(deltas)}")
    points = [(delta, lam) for delta in deltas for lam in lams]
    scenarios = [scenario_template.with_lambda(lam).with_prior(
                     builtin_prior(prior_kind, delta)) for delta, lam in points]
    decisions = _decisions(scenarios, grid_config, jobs)
    cells = [ContourCell(lam, delta, selected, outcomes[selected].best_design.n,
                         outcomes[selected].expected_utility)
             for (delta, lam), (outcomes, selected) in zip(points, decisions)]
    width = len(lams)
    return [cells[i * width:(i + 1) * width] for i in range(len(deltas))]
