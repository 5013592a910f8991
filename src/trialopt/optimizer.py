"""Expected-utility maximization per design family, overall design
selection against the no-trial baseline, and the prevalence / effect-size
sweep drivers.

Every search is stage 1 (:func:`_grid_best`), then stage 2 (:func:`_refine`).
Stage 1 scans a size-coarsening n grid (crossed with an alpha_S grid for
the stratified family), scoring blocks of consecutive sizes in one
batched evaluation each, with n on an array axis of the kernels. Before
each block it drops the sizes whose utility bound
(:func:`trialopt.utility._utility_bound`, which never increases in n)
lies more than ``_PRUNE_MARGIN`` below the best utility so far, and it
stops when none remain: a dropped size cannot win, so stage 1 ends on
the grid point the full scan finds. Stage 2 refines the best grid point:
a section search over the integers between its grid neighbours scores
each probe n as one row over a 9-point alpha_S bracket of +-one grid
step, ``_PROBES`` sizes per block, and shrinks the window to the sizes on
either side of the best one, until a window of at most ``_LAST_WINDOW``
sizes is left, which one block scores whole; the stratified family then
narrows that bracket 4x per round, scoring the best n and its two
neighbours as one block, until the utility varies by less than
``_REFINE_TOL`` (1e-6 MUSD) across it.
Refinement keeps a point only when it beats the best so far, so it can
only improve on the grid. Every point carries the seven fields its block
scored, and the family's outcome is built from the winner's, so no
design is evaluated twice.

A block holds at most max(``_BLOCK_SETTINGS``, merged atoms) (atom, n,
alpha_S) settings, since a call scores all the family's merged atoms:
twelve default stratified rows, so a default stratified stage 1 mostly
takes two calls. The cap keeps pruning at work, since only the sizes of
a block after the first can be skipped, and it bounds the kernels'
temporaries, which grow with the block. A row longer than the cap is
scored in pieces along alpha_S. Every element is computed as it would be
alone, so the block size never shows in a result.

The sweep drivers share one decision map. ``sweep_prevalence`` and
``sweep_contour`` build every cell's Scenario in the parent and pass the
list to ``_decisions``, which applies ``decide`` to each in order,
serially or in a process pool of ``jobs`` workers; the parent then builds
the rows and cells from the decisions, so no result depends on ``jobs``.
"""

from __future__ import annotations

import math
import warnings
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
    DesignSpec,
    Scenario,
    builtin_prior,
    is_integer,
    parse_integral,
)
from .numerics import NumericError
from .testing import alpha_F_given_alpha_S
from .utility import (
    EvaluationResult,
    _merged_atoms,
    _utility_bound,
    eu_prior_averaged,
    grid_row,
    result_from_fields,
)

# Exact utility ties resolve towards the cheaper commitment.
_PREFERENCE = (NO_TRIAL, CLASSICAL, ENRICHMENT, STRATIFIED)

# alpha_S points per refinement row.
_BRACKET_POINTS = 9

# Sizes each call of the refinement's section search probes, at the fifths
# of its window, which it then shrinks to about two fifths of its width.
_PROBES = 4

# A window of at most this many sizes is scored whole by the search's last
# call: probing it once more would still leave a window for another call.
_LAST_WINDOW = 2 * _PROBES + 1

# Most (atom, n, alpha_S) settings one kernel call scores, unless the
# family has more merged atoms (a call scores them all): twelve rows of a
# default stratified grid (4 atoms x 21 alpha_S). Stage 1 scores the rows
# whose utility bound clears the best so far, 19.6 per decision on
# optimize seeds 1-5 at caps of 4, 8 and 12 rows alike, in 5.25, 3.0 and
# 2.1 calls. No cap (the whole grid in one call) skips no row: 40 per
# decision, and 19.8 decisions/s at 68.5 MB where 4 rows gave 28.0 at
# 61.3 MB. On the optimize benchmark (10 alternating pairs, seeds
# 2201-2210, medians, 2 vCPUs), 12 rows with the last refinement window in
# one call gave 30.6 decisions/s against 28.0 for 4 rows and the window
# step by step, at a peak RSS of 61.4 MB on both.
_BLOCK_SETTINGS = 1008

# Stage 1 skips a size once its utility bound lies this far (MUSD) below
# the best utility so far. The bound holds exactly in arithmetic, but
# rounding put it up to 9e-13 below a kernel value, and a size that ties
# or barely beats the best must still be scored.
_PRUNE_MARGIN = 1e-6

# Refinement narrows alpha_S until the utility varies by less than this
# (MUSD: one dollar) across the bracket, far below any difference a
# decision turns on; a fixed stop cannot be set to a nan that never ends it.
_REFINE_TOL = 1e-6

# Caps on the counts a configuration sets: every grid is built in full
# before the first kernel call, so an unbounded count only ever allocates
# its way to a hang. MAX_GRID_COUNT caps a 'lo:hi:count' specification's
# values and a contour's cells, whose scenarios are built in the parent
# before the first decision. MAX_JOBS caps the pool, which under the fork
# start method starts all its workers at the first task.
MAX_ALPHA_POINTS = 1001
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
    """Stage-1 grid resolution, overridable through the config document.
    ``n_grid`` is stored ascending and without repeats, as refinement's
    grid neighbours and stage 1's skipped sizes assume."""

    n_grid: Tuple[int, ...] = default_n_grid()
    alpha_points: int = 21

    def __post_init__(self):
        if not self.n_grid or not all(is_integer(n) and n >= 1 for n in self.n_grid):
            raise ValueError("n_grid must list positive integer sizes")
        object.__setattr__(self, "n_grid", tuple(sorted(set(self.n_grid))))
        if not (is_integer(self.alpha_points) and 2 <= self.alpha_points <= MAX_ALPHA_POINTS):
            raise ValueError(f"alpha_points must be an integer in [2, {MAX_ALPHA_POINTS}], "
                             f"got {self.alpha_points!r}")

    @classmethod
    def consume_mapping(cls, mapping: dict) -> "GridConfig":
        """Pop the grid.* keys out of a parsed config mapping; grid.n_points
        is a comma-separated list only ('200,' is the one size 200)."""
        kwargs = {}
        if "grid.n_points" in mapping:
            raw = mapping.pop("grid.n_points")
            try:
                if "," not in raw:
                    raise ValueError
                kwargs["n_grid"] = tuple(parse_integral(p) for p in raw.split(",") if p.strip())
            except ValueError:
                raise ValueError(f"grid.n_points: bad value {raw!r} (a comma-separated "
                                 "list of integer sizes, such as 50,200,800)") from None
        if "grid.alpha_points" in mapping:
            raw = mapping.pop("grid.alpha_points")
            try:
                kwargs["alpha_points"] = parse_integral(raw)
            except ValueError:
                raise ValueError(f"grid.alpha_points: bad value {raw!r}") from None
        return cls(**kwargs)


@dataclass(frozen=True)
class OptimizationOutcome:
    """Best design found for one family (or the no-trial baseline)."""

    best_design: DesignSpec
    result: EvaluationResult
    derived_alpha_F: Optional[float] = None

    @property
    def expected_utility(self) -> float:
        return self.result.expected_utility


def _outcome(design: DesignSpec, scenario: Scenario, fields=None) -> OptimizationOutcome:
    """The design with its prior-averaged evaluation and, for a stratified
    design, the alpha_F its alpha_S leaves to the full-population test.
    The evaluation is built from the design's seven ``grid_row`` fields
    when the search scored them; otherwise it comes first, so its check of
    the design against the scenario reports a bad design."""
    result = (eu_prior_averaged(design, scenario) if fields is None
              else result_from_fields(fields))
    alpha_F = (alpha_F_given_alpha_S(design.alpha_S, scenario.lambda_S, scenario.alpha)
               if design.kind == STRATIFIED else None)
    return OptimizationOutcome(design, result, alpha_F)


def _grid_sizes(scenario: Scenario, config: GridConfig) -> list:
    """Stage-1 sizes: n_min, then every grid size above it."""
    return [scenario.n_min] + [n for n in config.n_grid if n > scenario.n_min]


def _block_shape(family: str, alphas: list, scenario: Scenario) -> tuple:
    """(sizes per block, alpha_S points per piece of a row) that keep a
    kernel call within max(_BLOCK_SETTINGS, merged atoms) settings."""
    atoms = len(_merged_atoms(family, scenario))
    width = max(1, _BLOCK_SETTINGS // atoms)
    return max(1, _BLOCK_SETTINGS // (atoms * min(width, len(alphas)))), width


def _scored_rows(family: str, sizes: list, alphas: list, scenario: Scenario):
    """(sizes of a block, its fields) for consecutive blocks of ``sizes``,
    in order, the fields an array of shape (7, block sizes, len(alphas))
    in EvaluationResult order. A block shares one batched evaluation, up
    to max(_BLOCK_SETTINGS, merged atoms) settings per call; a row longer
    than that is scored in pieces of its alpha_S axis and joined."""
    block, width = _block_shape(family, alphas, scenario)
    for start in range(0, len(sizes), block):
        chunk = sizes[start:start + block]
        n = np.array(chunk, dtype=float)
        yield chunk, np.concatenate([grid_row(family, n, alphas[a:a + width], scenario)
                                     for a in range(0, len(alphas), width)], axis=-1)


def _section_max(score, lo: int, hi: int):
    """(n, its score) for the integer n in [lo, hi] maximizing a score that
    is unimodal there, the smaller n of a tie; ``score`` maps a list of
    sizes to their scores, each a tuple led by the value.

    Each call scores the unscored sizes among the window's _PROBES sizes
    lo + (hi - lo) i // (_PROBES + 1), i = 1.._PROBES, and the window
    shrinks to the scored sizes on either side of the best one in it,
    keeping its end on a side that has none. A window of at most
    _LAST_WINDOW sizes has its unscored sizes scored by the last call. No
    size is scored twice.
    """
    scores = {}
    while True:
        last = hi - lo < _LAST_WINDOW
        sizes = (range(lo, hi + 1) if last else
                 [lo + (hi - lo) * i // (_PROBES + 1) for i in range(1, _PROBES + 1)])
        batch = [n for n in sizes if n not in scores]
        if batch:
            scores.update(zip(batch, score(batch)))
        inside = sorted(n for n in scores if lo <= n <= hi)
        j = max(range(len(inside)), key=lambda k: scores[inside[k]][0])
        if last:
            return inside[j], scores[inside[j]]
        lo = inside[j - 1] if j > 0 else lo
        hi = inside[j + 1] if j + 1 < len(inside) else hi


def _row_points(chunk: list, fields, alphas) -> list:
    """The first best point (eu, n, alpha_S, fields) of every row of a
    block at the sizes ``chunk``, by one argmax over the block: a row
    holding NaN has a NaN best, which ``max`` never takes."""
    cols = np.argmax(fields[0], axis=-1)
    best = fields[0, np.arange(len(chunk)), cols].tolist()
    return [(eu, n, alphas[i], fields[:, r, i])
            for r, (eu, n, i) in enumerate(zip(best, chunk, cols.tolist()))]


def _bracket(center: float, half_width: float, alpha: float) -> list:
    """The alpha_S row of a refinement probe: center +- half_width,
    clipped to [0, alpha]."""
    return [float(a) for a in np.linspace(max(0.0, center - half_width),
                                          min(alpha, center + half_width),
                                          _BRACKET_POINTS)]


def _refine(family: str, scenario: Scenario, config: GridConfig, best: tuple) -> tuple:
    """Stage 2 from the best grid point ``best`` = (eu, n, alpha_S,
    fields): the best such point found, which is ``best`` unless a point
    beats it."""
    _, grid_n, grid_alpha, _ = best
    sizes = _grid_sizes(scenario, config)
    top = max(2 * max(config.n_grid), sizes[-1])
    i = sizes.index(grid_n)
    hi = sizes[i + 1] if i + 1 < len(sizes) else top
    step = scenario.alpha / (config.alpha_points - 1)
    alphas = _bracket(grid_alpha, step, scenario.alpha) if family == STRATIFIED else [None]
    _, point = _section_max(
        lambda ms: [point for chunk, fields in _scored_rows(family, ms, alphas, scenario)
                    for point in _row_points(chunk, fields, alphas)],
        sizes[max(i - 1, 0)], hi)
    best = max(best, point, key=lambda point: point[0])
    if family != STRATIFIED:
        return best

    # Narrow the alpha_S bracket 4x per round around the best point, at
    # its n and both neighbours (one block), until the utility varies by
    # less than _REFINE_TOL over the bracket at the centre n: a smooth
    # utility varies at least that much between the bracket's best point
    # and the optimum.
    half_width = step
    while True:
        half_width /= 4.0
        _, center_n, center_alpha, _ = best
        alphas = _bracket(center_alpha, half_width, scenario.alpha)
        sizes = [n for n in (center_n - 1, center_n, center_n + 1)
                 if scenario.n_min <= n <= top]
        for chunk, fields in _scored_rows(family, sizes, alphas, scenario):
            best = max([best, *_row_points(chunk, fields, alphas)], key=lambda point: point[0])
            if center_n in chunk:
                center = fields[0, chunk.index(center_n)]
        if not np.all(np.isfinite(center)):
            raise NumericError(f"{family}: the alpha_S narrowing at n = {center_n} "
                               "met a non-finite expected utility")
        if float(np.ptp(center)) < _REFINE_TOL:
            return best


def _grid_best(family: str, scenario: Scenario, config: GridConfig) -> tuple:
    """Stage 1: the first best grid point (eu, n, alpha_S, fields) of the
    sizes scored block by block, skipping those whose bound cannot win."""
    alphas = ([float(a) for a in np.linspace(0.0, scenario.alpha, config.alpha_points)]
              if family == STRATIFIED else [None])
    best = (-math.inf, None, None, None)
    sizes = _grid_sizes(scenario, config)
    block, _ = _block_shape(family, alphas, scenario)
    while sizes:
        for chunk, fields in _scored_rows(family, sizes[:block], alphas, scenario):
            best = max([best, *_row_points(chunk, fields, alphas)], key=lambda point: point[0])
        sizes = sizes[block:]
        if sizes:
            bounds = _utility_bound(family, np.array(sizes, dtype=float), scenario)
            sizes = [n for n, bound in zip(sizes, bounds) if bound >= best[0] - _PRUNE_MARGIN]
    if best[1] is None:
        raise NumericError(f"{family}: no grid point has a finite expected utility")
    return best


def optimize_family(family: str, scenario: Scenario,
                    grid_config: Optional[GridConfig] = None) -> OptimizationOutcome:
    """Maximize prior-averaged expected utility within one design family."""
    if family not in TRIAL_KINDS:
        raise ValueError(f"family must be one of {TRIAL_KINDS}, got {family!r}")
    config = grid_config or GridConfig()
    best = _refine(family, scenario, config, _grid_best(family, scenario, config))
    _, best_n, best_alpha, best_fields = best
    return _outcome(DesignSpec(family, n=best_n, alpha_S=best_alpha), scenario, best_fields)


def _select(outcomes: dict) -> str:
    """Kind of the best outcome; max keeps the first of tied kinds."""
    return max(_PREFERENCE, key=lambda kind: outcomes[kind].expected_utility)


def decide(scenario: Scenario,
           grid_config: Optional[GridConfig] = None) -> Tuple[dict, str]:
    """The design decision: the optimal outcome of every family, keyed by
    kind in the order no trial (utility 0), then TRIAL_KINDS, and the kind
    selected among them."""
    outcomes = {NO_TRIAL: _outcome(DesignSpec.no_trial(), scenario)}
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


def _decide_recording_warnings(scenario: Scenario, grid_config: Optional[GridConfig]):
    """``decide`` in a pool worker, and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        decision = decide(scenario, grid_config)
    return decision, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _decisions(scenarios: list, grid_config: Optional[GridConfig], jobs: int) -> list:
    """``decide`` on every scenario, in order: serially, or in a process
    pool with at most one worker per scenario and MAX_JOBS in all, whose
    warnings are raised again here, once per message and line, when every
    cell is decided."""
    if not (is_integer(jobs) and 1 <= jobs <= MAX_JOBS):
        raise ValueError(f"jobs must lie in [1, {MAX_JOBS}] as an integer, got {jobs!r}")
    workers = min(jobs, len(scenarios))
    if workers <= 1:
        return [decide(scenario, grid_config) for scenario in scenarios]
    # imported here, so serial runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(partial(_decide_recording_warnings, grid_config=grid_config),
                                scenarios))
    registry = {}
    for _, caught in results:
        for warning in caught:
            warnings.warn_explicit(*warning, registry=registry)
    return [decision for decision, _ in results]


def sweep_prevalence(scenario_template: Scenario, lambda_grid: Sequence[float],
                     grid_config: Optional[GridConfig] = None,
                     jobs: int = 1) -> list:
    """Optimize every family at each prevalence (clamped to [0.05, 0.95])."""
    scenarios = [scenario_template.with_lambda(lam) for lam in _clamp_lambda(lambda_grid)]
    return [SweepRow(scenario.lambda_S, *decision) for scenario, decision
            in zip(scenarios, _decisions(scenarios, grid_config, jobs))]


def sweep_contour(scenario_template: Scenario, lambda_grid: Sequence[float],
                  delta_grid: Sequence[float], grid_config: Optional[GridConfig] = None,
                  jobs: int = 1) -> list:
    """Selected-design matrix over (lambda_S, delta), rows indexed by delta,
    with each cell's prior the template's built-in kind at that delta. A
    template whose prior names no kind is rejected, as is a grid of more
    than MAX_GRID_COUNT cells, before any scenario is built; a negative
    delta is rejected by the prior it builds."""
    kind = scenario_template.prior.kind
    if kind is None:
        raise ValueError("contour requires prior.kind (the prior is rebuilt "
                         "for every effect size)")
    lams = _clamp_lambda(lambda_grid)
    deltas = [float(d) for d in delta_grid]
    if len(lams) * len(deltas) > MAX_GRID_COUNT:
        raise ValueError(f"a contour holds at most {MAX_GRID_COUNT} cells, "
                         f"got {len(lams)} x {len(deltas)}")
    points = [(delta, lam) for delta in deltas for lam in lams]
    scenarios = [scenario_template.with_lambda(lam).with_prior(builtin_prior(kind, delta))
                 for delta, lam in points]
    decisions = _decisions(scenarios, grid_config, jobs)
    cells = [ContourCell(lam, delta, selected, outcomes[selected].best_design.n,
                         outcomes[selected].expected_utility)
             for (delta, lam), (outcomes, selected) in zip(points, decisions)]
    width = len(lams)
    return [cells[i * width:(i + 1) * width] for i in range(len(deltas))]
