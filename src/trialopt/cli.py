"""Command-line front end: evaluate, optimize, sweep, contour, and
simulate subcommands driven by a flat key-value configuration document.

Every command runs through one driver, ``_run``: it loads the scenario
and grid, lets the command compute its tables, and writes them as
machine-readable CSV (schema-versioned, locale-free) plus a JSON run
manifest capturing the exact scenario, grid settings, seed, and output
paths. Exit codes: 0 success, 2 configuration error, 3 numeric
failure (a broken contract or a floating-point overflow).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__
from .model import (
    TRIAL_KINDS,
    ConfigError,
    DesignSpec,
    EffectPair,
    Scenario,
    parse_config_text,
    scenario_from_mapping,
    scenario_to_mapping,
)
from .mc_oracle import (
    BINOMIAL_RANDOM,
    FIXED_PROPORTIONAL,
    FWER,
    REJECTION_PROBS,
    UTILITY,
    McEstimate,
    SimConfig,
    mc_expected_utility,
    mc_fwer,
    mc_rejection_probs,
)
from .numerics import NumericError
from .optimizer import (
    MAX_GRID_COUNT,
    MAX_JOBS,
    GridConfig,
    OptimizationOutcome,
    _outcome,
    decide,
    sweep_contour,
    sweep_prevalence,
)
from .utility import _FIELDS

_SCHEMA_PREFIX = "trialopt"
_SCHEMA_VERSION = 1

@dataclass
class RunManifest:
    """Reproducibility record emitted next to every output file."""

    command: str
    scenario: dict
    grid: Optional[dict]
    seed: Optional[int]
    version: str
    started_utc: str
    wall_seconds: float
    outputs: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        return cls(**json.loads(text))


def _fmt(value) -> str:
    """Locale-independent cell formatting; floats keep full precision."""
    if value is None:
        return ""
    if isinstance(value, float):
        # plain-float repr round-trips and is stable across numpy scalars
        return repr(float(value))
    return str(value)


def _write_csv(path, command: str, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema={_SCHEMA_PREFIX}.{command}/{_SCHEMA_VERSION} "
                 f"manifest={command}_manifest.json\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _parse_grid_spec(raw: str) -> list:
    """Grid values from 'lo:hi:count' or a comma-separated list; at least
    one value, every one finite, and at most MAX_GRID_COUNT from a count."""
    try:
        if ":" in raw:
            lo, hi, count = raw.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            if not 1 <= count <= MAX_GRID_COUNT:
                raise ValueError
            if count == 1:
                values = [lo]
            else:
                step = (hi - lo) / (count - 1)
                values = [lo + i * step for i in range(count)]
        else:
            values = [float(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"bad grid specification {raw!r}; expected 'lo:hi:count' "
                          f"(count 1 to {MAX_GRID_COUNT}) or a comma list") from None
    if not values:
        raise ConfigError(f"grid specification {raw!r} has no values")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"grid specification {raw!r} has a non-finite value")
    return values


def _parse_atom(raw: str) -> EffectPair:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) not in (2, 3):
        raise ConfigError("--atom expects 'delta_S,delta_Sc[,offset]'")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--atom: not a number in {raw!r}") from None
    try:
        return EffectPair(*nums)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_run_inputs(args) -> tuple:
    """Scenario + grid config from the document and --set overrides."""
    try:
        with open(args.config) as fh:
            mapping = parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for override in args.set or []:
        if "=" not in override:
            raise ConfigError(f"--set needs key=value, got {override!r}")
        key, value = override.split("=", 1)
        mapping[key.strip()] = value.strip()
    prior_kind = mapping.get("prior.kind")
    scenario = scenario_from_mapping(mapping)
    grid = GridConfig.consume_mapping(mapping, n_min=scenario.n_min)
    if mapping:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(mapping))}")
    return scenario, grid, prior_kind


def _design_from_args(args, scenario: Scenario) -> DesignSpec:
    kind = args.design
    try:
        if kind == "none":
            return DesignSpec.no_trial()
        if args.n is None:
            raise ConfigError("--n is required for trial designs")
        if kind == "stratified":
            if args.alpha_s is None:
                raise ConfigError("--alpha-s is required for the stratified design")
            design = DesignSpec.stratified(args.n, args.alpha_s)
        else:
            design = DesignSpec(kind, n=args.n)
        design.check_against(scenario)
        return design
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(out_dir, command: str, manifest: RunManifest, tables: dict) -> None:
    """Write each table as ``<name>.csv``, then the manifest listing them."""
    os.makedirs(out_dir, exist_ok=True)
    for name, (header, rows) in tables.items():
        csv_path = os.path.join(out_dir, f"{name}.csv")
        _write_csv(csv_path, command, header, rows)
        manifest.outputs.append(csv_path)
    manifest_path = os.path.join(out_dir, f"{command}_manifest.json")
    with open(manifest_path, "w") as fh:
        fh.write(manifest.to_json())
        fh.write("\n")
    print(f"wrote {', '.join(manifest.outputs)} and {manifest_path}")


def _outcome_cells(outcome: OptimizationOutcome) -> list:
    design = outcome.best_design
    return [design.n, design.alpha_S, outcome.derived_alpha_F,
            outcome.result.expected_utility, outcome.result.power_any]


def _cmd_evaluate(args, scenario: Scenario, grid: GridConfig, prior_kind) -> dict:
    outcome = _outcome(_design_from_args(args, scenario), scenario)
    design = outcome.best_design
    header = ["design", "n", "alpha_S", "alpha_F", *_FIELDS]
    rows = [[design.label, design.n, design.alpha_S, outcome.derived_alpha_F,
             *[getattr(outcome.result, f) for f in _FIELDS]]]
    return {"evaluate": (header, rows)}


def _cmd_optimize(args, scenario: Scenario, grid: GridConfig, prior_kind) -> dict:
    outcomes, selected = decide(scenario, grid)
    header = ["family", "selected", "n", "alpha_S", "alpha_F", *_FIELDS]
    rows = []
    for family, outcome in outcomes.items():
        design = outcome.best_design
        rows.append([design.label, int(family == selected), design.n, design.alpha_S,
                     outcome.derived_alpha_F, *[getattr(outcome.result, f) for f in _FIELDS]])
    return {"optimize": (header, rows)}


_SWEEP_METRICS = ("n", "alpha_S", "alpha_F", "eu", "power")


def _cmd_sweep(args, scenario: Scenario, grid: GridConfig, prior_kind) -> dict:
    lambdas = _parse_grid_spec(args.lambda_grid)
    rows_data = sweep_prevalence(scenario, lambdas, grid, jobs=args.jobs)
    header = ["lambda_S"]
    for family in TRIAL_KINDS:
        header += [f"{family}_{metric}" for metric in _SWEEP_METRICS]
    header.append("selected")
    rows, long_rows = [], []
    for row in rows_data:
        cells = [row.lambda_S]
        for family in TRIAL_KINDS:
            values = _outcome_cells(row.outcomes[family])
            cells += values
            long_rows += [[row.lambda_S, family, m, v] for m, v in zip(_SWEEP_METRICS, values)]
        rows.append(cells + [row.outcomes[row.selected].best_design.label])
    tables = {"sweep": (header, rows)}
    if args.figures:
        tables["sweep_long"] = (["lambda_S", "family", "metric", "value"], long_rows)
    return tables


def _cmd_contour(args, scenario: Scenario, grid: GridConfig, prior_kind) -> dict:
    if prior_kind is None:
        raise ConfigError("contour requires prior.kind (the prior is rebuilt "
                          "for every effect size)")
    lambdas = _parse_grid_spec(args.lambda_grid)
    deltas = _parse_grid_spec(args.delta_grid)
    matrix = sweep_contour(scenario, lambdas, deltas, prior_kind, grid,
                           jobs=args.jobs)
    header = ["delta"] + [_fmt(c.lambda_S) for c in matrix[0]]
    rows = [[row[0].delta, *[cell.selected for cell in row]] for row in matrix]
    long_rows = [[c.lambda_S, c.delta, c.selected, c.n_opt, c.expected_utility]
                 for row in matrix for c in row]
    tables = {"contour": (header, rows)}
    if args.figures:
        tables["contour_long"] = (
            ["lambda_S", "delta", "selected", "n_opt", "expected_utility"], long_rows)
    return tables


def _cmd_simulate(args, scenario: Scenario, grid: GridConfig, prior_kind) -> dict:
    design = _design_from_args(args, scenario)
    try:
        config = SimConfig(replicates=args.replicates, seed=args.seed,
                           strata_mode=args.mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    atom = _parse_atom(args.atom) if args.atom else None
    header = ["estimand", "design", "mode", "seed", "replicates",
              "mean", "std_error"]
    rows = []

    def add(name: str, est: McEstimate) -> None:
        rows.append([name, design.label, args.mode, args.seed,
                     est.replicates, est.mean, est.std_error])

    if args.estimand == UTILITY:
        est = mc_expected_utility(design, atom or scenario.prior, scenario, config)
        add("expected_utility", est)
    elif args.estimand == REJECTION_PROBS:
        probs = mc_rejection_probs(design, atom or scenario.prior, scenario, config)
        for name in ("any", "F", "S_only"):
            add(f"prob_reject_{name}", probs[name])
    else:
        null_atom = atom or EffectPair(0.0, 0.0)
        try:
            est = mc_fwer(design, scenario, null_atom, config)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        add("fwer", est)
    return {"simulate": (header, rows)}


# The commands that search the grid, the only ones whose manifests record it.
_GRID_COMMANDS = ("optimize", "sweep", "contour")


def _run(args) -> None:
    """The one path of every command: load the inputs, compute the
    command's tables, then write them with the run manifest."""
    t0 = time.monotonic()
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    scenario, grid, prior_kind = _load_run_inputs(args)
    tables = args.func(args, scenario, grid, prior_kind)
    manifest = RunManifest(
        command=args.command,
        scenario=scenario_to_mapping(scenario),
        grid=asdict(grid) if args.command in _GRID_COMMANDS else None,
        seed=getattr(args, "seed", None),
        version=__version__,
        started_utc=started,
        wall_seconds=time.monotonic() - t0,
    )
    _emit(args.out, args.command, manifest, tables)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialopt",
        description="Expected-utility evaluation and optimization of "
                    "biomarker-subgroup trial designs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value scenario document")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable; wins over the file)")
        p.add_argument("--out", default=".", help="output directory")

    def jobs_flag(p):
        p.add_argument("--jobs", type=int, default=1,
                       help=f"worker processes for the cells (1 to {MAX_JOBS}; "
                            "never more than the cells)")

    def design_flags(p):
        p.add_argument("--design", required=True,
                       choices=["classical", "stratified", "enrichment", "none"])
        p.add_argument("--n", type=int, help="per-group sample size")
        p.add_argument("--alpha-s", type=float, dest="alpha_s",
                       help="subgroup significance weight (stratified only)")

    p = sub.add_parser("evaluate", help="expected utility of one design")
    common(p)
    design_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("optimize", help="optimal design per family plus selection")
    common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="per-family optima across prevalences")
    common(p)
    jobs_flag(p)
    p.add_argument("--lambda-grid", default="0.05:0.95:19",
                   help="'lo:hi:count' or comma list (default 19 points)")
    p.add_argument("--figures", action="store_true",
                   help="also write plot-ready long-format CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("contour", help="selected design over (prevalence, delta)")
    common(p)
    jobs_flag(p)
    p.add_argument("--lambda-grid", default="0.05:0.95:19")
    p.add_argument("--delta-grid", default="0:1:11")
    p.add_argument("--figures", action="store_true")
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("simulate", help="Monte Carlo estimates for one design")
    common(p)
    design_flags(p)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[FIXED_PROPORTIONAL, BINOMIAL_RANDOM],
                   default=FIXED_PROPORTIONAL)
    p.add_argument("--estimand", choices=[UTILITY, REJECTION_PROBS, FWER],
                   default=UTILITY)
    p.add_argument("--atom", help="simulate a fixed effect pair "
                                  "'delta_S,delta_Sc[,offset]' instead of the prior")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
