"""Command-line front end: evaluate, optimize, sweep, contour, and
simulate subcommands driven by a flat key-value configuration document.

Every command runs through one driver, ``_run``: it loads the scenario
and grid, lets the command compute its tables, and writes them as
machine-readable CSV (schema-versioned, locale-free) plus a JSON run
manifest capturing the exact scenario, grid settings, seed, and output
paths. Exit codes: 0 success; 2 for any ValueError (a bad config,
flag or value, from the readers here or a library domain check),
reported as ``config error: <message>``; 3 for a NumericError (a broken
contract) or an OverflowError.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import re
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__
from .model import (
    NO_TRIAL,
    TRIAL_KINDS,
    DesignSpec,
    EffectPair,
    Scenario,
    parse_config_text,
    parse_integral,
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
            lo, hi, count = float(lo), float(hi), parse_integral(count)
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
        raise ValueError(f"bad grid specification {raw!r}; expected 'lo:hi:count' "
                         f"(count 1 to {MAX_GRID_COUNT}) or a comma list") from None
    if not values:
        raise ValueError(f"grid specification {raw!r} has no values")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid specification {raw!r} has a non-finite value")
    return values


def _parse_atom(raw: str) -> EffectPair:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) not in (2, 3):
        raise ValueError("--atom expects 'delta_S,delta_Sc[,offset]'")
    try:
        nums = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--atom: not a number in {raw!r}") from None
    return EffectPair(*nums)


def _load_run_inputs(args) -> tuple:
    """Scenario + grid config from the document and --set overrides."""
    try:
        with open(args.config) as fh:
            mapping = parse_config_text(fh.read())
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    for override in args.set or []:
        if "=" not in override:
            raise ValueError(f"--set needs key=value, got {override!r}")
        key, value = override.split("=", 1)
        mapping[key.strip()] = value.strip()
    scenario = scenario_from_mapping(mapping)
    grid = GridConfig.consume_mapping(mapping)
    if mapping:
        raise ValueError(f"unknown config keys: {', '.join(sorted(mapping))}")
    return scenario, grid


def _design_from_args(args) -> DesignSpec:
    """The design the flags name; a flag the design does not take is an
    error, as it is for the library, which checks the design against the
    scenario where it evaluates or simulates it."""
    kind = NO_TRIAL if args.design == "none" else args.design
    return DesignSpec(kind, n=args.n, alpha_S=args.alpha_s)


def _check_out(out_dir) -> None:
    """Refuse an output directory that is a file, or lies below one, before
    any computing; like a failed run, creates nothing."""
    head = os.path.abspath(out_dir)
    while not os.path.isdir(head):
        if os.path.exists(head):
            raise ValueError(f"cannot write output: {head!r} is not a directory")
        head = os.path.dirname(head)


def _emit(out_dir, command: str, manifest: RunManifest, tables: dict) -> None:
    """Write each table as ``<name>.csv``, then the manifest listing them."""
    manifest_path = os.path.join(out_dir, f"{command}_manifest.json")
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, (header, rows) in tables.items():
            csv_path = os.path.join(out_dir, f"{name}.csv")
            _write_csv(csv_path, command, header, rows)
            manifest.outputs.append(csv_path)
        with open(manifest_path, "w") as fh:
            fh.write(manifest.to_json())
            fh.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from exc
    print(f"wrote {', '.join(manifest.outputs)} and {manifest_path}")


def _outcome_cells(outcome: OptimizationOutcome, fields=_FIELDS) -> list:
    """The design's n, alpha_S and alpha_F, then the named result fields."""
    design = outcome.best_design
    return [design.n, design.alpha_S, outcome.derived_alpha_F,
            *(getattr(outcome.result, f) for f in fields)]


_OUTCOME_HEADER = ["n", "alpha_S", "alpha_F", *_FIELDS]


def _cmd_evaluate(args, scenario: Scenario, grid: GridConfig) -> dict:
    outcome = _outcome(_design_from_args(args), scenario)
    rows = [[outcome.best_design.label, *_outcome_cells(outcome)]]
    return {"evaluate": (["design", *_OUTCOME_HEADER], rows)}


def _cmd_optimize(args, scenario: Scenario, grid: GridConfig) -> dict:
    decision = decide(scenario, grid)
    rows = [[outcome.best_design.label, int(family == decision.selected),
             *_outcome_cells(outcome)] for family, outcome in decision.outcomes.items()]
    return {"optimize": (["family", "selected", *_OUTCOME_HEADER], rows)}


_SWEEP_METRICS = ("n", "alpha_S", "alpha_F", "eu", "power")


def _cmd_sweep(args, scenario: Scenario, grid: GridConfig) -> dict:
    lambdas = _parse_grid_spec(args.lambda_grid)
    decisions = sweep_prevalence(scenario, lambdas, grid, jobs=args.jobs)
    header = ["lambda_S"]
    for family in TRIAL_KINDS:
        header += [f"{family}_{metric}" for metric in _SWEEP_METRICS]
    header.append("selected")
    rows, long_rows = [], []
    for d in decisions:
        lam = d.scenario.lambda_S
        cells = [lam]
        for family in TRIAL_KINDS:
            values = _outcome_cells(d.outcomes[family], ("expected_utility", "power_any"))
            cells += values
            long_rows += [[lam, family, m, v] for m, v in zip(_SWEEP_METRICS, values)]
        rows.append(cells + [d.best.best_design.label])
    tables = {"sweep": (header, rows)}
    if args.figures:
        tables["sweep_long"] = (["lambda_S", "family", "metric", "value"], long_rows)
    return tables


def _cmd_contour(args, scenario: Scenario, grid: GridConfig) -> dict:
    lambdas = _parse_grid_spec(args.lambda_grid)
    deltas = _parse_grid_spec(args.delta_grid)
    matrix = sweep_contour(scenario, lambdas, deltas, grid, jobs=args.jobs)
    header = ["delta"] + [_fmt(d.scenario.lambda_S) for d in matrix[0]]
    rows = [[row[0].scenario.prior.delta, *[d.selected for d in row]] for row in matrix]
    long_rows = [[d.scenario.lambda_S, d.scenario.prior.delta, d.selected,
                  d.best.best_design.n, d.best.expected_utility] for row in matrix for d in row]
    tables = {"contour": (header, rows)}
    if args.figures:
        tables["contour_long"] = (
            ["lambda_S", "delta", "selected", "n_opt", "expected_utility"], long_rows)
    return tables


def _cmd_simulate(args, scenario: Scenario, grid: GridConfig) -> dict:
    design = _design_from_args(args)
    config = SimConfig(replicates=args.replicates, seed=args.seed, strata_mode=args.mode)
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
        add("fwer", mc_fwer(design, scenario, null_atom, config))
    return {"simulate": (header, rows)}


# The commands that search the grid, the only ones whose manifests record it.
_GRID_COMMANDS = ("optimize", "sweep", "contour")


def _run(args) -> None:
    """The one path of every command: load the inputs, compute the
    command's tables, then write them with the run manifest."""
    t0 = time.monotonic()
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    scenario, grid = _load_run_inputs(args)
    _check_out(args.out)
    tables = args.func(args, scenario, grid)
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


class _Parser(argparse.ArgumentParser):
    """argparse that reads a token starting like a negative number, such as
    '-0.1,0.5' or '-0.1:0.5:2', as a value, never as an option, and raises
    a bad flag as a ValueError, so that it fails as every bad input does."""

    def _parse_optional(self, arg_string):
        return None if re.match(r"-\.?\d", arg_string) else super()._parse_optional(arg_string)

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    def cell_flags(p):
        p.add_argument("--jobs", type=int, default=1,
                       help=f"worker processes for the cells (1 to {MAX_JOBS}; "
                            "never more than the cells)")
        p.add_argument("--lambda-grid", default="0.05:0.95:19",
                       help="'lo:hi:count' or comma list (default 19 points)")
        p.add_argument("--figures", action="store_true",
                       help="also write plot-ready long-format CSV")

    def design_flags(p):
        p.add_argument("--design", required=True, choices=[*TRIAL_KINDS, "none"])
        p.add_argument("--n", type=int, help="per-group sample size")
        p.add_argument("--alpha-s", type=float, dest="alpha_s",
                       help="subgroup significance weight (stratified only)")

    def command(name, func, summary, *flag_sets):
        p = sub.add_parser(name, help=summary)
        for flags in (common, *flag_sets):
            flags(p)
        p.set_defaults(func=func)
        return p

    command("evaluate", _cmd_evaluate, "expected utility of one design", design_flags)
    command("optimize", _cmd_optimize, "optimal design per family plus selection")
    command("sweep", _cmd_sweep, "per-family optima across prevalences", cell_flags)
    p = command("contour", _cmd_contour, "selected design over (prevalence, delta)", cell_flags)
    p.add_argument("--delta-grid", default="0:1:11")
    p = command("simulate", _cmd_simulate, "Monte Carlo estimates for one design", design_flags)
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[FIXED_PROPORTIONAL, BINOMIAL_RANDOM],
                   default=FIXED_PROPORTIONAL)
    p.add_argument("--estimand", choices=[UTILITY, REJECTION_PROBS, FWER],
                   default=UTILITY)
    p.add_argument("--atom", help="simulate a fixed effect pair "
                                  "'delta_S,delta_Sc[,offset]' instead of the prior")
    return parser


def main(argv=None) -> int:
    # A failed run prints its one line alone; a run that succeeds shows the
    # warnings it raised once it is done.
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            _run(args)
    except (NumericError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
