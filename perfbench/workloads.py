"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop with one caller. ``make_inputs`` is a pure
function of the seed: the seed jitters every input inside a fixed stratum,
so the mix keeps the same composition (perspectives, priors, market
cases, grid shapes) from seed to seed and runs with different seeds stay
comparable. ``run_pass`` does the timed work once and returns a
:class:`Pass`; ``check`` re-derives every output outside the timed region
and counts the operations that failed.

The program is called only through its public API or its CLI, and looked
up through the module on every pass (``trialopt.select_design``), so a
traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri, owens_t

import trialopt
import trialopt.cli
import trialopt.mc_oracle

ALPHA = 0.025
FAMILIES = ("classical", "stratified", "enrichment")
MODES = ("fixed", "binomial")
EU_TOL = 1e-8           # MUSD, the utility accuracy contract
LEVEL_TOL = 1e-8        # on the union probability
MC_SE = 4.0             # analytic vs Monte Carlo agreement, in standard errors
FWER_SE = 3.0           # FWER at the global null may exceed alpha by this many SE

# Reward scale and biomarker costs of the three reference market cases.
CASES = {
    1: dict(Nr=10000.0, biomarker=0.0, screening=0.0),
    2: dict(Nr=1000.0, biomarker=0.0, screening=0.0),
    3: dict(Nr=1000.0, biomarker=10.0, screening=0.005),
}


def make_scenario(lambda_S, perspective, case, prior_kind, delta):
    c = CASES[case]
    return trialopt.Scenario(
        lambda_S=lambda_S,
        costs=trialopt.CostStructure(setup=1.0, per_patient=0.05,
                                     biomarker=c["biomarker"], screening=c["screening"]),
        rewards=trialopt.RewardStructure(perspective, NrS=c["Nr"], NrF=c["Nr"],
                                         mu_S=0.1, mu_F=0.1),
        prior=trialopt.builtin_prior(prior_kind, delta),
    )


def strata(rng, count, lo, hi, order=None, width=1.0):
    """One uniform draw inside each of ``count`` equal strata of [lo, hi),
    restricted to the central ``width`` share of the stratum."""
    values = [lo + (hi - lo) * (i + 0.5 + width * (rng.random() - 0.5)) / count
              for i in range(count)]
    return [values[i] for i in order] if order else values


def clear_level_cache():
    """Start from a cold level-condition cache, as a fresh CLI process does."""
    clear = getattr(trialopt.alpha_F_given_alpha_S, "cache_clear", None)
    if clear is not None:
        clear()


@dataclass
class Pass:
    """One timed pass over a workload's inputs.

    ``segments`` holds (start, seconds) of every timed call in order;
    ``per_sample`` consecutive segments make one latency sample.
    """

    wall: float
    ops: float
    segments: list
    outputs: list
    per_sample: int = 1
    bytes_written: int = 0

    def latencies(self, seconds=lambda start, dur: dur):
        durs = [seconds(start, dur) for start, dur in self.segments]
        k = self.per_sample
        return [sum(durs[i:i + k]) for i in range(0, len(durs), k)]


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def _call(segments, fn, *args):
    """Time one call into the program; a raised error becomes its output."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        out = exc
    segments.append((t0, time.perf_counter() - t0))
    return out


# ---------------------------------------------------------------------------
# optimize: in-process select_design over a seeded scenario mix
# ---------------------------------------------------------------------------

# (perspective, prior, market case) of each slot. Every perspective, prior
# and case appears; slot i draws lambda_S from stratum LAMBDA_ORDER[i] of
# [0.1, 0.9] and delta from stratum DELTA_ORDER[i] of [0.2, 0.5]. Draws stay
# in the central JITTER share of a stratum: a decision's cost depends on
# lambda_S and delta, and a narrow band keeps runs with different seeds
# comparable.
OPTIMIZE_MIX = (
    ("sponsor", "weak", 1), ("sponsor", "strong", 2),
    ("sponsor", "weak", 3), ("sponsor", "strong", 1),
    ("public", "weak", 2), ("public", "strong", 3),
    ("public", "weak", 1), ("public", "strong", 2),
)
LAMBDA_ORDER = (0, 5, 2, 7, 4, 1, 6, 3)
DELTA_ORDER = (3, 6, 1, 4, 7, 2, 5, 0)
MC_CHECK_REPS = 100_000
JITTER = 0.2


def optimize_inputs(seed, smallest=False, out_dir=None):
    rng = random.Random(f"optimize/{seed}")
    lams = strata(rng, len(OPTIMIZE_MIX), 0.1, 0.9, LAMBDA_ORDER, JITTER)
    deltas = strata(rng, len(OPTIMIZE_MIX), 0.2, 0.5, DELTA_ORDER, JITTER)
    scenarios = [make_scenario(lam, persp, case, prior, delta)
                 for (persp, prior, case), lam, delta in zip(OPTIMIZE_MIX, lams, deltas)]
    if smallest:
        scenarios = [scenarios[4]]
    return {"scenarios": scenarios, "mc_seed": rng.randrange(2 ** 31)}


def optimize_warm_up(inputs):
    s = inputs["scenarios"][0]
    trialopt.eu_prior_averaged(trialopt.DesignSpec.stratified(200, ALPHA / 2), s)
    clear_level_cache()


def optimize_pass(inputs, in_process=True):
    select = trialopt.select_design
    clear_level_cache()
    segments, outputs = [], []
    start = time.perf_counter()
    for s in inputs["scenarios"]:
        outputs.append(_call(segments, select, s))
    return Pass(time.perf_counter() - start, len(outputs), segments, outputs)


def optimize_check(inputs, p, checked):
    for s, out in zip(inputs["scenarios"], p.outputs):
        if isinstance(out, Exception):
            checked.record(False, f"select_design raised {out!r}")
            continue
        design = out.best_design
        eu = out.expected_utility
        if design.kind == "no_trial":
            checked.record(eu == 0.0, "no-trial outcome with nonzero utility")
            continue
        again = trialopt.eu_prior_averaged(design, s).expected_utility
        ok = abs(again - eu) <= EU_TOL
        mc = trialopt.mc_expected_utility(
            design, s.prior, s, trialopt.SimConfig(MC_CHECK_REPS, inputs["mc_seed"]))
        ok_mc = abs(mc.mean - eu) <= MC_SE * mc.std_error + 1e-12
        checked.record(ok and ok_mc, f"{design}: eu {eu!r}, re-evaluated {again!r}, "
                                     f"MC {mc.mean!r} +- {mc.std_error!r}")


def _outcome_key(out):
    if isinstance(out, Exception):
        return repr(out)
    return (out.best_design, out.expected_utility)


def optimize_musd(p):
    return math.fsum(o.expected_utility for o in p.outputs
                     if not isinstance(o, Exception))


# ---------------------------------------------------------------------------
# sweep: the CLI, sweep then contour, --jobs 2 --figures
# ---------------------------------------------------------------------------

SWEEP_JOBS = 2
CLI_TIMEOUT = 120
SWEEP_CASE = 2
SWEEP_PRIOR = "weak"


def sweep_inputs(seed, smallest=False, out_dir=None):
    rng = random.Random(f"sweep/{seed}")
    count = 1 if smallest else 3
    lams = strata(rng, count, 0.15, 0.85, width=JITTER)
    delta = strata(rng, 1, 0.28, 0.36, width=JITTER)[0]
    c = CASES[SWEEP_CASE]
    config = "\n".join([
        "lambda_S = 0.5", "cost.setup = 1.0", "cost.per_patient = 0.05",
        f"cost.biomarker = {c['biomarker']!r}", f"cost.screening = {c['screening']!r}",
        "reward.perspective = public", f"reward.NrS = {c['Nr']!r}",
        f"reward.NrF = {c['Nr']!r}", "reward.mu_S = 0.1", "reward.mu_F = 0.1",
        f"prior.kind = {SWEEP_PRIOR}", f"prior.delta = {delta!r}", "",
    ])
    inputs = {
        "lambdas": lams,
        # delta = 0 collapses every prior atom to (0, 0): one evaluation per
        # design, and no trial can pay. The second row repeats the sweep.
        "deltas": [0.0, delta],
        "delta": delta,
        "config_text": config,
        "template": make_scenario(0.5, "public", SWEEP_CASE, SWEEP_PRIOR, delta),
        "out_dir": out_dir,
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        inputs["config"] = os.path.join(out_dir, "scenario.cfg")
        with open(inputs["config"], "w") as fh:
            fh.write(config)
    return inputs


def sweep_warm_up(inputs):
    mapping = trialopt.model.parse_config_text(inputs["config_text"])
    scenario = trialopt.model.scenario_from_mapping(mapping)
    trialopt.eu_prior_averaged(trialopt.DesignSpec.stratified(200, ALPHA / 2), scenario)
    clear_level_cache()


def _cli_argv(inputs, command, out):
    grid = ",".join(repr(x) for x in inputs["lambdas"])
    argv = [command, "--config", inputs["config"], "--out", out,
            "--jobs", str(SWEEP_JOBS), "--figures", "--lambda-grid", grid]
    if command == "contour":
        argv += ["--delta-grid", ",".join(repr(d) for d in inputs["deltas"])]
    return argv


def sweep_pass(inputs, in_process=False):
    """One study: ``sweep`` then ``contour``, each a cold CLI process.

    In-process mode (the traced run) calls ``trialopt.cli.main`` instead,
    so cold import is not part of that pass.
    """
    out = tempfile.mkdtemp(prefix="pass-", dir=inputs["out_dir"])
    segments, codes = [], []
    start = time.perf_counter()
    for command in ("sweep", "contour"):
        run = _cli_in_process if in_process else _cli_process
        codes.append(_call(segments, run, _cli_argv(inputs, command, out)))
    wall = time.perf_counter() - start
    cells = len(inputs["lambdas"]) * (1 + len(inputs["deltas"]))
    written = sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
    return Pass(wall, cells, segments, [(out, codes)], per_sample=2,
                bytes_written=written)


def _cli_in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return trialopt.cli.main(argv)


def _cli_process(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trialopt.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "trialopt.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return proc.returncode


def _read_csv(path, command):
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith(f"# schema=trialopt.{command}/"):
            raise ValueError(f"{path}: missing schema line")
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _design(kind, n, alpha_S):
    if kind == "stratified":
        return trialopt.DesignSpec.stratified(int(n), float(alpha_S))
    return trialopt.DesignSpec(kind, n=int(n))


def sweep_check(inputs, p, checked):
    lams = inputs["lambdas"]
    out, codes = p.outputs[0]
    try:
        selected = _check_sweep_files(out, lams, inputs["template"], checked, codes[0])
        _check_contour_files(out, lams, inputs["deltas"], selected, checked, codes[1])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checked.record(False, f"{out}: unreadable output ({exc!r})")


def _check_manifest(out, command):
    with open(os.path.join(out, f"{command}_manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest["command"] != command or not all(os.path.exists(f) for f in manifest["outputs"]):
        raise ValueError(f"{command} manifest does not match its outputs")


def _check_sweep_files(out, lams, template, checked, code):
    """One check per lambda row; returns {lambda: (kind, n, eu)} selected."""
    if code != 0:
        for lam in lams:
            checked.record(False, f"sweep exited {code}")
        return {}
    _check_manifest(out, "sweep")
    header, rows = _read_csv(os.path.join(out, "sweep.csv"), "sweep")
    _, long_rows = _read_csv(os.path.join(out, "sweep_long.csv"), "sweep")
    if len(rows) != len(lams) or len(long_rows) != 15 * len(lams):
        raise ValueError("sweep row counts do not match the lambda grid")
    selected = {}
    for lam, row in zip(lams, rows):
        cells = dict(zip(header, row))
        ok = float(cells["lambda_S"]) == lam
        scenario = template.with_lambda(lam)
        best_kind, best_eu = "no_trial", 0.0
        found = {}
        for f in ("classical", "enrichment", "stratified"):   # the program's tie order
            metrics = {r[2]: r[3] for r in long_rows if float(r[0]) == lam and r[1] == f}
            eu = float(metrics["eu"])
            again = trialopt.eu_prior_averaged(
                _design(f, metrics["n"], metrics["alpha_S"]), scenario).expected_utility
            ok = ok and abs(again - eu) <= EU_TOL and float(cells[f"{f}_eu"]) == eu
            found[f] = (int(metrics["n"]), eu)
            if eu > best_eu:
                best_kind, best_eu = f, eu
        label = trialopt.model.KIND_LABELS[best_kind]
        ok = ok and cells["selected"] == label
        selected[lam] = (best_kind,) + (found[best_kind] if best_kind in found else (None, 0.0))
        checked.record(ok, f"sweep row lambda={lam!r}")
    return selected


def _check_contour_files(out, lams, deltas, selected, checked, code):
    """One check per contour cell, against the sweep for the repeated row."""
    if code != 0:
        for _ in range(len(lams) * len(deltas)):
            checked.record(False, f"contour exited {code}")
        return
    _check_manifest(out, "contour")
    header, rows = _read_csv(os.path.join(out, "contour.csv"), "contour")
    _, long_rows = _read_csv(os.path.join(out, "contour_long.csv"), "contour")
    if (len(rows) != len(deltas) or len(header) != 1 + len(lams)
            or len(long_rows) != len(deltas) * len(lams)):
        raise ValueError("contour row counts do not match the grids")
    for lam_s, delta_s, kind, n_opt, eu_s in long_rows:
        lam, delta, eu = float(lam_s), float(delta_s), float(eu_s)
        if delta == 0.0:
            ok = kind == "no_trial" and eu == 0.0
        else:
            want_kind, want_n, want_eu = selected.get(lam, (None, None, None))
            ok = (kind == want_kind and abs(eu - want_eu) <= EU_TOL
                  and (want_n is None or int(n_opt) == want_n))
        checked.record(ok, f"contour cell lambda={lam!r} delta={delta!r}")


# ---------------------------------------------------------------------------
# validate: the Monte Carlo oracle on every family's optimum
# ---------------------------------------------------------------------------

# (perspective, prior, market case) of the validated scenarios.
VALIDATE_MIX = (("sponsor", "weak", 2), ("public", "strong", 1))
VALIDATE_REPS = 100_000
# Coarse grid for finding the designs to validate: input preparation, not
# the timed work, so it stays small.
VALIDATE_GRID = dict(n_grid=(50, 100, 200, 400, 800, 1600), alpha_points=6)


def validate_inputs(seed, smallest=False, out_dir=None):
    rng = random.Random(f"validate/{seed}")
    mix = VALIDATE_MIX[:1] if smallest else VALIDATE_MIX
    lams = strata(rng, len(mix), 0.3, 0.7)
    deltas = strata(rng, len(mix), 0.3, 0.45, list(reversed(range(len(mix)))))
    grid = trialopt.GridConfig(**VALIDATE_GRID)
    cases = []
    for (persp, prior, case), lam, delta in zip(mix, lams, deltas):
        s = make_scenario(lam, persp, case, prior, delta)
        for f in FAMILIES:
            design = trialopt.optimize_family(f, s, grid).best_design
            cases.append((s, design, trialopt.eu_prior_averaged(design, s)))
    return {"cases": cases, "reps": 20_000 if smallest else VALIDATE_REPS,
            "mc_seed": rng.randrange(2 ** 31)}


def validate_warm_up(inputs):
    s, design, _ = inputs["cases"][0]
    trialopt.mc_expected_utility(design, s.prior, s, trialopt.SimConfig(1000, 0))


def _validate_calls(inputs):
    reps, seed = inputs["reps"], inputs["mc_seed"]
    null = trialopt.EffectPair(0.0, 0.0)
    for s, design, _ in inputs["cases"]:
        for mode in MODES:
            config = trialopt.SimConfig(reps, seed, mode)
            yield reps, trialopt.mc_expected_utility, (design, s.prior, s, config)
            yield 3 * reps, trialopt.mc_oracle.mc_rejection_probs, (design, s.prior, s, config)
            yield reps, trialopt.mc_fwer, (design, s, null, config)


def validate_pass(inputs, in_process=True):
    segments, outputs, reps = [], [], 0
    start = time.perf_counter()
    for count, fn, args in _validate_calls(inputs):
        outputs.append(_call(segments, fn, *args))
        reps += count
    return Pass(time.perf_counter() - start, reps, segments, outputs)


def validate_check(inputs, p, checked):
    results = iter(p.outputs)
    for s, design, exact in inputs["cases"]:
        for mode in MODES:
            tag = f"{design} {mode}"
            util, rej, fwer = next(results), next(results), next(results)
            if any(isinstance(r, Exception) for r in (util, rej, fwer)):
                for r in (util, rej, fwer):
                    checked.record(not isinstance(r, Exception), f"{tag}: raised {r!r}")
                continue
            checked.record(_agrees(util, exact.expected_utility),
                           f"{tag}: MC utility {util} vs {exact.expected_utility!r}")
            checked.record(all(_agrees(rej[k], v) for k, v in (
                ("any", exact.power_any), ("F", exact.prob_reject_F),
                ("S_only", exact.prob_reject_S_only))), f"{tag}: MC rejection {rej}")
            checked.record(fwer.mean <= s.alpha + FWER_SE * fwer.std_error,
                           f"{tag}: FWER {fwer} above alpha")


def _agrees(estimate, exact):
    return abs(estimate.mean - exact) <= MC_SE * estimate.std_error + 1e-12


def validate_musd(inputs):
    return math.fsum(exact.expected_utility for _, _, exact in inputs["cases"])


# ---------------------------------------------------------------------------
# frontier: the alpha_F(alpha_S) trade-off over a dense (lambda_S, alpha_S) grid
# ---------------------------------------------------------------------------

def frontier_inputs(seed, smallest=False, out_dir=None):
    rng = random.Random(f"frontier/{seed}")
    lams = strata(rng, 2 if smallest else 16, 0.1, 0.9)
    alphas = strata(rng, 4 if smallest else 48, 0.0, ALPHA)
    # a draw of exactly 0 would be an endpoint, not a solve
    alphas = [a if a > 0.0 else ALPHA / 2 for a in alphas]
    return {"lambdas": lams, "alphas": alphas}


def frontier_warm_up(inputs):
    trialopt.alpha_F_given_alpha_S(inputs["alphas"][0], inputs["lambdas"][0], ALPHA)
    clear_level_cache()


def frontier_pass(inputs, in_process=True):
    solve = trialopt.alpha_F_given_alpha_S
    clear_level_cache()
    segments, outputs = [], []
    start = time.perf_counter()
    for lam in inputs["lambdas"]:
        for a in inputs["alphas"]:
            outputs.append(_call(segments, solve, a, lam, ALPHA))
    return Pass(time.perf_counter() - start, len(outputs), segments, outputs)


def upper_orthant(h, k, rho):
    """P(Z1 > h, Z2 > k) for h, k > 0 by Owen's T (Owen 1956), vectorized.

    Independent of ``trialopt.numerics``: used only to check the level
    condition the program solves.
    """
    h, k, rho = np.broadcast_arrays(np.asarray(h, float), np.asarray(k, float),
                                    np.asarray(rho, float))
    s = np.sqrt(1.0 - rho * rho)
    return (0.5 * (ndtr(-h) + ndtr(-k))
            - owens_t(h, (k - rho * h) / (h * s))
            - owens_t(k, (h - rho * k) / (k * s)))


def union_probability(alpha_S, alpha_F, lambda_S):
    """P(p_S <= alpha_S or p_F <= alpha_F) under the global null."""
    alpha_S, alpha_F = np.asarray(alpha_S, float), np.asarray(alpha_F, float)
    h, k = -ndtri(alpha_S), -ndtri(alpha_F)
    return alpha_S + alpha_F - upper_orthant(h, k, np.sqrt(lambda_S))


def frontier_check(inputs, p, checked):
    grid = [(lam, a) for lam in inputs["lambdas"] for a in inputs["alphas"]]
    values = p.outputs
    ok_idx = [i for i, v in enumerate(values) if not isinstance(v, Exception)]
    lam = np.array([grid[i][0] for i in ok_idx])
    a_s = np.array([grid[i][1] for i in ok_idx])
    a_f = np.array([values[i] for i in ok_idx], dtype=float)
    inside = (a_f > 0.0) & (a_f <= ALPHA)
    union = union_probability(a_s, np.where(inside, a_f, ALPHA / 2), lam)
    good = inside & (np.abs(union - ALPHA) <= LEVEL_TOL)
    verdict = dict(zip(ok_idx, good.tolist()))
    for i, (lam_i, a_i) in enumerate(grid):
        checked.record(verdict.get(i, False),
                       f"alpha_F({a_i!r}, lambda={lam_i!r}) = {values[i]!r}")


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    unit: str               # what one counted operation is
    op: str                 # what one latency sample is
    make_inputs: object
    warm_up: object
    run_pass: object
    check: object           # full check of one pass: check(inputs, pass, checked)
    kernel: str = "scalar"  # speed.KERNELS entry that resembles the timed work
    # Outputs of later passes are compared with the first pass through this
    # key; None means every pass is checked in full (new files each pass).
    repeat_key: object = None

    def compare(self, first_keys, p, checked):
        for i, out in enumerate(p.outputs):
            checked.record(self.repeat_key(out) == first_keys[i],
                           f"pass output {i} differs from the first pass")

    def check_all(self, inputs, passes):
        """Full check of the first pass; later passes must repeat it."""
        checked = Checked()
        self.check(inputs, passes[0], checked)
        first_keys = [self.repeat_key(o) for o in passes[0].outputs] if self.repeat_key else None
        for p in passes[1:]:
            if first_keys is None:
                self.check(inputs, p, checked)
            else:
                self.compare(first_keys, p, checked)
        return checked


WORKLOADS = {
    "optimize": Workload("optimize", "decisions", "one select_design call",
                         optimize_inputs, optimize_warm_up, optimize_pass, optimize_check,
                         repeat_key=_outcome_key),
    "sweep": Workload("sweep", "sweep/contour cells", "one sweep+contour study",
                      sweep_inputs, sweep_warm_up, sweep_pass, sweep_check),
    "validate": Workload("validate", "simulated trial replicates", "one MC estimator call",
                         validate_inputs, validate_warm_up, validate_pass, validate_check,
                         kernel="vector", repeat_key=repr),
    "frontier": Workload("frontier", "level-condition solves", "one level-condition solve",
                         frontier_inputs, frontier_warm_up, frontier_pass, frontier_check,
                         repeat_key=repr),
}


def optimum_musd(name, inputs, first):
    """Summed prior-averaged utility of the designs a run selected or validated."""
    if name == "optimize":
        return optimize_musd(first)
    if name == "sweep":
        return _sweep_selected_eu(first)
    if name == "validate":
        return validate_musd(inputs)
    return 0.0


def _sweep_selected_eu(p):
    out, codes = p.outputs[0]
    if codes[1] != 0:
        return 0.0
    _, long_rows = _read_csv(os.path.join(out, "contour_long.csv"), "contour")
    return math.fsum(float(r[4]) for r in long_rows)
