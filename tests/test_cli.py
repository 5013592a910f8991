import ast
import collections
import contextlib
import dataclasses
import math
import os
import signal
import subprocess
import sys
import warnings

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import trialopt
from trialopt import optimizer
from trialopt.cli import MAX_GRID_COUNT, RunManifest, _parse_grid_spec, main
from trialopt.mc_oracle import (
    BINOMIAL_RANDOM,
    FIXED_PROPORTIONAL,
    FWER,
    MAX_BINOMIAL_N,
    REJECTION_PROBS,
    UTILITY,
    SimConfig,
    mc_expected_utility,
    mc_fwer,
)
from trialopt.model import (
    _FLAT_FIELDS,
    NO_TRIAL,
    DesignSpec,
    EffectPair,
    builtin_prior,
    parse_config_text,
    scenario_from_mapping,
)
from trialopt.numerics import NumericError
from trialopt.optimizer import MAX_ALPHA_POINTS, MAX_JOBS, GridConfig
from conftest import make_scenario

CONFIG_CASE1 = """\
# weak prior, large market, no biomarker costs
lambda_S = 0.5
cost.setup = 1.0
cost.per_patient = 0.05
reward.perspective = sponsor
reward.NrS = 10000
reward.NrF = 10000
reward.mu_S = 0.1
reward.mu_F = 0.1
prior.kind = weak
prior.delta = 0.3
grid.n_points = 50,65,85,110,145,190,250,330,430,560,730,950,1250,1600,2100,2700
grid.alpha_points = 11
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "case1.cfg"
    path.write_text(CONFIG_CASE1)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema=trialopt.")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


# the directory holding the trialopt package this suite imports
_SRC = os.path.dirname(os.path.dirname(trialopt.__file__))


def _python(*args):
    """Run a cold interpreter on the trialopt package this suite imports;
    the timeout fails a run that never ends instead of hanging the suite."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=_SRC))


class TestOptimizeCommand:
    def test_manifest_roundtrip_and_outputs(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["optimize", "--config", config_path, "--out", str(out)])
        text = (out / "optimize_manifest.json").read_text()
        manifest = RunManifest.from_json(text)
        assert manifest.command == "optimize"
        assert manifest.to_json() == text.rstrip("\n")
        for output in manifest.outputs:
            assert os.path.exists(output)
        assert manifest.scenario["lambda_S"] == 0.5

    def test_zero_rewards_select_no_trial(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--config", config_path, "--out", str(out),
                     "--set", "reward.NrS=0", "--set", "reward.NrF=0"]) == 0
        header, rows = read_rows(out / "optimize.csv")
        assert {r[0]: r[1] for r in rows} == {
            "NoTrial": "1", "Classical": "0", "Stratified": "0", "Enrichment": "0"}


class TestEvaluateCommand:
    def test_single_row_with_full_precision(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["evaluate", "--config", config_path, "--design", "stratified",
                     "--n", "300", "--alpha-s", "0.0125", "--out", str(out)]) == 0
        header, rows = read_rows(out / "evaluate.csv")
        assert len(rows) == 1
        eu = float(rows[0][header.index("expected_utility")])
        # recompute in process: the CSV repr must round-trip exactly
        mapping = parse_config_text(CONFIG_CASE1)
        scenario = scenario_from_mapping(mapping)
        GridConfig.consume_mapping(mapping)
        want = trialopt.eu_prior_averaged(DesignSpec.stratified(300, 0.0125), scenario)
        assert eu == want.expected_utility

    def test_negative_zero_alpha_s_is_written_as_zero(self, config_path, tmp_path):
        assert main(["evaluate", "--config", config_path, "--design", "stratified",
                     "--n", "100", "--alpha-s", "-0", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "evaluate.csv")
        assert rows[0][header.index("alpha_S")] == "0.0"

    def test_tiny_sigma_runs_without_warnings(self, config_path, tmp_path):
        # sigma = 1e-160 puts the CDF's bounds near 1e160, where x * y and
        # x * x overflow; the fixed-rho CDF clips them to its saturated range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--config", config_path, "--design", "stratified",
                         "--n", "100", "--alpha-s", "0.0125", "--set", "sigma=1e-160",
                         "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "evaluate.csv")
        assert all(math.isfinite(float(v)) for v in rows[0][1:])

    def test_level_condition_failure_exits_3(self, config_path, tmp_path, capsys,
                                             broken_orthant):
        assert main(["evaluate", "--config", config_path, "--design", "stratified",
                     "--n", "100", "--alpha-s", "0.0125", "--out", str(tmp_path)]) == 3
        assert "left of the root" in capsys.readouterr().err


class TestSweepCommand:
    def test_single_point_grid_gives_one_row(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--lambda-grid", "0.5:0.5:1"]) == 0
        header, rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert header[0] == "lambda_S"
        assert rows[0][-1] == "Stratified"

NEGATIVE_DELTA = "config error: prior effect parameter delta must be >= 0\n"


class TestGridSpecs:
    @pytest.mark.parametrize("command, flag, spec, err", [
        ("contour", "--delta-grid", "-0.1,0", NEGATIVE_DELTA),
        ("contour", "--delta-grid", "-1:0:2", NEGATIVE_DELTA),
        ("sweep", "--lambda-grid", "-0.1,0.5", ""),
        ("sweep", "--lambda-grid", "-0.1:0.5:2", ""),
        ("sweep", "--lambda-grid", "-.1,nan",
         "config error: grid specification '-.1,nan' has a non-finite value\n"),
    ])
    def test_negative_spec_in_the_spaced_form(self, config_path, tmp_path, capsys,
                                              command, flag, spec, err):
        # argparse takes '-0.1,0.5', which is no plain negative number, for
        # an option: the spaced form must give the '=' form's exit code,
        # stderr and tables
        def run(form, value):
            out = tmp_path / form
            code = main([command, "--config", config_path, "--out", str(out), *value])
            tables = sorted((p.name, p.read_bytes()) for p in out.glob("*.csv"))
            return code, capsys.readouterr().err, tables

        spaced = run("spaced", [flag, spec])
        assert spaced == run("joined", [f"{flag}={spec}"])
        assert spaced[:2] == (2 if err else 0, err)
        assert [name for name, _ in spaced[2]] == ([] if err else [f"{command}.csv"])

    def test_finite_lambdas_still_clamped(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--lambda-grid", "0.0,0.99"]) == 0
        _, rows = read_rows(out / "sweep.csv")
        assert [float(r[0]) for r in rows] == [0.05, 0.95]


class TestContourCommand:
    def test_huge_subgroup_floor_runs_without_warnings(self, config_path, tmp_path):
        # mu_S = 1e300 puts region breakpoints near 1e300, where the normal
        # density's x * x overflows to inf and the density is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["contour", "--config", config_path, "--out", str(tmp_path),
                         "--set", "reward.mu_S=1e300", "--set", "grid.n_points=50,200",
                         "--set", "grid.alpha_points=3",
                         "--lambda-grid", "0.3,0.6", "--delta-grid", "0,0.3"]) == 0


class TestSimulateCommand:
    def test_binomial_n_cap(self, config_path, tmp_path):
        # binomial mode builds a pmf over 0..n per chunk, so it takes n up
        # to its cap (one past it is a _REFUSALS row); fixed mode and
        # evaluate take any n
        def run(command, n, *flags):
            return main([command, "--config", config_path, "--design", "classical",
                         "--n", str(n), "--out", str(tmp_path), *flags])

        assert run("simulate", MAX_BINOMIAL_N, "--mode", "binomial", "--replicates", "1") == 0
        assert run("simulate", MAX_BINOMIAL_N + 1, "--mode", "fixed", "--replicates", "1") == 0
        assert run("evaluate", MAX_BINOMIAL_N + 1) == 0

    @pytest.mark.parametrize("flags", [
        ["--design", "enrichment", "--n", "100", "--seed", "11"],
        ["--design", "stratified", "--n", "200", "--alpha-s", "0.01", "--seed", "3",
         "--estimand", "fwer", "--mode", "binomial"],
    ])
    def test_same_seed_identical_bytes(self, config_path, tmp_path, flags):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", config_path, "--replicates", "20000", *flags]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "simulate.csv").read_bytes() == (out2 / "simulate.csv").read_bytes()

    def test_fwer_estimand(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", config_path, "--design", "classical",
                     "--n", "100", "--replicates", "20000", "--seed", "3",
                     "--estimand", "fwer", "--out", str(out)]) == 0
        header, rows = read_rows(out / "simulate.csv")
        assert rows[0][0] == "fwer"
        assert abs(float(rows[0][header.index("mean")]) - 0.025) < 0.01

    @pytest.mark.parametrize("design", [
        ["stratified", "--n", "200", "--alpha-s", "0.0125", "--atom", "0.3,0.15"],
        ["classical", "--n", "200"],
    ])
    def test_rejection_estimand_rows(self, config_path, tmp_path, design):
        out = tmp_path / "run"
        assert main(["simulate", "--config", config_path, "--design", *design,
                     "--replicates", "20000", "--seed", "3", "--estimand", "rejection",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "simulate.csv")
        assert [r[0] for r in rows] == [
            "prob_reject_any", "prob_reject_F", "prob_reject_S_only"]

    def test_negative_atom_in_the_spaced_form(self, config_path, tmp_path):
        # argparse takes '-0.1,-0.2', which is no plain negative number, for
        # an option: the spaced form must still run as the '=' form does
        args = ["simulate", "--config", config_path, "--design", "stratified",
                "--n", "200", "--alpha-s", "0.01", "--replicates", "2000",
                "--estimand", "fwer"]
        for form, atom in (("spaced", ["--atom", "-0.1,-0.2"]),
                           ("joined", ["--atom=-0.1,-0.2"])):
            assert main(args + [*atom, "--out", str(tmp_path / form)]) == 0
        assert ((tmp_path / "spaced" / "simulate.csv").read_bytes()
                == (tmp_path / "joined" / "simulate.csv").read_bytes())


class TestErrorHandling:
    def test_set_override_wins(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["evaluate", "--config", config_path,
                     "--set", "reward.NrS=0", "--set", "reward.NrF=0",
                     "--design", "classical", "--n", "50",
                     "--out", str(out)]) == 0
        header, rows = read_rows(out / "evaluate.csv")
        eu = float(rows[0][header.index("expected_utility")])
        assert eu == pytest.approx(-6.0, abs=1e-12)

    def test_numeric_failure_exit_code(self, config_path, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise NumericError("forced")

        monkeypatch.setattr(optimizer, "optimize_family", boom)
        assert main(["optimize", "--config", config_path,
                     "--out", str(tmp_path)]) == 3

    def test_numeric_failure_in_pool_worker_exit_code(self, config_path, tmp_path,
                                                      monkeypatch):
        # Patched before the pool forks, so every worker cell raises; the
        # error must come back through pickling and map to exit code 3.
        def boom(*args, **kwargs):
            raise NumericError("forced")

        monkeypatch.setattr(optimizer, "optimize_family", boom)
        assert main(["sweep", "--config", config_path, "--out", str(tmp_path),
                     "--jobs", "2", "--lambda-grid", "0.3,0.6"]) == 3

    def test_pool_worker_warnings_show_once_on_success_only(self, config_path, tmp_path,
                                                            monkeypatch, capsys):
        # Every cell warns in its worker: a sweep that succeeds shows the
        # warning once in the parent, and one that fails prints its line
        # alone.
        decide = optimizer.decide

        def warning_decide(scenario, grid_config=None):
            warnings.warn("cell warning", RuntimeWarning)
            if scenario.costs.setup > 1.0:
                raise NumericError("forced")
            return decide(scenario, grid_config)

        monkeypatch.setattr(optimizer, "decide", warning_decide)
        argv = ["sweep", "--config", config_path, "--jobs", "2", "--lambda-grid", "0.3,0.6",
                "--set", "grid.n_points=50,200", "--set", "grid.alpha_points=3"]
        for setup, code, shown in (("1", 0, ["cell warning"]), ("2", 3, [])):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                assert main(argv + ["--set", f"cost.setup={setup}",
                                    "--out", str(tmp_path / setup)]) == code
            # (Python 3.12+ may add a DeprecationWarning on forking)
            assert [str(w.message) for w in caught if w.category is RuntimeWarning] == shown
        assert capsys.readouterr().err == "numeric failure: forced\n"


def _scenario(document):
    return scenario_from_mapping(parse_config_text(document))


def _case1():
    return _scenario(CONFIG_CASE1)


def _library_error(call):
    """The message of the ValueError a library call raises."""
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


_SIMULATE = ["simulate", "--design", "classical", "--n", "200", "--replicates", "1000"]

# Case 1 with a NaN prior weight, or one atom, in place of its built-in prior.
CONFIG_NAN_WEIGHT = CONFIG_CASE1.replace("prior.kind = weak\nprior.delta = 0.3\n",
                                         "prior.atoms = 0.3,0,nan; 0.3,0.3,1.0\n")
CONFIG_ATOMS = CONFIG_CASE1.replace("prior.kind = weak\nprior.delta = 0.3\n",
                                    "prior.atoms = 0.3,0.0,1.0\n")
# prior.delta shapes only a built-in prior: beside prior.atoms, or with no
# prior.kind, it would be dropped without a word
CONFIG_DELTA_BESIDE_ATOMS = CONFIG_ATOMS + "prior.delta = 7\n"
CONFIG_DELTA_ALONE = CONFIG_CASE1.replace("prior.kind = weak\n", "").replace(
    "prior.delta = 0.3", "prior.delta = 7")

_NON_INTEGRAL = ["10.5", "nan", "inf", "-inf"]

# Every input the CLI refuses: (CLI arguments, expected line[, the
# configuration document in place of case 1, or None for none at all]).
# The line after "config error: " is the whole message of a library call
# that rejects the same input, or starts with a literal, for the messages
# of argparse, the CLI's readers and those bearing a path. The config and
# output flags come last, in the '=' form, so that with no command the
# config path is not read as one.
_REFUSALS = {
    "atom_order": (_SIMULATE + ["--atom", "0.1,0.3"], lambda: EffectPair(0.1, 0.3)),
    "n_zero": (["evaluate", "--design", "classical", "--n", "0"],
               lambda: DesignSpec("classical", n=0)),
    "alpha_s_above_alpha": (
        ["evaluate", "--design", "stratified", "--n", "200", "--alpha-s", "0.5"],
        lambda: DesignSpec.stratified(200, 0.5).check_against(_case1())),
    "replicates_zero": (
        ["simulate", "--design", "classical", "--n", "200", "--replicates", "0"],
        lambda: SimConfig(replicates=0, seed=0, strata_mode=FIXED_PROPORTIONAL)),
    "seed_negative": (_SIMULATE + ["--seed", "-1"],
                      lambda: SimConfig(replicates=1000, seed=-1, strata_mode=FIXED_PROPORTIONAL)),
    "seed_negative_no_trial": (
        ["simulate", "--design", "none", "--replicates", "1000", "--seed", "-1"],
        lambda: SimConfig(replicates=1000, seed=-1, strata_mode=FIXED_PROPORTIONAL)),
    "fwer_not_null": (
        _SIMULATE + ["--estimand", "fwer", "--atom", "0.1,0"],
        lambda: mc_fwer(DesignSpec("classical", n=200), _case1(), EffectPair(0.1, 0.0),
                        SimConfig(replicates=1000, seed=0, strata_mode=FIXED_PROPORTIONAL))),
    # binomial mode builds a pmf over 0..n per chunk
    "binomial_n_cap": (
        ["simulate", "--design", "classical", "--n", str(MAX_BINOMIAL_N + 1),
         "--replicates", "1000", "--mode", "binomial"],
        lambda: mc_expected_utility(
            DesignSpec("classical", n=MAX_BINOMIAL_N + 1), _case1().prior, _case1(),
            SimConfig(replicates=1000, seed=0, strata_mode=BINOMIAL_RANDOM))),
    # as n_min = 1e400 does, a 401-digit --n fails as a bad value
    "n_beyond_a_double_evaluate": (["evaluate", "--design", "classical", "--n", str(10 ** 400)],
                                   lambda: DesignSpec("classical", n=10 ** 400)),
    "n_beyond_a_double_simulate": (["simulate", "--design", "classical", "--n", str(10 ** 400)],
                                   lambda: DesignSpec("classical", n=10 ** 400)),
    "alpha_points_one": (["optimize", "--set", "grid.alpha_points=1"],
                         lambda: GridConfig(alpha_points=1)),
    "lambda_above_one": (["optimize", "--set", "lambda_S=2"],
                         lambda: dataclasses.replace(_case1(), lambda_S=2.0)),
    "prior_delta_not_a_number": (
        ["optimize", "--set", "prior.delta=abc"],
        lambda: _scenario(CONFIG_CASE1.replace("prior.delta = 0.3", "prior.delta = abc"))),
    "prior_delta_beside_atoms": (["optimize"], lambda: _scenario(CONFIG_DELTA_BESIDE_ATOMS),
                                 CONFIG_DELTA_BESIDE_ATOMS),
    "prior_delta_alone": (["optimize"], lambda: _scenario(CONFIG_DELTA_ALONE),
                          CONFIG_DELTA_ALONE),
    # 2 sigma^2 overflows, or rounds to 0: every family is refused alike,
    # before any kernel
    "sigma_huge_classical": (
        ["evaluate", "--design", "classical", "--n", "200", "--set", "sigma=1e300"],
        lambda: dataclasses.replace(_case1(), sigma=1e300)),
    "sigma_huge_stratified": (
        ["evaluate", "--design", "stratified", "--n", "200", "--alpha-s", "0.01",
         "--set", "sigma=1e300"],
        lambda: dataclasses.replace(_case1(), sigma=1e300)),
    "sigma_huge_optimize": (["optimize", "--set", "sigma=9.5e153"],
                            lambda: dataclasses.replace(_case1(), sigma=9.5e153)),
    "sigma_tiny_evaluate": (
        ["evaluate", "--design", "classical", "--n", "100", "--set", "sigma=1e-300"],
        lambda: dataclasses.replace(_case1(), sigma=1e-300)),
    "sigma_tiny_optimize": (["optimize", "--set", "sigma=1e-300"],
                            lambda: dataclasses.replace(_case1(), sigma=1e-300)),
    # the classical mixture variance overflows: refused where the prior
    # enters, naming its effect, not as a bare overflow
    "prior_delta_huge_evaluate": (
        ["evaluate", "--design", "classical", "--n", "200", "--set", "prior.delta=1e300"],
        lambda: dataclasses.replace(_case1(), prior=builtin_prior("weak", 1e300))),
    "prior_delta_huge_optimize": (
        ["optimize", "--set", "prior.delta=1e155"],
        lambda: dataclasses.replace(_case1(), prior=builtin_prior("weak", 1e155))),
    # the design flags go to DesignSpec as given: a flag the design does
    # not take, or one it needs and lacks, is the library's error
    "classical_alpha_s": (["evaluate", "--design", "classical", "--n", "100", "--alpha-s", "0.01"],
                          lambda: DesignSpec("classical", n=100, alpha_S=0.01)),
    "none_n_alpha_s": (["evaluate", "--design", "none", "--n", "100", "--alpha-s", "0.01"],
                       lambda: DesignSpec(NO_TRIAL, n=100, alpha_S=0.01)),
    "none_n": (["evaluate", "--design", "none", "--n", "100"],
               lambda: DesignSpec(NO_TRIAL, n=100)),
    "enrichment_alpha_s": (["simulate", "--design", "enrichment", "--n", "100",
                            "--alpha-s", "0.01", "--replicates", "1000"],
                           lambda: DesignSpec("enrichment", n=100, alpha_S=0.01)),
    "classical_no_n": (["evaluate", "--design", "classical"], lambda: DesignSpec("classical")),
    "stratified_no_alpha_s": (["simulate", "--design", "stratified", "--n", "100",
                               "--replicates", "1000"],
                              lambda: DesignSpec("stratified", n=100)),
    "stratified_no_alpha_s_evaluate": (["evaluate", "--design", "stratified", "--n", "100"],
                                       lambda: DesignSpec("stratified", n=100)),
    # a NaN weight passes a sign and a sum check: it is refused by name,
    # not met as a failed search or a Monte Carlo draw
    **{f"nan_weight_{argv[0]}": (argv, lambda: _scenario(CONFIG_NAN_WEIGHT), CONFIG_NAN_WEIGHT)
       for argv in (["evaluate", "--design", "classical", "--n", "100"], ["optimize"],
                    _SIMULATE)},
    # A pool starts all its workers at its first task under fork, and a
    # contour builds every cell's scenario before the first decision: each
    # cap is checked before either.
    "jobs_zero": (["sweep", "--lambda-grid", "0.3,0.6", "--jobs", "0"],
                  lambda: optimizer.sweep_prevalence(_case1(), [0.3, 0.6], jobs=0)),
    "jobs_negative": (["sweep", "--lambda-grid", "0.3,0.6", "--jobs", "-1"],
                      lambda: optimizer.sweep_prevalence(_case1(), [0.3, 0.6], jobs=-1)),
    "jobs_above_cap": (["sweep", "--lambda-grid", "0.5", "--jobs", str(MAX_JOBS + 1)],
                       lambda: optimizer.sweep_prevalence(_case1(), [0.5], jobs=MAX_JOBS + 1)),
    # 73 x 137 = MAX_GRID_COUNT + 1
    "contour_cells_above_cap": (
        ["contour", "--lambda-grid", "0.05:0.95:73", "--delta-grid", "0:1:137"],
        lambda: optimizer.sweep_contour(_case1(), np.linspace(0.05, 0.95, 73),
                                        np.linspace(0.0, 1.0, 137))),
    "contour_without_prior_kind": (["contour"],
                                   lambda: optimizer.sweep_contour(_scenario(CONFIG_ATOMS),
                                                                   [0.5], [0.3]),
                                   CONFIG_ATOMS),
    # A count never rounds, and an infinite one fails as a bad value rather
    # than an overflow; a count past its cap fails before any grid is built.
    **{f"count_{key}_{value}": (["sweep", "--set", f"{key}={value}"],
                                lambda key=key, value=value: GridConfig.consume_mapping(
                                    {key: value}))
       for key in ("grid.n_points", "grid.alpha_points") for value in _NON_INTEGRAL},
    **{f"count_lambda_grid_{value}": (["sweep", "--lambda-grid", f"0.3:0.6:{value}"],
                                      f"bad grid specification '0.3:0.6:{value}'")
       for value in _NON_INTEGRAL},
    "alpha_points_above_cap": (["sweep", "--set", f"grid.alpha_points={MAX_ALPHA_POINTS + 1}"],
                               lambda: GridConfig(alpha_points=MAX_ALPHA_POINTS + 1)),
    "alpha_points_above_cap_float": (
        ["sweep", "--set", f"grid.alpha_points={float(MAX_ALPHA_POINTS + 1):e}"],
        lambda: GridConfig(alpha_points=MAX_ALPHA_POINTS + 1)),
    "lambda_count_above_cap": (["sweep", "--lambda-grid", f"0.3:0.7:{MAX_GRID_COUNT + 1}"],
                               f"bad grid specification '0.3:0.7:{MAX_GRID_COUNT + 1}'"),
    "lambda_count_above_cap_float": (
        ["sweep", "--lambda-grid", f"0.3:0.7:{float(MAX_GRID_COUNT + 1):e}"],
        f"bad grid specification '0.3:0.7:{float(MAX_GRID_COUNT + 1):e}'"),
    # a grid specification with no value, or a non-finite one
    "grid_empty": (["contour", "--lambda-grid", ""], "grid specification '' has no values"),
    "grid_comma_delta": (["contour", "--delta-grid", ","], "grid specification ',' has no values"),
    "grid_comma_lambda": (["sweep", "--lambda-grid", ","], "grid specification ',' has no values"),
    "grid_nan_inf": (["sweep", "--lambda-grid", "nan,inf"],
                     "grid specification 'nan,inf' has a non-finite value"),
    "grid_minus_inf": (["sweep", "--lambda-grid", "0.3,-inf"],
                       "grid specification '0.3,-inf' has a non-finite value"),
    "grid_nan_stop": (["sweep", "--lambda-grid", "0.2:nan:3"],
                      "grid specification '0.2:nan:3' has a non-finite value"),
    "grid_inf_stop": (["contour", "--delta-grid", "0:inf:2"],
                      "grid specification '0:inf:2' has a non-finite value"),
    "config_missing": (["optimize"], "cannot read config file: [Errno 2] No such file", None),
    "unknown_key": (["optimize"], "unknown config keys: lambda_s",
                    CONFIG_CASE1 + "lambda_s = 0.4\n"),
    # every search refines and stops at one fixed tolerance, so a stale
    # refine.* key is an error, not a silently ignored setting
    "refine_enabled": (["optimize", "--set", "refine.enabled=false"],
                       "unknown config keys: refine.enabled"),
    "refine_tol": (["optimize", "--set", "refine.tol=1e-5"], "unknown config keys: refine.tol"),
    "refine_tol_nan": (["optimize", "--set", "refine.tol=nan"],
                       "unknown config keys: refine.tol"),
    # argparse's message alone, as for every other bad input: no usage block
    "n_float_notation": (["evaluate", "--design", "classical", "--n", "1e2"],
                         "argument --n: invalid int value: '1e2'"),
    "design_unknown": (["evaluate", "--design", "x"],
                       "argument --design: invalid choice: 'x'"),
    # --jobs belongs to sweep and contour, the commands with cells
    "jobs_on_evaluate": (["evaluate", "--design", "classical", "--n", "100", "--jobs", "2"],
                         "unrecognized arguments: --jobs 2"),
    # --figures takes no value, so a negative token after it stays an
    # argument of its own
    "figures_value": (["sweep", "--figures", "-0.1,0.5"],
                      "unrecognized arguments: -0.1,0.5"),
    "atom_no_value": (_SIMULATE + ["--atom"], "argument --atom: expected one argument"),
    "atom_before_flag": (_SIMULATE + ["--atom", "--seed", "3"],
                         "argument --atom: expected one argument"),
    "no_command": ([], "the following arguments are required: command"),
    "atom_one_part": (_SIMULATE + ["--atom", "0.1"],
                      "--atom expects 'delta_S,delta_Sc[,offset]'"),
    "atom_not_a_number": (_SIMULATE + ["--atom", "0.1,x"], "--atom: not a number in '0.1,x'"),
    "set_no_equals": (["optimize", "--set", "cost.setup"],
                      "--set needs key=value, got 'cost.setup'"),
}


def _refusal_line(capsys, out):
    """The one stderr line of a failed run, which printed nothing else and
    created no output directory."""
    printed = capsys.readouterr()
    assert printed.out == "" and printed.err.count("\n") == 1 and printed.err.endswith("\n")
    assert not out.exists()
    return printed.err


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_refused_input_exits_2_with_one_line(tmp_path, capsys, alarm, name):
    # Every ValueError, from argparse, the config readers, the flags or a
    # library domain check, is exit 2 and one stderr line, before any
    # output; the deadline fails a giant count that allocates.
    argv, expected, *document = _REFUSALS[name]
    config, out = tmp_path / "scenario.cfg", tmp_path / "run"
    document = document[0] if document else CONFIG_CASE1
    if document is not None:
        config.write_text(document)
    assert main([*argv, f"--config={config}", f"--out={out}"]) == 2
    err = _refusal_line(capsys, out)
    if callable(expected):
        assert err == f"config error: {_library_error(expected)}\n"
    else:
        assert err.startswith(f"config error: {expected}")


@pytest.mark.parametrize("out", ["file", os.path.join("file", "sub")])
@pytest.mark.parametrize("argv", [["evaluate", "--design", "classical", "--n", "100"],
                                  ["contour"]])
def test_unusable_out_exits_2_with_one_line(config_path, tmp_path, capsys, monkeypatch,
                                            argv, out):
    # an --out that is a file, or lies below one, cannot be written: it is
    # refused before the first decision
    (tmp_path / "file").write_text("")
    decisions = []
    monkeypatch.setattr(optimizer, "decide", lambda *args: decisions.append(args))
    assert main([*argv, "--config", config_path, "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert decisions == []


# A sponsor case-3 document (strong prior, biomarker costs) with the
# default grid, whose first stage-1 block leaves later blocks to the bound.
CONFIG_CASE3_DEFAULT_GRID = """\
lambda_S = 0.4
cost.setup = 1.0
cost.per_patient = 0.05
cost.biomarker = 10
cost.screening = 0.005
reward.perspective = sponsor
reward.NrS = 1000
reward.NrF = 1000
reward.mu_S = 0.1
reward.mu_F = 0.1
prior.kind = strong
prior.delta = 0.3
"""

# A subgroup reward scale near the largest double: the classical family,
# paid on NrF, stays finite, and the stratified rewards overflow.
_HUGE_REWARDS = ["--set", "reward.NrS=1.7e308", "--set", "prior.delta=10"]

_PUBLIC = ["--set", "reward.perspective=public"]

# Every numeric failure: (configuration document, CLI arguments, its line).
_EXIT_3_REPROS = {
    # a per-patient cost of 1e308 makes every classical size cost inf; the
    # overflow warnings of the failed run never leave main
    "cost_overflow": (CONFIG_CASE1, ["optimize", "--set", "cost.per_patient=1e308"],
                      "classical: no grid point has a finite expected utility"),
    # rewards overflow to inf in every stratified row: the alpha_S
    # narrowing has no finite spread to stop on
    "narrowing_overflow": (CONFIG_CASE1, ["optimize", *_HUGE_REWARDS],
                           "stratified: the alpha_S narrowing at n = 50 met a "
                           "non-finite expected utility"),
    # the stage-1 bound's spread of the reward gap stays finite, so the
    # same rewards reach the narrowing, not a bare OverflowError
    "bound_overflow": (CONFIG_CASE3_DEFAULT_GRID, ["optimize", *_HUGE_REWARDS],
                       "stratified: the alpha_S narrowing at n = 50 met a "
                       "non-finite expected utility"),
    # a written number is finite: a public reward floor near the largest
    # double makes the reward -inf, and a per-patient cost there makes
    # every replicate's payoff -inf
    "evaluate_reward_overflow": (
        CONFIG_CASE1, ["evaluate", "--design", "classical", "--n", "200", *_PUBLIC,
                       "--set", "reward.mu_F=1.7e308"],
        "the result of DesignSpec(kind='classical', n=200, alpha_S=None) is not finite: "
        "expected_utility = -inf, expected_reward_F = -inf"),
    "simulate_cost_overflow": (
        CONFIG_CASE1, ["simulate", "--design", "stratified", "--n", "200", "--alpha-s", "0.01",
                       "--replicates", "2000", *_PUBLIC, "--set", "cost.per_patient=1.7e308"],
        "the Monte Carlo estimate is not finite: mean = -inf, std_error = nan"),
    # a finite mean whose sums of squares overflow: the variance is
    # inf - inf, and its standard error is NaN, not 0
    "simulate_variance_overflow": (
        CONFIG_CASE1, ["simulate", "--design", "stratified", "--n", "200", "--alpha-s", "0.01",
                       "--replicates", "2000", *_PUBLIC, "--set", "cost.setup=1e300"],
        "the Monte Carlo estimate is not finite: std_error = nan"),
}


@pytest.mark.parametrize("name", sorted(_EXIT_3_REPROS))
def test_exit_3_prints_its_line_alone(tmp_path, name):
    # in a process of its own, whose stderr is exactly the one line, and
    # which writes no output
    config, argv, message = _EXIT_3_REPROS[name]
    config_path, out = tmp_path / "scenario.cfg", tmp_path / "run"
    config_path.write_text(config)
    proc = _python("-m", "trialopt.cli", *argv, "--config", str(config_path), "--out", str(out))
    assert (proc.returncode, proc.stderr) == (3, f"numeric failure: {message}\n")
    assert not out.exists()


def test_successful_run_shows_its_warnings(config_path, tmp_path):
    # a run that succeeds keeps its warnings: a sponsor evaluate whose
    # reward floor overflows the standardized floor to inf writes its
    # finite utility, no reward, and warns once
    argv = ["evaluate", "--config", config_path, "--out", str(tmp_path),
            "--design", "classical", "--n", "200", "--set", "reward.mu_F=1.7e308"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "overflow encountered in divide")]
    header, rows = read_rows(tmp_path / "evaluate.csv")
    assert rows[0][header.index("expected_reward_F")] == "0.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning):
            main(argv)


def test_alpha_S_one_ulp_below_alpha_at_tiny_prevalence(config_path, tmp_path):
    # the level solve's Newton step from alpha_F = alpha lands past 0; it
    # ends there, where the union is alpha_S, within the solve's tolerance
    assert main(["evaluate", "--config", config_path, "--out", str(tmp_path),
                 "--design", "stratified", "--n", "200", "--alpha-s", "0.024999999999999998",
                 "--set", "lambda_S=1e-9"]) == 0
    header, rows = read_rows(tmp_path / "evaluate.csv")
    assert rows[0][header.index("alpha_F")] == "0.0"


@contextlib.contextmanager
def _deadline(seconds=20):
    """Fail a run that goes past ``seconds`` instead of letting it hang."""
    def expire(signum, frame):
        raise TimeoutError(f"run did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def alarm():
    with _deadline():
        yield


TINY_GRID = ["--set", "grid.n_points=50,200,800", "--set", "grid.alpha_points=3",
             "--lambda-grid", "0.3,0.7", "--figures"]


@pytest.mark.parametrize("command, extra", [
    ("sweep", []),
    ("contour", ["--delta-grid", "0,0.3"]),
])
def test_outputs_identical_in_every_execution_mode(config_path, tmp_path, command, extra):
    # In-process with one and two workers, and a cold `python -O` process.
    argv = [command, "--config", config_path, *TINY_GRID, *extra]
    runs = {}
    for jobs in ("1", "2"):
        runs[jobs] = tmp_path / f"jobs{jobs}"
        assert main(argv + ["--jobs", jobs, "--out", str(runs[jobs])]) == 0
    runs["-O"] = tmp_path / "optimized"
    proc = _python("-O", "-m", "trialopt.cli", *argv, "--out", str(runs["-O"]))
    assert proc.returncode == 0, proc.stderr
    for name in (f"{command}.csv", f"{command}_long.csv"):
        want = (runs["1"] / name).read_bytes()
        assert (runs["2"] / name).read_bytes() == want
        assert (runs["-O"] / name).read_bytes() == want


def test_package_holds_nothing_python_O_removes():
    # python -O drops assert statements and reads __debug__ as False, and
    # changes nothing else: a package with neither runs the same checks
    # under -O, so Tier-1 runs once, and the -O run above is the end to
    # end check
    package = os.path.dirname(trialopt.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)
                      or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


_GOLDEN_CLI = os.path.join(os.path.dirname(__file__), "golden", "cli")


def test_sweep_and_contour_csvs_are_the_golden_ones(tmp_path):
    # The four CSVs of a pooled sweep and contour on tests/golden/cli's
    # scenario, byte for byte: the no-trial cell's empty n_opt, every
    # family's optimum and each selected label.
    config = os.path.join(_GOLDEN_CLI, "scenario.cfg")
    for command, grids in (("sweep", ["--lambda-grid", "0.2,0.5,0.8"]),
                           ("contour", ["--lambda-grid", "0.3,0.7", "--delta-grid", "0,0.3"])):
        assert main([command, "--config", config, "--jobs", "2", "--figures", *grids,
                     "--out", str(tmp_path)]) == 0
    for name in ("sweep.csv", "sweep_long.csv", "contour.csv", "contour_long.csv"):
        with open(os.path.join(_GOLDEN_CLI, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


def test_size_list_order_and_repeats_never_show(config_path, tmp_path):
    # Refinement searches between a grid size and its neighbours in the
    # list, so the list is taken sorted and without repeats: here an
    # unsorted one used to move classical from n = 289 to n = 400.
    public = ["--set", "reward.perspective=public", "--set", "reward.NrS=1000",
              "--set", "reward.NrF=1000"]
    csvs = []
    for sizes in ("100,200,400", "400,100,200", "100,400,200", "200,100,400,100,200"):
        out = tmp_path / sizes.replace(",", "_")
        assert main(["optimize", "--config", config_path, "--out", str(out), *public,
                     "--set", f"grid.n_points={sizes}"]) == 0
        csvs.append((out / "optimize.csv").read_bytes())
    assert csvs[1:] == csvs[:1] * 3


@pytest.mark.parametrize("sizes, code, n_grid", [
    ("100.9,200.2", 2, None), ("100,200.5", 2, None), ("1e2,1e3", 0, (100, 1000)),
    ("200,", 0, (200,)), ("12", 2, None), ("1e1", 2, None), ("10.0", 2, None)])
def test_size_list_entries_are_integers(config_path, tmp_path, capsys, sizes, code, n_grid):
    # a fractional size is a configuration error, never truncated; an
    # integer size in float notation is that integer; and a value with no
    # comma, such as a count of sizes, is no list and never one size
    out = tmp_path / "run"
    assert main(["optimize", "--config", config_path, "--out", str(out),
                 "--set", f"grid.n_points={sizes}"]) == code
    if code == 0:
        manifest = RunManifest.from_json((out / "optimize_manifest.json").read_text())
        assert tuple(manifest.grid["n_grid"]) == n_grid
    else:
        assert capsys.readouterr().err == (
            f"config error: grid.n_points: bad value {sizes!r} (a comma-separated list "
            "of integer sizes, such as 50,200,800)\n")
        assert not out.exists()


@pytest.mark.parametrize("command, spelled, plain", [
    ("optimize", "grid.alpha_points=1e1", "grid.alpha_points=10"),
    ("sweep", "0.3:0.6:2e0", "0.3:0.6:2"),
])
def test_counts_in_float_notation_are_that_integer(config_path, tmp_path, command,
                                                   spelled, plain):
    flag = "--set" if command == "optimize" else "--lambda-grid"
    outputs = []
    for spec in (spelled, plain):
        out = tmp_path / spec.replace(":", "_")
        assert main([command, "--config", config_path, "--out", str(out),
                     flag, spec]) == 0
        outputs.append((out / f"{command}.csv").read_bytes())
    assert outputs[0] == outputs[1]


# Every scenario key off its default, and an atom with a prognostic offset.
CONFIG_OFF_DEFAULTS = """\
lambda_S = 0.4
sigma = 1.2
alpha = 0.05
tau_S = 0.25
tau_Sc = 0.35
n_min = 60
cost.setup = 2.0
cost.per_patient = 0.04
cost.biomarker = 0.5
cost.screening = 0.002
reward.perspective = public
reward.NrS = 900
reward.NrF = 1100
reward.mu_S = 0.05
reward.mu_F = 0.08
prior.atoms = 0.3,0.0,0.5,0.1; 0.3,0.15,0.3; 0.0,0.0,0.2
"""


@pytest.mark.parametrize("prior, command, extra", [
    ("prior.atoms = 0.3,0.0,0.5,0.1; 0.3,0.15,0.3; 0.0,0.0,0.2\n", "optimize", []),
    ("prior.kind = strong\nprior.delta = 0.4\n", "contour",
     ["--lambda-grid", "0.3,0.6", "--delta-grid", "0,0.3", "--jobs", "2", "--figures"]),
], ids=["atoms-optimize", "kind-contour"])
def test_manifest_scenario_reruns_to_identical_bytes(tmp_path, prior, command, extra):
    # The manifest's scenario block, written back out as a config
    # document, reproduces the run that wrote it.
    config = CONFIG_OFF_DEFAULTS.replace(
        "prior.atoms = 0.3,0.0,0.5,0.1; 0.3,0.15,0.3; 0.0,0.0,0.2\n", prior)
    grid = "grid.n_points = 60,250,1000\ngrid.alpha_points = 5\n"
    first = tmp_path / "first.cfg"
    first.write_text(config + grid)
    assert main([command, "--config", str(first), "--out", str(tmp_path / "first"),
                 *extra]) == 0
    text = (tmp_path / "first" / f"{command}_manifest.json").read_text()
    scenario = RunManifest.from_json(text).scenario
    assert scenario.keys() == parse_config_text(config).keys()
    assert all(scenario[key] != f.default for _, key, f in _FLAT_FIELDS)
    second = tmp_path / "second.cfg"
    second.write_text("".join(f"{key} = {value}\n" for key, value in scenario.items()) + grid)
    assert main([command, "--config", str(second), "--out", str(tmp_path / "second"),
                 *extra]) == 0
    outputs = sorted(p.name for p in (tmp_path / "first").glob("*.csv"))
    assert outputs == sorted(p.name for p in (tmp_path / "second").glob("*.csv"))
    assert f"{command}.csv" in outputs
    for name in outputs:
        assert ((tmp_path / "second" / name).read_bytes()
                == (tmp_path / "first" / name).read_bytes())


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.35 s and 23 MB of every cold start
    code = ("import sys, trialopt, trialopt.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr or "scipy.optimize was imported"


def test_serial_run_leaves_the_process_pool_out():
    # multiprocessing costs about 0.5 MB and 6 ms of cold import; only a
    # run with a pool of two or more workers loads it
    code = ("import sys, trialopt.cli\n"
            "from trialopt import CostStructure, RewardStructure, Scenario, builtin_prior\n"
            "from trialopt import select_design\n"
            "select_design(Scenario(\n"
            "    lambda_S=0.5, costs=CostStructure(setup=1.0, per_patient=0.05),\n"
            "    rewards=RewardStructure('sponsor', NrS=1000.0, NrF=1000.0, mu_S=0.1, mu_F=0.1),\n"
            "    prior=builtin_prior('weak', 0.3)))\n"
            "loaded = {'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)\n"
            "sys.exit(', '.join(sorted(loaded)) or None)\n")
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_count_caps_are_config_errors(alarm):
    # Each count's cap is accepted and cap + 1 rejected before any grid is
    # built: a giant count would otherwise allocate its way to a hang. The
    # CLI's refusals of cap + 1 are _REFUSALS rows.
    assert len(_parse_grid_spec(f"0:1:{MAX_GRID_COUNT}")) == MAX_GRID_COUNT
    assert GridConfig(alpha_points=MAX_ALPHA_POINTS).alpha_points == MAX_ALPHA_POINTS
    with pytest.raises(ValueError, match="bad grid specification"):
        _parse_grid_spec(f"0:1:{MAX_GRID_COUNT + 1}")
    with pytest.raises(ValueError):
        GridConfig(alpha_points=MAX_ALPHA_POINTS + 1)


def test_pool_and_contour_caps_are_config_errors(alarm, monkeypatch):
    # More than MAX_JOBS jobs is rejected before a pool starts, and more
    # than MAX_GRID_COUNT cells before a contour builds one; the CLI's
    # refusals are _REFUSALS rows.
    scenarios = [make_scenario(lambda_S=lam) for lam in (0.3, 0.7)]
    with pytest.raises(ValueError, match="jobs"):
        optimizer._decisions(scenarios, None, MAX_JOBS + 1)
    monkeypatch.setattr(optimizer, "decide", lambda scenario, grid_config=None: optimizer.Decision(
        scenario, {NO_TRIAL: optimizer._outcome(DesignSpec.no_trial(), scenario)}, NO_TRIAL))
    matrix = optimizer.sweep_contour(scenarios[0], np.linspace(0.05, 0.95, 100),
                                     np.linspace(0.0, 1.0, 100))
    assert sum(map(len, matrix)) == MAX_GRID_COUNT
    # 73 x 137 = MAX_GRID_COUNT + 1
    with pytest.raises(ValueError, match="cells"):
        optimizer.sweep_contour(scenarios[0], np.linspace(0.05, 0.95, 73),
                                np.linspace(0.0, 1.0, 137))


FUZZ_BASE = """\
lambda_S = 0.5
cost.setup = 1.0
cost.per_patient = 0.05
reward.perspective = sponsor
reward.NrS = 1000
reward.NrF = 1000
reward.mu_S = 0.1
reward.mu_F = 0.1
prior.kind = weak
grid.n_points = 50,200,800
grid.alpha_points = 3
"""

# Pools of valid, edge and garbage values for the CLI fuzz. A count's pool
# holds its cap, its cap + 1 and a giant value; the last two must be
# rejected before any grid is built, as must grid.n_points values with no
# comma. A lo:hi:count grid at its cap is 10,000 decisions, so the test
# above accepts that one without running it. A reward scale or a
# per-patient cost near the largest double overflows the kernels: a
# numeric failure.
_EDGES = ["nan", "inf", "-inf", "-0", "0", "", "x", "1e400"]
_FUZZ_CONFIG = {
    "lambda_S": ["0.3", "0.95", "1", "1e-300", *_EDGES],
    "sigma": ["2.0", "1e-300", "1e300", *_EDGES],
    "alpha": ["0.05", "0.5", *_EDGES],
    "tau_S": ["0.5", "1", *_EDGES],
    "tau_Sc": ["0.5", "1", *_EDGES],
    "n_min": ["60", "1", "3000", "2.5", "1e300", *_EDGES],
    "cost.setup": ["5", "-1", *_EDGES],
    "cost.per_patient": ["0.1", "1.7e308", *_EDGES],
    "cost.screening": ["0.005", "1e300", *_EDGES],
    "reward.perspective": ["public", "sponsor", "x", ""],
    "reward.NrS": ["1e300", "1.7e308", "-5", *_EDGES],
    "reward.NrF": ["10", "1.7e308", *_EDGES],
    "reward.mu_S": ["-1", "1e300", *_EDGES],
    "reward.mu_F": ["0.3", *_EDGES],
    "prior.kind": ["strong", "weak", "x", ""],
    "prior.delta": ["0.6", "-0.1", "1e300", *_EDGES],
    "prior.atoms": ["0.3,0,1", "0.3,0,0.5;0,0,0.5", "0,0.3,1", "0.3,0,nan", "0.3,0,0",
                    "0.3,0,1,0.2", ";", *_EDGES],
    "grid.n_points": ["3", "50,1e6", "inf,50", "-1", "200,", "50,3000", "3000",
                      "100000000", *_EDGES],
    "grid.alpha_points": ["2", "5", f"{MAX_ALPHA_POINTS}", f"{MAX_ALPHA_POINTS + 1}",
                          "100000000", *_EDGES],
    "unknown.key": ["1"],
}
# The negative specs come in the spaced form, '--lambda-grid -0.1,0.5'.
_GRID_SPECS = ["0.3,0.7", "0.5:0.5:1", "0.2:0.8:3", "1:0:2", f"0:1:{MAX_GRID_COUNT + 1}",
               "0:1:100000000", "0:1:-1", "0.2:nan:3", ",", "-0.1,0.5", "-0.1:0.5:2",
               "-.2,-0.1", "-1e-3:0.3:2", *_EDGES]
_FUZZ_FLAGS = {
    "optimize": {},
    "sweep": {"--jobs": ["1", "2", "0", "-1", f"{MAX_JOBS}", f"{MAX_JOBS + 1}", "x"],
              "--lambda-grid": _GRID_SPECS},
    "contour": {"--jobs": ["1", "2", "0", f"{MAX_JOBS}", f"{MAX_JOBS + 1}", "x"],
                "--lambda-grid": _GRID_SPECS,
                "--delta-grid": _GRID_SPECS},
    "evaluate": {"--design": ["stratified", "classical", "enrichment", "none", "x"],
                 "--n": ["100", "49", "1000000", "0", "-1", "nan", "x"],
                 "--alpha-s": ["0.0125", "0", "-0", "0.025", "0.026", "nan", "inf", "x"]},
    "simulate": {"--design": ["stratified", "classical", "enrichment", "none"],
                 "--n": ["100", "1", "49", "0", "-1", "x"],
                 "--alpha-s": ["0.0125", "-0", "0.026", "nan"],
                 "--replicates": ["500", "1", "0", "-1", "1e3", "x"],
                 "--seed": ["7", "-1", "18446744073709551616", "x"],
                 "--mode": ["fixed", "binomial", "x"],
                 "--estimand": [UTILITY, REJECTION_PROBS, FWER, "x"],
                 "--atom": ["0.3,0", "0.3,0,0.1", "0,0.3", "nan,0", "inf,0", "0.3", "x"]},
}


# Flags every fuzz run starts from, so that it stays a few kernel calls;
# a drawn flag comes later and wins.
_FUZZ_DEFAULTS = {
    "optimize": [],
    "sweep": ["--lambda-grid", "0.3,0.7"],
    "contour": ["--lambda-grid", "0.3,0.7", "--delta-grid", "0,0.3"],
    "evaluate": ["--design", "classical", "--n", "100"],
    "simulate": ["--design", "classical", "--n", "100", "--replicates", "1000"],
}


def _fuzz_case():
    def picks(pools, most):
        if not pools:
            return st.just([])
        return st.lists(st.sampled_from(sorted(pools)).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(pools[key]))),
            max_size=most, unique_by=lambda kv: kv[0])

    return st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(lambda command: st.tuples(
        st.just(command), picks(_FUZZ_CONFIG, 3), picks(_FUZZ_FLAGS[command], 4)))


def test_cli_fuzz_exits_with_a_documented_code(tmp_path, capsys):
    # Every drawn run ends within 20 s, whatever its configuration document
    # and flags hold: with exit 0 and its CSV and manifest written, or with
    # exit 2 or 3 and its one line alone, and no output directory. The
    # draws reach every code.
    codes = []

    @hypothesis.seed(37)
    @hypothesis.settings(derandomize=False, database=None, deadline=None, max_examples=150,
                         print_blob=True)
    @hypothesis.given(_fuzz_case())
    # a per-patient cost near the largest double makes every size cost
    # inf, so one run exits 3 whatever the drawn runs hold
    @hypothesis.example(("optimize", [("cost.per_patient", "1.7e308")], []))
    def run(case):
        command, config, flags = case
        lines = [line for line in FUZZ_BASE.splitlines()
                 if line.split("=")[0].strip() not in dict(config)]
        path = tmp_path / "fuzz.cfg"
        path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in config]) + "\n")
        out = tmp_path / f"out{len(codes)}"
        argv = [command, "--config", str(path), "--out", str(out),
                *_FUZZ_DEFAULTS[command], *(token for flag in flags for token in flag)]
        with _deadline():
            code = main(argv)
        codes.append(code)
        if code == 0:
            capsys.readouterr()
            assert (out / f"{command}.csv").is_file(), argv
            assert (out / f"{command}_manifest.json").is_file(), argv
        else:
            prefix = {2: "config error: ", 3: "numeric failure: "}.get(code)
            assert prefix and _refusal_line(capsys, out).startswith(prefix), argv

    run()
    assert set(codes) == {0, 2, 3}, collections.Counter(codes)

