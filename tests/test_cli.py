import contextlib
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

from trialopt import optimizer
from trialopt.cli import MAX_GRID_COUNT, RunManifest, _parse_grid_spec, main
from trialopt.mc_oracle import MAX_BINOMIAL_N
from trialopt.model import NO_TRIAL, ConfigError
from trialopt.numerics import NumericError
from trialopt.optimizer import MAX_ALPHA_POINTS, MAX_JOBS, MAX_N_POINTS, GridConfig
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


class TestOptimizeCommand:
    def test_selects_stratified_for_case1_midrange(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["optimize", "--config", config_path, "--out", str(out)]) == 0
        header, rows = read_rows(out / "optimize.csv")
        selected = {r[0]: r[1] for r in rows}
        assert selected["Stratified"] == "1"
        assert sum(int(r[1]) for r in rows) == 1

    def test_manifest_roundtrip_and_outputs(self, config_path, tmp_path):
        import os

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
        from trialopt.model import parse_config_text, scenario_from_mapping
        from trialopt.model import DesignSpec
        from trialopt.optimizer import GridConfig
        from trialopt.utility import eu_prior_averaged
        mapping = parse_config_text(CONFIG_CASE1)
        scenario = scenario_from_mapping(mapping)
        GridConfig.consume_mapping(mapping)
        want = eu_prior_averaged(DesignSpec.stratified(300, 0.0125), scenario)
        assert eu == want.expected_utility

    def test_negative_zero_alpha_s_is_written_as_zero(self, config_path, tmp_path):
        assert main(["evaluate", "--config", config_path, "--design", "stratified",
                     "--n", "100", "--alpha-s", "-0", "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "evaluate.csv")
        assert rows[0][header.index("alpha_S")] == "0.0"

    def test_jobs_flag_rejected(self, config_path, tmp_path):
        # --jobs belongs to sweep and contour, the commands with cells
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", config_path, "--design", "classical",
                  "--n", "100", "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2

    def test_level_condition_failure_exits_3(self, config_path, tmp_path, capsys,
                                             broken_orthant):
        assert main(["evaluate", "--config", config_path, "--design", "stratified",
                     "--n", "100", "--alpha-s", "0.0125", "--out", str(tmp_path)]) == 3
        assert "left of the root" in capsys.readouterr().err

    def test_missing_n_is_config_error(self, config_path, tmp_path):
        code = main(["evaluate", "--config", config_path, "--design", "classical",
                     "--out", str(tmp_path)])
        assert code == 2


class TestSweepCommand:
    def test_single_point_grid_gives_one_row(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--lambda-grid", "0.5:0.5:1"]) == 0
        header, rows = read_rows(out / "sweep.csv")
        assert len(rows) == 1
        assert header[0] == "lambda_S"
        assert rows[0][-1] == "Stratified"

    def test_zero_rewards_select_no_trial(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--lambda-grid", "0.5:0.5:1",
                     "--set", "reward.NrS=0", "--set", "reward.NrF=0"]) == 0
        header, rows = read_rows(out / "sweep.csv")
        assert rows[0][header.index("selected")] == "NoTrial"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_config_error(self, config_path, tmp_path, jobs):
        assert main(["sweep", "--config", config_path, "--out", str(tmp_path),
                     "--lambda-grid", "0.3,0.6", "--jobs", jobs]) == 2

    def test_figures_flag_writes_long_format(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["sweep", "--config", config_path, "--out", str(out),
              "--lambda-grid", "0.5:0.5:1", "--figures"])
        header, rows = read_rows(out / "sweep_long.csv")
        assert header == ["lambda_S", "family", "metric", "value"]
        assert len(rows) == 3 * 5

    def test_grid_only_run_writes_plain_floats(self, config_path, tmp_path):
        # numpy scalars must never leak into cells (repr would not round-trip)
        out = tmp_path / "run"
        main(["sweep", "--config", config_path, "--out", str(out),
              "--lambda-grid", "0.5:0.5:1", "--set", "refine.enabled=false"])
        text = (out / "sweep.csv").read_text()
        assert "np.float64" not in text
        for cell in text.splitlines()[2].split(","):
            if cell and cell[0].isdigit():
                float(cell)


class TestGridSpecs:
    @pytest.mark.parametrize("command, flag, spec", [
        ("contour", "--lambda-grid", ""),
        ("contour", "--delta-grid", ","),
        ("sweep", "--lambda-grid", ","),
        ("sweep", "--lambda-grid", "nan,inf"),
        ("sweep", "--lambda-grid", "0.3,-inf"),
        ("sweep", "--lambda-grid", "0.2:nan:3"),
        ("contour", "--delta-grid", "0:inf:2"),
    ])
    def test_empty_or_non_finite_grid_is_config_error(self, config_path, tmp_path, capsys,
                                                      command, flag, spec):
        out = tmp_path / "run"
        assert main([command, "--config", config_path, "--out", str(out), flag, spec]) == 2
        assert "grid specification" in capsys.readouterr().err
        assert not out.exists()

    def test_finite_lambdas_still_clamped(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--config", config_path, "--out", str(out),
                     "--lambda-grid", "0.0,0.99", "--set", "refine.enabled=false"]) == 0
        _, rows = read_rows(out / "sweep.csv")
        assert [float(r[0]) for r in rows] == [0.05, 0.95]


class TestContourCommand:
    def test_matrix_shape(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["contour", "--config", config_path, "--out", str(out),
                     "--lambda-grid", "0.3,0.7", "--delta-grid", "0,0.3"]) == 0
        header, rows = read_rows(out / "contour.csv")
        assert header[0] == "delta"
        assert len(header) == 3 and len(rows) == 2
        labels = {cell for row in rows for cell in row[1:]}
        assert labels <= {"classical", "stratified", "enrichment", "no_trial"}

    def test_requires_prior_kind(self, config_path, tmp_path):
        custom = CONFIG_CASE1.replace("prior.kind = weak\nprior.delta = 0.3\n",
                                      "prior.atoms = 0.3,0.0,1.0\n")
        path = tmp_path / "atoms.cfg"
        path.write_text(custom)
        assert main(["contour", "--config", str(path), "--out", str(tmp_path)]) == 2


class TestSimulateCommand:
    def test_binomial_n_cap(self, config_path, tmp_path):
        # binomial mode builds a pmf over 0..n per chunk: n past the cap
        # exits 2 before it; fixed mode and evaluate take any n
        def run(command, n, *flags):
            return main([command, "--config", config_path, "--design", "classical",
                         "--n", str(n), "--out", str(tmp_path), *flags])

        assert run("simulate", MAX_BINOMIAL_N, "--mode", "binomial", "--replicates", "1") == 0
        assert run("simulate", MAX_BINOMIAL_N + 1, "--mode", "binomial",
                   "--replicates", "1") == 2
        assert run("simulate", MAX_BINOMIAL_N + 1, "--mode", "fixed", "--replicates", "1") == 0
        assert run("evaluate", MAX_BINOMIAL_N + 1) == 0

    def test_same_seed_identical_bytes(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--config", config_path, "--design", "enrichment",
                "--n", "100", "--replicates", "20000", "--seed", "11"]
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

    def test_rejection_estimand_rows(self, config_path, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", config_path, "--design", "stratified",
                     "--n", "200", "--alpha-s", "0.0125", "--replicates", "20000",
                     "--seed", "3", "--estimand", "rejection",
                     "--atom", "0.3,0.15", "--out", str(out)]) == 0
        header, rows = read_rows(out / "simulate.csv")
        assert [r[0] for r in rows] == [
            "prob_reject_any", "prob_reject_F", "prob_reject_S_only"]

    @pytest.mark.parametrize("design", [["classical", "--n", "100"], ["none"]])
    def test_negative_seed_is_config_error(self, config_path, tmp_path, capsys, design):
        code = main(["simulate", "--config", config_path, "--design", *design,
                     "--replicates", "1000", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "simulate.csv").exists()


class TestErrorHandling:
    def test_unknown_key_is_hard_error(self, config_path, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(CONFIG_CASE1 + "lambda_s = 0.4\n")  # misspelled case
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["optimize", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_domain_error_names_key(self, config_path, tmp_path, capsys):
        code = main(["optimize", "--config", config_path,
                     "--set", "lambda_S=1.5", "--out", str(tmp_path)])
        assert code == 2
        assert "lambda_S" in capsys.readouterr().err

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
        import trialopt.optimizer as optimizer

        def boom(*args, **kwargs):
            raise NumericError("forced")

        monkeypatch.setattr(optimizer, "optimize_family", boom)
        assert main(["optimize", "--config", config_path,
                     "--out", str(tmp_path)]) == 3

    def test_numeric_failure_in_pool_worker_exit_code(self, config_path, tmp_path,
                                                      monkeypatch):
        # Patched before the pool forks, so every worker cell raises; the
        # error must come back through pickling and map to exit code 3.
        import trialopt.optimizer as optimizer

        def boom(*args, **kwargs):
            raise NumericError("forced")

        monkeypatch.setattr(optimizer, "optimize_family", boom)
        assert main(["sweep", "--config", config_path, "--out", str(tmp_path),
                     "--jobs", "2", "--lambda-grid", "0.3,0.6"]) == 3


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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_refine_tol_is_config_error(config_path, tmp_path, alarm, tol):
    # A NaN tolerance never ends the alpha_S narrowing loop.
    assert main(["optimize", "--config", config_path, "--out", str(tmp_path),
                 "--set", f"refine.tol={tol}"]) == 2


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
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-O", "-m", "trialopt.cli", *argv,
                           "--out", str(runs["-O"])], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in (f"{command}.csv", f"{command}_long.csv"):
        want = (runs["1"] / name).read_bytes()
        assert (runs["2"] / name).read_bytes() == want
        assert (runs["-O"] / name).read_bytes() == want


def test_import_leaves_scipy_optimize_out():
    # scipy.optimize costs about 0.35 s and 23 MB of every cold start
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys, trialopt, trialopt.cli; "
            "sys.exit('scipy.optimize' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr or "scipy.optimize was imported"


def test_count_caps_are_config_errors(config_path, tmp_path, alarm):
    # Each count's cap is accepted and cap + 1 rejected before any grid is
    # built: a giant count would otherwise allocate its way to a hang.
    assert len(_parse_grid_spec(f"0:1:{MAX_GRID_COUNT}")) == MAX_GRID_COUNT
    assert GridConfig(alpha_points=MAX_ALPHA_POINTS).alpha_points == MAX_ALPHA_POINTS
    assert GridConfig.consume_mapping({"grid.n_points": str(MAX_N_POINTS)}).n_grid[-1] == 3000
    with pytest.raises(ConfigError):
        _parse_grid_spec(f"0:1:{MAX_GRID_COUNT + 1}")
    with pytest.raises(ValueError):
        GridConfig(alpha_points=MAX_ALPHA_POINTS + 1)
    with pytest.raises(ConfigError):
        GridConfig.consume_mapping({"grid.n_points": str(MAX_N_POINTS + 1)})
    for argv in (["--set", f"grid.alpha_points={MAX_ALPHA_POINTS + 1}"],
                 ["--set", f"grid.n_points={MAX_N_POINTS + 1}"],
                 ["--lambda-grid", f"0.3:0.7:{MAX_GRID_COUNT + 1}"]):
        assert main(["sweep", "--config", config_path, "--out", str(tmp_path), *argv]) == 2


def test_pool_and_contour_caps_are_config_errors(config_path, tmp_path, alarm,
                                                monkeypatch):
    # A pool starts all its workers at its first task under fork, so more
    # than MAX_JOBS jobs is rejected before it starts; a contour builds
    # every cell's scenario before the first decision, so more than
    # MAX_GRID_COUNT cells is rejected before it builds one.
    scenarios = [make_scenario(lambda_S=lam) for lam in (0.3, 0.7)]
    with pytest.raises(ConfigError, match="jobs"):
        optimizer._decisions(scenarios, None, MAX_JOBS + 1)
    assert main(["sweep", "--config", config_path, "--out", str(tmp_path),
                 "--lambda-grid", "0.5", "--jobs", str(MAX_JOBS + 1)]) == 2
    monkeypatch.setattr(optimizer, "decide", lambda scenario, grid_config=None: (
        {NO_TRIAL: optimizer.no_trial_outcome()}, NO_TRIAL))
    matrix = optimizer.sweep_contour(scenarios[0], np.linspace(0.05, 0.95, 100),
                                     np.linspace(0.0, 1.0, 100), "weak")
    assert sum(map(len, matrix)) == MAX_GRID_COUNT
    # 73 x 137 = MAX_GRID_COUNT + 1
    with pytest.raises(ConfigError, match="cells"):
        optimizer.sweep_contour(scenarios[0], np.linspace(0.05, 0.95, 73),
                                np.linspace(0.0, 1.0, 137), "weak")
    assert main(["contour", "--config", config_path, "--out", str(tmp_path),
                 "--lambda-grid", "0.05:0.95:73", "--delta-grid", "0:1:137"]) == 2


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
# rejected before any grid is built. A lo:hi:count grid at its cap is
# 10,000 decisions, so the test above accepts that one without running it.
_EDGES = ["nan", "inf", "-inf", "-0", "0", "", "x", "1e400"]
_FUZZ_CONFIG = {
    "lambda_S": ["0.3", "0.95", "1", "1e-300", *_EDGES],
    "sigma": ["2.0", "1e-300", "1e300", *_EDGES],
    "alpha": ["0.05", "0.5", *_EDGES],
    "tau_S": ["0.5", "1", *_EDGES],
    "tau_Sc": ["0.5", "1", *_EDGES],
    "n_min": ["60", "1", "3000", "2.5", "1e300", *_EDGES],
    "cost.setup": ["5", "-1", *_EDGES],
    "cost.per_patient": ["0.1", *_EDGES],
    "cost.screening": ["0.005", "1e300", *_EDGES],
    "reward.perspective": ["public", "sponsor", "x", ""],
    "reward.NrS": ["1e300", "-5", *_EDGES],
    "reward.NrF": ["10", *_EDGES],
    "reward.mu_S": ["-1", "1e300", *_EDGES],
    "reward.mu_F": ["0.3", *_EDGES],
    "prior.kind": ["strong", "weak", "x", ""],
    "prior.delta": ["0.6", "-0.1", "1e300", *_EDGES],
    "prior.atoms": ["0.3,0,1", "0.3,0,0.5;0,0,0.5", "0,0.3,1", "0.3,0,nan", "0.3,0,0",
                    "0.3,0,1,0.2", ";", *_EDGES],
    "grid.n_points": ["3", "50,1e6", "inf,50", "-1", f"{MAX_N_POINTS}", f"{MAX_N_POINTS + 1}",
                      "100000000", *_EDGES],
    "grid.alpha_points": ["2", "5", f"{MAX_ALPHA_POINTS}", f"{MAX_ALPHA_POINTS + 1}",
                          "100000000", *_EDGES],
    "refine.enabled": ["false", "true", "x"],
    "refine.tol": ["1e-3", "5e-324", *_EDGES],
    "unknown.key": ["1"],
}
_GRID_SPECS = ["0.3,0.7", "0.5:0.5:1", "0.2:0.8:3", "1:0:2", f"0:1:{MAX_GRID_COUNT + 1}",
               "0:1:100000000", "0:1:-1", "0.2:nan:3", ",", *_EDGES]
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
                 "--estimand": ["utility", "rejection_probs", "fwer", "x"],
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
    from hypothesis import strategies as st

    def picks(pools, most):
        if not pools:
            return st.just([])
        return st.lists(st.sampled_from(sorted(pools)).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(pools[key]))),
            max_size=most, unique_by=lambda kv: kv[0])

    return st.sampled_from(sorted(_FUZZ_FLAGS)).flatmap(lambda command: st.tuples(
        st.just(command), picks(_FUZZ_CONFIG, 3), picks(_FUZZ_FLAGS[command], 4)))


def test_cli_fuzz_exits_with_a_documented_code(tmp_path):
    # Every drawn run ends with exit 0, 2 or 3 within 20 s, whatever its
    # configuration document and flags hold.
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150,
                         print_blob=True)
    @hypothesis.given(_fuzz_case())
    def run(case):
        command, config, flags = case
        # both caps at once are 12 million kernel settings per decision
        hypothesis.assume(not {("grid.n_points", f"{MAX_N_POINTS}"),
                               ("grid.alpha_points", f"{MAX_ALPHA_POINTS}")} <= set(config))
        lines = [line for line in FUZZ_BASE.splitlines()
                 if line.split("=")[0].strip() not in dict(config)]
        path = tmp_path / "fuzz.cfg"
        path.write_text("\n".join(lines + [f"{k} = {v}" for k, v in config]) + "\n")
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out"),
                *_FUZZ_DEFAULTS[command], *(token for flag in flags for token in flag)]
        with _deadline():
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag's value
                code = exc.code
        assert code in (0, 2, 3), argv

    run()

