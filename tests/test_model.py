import inspect
import math
import re
from dataclasses import MISSING
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scenario
from trialopt.model import (
    _FLAT_FIELDS,
    _PRIOR_KEYS,
    DEFAULT_PRIOR_DELTA,
    CostStructure,
    DesignSpec,
    DiscretePrior,
    EffectPair,
    RewardStructure,
    Scenario,
    builtin_prior,
    parse_config_text,
    pooled_effect,
    scenario_from_mapping,
    scenario_to_mapping,
    trial_cost,
)
from trialopt.optimizer import GridConfig
from trialopt.utility import classical_variance

README = Path(__file__).resolve().parents[1] / "README.md"

CASE3_COSTS = CostStructure(setup=1.0, per_patient=0.05, biomarker=10.0,
                            screening=0.005)


class TestEffectPair:
    def test_reversed_effects_rejected(self):
        with pytest.raises(ValueError):
            EffectPair(0.1, 0.3)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            EffectPair(math.inf, 0.0)

    def test_arm_gaps(self):
        e = EffectPair(0.3, 0.1, prognostic_offset=0.2)
        assert e.treatment_arm_gap == pytest.approx(0.4)
        assert e.control_arm_gap == pytest.approx(0.2)


class TestTrialCost:
    def test_classical_case_parameters(self):
        costs = CostStructure(setup=1.0, per_patient=0.05)
        assert trial_cost("classical", 100, costs, 0.5) == pytest.approx(11.0)

    def test_enrichment_case3(self):
        got = trial_cost("enrichment", 100, CASE3_COSTS, 0.5)
        assert got == pytest.approx(23.0)

    def test_no_trial_costs_nothing(self):
        assert trial_cost("no_trial", None, CASE3_COSTS, 0.5) == 0.0

    def test_enrichment_rejects_zero_prevalence(self):
        with pytest.raises(ValueError):
            trial_cost("enrichment", 100, CASE3_COSTS, 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown design kind 'bogus'"):
            trial_cost("bogus", 100, CASE3_COSTS, 0.5)

    def test_strictly_increasing_in_n(self):
        for kind in ("classical", "enrichment", "stratified"):
            values = [trial_cost(kind, n, CASE3_COSTS, 0.3) for n in (50, 80, 200, 900)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_cost_core_broadcasts_over_sizes(self):
        sizes = np.array([[50.0, 61.5], [3000.0, 6000.0]])
        for kind in ("classical", "stratified", "enrichment"):
            got = trial_cost(kind, sizes, CASE3_COSTS, 0.3)
            assert got.shape == sizes.shape
            assert got.tolist() == [[trial_cost(kind, float(n), CASE3_COSTS, 0.3) for n in row]
                                    for row in sizes]

    def test_family_ordering_at_equal_n(self):
        for lam in (0.1, 0.4, 0.9):
            c = trial_cost("classical", 200, CASE3_COSTS, lam)
            s = trial_cost("stratified", 200, CASE3_COSTS, lam)
            e = trial_cost("enrichment", 200, CASE3_COSTS, lam)
            assert e >= s >= c


class TestPooledEffect:
    def test_homogeneous(self):
        assert pooled_effect(EffectPair(0.3, 0.3), 0.77) == pytest.approx(0.3)

    def test_midpoint(self):
        assert pooled_effect(EffectPair(0.3, 0.0), 0.5) == pytest.approx(0.15)

    def test_weighted(self):
        assert pooled_effect(EffectPair(0.3, 0.15), 0.2) == pytest.approx(0.18)

    def test_between_extremes(self):
        e = EffectPair(0.4, -0.1)
        for lam in (0.0, 0.2, 0.5, 0.8, 1.0):
            v = pooled_effect(e, lam)
            assert e.delta_Sc - 1e-15 <= v <= e.delta_S + 1e-15


class TestBuiltinPrior:
    def test_weak_table(self):
        prior = builtin_prior("weak", 0.3)
        atoms = {(e.delta_S, e.delta_Sc): w for e, w in prior}
        assert atoms == {
            (0.0, 0.0): 0.2, (0.3, 0.0): 0.2, (0.3, 0.15): 0.3, (0.3, 0.3): 0.3,
        }

    def test_strong_table(self):
        prior = builtin_prior("strong", 0.3)
        assert [w for _, w in prior] == [0.2, 0.6, 0.1, 0.1]
        assert [e.delta_S for e, _ in prior] == [0.0, 0.3, 0.3, 0.3]

    def test_degenerate_delta(self):
        prior = builtin_prior("weak", 0.0)
        assert all(e.delta_S == e.delta_Sc == 0.0 for e, _ in prior)
        assert math.fsum(w for _, w in prior) == pytest.approx(1.0, abs=1e-15)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            builtin_prior("weak", -0.1)

    @pytest.mark.parametrize("kind", ["weak", "strong"])
    @pytest.mark.parametrize("delta", [0.0, 0.1, 0.3, 1.0])
    def test_invariants(self, kind, delta):
        prior = builtin_prior(kind, delta)
        assert math.fsum(w for _, w in prior) == pytest.approx(1.0, abs=1e-12)
        assert all(e.delta_S >= e.delta_Sc for e, _ in prior)


class TestPriorValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscretePrior(((EffectPair(0.3, 0.0), 0.5),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            DiscretePrior(((EffectPair(0.3, 0.0), -0.5), (EffectPair(0.0, 0.0), 1.5)))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, weight):
        # a NaN passes both the sign and the sum check
        with pytest.raises(ValueError, match=f"prior weight must be finite, got {weight}"):
            DiscretePrior(((EffectPair(0.3, 0.0), weight), (EffectPair(0.3, 0.3), 1.0)))

    def test_built_in_prior_names_its_kind_and_delta(self):
        prior = builtin_prior("strong", 0.3)
        assert (prior.kind, prior.delta) == ("strong", 0.3)
        assert DiscretePrior(prior.atoms).kind is None

    @pytest.mark.parametrize("kind, delta", [("strong", 0.3), ("weak", 0.4), ("weak", None),
                                             (None, 0.3), ("uniform", 0.3)])
    def test_named_kind_must_hold_its_atoms(self, kind, delta):
        with pytest.raises(ValueError):
            DiscretePrior(builtin_prior("weak", 0.3).atoms, kind=kind, delta=delta)


class TestDesignSpec:
    def test_no_trial_carries_nothing(self):
        with pytest.raises(ValueError):
            DesignSpec("no_trial", n=100)

    def test_stratified_needs_alpha(self):
        with pytest.raises(ValueError):
            DesignSpec("stratified", n=100)

    def test_missing_alpha_is_named_apart_from_the_bound(self):
        with pytest.raises(ValueError) as missing:
            DesignSpec("stratified", n=100)
        assert str(missing.value) == "stratified design requires alpha_S; none was given"
        for bad in (-0.01, math.nan, -math.inf):
            with pytest.raises(ValueError) as out_of_bound:
                DesignSpec("stratified", n=100, alpha_S=bad)
            assert str(out_of_bound.value) == "stratified design requires alpha_S >= 0"

    def test_classical_refuses_alpha(self):
        with pytest.raises(ValueError):
            DesignSpec("classical", n=100, alpha_S=0.01)

    def test_integer_n_required(self):
        with pytest.raises(ValueError):
            DesignSpec("classical", n=10.5)

    @pytest.mark.parametrize("n", [10 ** 400, math.inf, math.nan])
    def test_n_beyond_a_double_is_a_value_error(self, n):
        # an integer too large for a double, like an infinite size, is a
        # bad value, not an arithmetic overflow
        with pytest.raises(ValueError, match="finite"):
            DesignSpec("classical", n=n)

    def test_check_against_scenario(self, scenario):
        DesignSpec.classical(50).check_against(scenario)
        with pytest.raises(ValueError):
            DesignSpec.classical(49).check_against(scenario)
        with pytest.raises(ValueError):
            DesignSpec.stratified(100, 0.03).check_against(scenario)


class TestScenario:
    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            Scenario(lambda_S=0.0, costs=CASE3_COSTS,
                     rewards=RewardStructure("sponsor", 1.0, 1.0, 0.1, 0.1),
                     prior=builtin_prior("weak", 0.3))

    @pytest.mark.parametrize("build, message", [
        (lambda: make_scenario(sigma=0.0), "sigma must be positive"),
        (lambda: make_scenario(tau_S=1.5), "tau_S must lie in [0, 1]"),
        (lambda: make_scenario(tau_Sc=-0.1), "tau_Sc must lie in [0, 1]"),
        (lambda: make_scenario(n_min=50.5), "n_min must be a positive integer"),
        (lambda: make_scenario(n_min=0), "n_min must be a positive integer"),
        (lambda: CostStructure(setup=-1.0, per_patient=0.05), "cost.setup must be nonnegative"),
        (lambda: RewardStructure("sponsor", 1.0, 1.0, -0.1, 0.1),
         "reward.mu_S must be nonnegative"),
    ], ids=["sigma", "tau_S", "tau_Sc", "n_min_fraction", "n_min_zero", "cost", "reward"])
    def test_domain_error_names_the_field(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_perspective_validated(self):
        with pytest.raises(ValueError):
            RewardStructure("regulator", 1.0, 1.0, 0.1, 0.1)

    @pytest.mark.parametrize("effects, ok", [
        (EffectPair(1e150, 0.0), True),
        (EffectPair(1e155, 0.0), False),
        (EffectPair(0.0, 0.0, prognostic_offset=-1e155), False),
        (EffectPair(1e154, -1e154), False),
    ])
    def test_classical_variance_must_be_finite(self, scenario, effects, ok):
        # 2 sigma^2 + lambda_S (1 - lambda_S)(gap_t^2 + gap_c^2) overflows
        # for a huge effect: refused where the prior enters, naming it
        prior = DiscretePrior(((EffectPair(0.0, 0.0), 0.5), (effects, 0.5)))
        if ok:
            assert math.isfinite(classical_variance(effects, 0.5, 1.0, 1.0))
            scenario.with_prior(prior)
        else:
            with pytest.raises(ValueError, match=re.escape(f"prior effect {effects} too large")):
                scenario.with_prior(prior)


class TestConfigDocument:
    def test_roundtrip(self, scenario):
        # a built-in prior is spelled by its kind and delta, any other by
        # its atoms
        atoms = scenario.with_prior(DiscretePrior(scenario.prior.atoms))
        for original, prior_keys in ((scenario, {"prior.kind", "prior.delta"}),
                                     (atoms, {"prior.atoms"})):
            mapping = {k: str(v) for k, v in scenario_to_mapping(original).items()}
            assert {k for k in mapping if k.startswith("prior.")} == prior_keys
            rebuilt = scenario_from_mapping(mapping)
            assert rebuilt == original
            assert not mapping  # everything consumed

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("lambda_S 0.5\n")

    def test_parse_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_comments_and_blanks_ignored(self):
        mapping = parse_config_text("# note\n\nlambda_S = 0.5  # inline\n")
        assert mapping == {"lambda_S": "0.5"}

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required"):
            scenario_from_mapping({"lambda_S": "0.5"})

    @pytest.mark.parametrize("atoms, message", [
        ("", "prior.atoms is empty"),
        (" ; ", "prior.atoms is empty"),
        ("0.3,0.0", "prior.atoms entries must be 'delta_S,delta_Sc,weight[,offset]'"),
        ("0.3,x,1.0", "prior.atoms: not a number in '0.3,x,1.0'"),
        (None, "missing required config keys: prior.kind or prior.atoms"),
    ], ids=["empty", "blank_entries", "two_fields", "not_a_number", "no_prior"])
    def test_bad_prior_atoms_named(self, atoms, message):
        text = (
            "lambda_S = 0.5\ncost.setup = 1\ncost.per_patient = 0.05\n"
            "reward.perspective = sponsor\nreward.NrS = 1\nreward.NrF = 1\n"
            "reward.mu_S = 0.1\nreward.mu_F = 0.1\n"
        )
        mapping = parse_config_text(text)
        if atoms is not None:
            mapping["prior.atoms"] = atoms
        with pytest.raises(ValueError) as err:
            scenario_from_mapping(mapping)
        assert str(err.value) == message

    def test_empty_prior_rejected(self):
        with pytest.raises(ValueError, match="prior needs at least one atom"):
            DiscretePrior(())

    def test_kind_and_atoms_conflict(self):
        text = (
            "lambda_S = 0.5\ncost.setup = 1\ncost.per_patient = 0.05\n"
            "reward.perspective = sponsor\nreward.NrS = 1\nreward.NrF = 1\n"
            "reward.mu_S = 0.1\nreward.mu_F = 0.1\n"
            "prior.kind = weak\nprior.atoms = 0.3,0.0,1.0\n"
        )
        with pytest.raises(ValueError, match="not both"):
            scenario_from_mapping(parse_config_text(text))

    def test_custom_atoms(self):
        mapping = parse_config_text(
            "lambda_S = 0.4\ncost.setup = 1\ncost.per_patient = 0.05\n"
            "reward.perspective = public\nreward.NrS = 500\nreward.NrF = 600\n"
            "reward.mu_S = 0.1\nreward.mu_F = 0.1\n"
            "prior.atoms = 0.3,0.0,0.25; 0.2,0.1,0.75,0.05\n"
        )
        scenario = scenario_from_mapping(mapping)
        (e1, w1), (e2, w2) = scenario.prior.atoms
        assert (e1.delta_S, e1.delta_Sc, w1) == (0.3, 0.0, 0.25)
        assert (e2.delta_S, e2.delta_Sc, e2.prognostic_offset, w2) == (0.2, 0.1, 0.05, 0.75)

    def test_bad_number_names_key(self):
        mapping = parse_config_text(
            "lambda_S = abc\ncost.setup = 1\ncost.per_patient = 0.05\n"
            "reward.perspective = sponsor\nreward.NrS = 1\nreward.NrF = 1\n"
            "reward.mu_S = 0.1\nreward.mu_F = 0.1\nprior.kind = weak\n"
        )
        with pytest.raises(ValueError, match="lambda_S"):
            scenario_from_mapping(mapping)

    def test_readme_documents_every_key_and_default(self):
        documented = _documented_keys()
        grid_keys = re.findall(r'"(grid\.\w+)"',
                               inspect.getsource(GridConfig.consume_mapping))
        flat = {key: f for _, key, f in _FLAT_FIELDS}
        assert set(documented) == {*flat, *_PRIOR_KEYS, *grid_keys}
        assert ({key for key, note in documented.items() if note == "required"}
                == {key for key, f in flat.items() if f.default is MISSING})
        for key, note in documented.items():
            if not note.startswith("default "):
                continue
            value = note.removeprefix("default ")
            if key in flat:
                assert float(value) == flat[key].default, key
            elif key == "prior.delta":
                assert float(value) == DEFAULT_PRIOR_DELTA
            else:
                assert GridConfig.consume_mapping({key: value}) == GridConfig(), key


def _documented_keys() -> dict:
    """{key: note} from the README's configuration-keys block, where the
    note is the line's closing parenthetical, such as 'default 0.3'."""
    block = README.read_text().split("### Configuration keys", 1)[1].split("```")[1]
    documented = {}
    for line in block.strip().splitlines():
        names, note = re.fullmatch(r"([^\s,]+(?:, [^\s,]+)*)\s.*\((.*)\)", line).groups()
        documented.update(dict.fromkeys(names.split(", "), note))
    return documented
