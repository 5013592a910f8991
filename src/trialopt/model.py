"""Domain parameters for biomarker-subgroup trial design: true effects,
priors over them, design descriptions, cost and reward structures, and the
scenario object bundling everything a single evaluation needs.

All types are immutable value objects; monetary amounts are MUSD throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

# Design family tags. The stratified design additionally carries the
# subgroup significance weight alpha_S.
CLASSICAL = "classical"
STRATIFIED = "stratified"
ENRICHMENT = "enrichment"
NO_TRIAL = "no_trial"
TRIAL_KINDS = (CLASSICAL, STRATIFIED, ENRICHMENT)
ALL_KINDS = TRIAL_KINDS + (NO_TRIAL,)

# Canonical labels used in CSV output and figures.
KIND_LABELS = {
    CLASSICAL: "Classical",
    STRATIFIED: "Stratified",
    ENRICHMENT: "Enrichment",
    NO_TRIAL: "NoTrial",
}

SPONSOR = "sponsor"
PUBLIC = "public"

# Sweep drivers clamp prevalence into this range; point evaluations accept
# any value in (0, 1).
SWEEP_LAMBDA_RANGE = (0.05, 0.95)


def _finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class EffectPair:
    """True treatment effects in the subgroup and its complement.

    delta_S and delta_Sc are mean differences in outcome-SD units; priors
    put mass only on delta_S >= delta_Sc. prognostic_offset is the
    difference of control-group means between the strata (0 for a purely
    predictive biomarker).
    """

    delta_S: float
    delta_Sc: float
    prognostic_offset: float = 0.0

    def __post_init__(self):
        _finite(self.delta_S, "delta_S")
        _finite(self.delta_Sc, "delta_Sc")
        _finite(self.prognostic_offset, "prognostic_offset")
        if self.delta_S < self.delta_Sc:
            raise ValueError(
                f"delta_S={self.delta_S} < delta_Sc={self.delta_Sc}; "
                "effects with a larger complement response are excluded"
            )

    @property
    def treatment_arm_gap(self) -> float:
        """Difference of treatment-arm means between strata."""
        return self.prognostic_offset + self.delta_S - self.delta_Sc

    @property
    def control_arm_gap(self) -> float:
        """Difference of control-arm means between strata."""
        return self.prognostic_offset


def pooled_effect(effects: EffectPair, lambda_S: float) -> float:
    """Full-population effect: prevalence-weighted mix of the strata."""
    return lambda_S * effects.delta_S + (1.0 - lambda_S) * effects.delta_Sc


@dataclass(frozen=True)
class DiscretePrior:
    """Finitely supported prior over effect pairs."""

    atoms: Tuple[Tuple[EffectPair, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("prior needs at least one atom")
        total = math.fsum(w for _, w in self.atoms)
        if any(w < 0.0 for _, w in self.atoms):
            raise ValueError("prior weights must be nonnegative")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"prior weights sum to {total!r}, not 1")

    def __iter__(self):
        return iter(self.atoms)


def builtin_prior(kind: str, delta: float) -> DiscretePrior:
    """The two reference priors on the grid (0,0), (d,0), (d,d/2), (d,d).

    'weak' spreads mass towards homogeneous effects (0.2, 0.2, 0.3, 0.3);
    'strong' concentrates on the subgroup-only atom (0.2, 0.6, 0.1, 0.1).
    """
    delta = _finite(delta, "delta")
    if delta < 0.0:
        raise ValueError("prior effect parameter delta must be >= 0")
    weights = {"weak": (0.2, 0.2, 0.3, 0.3), "strong": (0.2, 0.6, 0.1, 0.1)}
    if kind not in weights:
        raise ValueError(f"unknown prior kind {kind!r}; expected 'weak' or 'strong'")
    grid = (
        EffectPair(0.0, 0.0),
        EffectPair(delta, 0.0),
        EffectPair(delta, delta / 2.0),
        EffectPair(delta, delta),
    )
    return DiscretePrior(tuple(zip(grid, weights[kind])))


@dataclass(frozen=True)
class DesignSpec:
    """Tagged trial-design choice.

    n is the per-group sample size (the trial recruits 2n patients);
    alpha_S is the subgroup significance weight and exists only for the
    stratified design.
    """

    kind: str
    n: Optional[int] = None
    alpha_S: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.kind == NO_TRIAL:
            if self.n is not None or self.alpha_S is not None:
                raise ValueError("the no-trial option carries no parameters")
            return
        if self.n is None or int(self.n) != self.n or self.n < 1:
            raise ValueError(f"per-group sample size must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.kind == STRATIFIED:
            if self.alpha_S is None or not (0.0 <= self.alpha_S):
                raise ValueError("stratified design requires alpha_S >= 0")
            # + 0.0 turns -0.0 into 0.0 and leaves every other value alone
            object.__setattr__(self, "alpha_S", float(self.alpha_S) + 0.0)
        elif self.alpha_S is not None:
            raise ValueError(f"{self.kind} design does not take alpha_S")

    @classmethod
    def classical(cls, n: int) -> "DesignSpec":
        return cls(CLASSICAL, n=n)

    @classmethod
    def stratified(cls, n: int, alpha_S: float) -> "DesignSpec":
        return cls(STRATIFIED, n=n, alpha_S=alpha_S)

    @classmethod
    def enrichment(cls, n: int) -> "DesignSpec":
        return cls(ENRICHMENT, n=n)

    @classmethod
    def no_trial(cls) -> "DesignSpec":
        return cls(NO_TRIAL)

    @property
    def label(self) -> str:
        return KIND_LABELS[self.kind]

    def check_against(self, scenario: "Scenario") -> None:
        """Validate scenario-dependent bounds (n_min floor, alpha_S cap)."""
        if self.kind == NO_TRIAL:
            return
        if self.n < scenario.n_min:
            raise ValueError(f"n={self.n} below the minimal sample size {scenario.n_min}")
        if self.kind == STRATIFIED and self.alpha_S > scenario.alpha + 1e-15:
            raise ValueError(f"alpha_S={self.alpha_S} exceeds the FWER level {scenario.alpha}")


@dataclass(frozen=True)
class CostStructure:
    """Trial cost components in MUSD (screening is per screened patient)."""

    setup: float
    per_patient: float
    biomarker: float = 0.0
    screening: float = 0.0

    def __post_init__(self):
        for name in ("setup", "per_patient", "biomarker", "screening"):
            if _finite(getattr(self, name), f"cost.{name}") < 0.0:
                raise ValueError(f"cost.{name} must be nonnegative")


def trial_cost(kind: str, n, costs: CostStructure, lambda_S: float):
    """Total cost, in MUSD, of a design of the given kind with n patients
    per group; n may be fractional or an array of sizes, over which the
    cost broadcasts.

    The enrichment design screens on average 2n/lambda_S patients to find
    2n biomarker-positive ones, so its screening bill scales with
    1/lambda_S.
    """
    if kind == NO_TRIAL:
        return 0.0
    if not (0.0 < lambda_S < 1.0):
        raise ValueError(f"prevalence must lie in (0, 1), got {lambda_S}")
    two_n = 2.0 * n
    if kind == CLASSICAL:
        return costs.setup + two_n * costs.per_patient
    if kind == STRATIFIED:
        return costs.setup + costs.biomarker + two_n * (costs.per_patient + costs.screening)
    return costs.setup + costs.biomarker + two_n * (
        costs.per_patient + costs.screening / lambda_S
    )


@dataclass(frozen=True)
class RewardStructure:
    """Reward scale for one perspective.

    NrS and NrF are the products market-size x marginal-price (MUSD per
    unit of effect); mu_S and mu_F are the minimal clinically relevant
    effects subtracted before any reward is paid.
    """

    perspective: str
    NrS: float
    NrF: float
    mu_S: float
    mu_F: float

    def __post_init__(self):
        if self.perspective not in (SPONSOR, PUBLIC):
            raise ValueError(
                f"reward.perspective must be '{SPONSOR}' or '{PUBLIC}'")
        for name in ("NrS", "NrF", "mu_S", "mu_F"):
            if _finite(getattr(self, name), f"reward.{name}") < 0.0:
                raise ValueError(f"reward.{name} must be nonnegative")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to evaluate one design: population, testing
    levels, economics, and the prior on effects."""

    lambda_S: float
    costs: CostStructure
    rewards: RewardStructure
    prior: DiscretePrior
    sigma: float = 1.0
    alpha: float = 0.025
    tau_S: float = 0.3
    tau_Sc: float = 0.3
    n_min: int = 50

    def __post_init__(self):
        if not (0.0 < _finite(self.lambda_S, "lambda_S") < 1.0):
            raise ValueError(f"lambda_S must lie in (0, 1), got {self.lambda_S}")
        if _finite(self.sigma, "sigma") <= 0.0:
            raise ValueError("sigma must be positive")
        if not (0.0 < _finite(self.alpha, "alpha") < 0.5):
            raise ValueError("alpha (one-sided FWER level) must lie in (0, 0.5)")
        for name in ("tau_S", "tau_Sc"):
            if not (0.0 <= _finite(getattr(self, name), name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if int(_finite(self.n_min, "n_min")) != self.n_min or self.n_min < 1:
            raise ValueError("n_min must be a positive integer")
        object.__setattr__(self, "n_min", int(self.n_min))

    @property
    def lambda_Sc(self) -> float:
        """Complement prevalence, always derived from lambda_S."""
        return 1.0 - self.lambda_S

    def with_lambda(self, lambda_S: float) -> "Scenario":
        return replace(self, lambda_S=lambda_S)

    def with_prior(self, prior: DiscretePrior) -> "Scenario":
        return replace(self, prior=prior)


# ---------------------------------------------------------------------------
# Flat key-value configuration document (the CLI contract).
# ---------------------------------------------------------------------------

SCENARIO_KEYS = (
    "lambda_S", "sigma", "alpha", "tau_S", "tau_Sc", "n_min",
    "cost.setup", "cost.per_patient", "cost.biomarker", "cost.screening",
    "reward.perspective", "reward.NrS", "reward.NrF", "reward.mu_S", "reward.mu_F",
    "prior.kind", "prior.delta", "prior.atoms",
)

_DEFAULTS = {
    "sigma": "1.0",
    "alpha": "0.025",
    "tau_S": "0.3",
    "tau_Sc": "0.3",
    "n_min": "50",
    "cost.biomarker": "0",
    "cost.screening": "0",
    "prior.delta": "0.3",
}


class ConfigError(ValueError):
    """Malformed or out-of-domain configuration input."""


def parse_config_text(text: str) -> dict:
    """Parse a 'key = value' document ('#' starts a comment)."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _get_float(mapping: dict, key: str) -> float:
    raw = mapping[key]
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from None


def _parse_atoms(raw: str) -> DiscretePrior:
    atoms = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = [p.strip() for p in part.split(",")]
        if len(fields) not in (3, 4):
            raise ConfigError(
                "prior.atoms entries must be 'delta_S,delta_Sc,weight[,offset]'"
            )
        try:
            nums = [float(p) for p in fields]
        except ValueError:
            raise ConfigError(f"prior.atoms: not a number in {part!r}") from None
        offset = nums[3] if len(nums) == 4 else 0.0
        atoms.append((EffectPair(nums[0], nums[1], offset), nums[2]))
    if not atoms:
        raise ConfigError("prior.atoms is empty")
    return DiscretePrior(tuple(atoms))


def scenario_from_mapping(mapping: dict) -> Scenario:
    """Build a Scenario from flat config keys, consuming them from mapping.

    Unknown keys are left behind for the caller to reject; missing required
    keys raise ConfigError. Commonly fixed keys carry defaults (sigma,
    alpha, tau levels, n_min, biomarker/screening costs, prior.delta).
    """
    work = dict(_DEFAULTS)
    for key in SCENARIO_KEYS:
        if key in mapping:
            work[key] = mapping.pop(key)
    required = ("lambda_S", "cost.setup", "cost.per_patient",
                "reward.perspective", "reward.NrS", "reward.NrF",
                "reward.mu_S", "reward.mu_F")
    missing = [k for k in required if k not in work]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    if "prior.atoms" in work and "prior.kind" in work:
        raise ConfigError("give either prior.kind or prior.atoms, not both")
    try:
        if "prior.atoms" in work:
            prior = _parse_atoms(work["prior.atoms"])
        elif "prior.kind" in work:
            prior = builtin_prior(work["prior.kind"], float(work["prior.delta"]))
        else:
            raise ConfigError("missing required config keys: prior.kind or prior.atoms")
        costs = CostStructure(
            setup=_get_float(work, "cost.setup"),
            per_patient=_get_float(work, "cost.per_patient"),
            biomarker=_get_float(work, "cost.biomarker"),
            screening=_get_float(work, "cost.screening"),
        )
        rewards = RewardStructure(
            perspective=work["reward.perspective"],
            NrS=_get_float(work, "reward.NrS"),
            NrF=_get_float(work, "reward.NrF"),
            mu_S=_get_float(work, "reward.mu_S"),
            mu_F=_get_float(work, "reward.mu_F"),
        )
        return Scenario(
            lambda_S=_get_float(work, "lambda_S"),
            sigma=_get_float(work, "sigma"),
            alpha=_get_float(work, "alpha"),
            tau_S=_get_float(work, "tau_S"),
            tau_Sc=_get_float(work, "tau_Sc"),
            n_min=_get_float(work, "n_min"),
            costs=costs,
            rewards=rewards,
            prior=prior,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Flat key snapshot of a scenario (always spells the prior as atoms)."""
    atoms = "; ".join(
        f"{e.delta_S!r},{e.delta_Sc!r},{w!r},{e.prognostic_offset!r}"
        for e, w in scenario.prior
    )
    return {
        "lambda_S": scenario.lambda_S,
        "sigma": scenario.sigma,
        "alpha": scenario.alpha,
        "tau_S": scenario.tau_S,
        "tau_Sc": scenario.tau_Sc,
        "n_min": scenario.n_min,
        "cost.setup": scenario.costs.setup,
        "cost.per_patient": scenario.costs.per_patient,
        "cost.biomarker": scenario.costs.biomarker,
        "cost.screening": scenario.costs.screening,
        "reward.perspective": scenario.rewards.perspective,
        "reward.NrS": scenario.rewards.NrS,
        "reward.NrF": scenario.rewards.NrF,
        "reward.mu_S": scenario.rewards.mu_S,
        "reward.mu_F": scenario.rewards.mu_F,
        "prior.atoms": atoms,
    }
