"""Domain parameters for biomarker-subgroup trial design: true effects,
priors over them, design descriptions, cost and reward structures, and the
scenario object bundling everything a single evaluation needs.

All types are immutable value objects; monetary amounts are MUSD throughout.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace
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
    try:
        value = float(value)
    except OverflowError:  # an integer too large for a double
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool, though an int to
    Python, is not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


# Weights of the built-in priors on the grid (0,0), (d,0), (d,d/2), (d,d).
_BUILTIN_WEIGHTS = {"weak": (0.2, 0.2, 0.3, 0.3), "strong": (0.2, 0.6, 0.1, 0.1)}


def _builtin_atoms(kind: str, delta: float) -> tuple:
    """The atoms of the built-in prior ``kind`` at effect size ``delta``."""
    delta = _finite(delta, "delta")
    if delta < 0.0:
        raise ValueError("prior effect parameter delta must be >= 0")
    if kind not in _BUILTIN_WEIGHTS:
        raise ValueError(f"unknown prior kind {kind!r}; expected 'weak' or 'strong'")
    grid = (
        EffectPair(0.0, 0.0),
        EffectPair(delta, 0.0),
        EffectPair(delta, delta / 2.0),
        EffectPair(delta, delta),
    )
    return tuple(zip(grid, _BUILTIN_WEIGHTS[kind]))


@dataclass(frozen=True)
class DiscretePrior:
    """Finitely supported prior over effect pairs. A built-in prior also
    names its ``kind`` and ``delta``, and then holds exactly their atoms."""

    atoms: Tuple[Tuple[EffectPair, float], ...]
    kind: Optional[str] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("prior needs at least one atom")
        total = math.fsum(_finite(w, "prior weight") for _, w in self.atoms)
        if any(w < 0.0 for _, w in self.atoms):
            raise ValueError("prior weights must be nonnegative")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"prior weights sum to {total!r}, not 1")
        if (self.kind, self.delta) != (None, None) and (
                self.delta is None or self.atoms != _builtin_atoms(self.kind, self.delta)):
            raise ValueError(f"prior atoms are not those of the {self.kind!r} prior "
                             f"at delta={self.delta!r}")

    def __iter__(self):
        return iter(self.atoms)


def builtin_prior(kind: str, delta: float) -> DiscretePrior:
    """The two reference priors on the grid (0,0), (d,0), (d,d/2), (d,d).

    'weak' spreads mass towards homogeneous effects (0.2, 0.2, 0.3, 0.3);
    'strong' concentrates on the subgroup-only atom (0.2, 0.6, 0.1, 0.1).
    """
    return DiscretePrior(_builtin_atoms(kind, delta), kind, float(delta))


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
        if self.n is None or _finite(self.n, "n") < 1 or int(self.n) != self.n:
            raise ValueError(f"per-group sample size must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        if self.kind == STRATIFIED:
            if self.alpha_S is None:
                raise ValueError("stratified design requires alpha_S; none was given")
            if not (0.0 <= self.alpha_S):
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
    if kind == ENRICHMENT:
        return costs.setup + costs.biomarker + two_n * (
            costs.per_patient + costs.screening / lambda_S
        )
    raise ValueError(f"unknown design kind {kind!r}")


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
        if not math.isfinite(2.0 * self.sigma * self.sigma):
            raise ValueError(f"sigma={self.sigma} too large: 2 sigma^2 must be a finite double")
        for effects, _ in self.prior:
            gap_t, gap_c = effects.treatment_arm_gap, effects.control_arm_gap
            mix = self.lambda_S * (1.0 - self.lambda_S) * (gap_t * gap_t + gap_c * gap_c)
            if not math.isfinite(2.0 * self.sigma * self.sigma + mix):
                raise ValueError(f"prior effect {effects} too large: 2 sigma^2 + lambda_S "
                                 "(1 - lambda_S)(gap_t^2 + gap_c^2) must be a finite double")
        if not (0.0 < _finite(self.alpha, "alpha") < 0.5):
            raise ValueError("alpha (one-sided FWER level) must lie in (0, 0.5)")
        for name in ("tau_S", "tau_Sc"):
            if not (0.0 <= _finite(getattr(self, name), name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if int(_finite(self.n_min, "n_min")) != self.n_min or self.n_min < 1:
            raise ValueError("n_min must be a positive integer")
        object.__setattr__(self, "n_min", int(self.n_min))

    def with_lambda(self, lambda_S: float) -> "Scenario":
        return replace(self, lambda_S=lambda_S)

    def with_prior(self, prior: DiscretePrior) -> "Scenario":
        return replace(self, prior=prior)


# ---------------------------------------------------------------------------
# Flat key-value configuration document (the CLI contract).
# ---------------------------------------------------------------------------

# prior.delta when prior.kind names a built-in prior without one.
DEFAULT_PRIOR_DELTA = 0.3

# The Scenario fields spelled key by key under a prefix; the prior is spelled
# by its own keys.
_SECTIONS = {"costs": ("cost.", CostStructure), "rewards": ("reward.", RewardStructure)}
_PRIOR_KEYS = ("prior.kind", "prior.delta", "prior.atoms")

# (section, key, field) of every other scenario key, in document order:
# Scenario's own fields (section None), then each section's. A key is
# required exactly when its field has no default.
_FLAT_FIELDS = tuple(
    [(None, f.name, f) for f in fields(Scenario) if f.name not in (*_SECTIONS, "prior")]
    + [(name, prefix + f.name, f)
       for name, (prefix, cls) in _SECTIONS.items() for f in fields(cls)]
)


def parse_config_text(text: str) -> dict:
    """Parse a 'key = value' document ('#' starts a comment)."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _get_float(mapping: dict, key: str) -> float:
    raw = mapping[key]
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"key {key!r}: not a number: {raw!r}") from None


def parse_integral(raw: str) -> int:
    """The integer a number string spells, in any float notation ('10',
    '1e1', '10.0'); ValueError for a fractional or non-finite value."""
    value = float(raw)
    if not value.is_integer():
        raise ValueError(f"not an integer: {raw!r}")
    return int(value)


def _parse_atoms(raw: str) -> DiscretePrior:
    atoms = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        values = [p.strip() for p in part.split(",")]
        if len(values) not in (3, 4):
            raise ValueError(
                "prior.atoms entries must be 'delta_S,delta_Sc,weight[,offset]'"
            )
        try:
            nums = [float(p) for p in values]
        except ValueError:
            raise ValueError(f"prior.atoms: not a number in {part!r}") from None
        offset = nums[3] if len(nums) == 4 else 0.0
        atoms.append((EffectPair(nums[0], nums[1], offset), nums[2]))
    if not atoms:
        raise ValueError("prior.atoms is empty")
    return DiscretePrior(tuple(atoms))


def scenario_from_mapping(mapping: dict) -> Scenario:
    """Build a Scenario from flat config keys, consuming them from mapping.

    Unknown keys are left behind for the caller to reject. A missing
    required key, a malformed value, or a value outside a field's domain
    raises ValueError, the domain checks' own messages unchanged. A missing
    optional key takes its field's default, and a missing prior.delta
    takes DEFAULT_PRIOR_DELTA.
    """
    keys = [key for _, key, _ in _FLAT_FIELDS] + list(_PRIOR_KEYS)
    work = {key: mapping.pop(key) for key in keys if key in mapping}
    missing = [key for _, key, f in _FLAT_FIELDS if key not in work and f.default is MISSING]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    if "prior.atoms" in work and "prior.kind" in work:
        raise ValueError("give either prior.kind or prior.atoms, not both")
    if "prior.delta" in work and "prior.kind" not in work:
        raise ValueError("give prior.delta only with prior.kind")
    if "prior.atoms" in work:
        prior = _parse_atoms(work["prior.atoms"])
    elif "prior.kind" in work:
        delta = (_get_float(work, "prior.delta") if "prior.delta" in work
                 else DEFAULT_PRIOR_DELTA)
        prior = builtin_prior(work["prior.kind"], delta)
    else:
        raise ValueError("missing required config keys: prior.kind or prior.atoms")
    # a str field (annotations are strings here) is taken as written,
    # every other one as a number
    args = {section: {} for section in (None, *_SECTIONS)}
    for section, key, f in _FLAT_FIELDS:
        if key in work:
            args[section][f.name] = work[key] if f.type == "str" else _get_float(work, key)
    nested = {name: cls(**args[name]) for name, (_, cls) in _SECTIONS.items()}
    return Scenario(**args[None], **nested, prior=prior)


def scenario_to_mapping(scenario: Scenario) -> dict:
    """Flat key snapshot of a scenario: a built-in prior as its kind and
    delta, any other as its atoms."""
    snapshot = {
        key: getattr(scenario if section is None else getattr(scenario, section), f.name)
        for section, key, f in _FLAT_FIELDS
    }
    prior = scenario.prior
    if prior.kind is not None:
        snapshot["prior.kind"], snapshot["prior.delta"] = prior.kind, prior.delta
    else:
        snapshot["prior.atoms"] = "; ".join(
            f"{e.delta_S!r},{e.delta_Sc!r},{w!r},{e.prognostic_offset!r}" for e, w in prior)
    return snapshot
