"""Golden design decisions: write or check the decisions of named scenario sets.

    PYTHONPATH=src python3 tools/golden.py --check optimize_seeds
    PYTHONPATH=src python3 tools/golden.py --write edge192
    PYTHONPATH=src python3 tools/golden.py --oracles grid288

A set is a list of scenarios built with the benchmark's ``make_scenario``:

- ``optimize_seeds``: the optimize workload's eight-scenario mix for seeds
  1-5 (``optimize_inputs``), 40 scenarios;
- ``edge192``: lambda_S in {0.05, 0.3, 0.7, 0.95} x sponsor/public x market
  cases 1-3 x weak/strong prior x delta in {0, 0.15, 0.4, 1.0}, 192
  scenarios out to the edges of the prevalence and effect-size ranges;
- ``grid288``: lambda_S in {0.1, 0.35, 0.6, 0.9} x sponsor/public x market
  cases 1-3 x weak/strong prior x delta in {0, 0.3, 0.6}, each decided at
  the default grid and at n_grid (50, 100, 200, 400, 800) with 5 alpha_S
  points, 288 entries whose labels name the grid.

Each scenario's entry, one line of ``tests/golden/<set>.json``, holds
``decide``'s selected kind and, for every trial family, the ``FIELDS`` of
its optimum: n, alpha_S, derived alpha_F and the seven evaluation fields,
every float as ``float.hex``. ``--write`` stores the set; ``--check``
recomputes it, prints one line per stored value that differs (and per
value only one side holds) and exits 1 if any does. ``--oracles``
re-derives every stored family optimum, at its stored n and alpha_S,
from the reference implementations of ``tests/oracles.py``, atom by
prior atom: the kernel's fields of a one-atom prior must match
``adaptive_stratified`` within ``MUSD_TOL`` and ``PROB_TOL`` for the
stratified design and ``scalar_single_test`` bit for bit for the
classical and enrichment designs. It prints the worst gaps and one line
per atom out of bounds, and exits 1 if any is.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from oracles import MUSD_TOL, PROB_TOL, adaptive_stratified, scalar_single_test  # noqa: E402
from trialopt.model import STRATIFIED, TRIAL_KINDS, DesignSpec, DiscretePrior  # noqa: E402
from trialopt.optimizer import GridConfig, decide  # noqa: E402
from trialopt.utility import _FIELDS, grid_row, result_from_fields  # noqa: E402
from workloads import OPTIMIZE_MIX, make_scenario, optimize_inputs  # noqa: E402

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
# The values stored per family, in order.
FIELDS = ("n", "alpha_S", "alpha_F", *_FIELDS)


def _label(args):
    lam, perspective, case, kind, delta = args
    return f"{perspective} {kind} case {case} lambda_S={lam!r} delta={delta!r}"


# Each set yields (label, scenario, grid config; None for the default).
def optimize_seeds():
    for seed in range(1, 6):
        scenarios = optimize_inputs(seed)["scenarios"]
        for (perspective, kind, case), s in zip(OPTIMIZE_MIX, scenarios):
            args = (s.lambda_S, perspective, case, kind, s.prior.delta)
            yield f"seed {seed} {_label(args)}", s, None


def edge192():
    for args in itertools.product((0.05, 0.3, 0.7, 0.95), ("sponsor", "public"), (1, 2, 3),
                                  ("weak", "strong"), (0.0, 0.15, 0.4, 1.0)):
        yield _label(args), make_scenario(*args), None


COARSE = GridConfig(n_grid=(50, 100, 200, 400, 800), alpha_points=5)


def grid288():
    for args in itertools.product((0.1, 0.35, 0.6, 0.9), ("sponsor", "public"), (1, 2, 3),
                                  ("weak", "strong"), (0.0, 0.3, 0.6)):
        for grid_label, grid in (("default", None), ("50,100,200,400,800 x 5", COARSE)):
            yield f"{_label(args)} grid={grid_label}", make_scenario(*args), grid


SETS = {"optimize_seeds": optimize_seeds, "edge192": edge192, "grid288": grid288}


def _hex(value):
    return None if value is None else float(value).hex()


def compute(name):
    """The golden document of a set: one entry per scenario, in order."""
    entries = []
    for label, scenario, grid in SETS[name]():
        decision = decide(scenario, grid)
        entry = {"scenario": label, "selected": decision.selected}
        for kind in TRIAL_KINDS:
            outcome = decision.outcomes[kind]
            design = outcome.best_design
            entry[kind] = [design.n, _hex(design.alpha_S), _hex(outcome.derived_alpha_F),
                           *(_hex(getattr(outcome.result, f)) for f in _FIELDS)]
        entries.append(entry)
    return {"set": name, "fields": list(FIELDS), "entries": entries}


def dumps(doc):
    """The document as JSON with one line per entry."""
    head = json.dumps({k: v for k, v in doc.items() if k != "entries"})[:-1]
    body = ",\n".join(json.dumps(entry) for entry in doc["entries"])
    return f'{head}, "entries": [\n{body}\n]}}\n'


def path(name):
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def _flat(doc):
    """{(scenario, value name): value} of every stored value."""
    flat = {}
    for entry in doc["entries"]:
        label = entry["scenario"]
        flat[label, "selected"] = entry["selected"]
        for kind in TRIAL_KINDS:
            for field, value in zip(doc["fields"], entry[kind]):
                flat[label, f"{kind}.{field}"] = value
    return flat


def differences(stored, computed):
    """One line per stored value that differs from the computed one, and
    per value only one side holds."""
    old, new = _flat(stored), _flat(computed)
    lines = []
    for key in list(old) + [k for k in new if k not in old]:
        a, b = old.get(key, "(none)"), new.get(key, "(none)")
        if a != b:
            lines.append(f"{key[0]}: {key[1]}: stored {a}, now {b}")
    return lines


_PROBS = ("prob_reject_S_only", "prob_reject_F", "power_any")


def oracle_gaps(name):
    """Re-derive the stored optima of a set with the oracles: (worst MUSD
    gap, worst probability gap, stratified atoms, one-test atoms, one line
    per atom out of bounds)."""
    with open(path(name)) as fh:
        entries = json.load(fh)["entries"]
    worst_musd = worst_prob = 0.0
    stratified = one_test = 0
    lines = []
    for (label, scenario, _), entry in zip(SETS[name](), entries, strict=True):
        if entry["scenario"] != label:
            raise ValueError(f"{name}: stored {entry['scenario']!r}, set has {label!r}")
        for kind in TRIAL_KINDS:
            n, alpha_S = entry[kind][0], entry[kind][1]
            alpha_S = None if alpha_S is None else float.fromhex(alpha_S)
            for effects, _ in scenario.prior:
                one = scenario.with_prior(DiscretePrior(((effects, 1.0),)))
                got = result_from_fields(grid_row(kind, n, [alpha_S], one)[:, 0],
                                         DesignSpec(kind, n, alpha_S))
                where = f"{label}: {kind} n={n} alpha_S={alpha_S!r} atom={effects}"
                if kind != STRATIFIED:
                    one_test += 1
                    want = scalar_single_test(kind, effects, n, scenario)
                    if [_hex(getattr(got, f)) for f in _FIELDS] != [
                            _hex(getattr(want, f)) for f in _FIELDS]:
                        lines.append(f"{where}: kernel {got}, oracle {want}")
                    continue
                stratified += 1
                want = adaptive_stratified(effects, n, alpha_S, scenario)
                gaps = {f: abs(getattr(got, f) - getattr(want, f)) for f in _FIELDS}
                musd = max(v for f, v in gaps.items() if f not in _PROBS)
                prob = max(gaps[f] for f in _PROBS)
                worst_musd, worst_prob = max(worst_musd, musd), max(worst_prob, prob)
                if not musd <= MUSD_TOL or not prob <= PROB_TOL:
                    lines.append(f"{where}: MUSD gap {musd:.3g}, probability gap {prob:.3g}")
    return worst_musd, worst_prob, stratified, one_test, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", choices=sorted(SETS), metavar="SET")
    action.add_argument("--check", choices=sorted(SETS), metavar="SET")
    action.add_argument("--oracles", choices=sorted(SETS), metavar="SET")
    args = parser.parse_args(argv)
    if args.oracles:
        musd, prob, stratified, one_test, lines = oracle_gaps(args.oracles)
        for line in lines:
            print(line)
        print(f"{args.oracles}: {stratified} stratified atoms, worst gaps {musd:.3g} MUSD "
              f"and {prob:.3g} on probabilities (bounds {MUSD_TOL:g}, {PROB_TOL:g}); "
              f"{one_test} one-test atoms; out of bounds: {len(lines)}")
        return 1 if lines else 0
    name = args.write or args.check
    doc = compute(name)
    if args.write:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path(name), "w") as fh:
            fh.write(dumps(doc))
        print(f"wrote {len(doc['entries'])} entries to {path(name)}")
        return 0
    with open(path(name)) as fh:
        lines = differences(json.load(fh), doc)
    for line in lines:
        print(line)
    print(f"{name}: {len(doc['entries'])} scenarios, differing values: {len(lines)}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
