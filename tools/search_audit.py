"""Audit the optimizer's search against exhaustive scans.

    PYTHONPATH=src python3 tools/search_audit.py --seeds 1-3 --out audit.json

For every seed, one scenario is drawn in each stratum of ``STRATA``
(perspective, built-in prior, market case and a lambda_S range; two strata
pin lambda_S = 0.95 public, where a winning stratified row can have two
alpha_S peaks) and built with the benchmark's ``make_scenario``. For
every family the optimum of ``optimize_family`` at the default grid is
compared with a scan of every integer n from n_min to ``N_MAX``, crossed
with ``ALPHA_POINTS`` alpha_S values in [0, alpha] for the stratified
family. The output JSON holds one record per (scenario,
family) and a summary: the worst gap (scan utility minus search utility;
a positive gap is utility the search missed), the runs whose n differs
from the scan's, and the scans whose winning alpha_S row has more than one
peak. It holds no timings, so two revisions that search alike write the
same file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

import numpy as np

import trialopt
from bench_pairs import ROOT, parse_seeds
from trialopt.utility import grid_row

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import make_scenario  # noqa: E402

N_MAX = 6000
ALPHA_POINTS = 41
# (atom, n, alpha_S) settings per scan call: bounds the kernel's temporaries.
SCAN_SETTINGS = 4096
FAMILIES = ("classical", "stratified", "enrichment")
# (perspective, prior kind, market case, lambda_S range) of each stratum.
STRATA = (
    ("sponsor", "weak", 1, (0.05, 0.5)), ("sponsor", "strong", 2, (0.5, 0.95)),
    ("sponsor", "weak", 3, (0.5, 0.95)), ("public", "strong", 1, (0.05, 0.5)),
    ("public", "weak", 2, (0.05, 0.5)), ("public", "strong", 3, (0.5, 0.95)),
    ("public", "weak", 1, (0.95, 0.95)), ("public", "strong", 2, (0.95, 0.95)),
)
DELTA_RANGE = (0.1, 0.8)


def peaks(row):
    """The number of local maxima of a sequence, a plateau counting once
    and an end counting when the sequence falls away from it."""
    steps = [int(d) for d in np.sign(np.diff(row)) if d != 0]
    if not steps:
        return 1
    inner = sum(1 for up, down in zip(steps, steps[1:]) if up > 0 > down)
    return inner + (steps[0] < 0) + (steps[-1] > 0)


def summarize(records):
    """The summary of audit records, each a dict with the keys scenario,
    family, search_n, search_eu, scan_n, scan_eu and row_peaks."""
    worst = max(records, key=lambda r: r["scan_eu"] - r["search_eu"])
    return {
        "runs": len(records),
        "worst_gap": {"gap": worst["scan_eu"] - worst["search_eu"],
                      "scenario": worst["scenario"], "family": worst["family"]},
        "n_mismatches": [{k: r[k] for k in ("scenario", "family", "search_n", "scan_n")}
                         for r in records if r["search_n"] != r["scan_n"]],
        "non_unimodal_rows": [{"scenario": r["scenario"], "family": r["family"],
                               "n": r["scan_n"], "peaks": r["row_peaks"]}
                              for r in records if r["row_peaks"] > 1],
    }


def scenarios(seed):
    """(label, Scenario) of every stratum for one seed."""
    rng = random.Random(f"search_audit/{seed}")
    for perspective, kind, case, (lam_lo, lam_hi) in STRATA:
        lam = lam_lo + (lam_hi - lam_lo) * rng.random()
        delta = DELTA_RANGE[0] + (DELTA_RANGE[1] - DELTA_RANGE[0]) * rng.random()
        label = f"seed {seed} {perspective} {kind} case {case} lambda_S={lam!r} delta={delta!r}"
        yield label, make_scenario(lam, perspective, case, kind, delta)


def scan(family, scenario):
    """(n, utility, utilities over alpha_S at that n) of the first best
    point of every integer n in [n_min, N_MAX] crossed with the scan's
    alpha_S values."""
    alphas = (np.linspace(0.0, scenario.alpha, ALPHA_POINTS).tolist()
              if family == "stratified" else [None])
    sizes = np.arange(scenario.n_min, N_MAX + 1, dtype=float)
    block = max(1, SCAN_SETTINGS // (len(scenario.prior.atoms) * len(alphas)))
    rows = np.concatenate([grid_row(family, sizes[i:i + block], alphas, scenario)[0]
                           for i in range(0, len(sizes), block)])
    i = int(np.argmax(rows.max(axis=-1)))
    return int(sizes[i]), float(rows[i].max()), rows[i]


def audit(seeds):
    """One record per (scenario, family) of every seed's strata."""
    records = []
    for seed in seeds:
        for label, scenario in scenarios(seed):
            for family in FAMILIES:
                outcome = trialopt.optimize_family(family, scenario)
                scan_n, scan_eu, row = scan(family, scenario)
                records.append({
                    "scenario": label, "family": family,
                    "search_n": outcome.best_design.n,
                    "search_alpha_S": outcome.best_design.alpha_S,
                    "search_eu": outcome.expected_utility,
                    "scan_n": scan_n, "scan_eu": scan_eu, "row_peaks": peaks(row)})
                print(f"{label} {family}: search n={outcome.best_design.n} "
                      f"scan n={scan_n} gap={scan_eu - outcome.expected_utility:.3g}",
                      file=sys.stderr, flush=True)
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-3", help="e.g. 1-3 or 5,7 (default 1-3)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    records = audit(seeds)
    doc = {"seeds": seeds, "n_max": N_MAX, "alpha_points": ALPHA_POINTS,
           "summary": summarize(records), "records": records}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
