"""Benchmark a change against a parent revision in alternating pairs.

    python3 tools/bench_pairs.py --parent HEAD --run optimize=601-610 \\
        --run sweep=611-615 --out BENCH_<tag>.json

The parent revision is extracted with ``git archive`` into a temporary
directory. For every seed of every ``--run WORKLOAD=SEEDS`` the
benchmark's own entry point (``perfbench/run.py --trace 0``, at its
default run length) runs once in that copy and once in the working tree, the two sides taking turns to go
first. The output file holds every run's end-to-end metrics and its
resource usage (minor page faults, user and system CPU seconds, of the run
and the processes it waited for), and, per workload and metric, both
sides' medians and quartiles, the change's win count over the pairs and
the median gap; per workload, both sides' median usage; plus
failed/attempted counts and the machine (nproc, library versions). It is
rewritten after every run.
After each workload's pairs, one traced run (``--trace 1``) per side at
that workload's first seed gives its per-layer metrics, written under
``per_layer`` as {workload: {side: {metric: value}}}. After the pairs, the
Tier-1 suite (``python -m pytest -q
--continue-on-collection-errors`` with ``src`` on the path) runs once in
each checkout, and its wall time and passed/failed counts go into the file
under ``tier1``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
USAGE = {"minflt": "ru_minflt", "utime_s": "ru_utime", "stime_s": "ru_stime"}


def parse_seeds(text):
    """'601-610' or '5,7,9' (ranges inclusive) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(rows, better):
    """Per-workload summary of benchmark rows.

    ``rows`` are dicts with workload, seed, side ('parent' or 'change'),
    attempted, failed, metrics ({name: value}) and usage ({name: value},
    keyed as ``USAGE``); ``better`` maps each metric name to 'higher' or
    'lower'. A pair is the two sides' runs on one seed; the change wins a
    pair when its value is strictly better. The median gap is
    median(change) - median(parent), signed so that a positive gap is an
    improvement. Usage is summarized as each side's median over the
    pairs.
    """
    out = {}
    for workload in sorted({r["workload"] for r in rows}):
        runs = [r for r in rows if r["workload"] == workload]
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [by_seed[s] for s in sorted(by_seed) if len(by_seed[s]) == 2]
        summary = {
            "seeds": sorted(by_seed),
            "pairs": len(pairs),
            "attempted": {side: sum(r["attempted"] for r in runs if r["side"] == side)
                          for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs if r["side"] == side)
                       for side in SIDES},
            "metrics": {},
            "usage": {name: {side: statistics.median(p[side]["usage"][name] for p in pairs)
                             for side in SIDES} if pairs else {}
                      for name in USAGE},
        }
        for name, direction in better.items():
            sign = 1.0 if direction == "higher" else -1.0
            entry = {"better": direction}
            for side in SIDES:
                values = [p[side]["metrics"][name] for p in pairs]
                if values:
                    q1, med, q3 = quartiles(values)
                    entry[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
            if pairs:
                entry["wins"] = sum(sign * (p["change"]["metrics"][name]
                                            - p["parent"]["metrics"][name]) > 0
                                    for p in pairs)
                entry["median_gap"] = sign * (entry["change"]["median"]
                                              - entry["parent"]["median"])
            summary["metrics"][name] = entry
        out[workload] = summary
    return out


def parse_pytest_summary(line):
    """(passed, failed) from pytest's closing summary line, e.g.
    '1 failed, 333 passed, 2 warnings in 30.12s'; errors count as failed."""
    counts = {word: int(num) for num, word in
              re.findall(r"(\d+) ([a-z]+)", line.partition(" in ")[0])}
    failed = counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)
    return counts.get("passed", 0), failed


def run_tier1(checkout):
    """The Tier-1 suite run once in ``checkout``: {wall_s, passed, failed}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    passed, failed = parse_pytest_summary(lines[-1] if lines else "")
    return {"wall_s": wall, "passed": passed, "failed": failed}


def write(doc, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def extract(revision, into):
    """The files of ``revision`` under the directory ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)


def parse_run(stdout):
    """(result, run note) from the output of ``perfbench/run.py``, whose
    last line is the result and the line before it the run note."""
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["run_note"]


def metric_values(result):
    """{metric: value} of one run's result, units dropped."""
    return {k: v["value"] for k, v in result["metrics"].items()}


def usage_delta(before, after):
    """{name: value} of ``USAGE`` between two ``resource.getrusage`` reads."""
    return {name: getattr(after, field) - getattr(before, field)
            for name, field in USAGE.items()}


def run_once(checkout, workload, seed, trace=0):
    """One benchmark run in ``checkout``: (result, run note, usage), the
    usage read from RUSAGE_CHILDREN before and after the run."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    usage = usage_delta(before, resource.getrusage(resource.RUSAGE_CHILDREN))
    return (*parse_run(proc.stdout), usage)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD=SEEDS",
                        help="a workload and its seeds, e.g. optimize=601-610 (repeatable)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent_rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout
    change = {"base": head, "uncommitted_changes": bool(dirty.strip())}
    doc = {"parent": parent_rev, "change": change, "machine": None, "src_lines": {},
           "workloads": {}, "rows": [], "per_layer": {}, "tier1": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        extract(parent_rev, parent_dir)
        checkouts = {"parent": parent_dir, "change": ROOT}
        for spec in args.run:
            workload, _, seeds = spec.partition("=")
            seeds = parse_seeds(seeds)
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    result, note, usage = run_once(checkouts[side], workload, seed)
                    doc["rows"].append({
                        "workload": workload, "seed": seed, "side": side,
                        "attempted": result["attempted"], "failed": result["failed"],
                        "metrics": metric_values(result), "usage": usage})
                    doc["src_lines"][side] = note["src_lines"]
                    doc["machine"] = {k: note[k] for k in
                                      ("nproc", "python", "numpy", "scipy", "start_method")}
                    doc["workloads"] = summarize(doc["rows"], better)
                    write(doc, args.out)
                    print(f"{workload} seed {seed} {side}: "
                          f"{result['metrics']['ops_per_s']['value']:.4g} ops/s, "
                          f"failed {result['failed']}, {usage['minflt']} minor faults",
                          flush=True)
            for side in SIDES:
                result, _, _ = run_once(checkouts[side], workload, seeds[0], trace=1)
                doc["per_layer"].setdefault(workload, {})[side] = metric_values(result)
                write(doc, args.out)
                print(f"{workload} seed {seeds[0]} {side}: traced", flush=True)
        for side in SIDES:
            doc["tier1"][side] = run_tier1(checkouts[side])
            write(doc, args.out)
            print(f"tier1 {side}: {doc['tier1'][side]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
