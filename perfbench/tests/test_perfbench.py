"""Self-tests of the benchmark: each workload runs clean at its smallest
size, inputs follow the seed, and the output checks catch perturbed
outputs. Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import trialopt  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def smallest_pass(name, out_dir, seed=3):
    wl = WORKLOADS[name]
    inputs = wl.make_inputs(seed, smallest=True, out_dir=str(out_dir))
    wl.warm_up(inputs)
    return wl, inputs, wl.run_pass(inputs)


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    return {name: smallest_pass(name, tmp_path_factory.mktemp(name)) for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_smallest_size(small_runs, name):
    wl, inputs, p = small_runs[name]
    checked = wl.check_all(inputs, [p])
    assert checked.attempted > 0
    assert checked.failed == 0, checked.messages
    assert p.wall > 0.0 and p.ops > 0 and p.segments


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(tmp_path, name):
    make = WORKLOADS[name].make_inputs
    out = str(tmp_path)
    assert make(5, smallest=True, out_dir=out) == make(5, smallest=True, out_dir=out)
    assert make(5, smallest=True, out_dir=out) != make(6, smallest=True, out_dir=out)


def test_perturbed_utility_is_caught(small_runs):
    wl, inputs, p = small_runs["optimize"]
    outcome = p.outputs[0]
    off = dataclasses.replace(outcome, result=dataclasses.replace(
        outcome.result, expected_utility=outcome.expected_utility + 1e-6))
    bad = dataclasses.replace(p, outputs=[off])
    assert wl.check_all(inputs, [bad]).failed == 1
    # a later pass that disagrees with the first is caught too
    assert wl.check_all(inputs, [p, bad]).failed == 1


def test_perturbed_csv_utility_is_caught(small_runs):
    wl, inputs, p = small_runs["sweep"]
    out, _ = p.outputs[0]
    bad_dir = out + "-bad"
    shutil.copytree(out, bad_dir)
    path = os.path.join(bad_dir, "sweep_long.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    i = next(i for i, line in enumerate(lines) if ",eu," in line)
    head, value = lines[i].rsplit(",", 1)
    lines[i] = f"{head},{float(value) + 1e-6!r}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    bad = dataclasses.replace(p, outputs=[(bad_dir, p.outputs[0][1])])
    assert wl.check_all(inputs, [bad]).failed >= 1


def test_failed_cli_exit_is_caught(small_runs):
    wl, inputs, p = small_runs["sweep"]
    out, _ = p.outputs[0]
    bad = dataclasses.replace(p, outputs=[(out, [0, 3])])
    checked = wl.check_all(inputs, [bad])
    assert checked.failed == len(inputs["lambdas"]) * len(inputs["deltas"])


def test_perturbed_alpha_F_is_caught():
    wl = WORKLOADS["frontier"]
    inputs = {"lambdas": [0.5], "alphas": [0.0125]}
    p = wl.run_pass(inputs)
    assert wl.check_all(inputs, [p]).failed == 0
    bad = dataclasses.replace(p, outputs=[p.outputs[0] + 1e-7])
    assert wl.check_all(inputs, [bad]).failed == 1


def test_perturbed_monte_carlo_is_caught(small_runs):
    wl, inputs, p = small_runs["validate"]
    util = p.outputs[0]
    off = dataclasses.replace(util, mean=util.mean + 10.0 * util.std_error)
    bad = dataclasses.replace(p, outputs=[off, *p.outputs[1:]])
    assert wl.check_all(inputs, [bad]).failed == 1


def test_owens_t_orthant_matches_the_program():
    for h, k, rho in [(1.96, 2.3, 0.3), (2.5, 1.9, 0.8), (3.0, 4.5, 0.95), (2.0, 2.0, 0.1)]:
        ours = float(workloads.upper_orthant(h, k, rho))
        assert abs(ours - trialopt.bivariate_upper_orthant(h, k, rho)) < 1e-12


def test_tracer_reports_every_layer_metric_and_restores(tmp_path):
    wl, inputs, _ = smallest_pass("frontier", tmp_path)
    original = trialopt.testing.alpha_F_given_alpha_S
    t = tracer.Tracer()
    t.install()
    try:
        assert trialopt.alpha_F_given_alpha_S is not original
        assert trialopt.testing.alpha_F_given_alpha_S.cache_info is not None
        wl.run_pass(inputs)
    finally:
        t.uninstall()
    assert trialopt.alpha_F_given_alpha_S is original
    m = tracer.layer_metrics(t.spans)
    solves = len(inputs["lambdas"]) * len(inputs["alphas"])
    assert m["testing.level_calls"] == solves == m["testing.level_misses"]
    assert m["numerics.root_calls"] == solves
    assert m["numerics.orthant_calls"] > solves
    assert set(tracer.PER_LAYER) - set(m) == {
        "optimizer.optimum_musd", "cli.import_s", "cli.bytes_written", "trace.overhead_ratio"}


def test_traced_sweep_collects_worker_spans(tmp_path):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the tracer only when forked")
    wl = WORKLOADS["sweep"]
    inputs = wl.make_inputs(4, smallest=True, out_dir=str(tmp_path))
    t = tracer.Tracer(worker_dir=str(tmp_path / "workers"))
    os.makedirs(t.worker_dir)
    t.install()
    try:
        p = wl.run_pass(inputs, in_process=True)
    finally:
        t.uninstall()
    assert wl.check_all(inputs, [p]).failed == 0
    trees = t.worker_spans()
    assert trees
    m = tracer.layer_metrics(t.spans, trees, jobs=workloads.SWEEP_JOBS)
    assert 0.0 < m["optimizer.pool_busy_ratio"] <= 1.0
    assert m["optimizer.evals.stratified"] > m["optimizer.evals.classical"] > 0


def test_benchmark_file_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "frontier",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
