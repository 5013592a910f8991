"""The summary steps of tools/bench_pairs.py on canned benchmark rows and
pytest summary lines."""

import os
import resource
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
from bench_pairs import (  # noqa: E402
    USAGE,
    metric_values,
    parse_pytest_summary,
    parse_run,
    parse_seeds,
    summarize,
    usage_delta,
)

BETTER = {"ops_per_s": "higher", "op_s_p50": "lower"}


def row(workload, seed, side, ops, p50, attempted=8, failed=0, minflt=0):
    # CPU seconds in proportion to the faults, so each usage median is
    # checked on its own values
    return {"workload": workload, "seed": seed, "side": side, "attempted": attempted,
            "failed": failed, "metrics": {"ops_per_s": ops, "op_s_p50": p50},
            "usage": {"minflt": minflt, "utime_s": minflt / 100, "stime_s": minflt / 1000}}


CANNED = [
    row("optimize", 1, "parent", 10.0, 0.1, minflt=9000),
    row("optimize", 1, "change", 14.0, 0.05, minflt=300),
    row("optimize", 2, "change", 10.5, 0.1, minflt=100),
    row("optimize", 2, "parent", 11.0, 0.1, minflt=9500),
    row("optimize", 3, "parent", 12.0, 0.2, minflt=9400),
    row("optimize", 3, "change", 15.0, 0.3, minflt=0),
    row("optimize", 4, "parent", 13.0, 0.2, minflt=8800),
    row("optimize", 4, "change", 16.0, 0.1, failed=1, minflt=500),
    # a run whose partner never finished: counted, but not paired
    row("optimize", 5, "parent", 99.0, 9.9, minflt=10 ** 6),
    row("frontier", 7, "parent", 100.0, 1e-4), row("frontier", 7, "change", 90.0, 2e-4),
]


def test_medians_quartiles_and_wins():
    summary = summarize(CANNED, BETTER)
    assert sorted(summary) == ["frontier", "optimize"]
    opt = summary["optimize"]
    assert opt["seeds"] == [1, 2, 3, 4, 5] and opt["pairs"] == 4
    assert opt["attempted"] == {"parent": 40, "change": 32}
    assert opt["failed"] == {"parent": 0, "change": 1}
    ops = opt["metrics"]["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["parent"] == pytest.approx({"median": 11.5, "q1": 10.75, "q3": 12.25,
                                           "iqr": 1.5})
    assert ops["change"]["median"] == pytest.approx(14.5)
    assert ops["wins"] == 3                     # seed 2 loses
    assert ops["median_gap"] == pytest.approx(3.0)
    p50 = opt["metrics"]["op_s_p50"]
    assert p50["wins"] == 2                     # a tie (seed 2) is no win
    assert p50["median_gap"] == pytest.approx(0.05)   # lower is better: positive gap


def test_single_pair_and_regression():
    front = summarize(CANNED, BETTER)["frontier"]
    ops = front["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 100.0, "q1": 100.0, "q3": 100.0, "iqr": 0.0}
    assert ops["wins"] == 0 and ops["median_gap"] == -10.0
    assert front["metrics"]["op_s_p50"]["median_gap"] == pytest.approx(-1e-4)


def test_usage_medians_per_side():
    summary = summarize(CANNED, BETTER)
    usage = summary["optimize"]["usage"]
    assert sorted(usage) == sorted(USAGE)
    # over the four pairs: the unpaired seed-5 run is left out
    assert usage["minflt"] == {"parent": 9200, "change": 200}
    assert usage["utime_s"] == pytest.approx({"parent": 92.0, "change": 2.0})
    assert usage["stime_s"] == pytest.approx({"parent": 9.2, "change": 0.2})
    assert summary["frontier"]["usage"]["minflt"] == {"parent": 0, "change": 0}


def test_usage_delta_reads_rusage_fields():
    before = resource.struct_rusage((1.0, 0.5) + (0,) * 4 + (100,) + (0,) * 9)
    after = resource.struct_rusage((3.5, 0.75) + (0,) * 4 + (350,) + (0,) * 9)
    assert usage_delta(before, after) == {"minflt": 250, "utime_s": 2.5, "stime_s": 0.25}


def test_parse_seeds():
    assert parse_seeds("601-603") == [601, 602, 603]
    assert parse_seeds("5,7,9-10") == [5, 7, 9, 10]


@pytest.mark.parametrize("line, counts", [
    ("334 passed in 26.57s", (334, 0)),
    ("1 failed, 333 passed in 30.12s", (333, 1)),
    ("332 passed, 1 skipped, 2 warnings in 29.01s", (332, 0)),
    ("2 failed, 330 passed, 1 error in 75.40s (0:01:15)", (330, 3)),
    ("======= 3 errors in 0.52s =======", (0, 3)),
    ("no tests ran in 0.01s", (0, 0)),
    ("", (0, 0)),
])
def test_parse_pytest_summary(line, counts):
    assert parse_pytest_summary(line) == counts


# The output of a traced frontier run, cut to three metrics: a stray line,
# the run note, then the result.
TRACED_RUN = """\
perfbench: warming up
{"run_note": {"largest_self": "bivariate_upper_orthant", "nproc": 2, "spans": 5107, \
"src_lines": 2472, "workload": "frontier"}}
{"correct": true, "attempted": 2304, "failed": 0, "metrics": {\
"numerics.orthant_calls": {"value": 3571.0, "unit": "count"}, \
"numerics.orthant_s": {"value": 0.0261, "unit": "s"}, \
"numerics.root_calls": {"value": 768.0, "unit": "count"}}}
"""


def test_per_layer_metrics_from_a_traced_run():
    result, note = parse_run(TRACED_RUN)
    assert note["workload"] == "frontier" and note["src_lines"] == 2472
    assert result["correct"] and result["attempted"] == 2304
    assert metric_values(result) == {"numerics.orthant_calls": 3571.0,
                                     "numerics.orthant_s": 0.0261,
                                     "numerics.root_calls": 768.0}
