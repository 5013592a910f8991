"""The summary steps of tools/search_audit.py on canned audit records."""

import json

import numpy as np
import pytest

from search_audit import parse_seeds, peaks, scenarios, summarize


def record(scenario, family, search, scan, row_peaks=1):
    (search_n, search_eu), (scan_n, scan_eu) = search, scan
    return {"scenario": scenario, "family": family, "search_n": search_n,
            "search_eu": search_eu, "scan_n": scan_n, "scan_eu": scan_eu,
            "row_peaks": row_peaks}


@pytest.mark.parametrize("row,count", [
    ([1.0, 2.0, 3.0, 2.0, 1.0], 1),
    ([3.0, 2.0, 1.0], 1),
    ([1.0, 2.0, 3.0], 1),
    ([2.0, 2.0, 2.0], 1),
    ([1.0, 3.0, 3.0, 1.0], 1),
    ([1.0, 3.0, 1.0, 3.0, 1.0], 2),
    ([3.0, 1.0, 3.0], 2),
    ([1.0, 3.0, 2.0, 2.0, 3.0], 2),
    ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], 3),
])
def test_peaks(row, count):
    # The scan hands over a numpy row; the count must go into JSON.
    assert json.dumps(peaks(np.array(row))) == str(count)


def test_summary():
    records = [
        record("a", "classical", (100, 5.0), (100, 5.0)),
        # the search beat the scan's alpha_S points: a negative gap
        record("a", "stratified", (120, 7.5), (121, 7.25), row_peaks=2),
        record("b", "enrichment", (80, 3.0), (80, 3.5)),
        record("b", "stratified", (200, 9.0), (200, 9.25)),
    ]
    summary = summarize(records)
    assert summary["runs"] == 4
    assert summary["worst_gap"] == {"gap": 0.5, "scenario": "b", "family": "enrichment"}
    assert summary["n_mismatches"] == [
        {"scenario": "a", "family": "stratified", "search_n": 120, "scan_n": 121}]
    assert summary["non_unimodal_rows"] == [
        {"scenario": "a", "family": "stratified", "n": 121, "peaks": 2}]


def test_summary_of_a_clean_audit():
    summary = summarize([record("a", "classical", (100, 5.0), (100, 4.0))])
    assert summary["worst_gap"]["gap"] == -1.0
    assert summary["n_mismatches"] == [] and summary["non_unimodal_rows"] == []


def test_strata_include_high_prevalence_public():
    drawn = [s for seed in parse_seeds("1-2") for _, s in scenarios(seed)]
    assert len(drawn) == 16
    assert any(s.lambda_S == 0.95 and s.rewards.perspective == "public" for s in drawn)
    assert [s.lambda_S for _, s in scenarios(1)] == [s.lambda_S for s in drawn[:8]]
