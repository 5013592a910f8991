"""The golden design decisions of tools/golden.py: the optimize_seeds set
is recomputed and must equal its file to the bit, ``--check`` names a
one-ulp move of one stored value as exactly that value, and every stored
optimum is re-derived with the oracles of tests/oracles.py."""

import json
import math

import numpy as np
import pytest

from trialopt.model import STRATIFIED
from trialopt.utility import grid_row
import golden


@pytest.fixture(scope="module")
def computed():
    return golden.compute("optimize_seeds")


def stored():
    with open(golden.path("optimize_seeds")) as fh:
        return json.load(fh)


def test_optimize_seeds_decisions_are_the_golden_ones(computed):
    assert golden.differences(stored(), computed) == []
    with open(golden.path("optimize_seeds")) as fh:
        assert fh.read() == golden.dumps(computed)


@pytest.mark.parametrize("entry,kind,field", [
    (0, "classical", "expected_utility"),
    (17, "stratified", "alpha_F"),
    (39, "enrichment", "prob_reject_S_only"),
])
def test_check_reports_a_one_ulp_move(computed, tmp_path, monkeypatch, capsys,
                                      entry, kind, field):
    doc = stored()
    values = doc["entries"][entry][kind]
    i = doc["fields"].index(field)
    now = values[i]
    values[i] = math.nextafter(float.fromhex(now), math.inf).hex()
    (tmp_path / "optimize_seeds.json").write_text(golden.dumps(doc))
    monkeypatch.setattr(golden, "GOLDEN_DIR", str(tmp_path))
    monkeypatch.setattr(golden, "compute", lambda name: computed)
    assert golden.main(["--check", "optimize_seeds"]) == 1
    label = doc["entries"][entry]["scenario"]
    assert capsys.readouterr().out.splitlines() == [
        f"{label}: {kind}.{field}: stored {values[i]}, now {now}",
        "optimize_seeds: 40 scenarios, differing values: 1"]


def test_optimize_seeds_optima_match_the_oracles(capsys):
    assert golden.main(["--oracles", "optimize_seeds"]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert len(summary) == 1
    assert "160 stratified atoms" in summary[0] and "320 one-test atoms" in summary[0]


def test_oracles_report_a_kernel_off_its_contract(monkeypatch, capsys):
    # the kernel's utility moved by 1e-7 MUSD, ten times the contract,
    # puts every stratified atom out of bounds, and one ulp every one-test
    # atom
    def moved(kind, n, alphas, scenario):
        fields = grid_row(kind, n, alphas, scenario)
        fields[0] = fields[0] + 1e-7 if kind == STRATIFIED else np.nextafter(fields[0], np.inf)
        return fields

    monkeypatch.setattr(golden, "grid_row", moved)
    assert golden.main(["--oracles", "optimize_seeds"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith("out of bounds: 480")
