"""The golden design decisions of tools/golden.py: the optimize_seeds set
is recomputed and must equal its file to the bit, and ``--check`` names a
one-ulp move of one stored value as exactly that value."""

import json
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))
import golden  # noqa: E402


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
