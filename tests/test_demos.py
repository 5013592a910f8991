"""Smoke test: the quick demo scripts run to completion against src/."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 05_design_map.py is left out: it optimizes a full prevalence x effect
# grid and takes about 20 s, against 1-3 s for each of the others.
DEMOS = [
    "01_costs_priors_and_designs.py",
    "02_level_condition.py",
    "03_expected_utility.py",
    "04_prevalence_sweep.py",
    "06_monte_carlo_validation.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
