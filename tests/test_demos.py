"""Smoke test: the demo scripts and the README's Python examples run to
completion against the trialopt package this suite imports."""

import os
import re
import subprocess
import sys

import pytest

import trialopt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# 05_design_map.py optimizes a full prevalence x effect grid: about 4 s
# on 2 vCPUs, against under 1 s for each of the others.
DEMOS = [
    "01_costs_priors_and_designs.py",
    "02_level_condition.py",
    "03_expected_utility.py",
    "04_prevalence_sweep.py",
    "05_design_map.py",
    "06_monte_carlo_validation.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trialopt.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "__main__"})
