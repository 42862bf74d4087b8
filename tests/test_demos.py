"""The demos run as their docstrings say: from the repository root, each
in a fresh process with the package's src on PYTHONPATH, to exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    # an empty glob would leave the parametrized test below with no case
    assert [d.name[:3] for d in DEMOS] == ["01_", "02_", "03_", "04_", "05_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_a_demo_runs_to_exit_0(demo):
    result = subprocess.run(
        [sys.executable, str(demo.relative_to(ROOT))],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
