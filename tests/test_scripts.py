"""The demos under scripts/ run against the package's current API."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["diagonalization_demo", "growth_survey",
                                  "regular_bettor_demo"])
def test_demo_runs(name):
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
