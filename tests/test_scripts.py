"""The demos under scripts/ and the benchmark's smoke test run against the
package's current API."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("name", ["diagonalization_demo", "growth_survey",
                                  "regular_bettor_demo"])
def test_demo_runs(name):
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_benchmark_smoke_passes():
    """perfbench's tracer wraps package functions by name (engine.run,
    run_dynamic, audit_fairness, Dfa.accepts, ...), so renaming one breaks
    the benchmark; its smoke test runs every workload at a tiny size."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
