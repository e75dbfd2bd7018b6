"""The scripts under scripts/ and the benchmark's smoke test run against
the package's current API."""

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
    engine.run_dynamic, audit_fairness, Dfa.accepts, ...), so renaming one breaks
    the benchmark; its smoke test runs every workload at a tiny size."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]


# The files each workload's run leaves; a `langmart verify` re-check of a
# certificate writes none.
ARTIFACTS = {
    "regular-stream": ["audit.json", "trace.csv", "trace.json"],
    "cfl-pipeline": ["audit.json", "extracted.json", "trace.csv", "trace.json"],
    "certificate": ["audit.json", "certificate.json"],
    "tm-selfscheduled": ["audit.json", "trace.csv", "trace.json"],
}
# The files each of the tests' configs, and each subcommand, leaves; these
# run once, without a re-check.
CONFIG_ARTIFACTS = {
    "adversarial-stall": ["audit.json", "stall.json"],
    "adversarial-flat": ["audit.json", "trace.csv", "trace.json"],
    "subset-bettor": ["audit.json", "trace.csv", "trace.json"],
    "family-learner": ["audit.json", "trace.csv", "trace.json"],
    "variant-learner": ["audit.json", "trace.csv", "trace.json"],
    "pclass": ["anchors.json", "audit.json", "trace.csv", "trace.json"],
    "tm-dynamic": ["audit.json", "trace.csv", "trace.json"],
    "growth-report": ["growth.json"],
    "tm-dynamic-left": ["audit.json", "trace.csv", "trace.json"],
    "regular-oracle-tm": ["audit.json", "trace.csv", "trace.json"],
    "growth": [],
    "audit": ["audit.json"],
}


def test_artifact_digests_lists_every_output():
    done = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digests.py"), "7"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    expected = []
    for workload, files in ARTIFACTS.items():
        recheck = [] if workload == "certificate" else files
        for step, names in (("run", files), ("recheck", recheck)):
            expected += [f"{workload} 7 {step}/{name}"
                         for name in ["exit", "stdout", "stderr"] + names]
    for kind, files in CONFIG_ARTIFACTS.items():
        expected += [f"{kind} 7 run/{name}" for name in ["exit", "stdout", "stderr"] + files]
    lines = done.stdout.splitlines()
    assert sorted(line.rsplit(" ", 1)[0] for line in lines) == sorted(expected)
    for line in lines:
        name, value = line.rsplit(" ", 1)
        if name.endswith("/exit"):
            assert value == "0", line
        else:
            assert len(value) == 64, line
