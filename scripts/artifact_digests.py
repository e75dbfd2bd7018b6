"""Print a digest of every output of the benchmark workloads' CLI runs.

    python3 scripts/artifact_digests.py SEED [SEED ...]

For each benchmark workload and seed, this writes the workload's inputs
with perfbench/workloads.py at its FULL size, then runs `langmart` on them
and the workload's re-check (a reproduction run, or `langmart verify`),
each as a child process of this checkout's package.  It prints one line

    workload seed name sha256

per artifact file (name `run/trace.csv`, `recheck/audit.json`, ...) and
per captured stdout and stderr (`run/stdout`, ...), and one line
`workload seed run/exit CODE` per child.  The children run in a fresh
temporary directory with relative paths, so the output does not depend on
where that directory is.  Run the script in two checkouts and diff the
outputs to show that a change leaves every output byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FULL, WORKLOADS


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child(argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "langmart.cli"] + argv,
                          capture_output=True, env=env)


def digests(name: str, seed: int) -> list[str]:
    """The digest lines of one workload and seed; the caller's working
    directory is the fresh directory the workload is built in."""
    workload = WORKLOADS[name](Path(f"{name}-{seed}"), seed, FULL[name])
    run = workload.run_invocation(workload.work / "run")
    recheck = workload.recheck_invocation(run.out_dir, workload.work / "recheck")
    lines = []
    for step, invocation in (("run", run), ("recheck", recheck)):
        done = child(invocation.argv)
        lines.append(f"{step}/exit {done.returncode}")
        lines.append(f"{step}/stdout {sha256(done.stdout)}")
        lines.append(f"{step}/stderr {sha256(done.stderr)}")
        if invocation.out_dir.is_dir():
            lines += [f"{step}/{f.name} {sha256(f.read_bytes())}"
                      for f in sorted(invocation.out_dir.iterdir())]
    return [f"{name} {seed} {line}" for line in lines]


def main(argv: list[str]) -> int:
    try:
        seeds = [int(a) for a in argv]
    except ValueError:
        seeds = []
    if not seeds:
        print("usage: python3 scripts/artifact_digests.py SEED [SEED ...]",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in WORKLOADS:
            for seed in seeds:
                print("\n".join(digests(name, seed)), flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
