"""Print a digest of every output of the benchmark workloads' CLI runs.

    python3 scripts/artifact_digests.py SEED [SEED ...]

For each benchmark workload and seed, this writes the workload's inputs
with perfbench/workloads.py at its FULL size, then runs `langmart` on them
and the workload's re-check (a reproduction run, or `langmart verify`),
each as a child process of this checkout's package.  It then runs the
family-learner, variant-learner, pclass and tm-dynamic configs of
tests/test_cli.py with the seed, once each, on automata built with
`langmart` itself and perfbench's equal-counts machine: no workload runs
those constructions.  It prints one line

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

sys.path.insert(0, str(ROOT / "src"))

from workloads import EQUAL_COUNTS_TM, FULL, WORKLOADS, Workload
from langmart.automata import universe, word_star
from langmart.constructions import prefix_family

# The tests' configs as kind: ([experiment] keys, [inputs] files).
PREFIX_INPUTS = {"domain": "sigma.json", "index_language": "prefix_index.json",
                 "membership": "prefix_member.json"}
CONFIGS = {
    "family-learner": ({"steps": 30, "target_index": 1}, PREFIX_INPUTS),
    "variant-learner": ({"steps": 60, "target_index": 1, "difference": "1,00"},
                        PREFIX_INPUTS),
    "pclass": ({"steps": 1100, "hypotheses": "const0, dfa:ones.json, dfa:zero_star.json",
                "anchors": 10}, {"domain": "sigma.json", "oracle_dfa": "zero_star.json"}),
    "tm-dynamic": ({"steps": 260}, {"domain": "sigma.json", "tm": "tm.json"}),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child(argv: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "langmart.cli"] + argv,
                          capture_output=True, env=env)


def outputs(step: str, invocation) -> list[str]:
    """Run one invocation and digest its exit code, output and files."""
    done = child(invocation.argv)
    lines = [f"{step}/exit {done.returncode}", f"{step}/stdout {sha256(done.stdout)}",
             f"{step}/stderr {sha256(done.stderr)}"]
    if invocation.out_dir.is_dir():
        lines += [f"{step}/{f.name} {sha256(f.read_bytes())}"
                  for f in sorted(invocation.out_dir.iterdir())]
    return lines


def digests(name: str, seed: int) -> list[str]:
    """The digest lines of one workload and seed; the caller's working
    directory is the fresh directory the workload is built in."""
    workload = WORKLOADS[name](Path(f"{name}-{seed}"), seed, FULL[name])
    run = workload.run_invocation(workload.work / "run")
    recheck = workload.recheck_invocation(run.out_dir, workload.work / "recheck")
    lines = outputs("run", run) + outputs("recheck", recheck)
    return [f"{name} {seed} {line}" for line in lines]


def config_digests(kind: str, seed: int) -> list[str]:
    """The digest lines of one of the tests' configs, run once."""
    config = Workload(Path(f"{kind}-{seed}"), seed, {})
    fam = prefix_family("01")
    for name, dfa in (("sigma.json", universe("01")), ("ones.json", word_star("1")),
                      ("zero_star.json", word_star("0")),
                      ("prefix_index.json", fam.index_language),
                      ("prefix_member.json", fam.membership)):
        config.write(name, dfa.to_json())
    config.write("tm.json", EQUAL_COUNTS_TM)
    config.config = config.write_config(kind, *CONFIGS[kind])
    lines = outputs("run", config.run_invocation(config.work / "run"))
    return [f"{kind} {seed} {line}" for line in lines]


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
        for kind in CONFIGS:
            for seed in seeds:
                print("\n".join(config_digests(kind, seed)), flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
