"""Print a digest of every output of the benchmark workloads' CLI runs.

    python3 scripts/artifact_digests.py SEED [SEED ...]

For each benchmark workload and seed, this writes the workload's inputs
with perfbench/workloads.py at its FULL size, then runs `langmart` on them
and the workload's re-check (a reproduction run, or `langmart verify`),
each as a child process of this checkout's package.  It then runs, once
each, the configs of tests/test_cli.py that no workload covers (the
stalled and the flat adversarial runs, subset-bettor, family-learner,
variant-learner, tm-dynamic, pclass and growth-report) with the seed, two
configs whose machine moves its head left of the first letter and makes S
moves (tm-dynamic, and a regular-bettor labelled by that machine), and the
`langmart growth` and `langmart audit` subcommands, on automata built with
`langmart` itself, perfbench's equal-counts machine, the left-moving
machine and perfbench's 0^n1^n grammar.  It prints one line

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

from workloads import (EQUAL_COUNTS_GRAMMAR, EQUAL_COUNTS_TM, FULL, WORKLOADS, Invocation,
                       Workload)
from langmart.automata import Dfa
from langmart.learning import prefix_family
from langmart.regular import combine, concat, universe, word_star

# The tests' configs as name: (kind, [experiment] keys, [inputs] files).
PREFIX_INPUTS = {"domain": "sigma.json", "index_language": "prefix_index.json",
                 "membership": "prefix_member.json"}
CONFIGS = {
    "adversarial-stall": ("adversarial", {"horizon": 40, "search_bound": 200},
                          {"domain": "sigma.json", "language": "zo.json",
                           "oracle_dfa": "zo.json"}),
    "adversarial-flat": ("adversarial", {"horizon": 50},
                         {"domain": "sigma.json", "language": "zo.json",
                          "oracle_grammar": "eq.grammar"}),
    "subset-bettor": ("subset-bettor", {"steps": 60, "side": "outside"},
                      {"domain": "sigma.json", "subset": "zero_star.json",
                       "oracle_grammar": "eq.grammar"}),
    "family-learner": ("family-learner", {"steps": 30, "target_index": 1}, PREFIX_INPUTS),
    "variant-learner": ("variant-learner",
                        {"steps": 60, "target_index": 1, "difference": "1,00"},
                        PREFIX_INPUTS),
    "pclass": ("pclass", {"steps": 1100, "hypotheses": "const0, dfa:ones.json, dfa:zero_star.json",
                          "anchors": 10},
               {"domain": "sigma.json", "oracle_dfa": "zero_star.json"}),
    "tm-dynamic": ("tm-dynamic", {"steps": 260}, {"domain": "sigma.json", "tm": "tm.json"}),
    "growth-report": ("growth-report", {}, {"domain": "zoro.json"}),
    "tm-dynamic-left": ("tm-dynamic", {"steps": 300},
                        {"domain": "sigma.json", "tm": "left.tm.json"}),
    "regular-oracle-tm": ("regular-bettor", {"steps": 120},
                          {"domain": "sigma.json", "language": "zo.json",
                           "oracle_tm": "left.tm.json"}),
}
# Accepts the words that end in 1.  It first writes a marker M left of the
# first letter (an S move), walks right to the last letter, and on a 0
# walks back to the marker before it rejects.
LEFT_TM = {
    "start": "s", "accept": "acc", "reject": "rej", "blank": "_",
    "rules": [["s", "0", "0", "L", "m"], ["s", "1", "1", "L", "m"], ["s", "_", "_", "S", "rej"],
              ["m", "_", "M", "S", "r"], ["r", "M", "M", "R", "r"], ["r", "0", "0", "R", "r"],
              ["r", "1", "1", "R", "r"], ["r", "_", "_", "L", "c"], ["c", "1", "1", "S", "acc"],
              ["c", "0", "0", "L", "b"], ["b", "0", "0", "L", "b"], ["b", "1", "1", "L", "b"],
              ["b", "M", "M", "S", "rej"]],
}
# Subcommands as name: the arguments after `langmart`, where OUT is the
# artifacts directory, SEED the seed and a .json name an input file.
SUBCOMMANDS = {
    "growth": ["growth", "even_twos.json"],
    "audit": ["audit", "subset-bettor", "--dfa", "zo.json", "--side", "outside",
              "--seed", "SEED", "--out-dir", "OUT"],
}


def even_twos() -> Dfa:
    """Words over 012 with an even number of 2s."""
    return Dfa(1, ["012"], 2, 0, [0],
               {(q, (ch,)): q ^ (ch == "2") for q in (0, 1) for ch in "012"})


def write_inputs(config: Workload) -> None:
    """The automata, machine and grammar the tests' configs read."""
    fam = prefix_family("01")
    zero_star, one_star = word_star("0"), word_star("1")
    for name, dfa in (("sigma.json", universe("01")), ("ones.json", one_star),
                      ("zero_star.json", zero_star), ("zo.json", concat(zero_star, one_star)),
                      ("zoro.json", combine(zero_star, one_star, "or")),
                      ("even_twos.json", even_twos()),
                      ("prefix_index.json", fam.index_language),
                      ("prefix_member.json", fam.membership)):
        config.write(name, dfa.to_json())
    config.write("tm.json", EQUAL_COUNTS_TM)
    config.write("left.tm.json", LEFT_TM)
    config.write("eq.grammar", EQUAL_COUNTS_GRAMMAR)


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


def config_digests(name: str, seed: int) -> list[str]:
    """The digest lines of one of the tests' configs, run once."""
    config = Workload(Path(f"{name}-{seed}"), seed, {})
    write_inputs(config)
    config.config = config.write_config(*CONFIGS[name])
    lines = outputs("run", config.run_invocation(config.work / "run"))
    return [f"{name} {seed} {line}" for line in lines]


def subcommand_digests(name: str, seed: int) -> list[str]:
    """The digest lines of one subcommand, run once."""
    config = Workload(Path(f"{name}-{seed}"), seed, {})
    write_inputs(config)
    out = config.work / "run"
    values = {"OUT": str(out), "SEED": str(seed)}
    argv = [str(config.inputs / a) if a.endswith(".json") else values.get(a, a)
            for a in SUBCOMMANDS[name]]
    lines = outputs("run", Invocation(argv, out))
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
        for name in CONFIGS:
            for seed in seeds:
                print("\n".join(config_digests(name, seed)), flush=True)
        for name in SUBCOMMANDS:
            for seed in seeds:
                print("\n".join(subcommand_digests(name, seed)), flush=True)
        os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
