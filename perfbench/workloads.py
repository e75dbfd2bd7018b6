"""The benchmark's workloads: seeded inputs, CLI invocations and output checks.

Each workload writes its input files (automata JSON, grammar text, ini
config) from the benchmark seed, names the `langmart` command lines that
run it, and checks the artifacts against oracles that share no code with
`langmart`: a Python `re` translation of the seeded automaton, the
predicate w == 0^n 1^n, and exact capital formulas.  The amount of work
per run does not depend on the seed; the seed only changes which
languages are bet on and which words the fairness audit probes.
"""

from __future__ import annotations

import csv
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

# Full sizes keep one CLI child near 1-2 s on a 2-core x86 box with
# CPython 3.11, so that a 30 s run takes about ten samples of each
# timing and its medians are steady on a noisy shared host.
# regular-stream must stay below about 9,000 stages: past that, 3^n
# passes CPython's 4,300-digit int->str limit and the CLI dies while
# writing its trace, a defect the benchmark must not hide.
FULL = {
    "regular-stream": {"steps": 5000},
    "cfl-pipeline": {"threshold_exp": 7},
    "certificate": {"setups": 8, "words": 45},
    "tm-selfscheduled": {"steps": 25000},
}
TINY = {
    "regular-stream": {"steps": 40},
    "cfl-pipeline": {"threshold_exp": 3},
    "certificate": {"setups": 3, "words": 12},
    "tm-selfscheduled": {"steps": 400},
}

SIGMA_STAR = {"arity": 1, "alphabet": "01", "states": [0], "start": 0,
              "accepting": [0], "transitions": [[0, "0", 0], [0, "1", 0]]}

# Marks a 0 on the left, crosses off the matching 1, repeats: decides
# {0^n 1^n}.  The same machine as the equal-counts fixture of the tests.
EQUAL_COUNTS_TM = {
    "start": "q0", "accept": "acc", "reject": "rej", "blank": "_",
    "rules": [
        ["q0", "0", "X", "R", "q1"], ["q0", "Y", "Y", "R", "q3"],
        ["q0", "_", "_", "S", "acc"], ["q1", "0", "0", "R", "q1"],
        ["q1", "Y", "Y", "R", "q1"], ["q1", "1", "Y", "L", "q2"],
        ["q2", "0", "0", "L", "q2"], ["q2", "Y", "Y", "L", "q2"],
        ["q2", "X", "X", "R", "q0"], ["q3", "Y", "Y", "R", "q3"],
        ["q3", "_", "_", "S", "acc"],
    ],
}

EQUAL_COUNTS_GRAMMAR = "S -> 0 S 1 | #eps\n"


def equal_counts(w: str) -> bool:
    half = len(w) // 2
    return len(w) % 2 == 0 and w == "0" * half + "1" * half


def random_dfa(rng: random.Random, n_states: int = 3) -> dict:
    """A total DFA over 01 whose states are all reachable, with a nonempty,
    proper accepting set, so that its bettor's work does not hinge on the seed."""
    while True:
        accepting = rng.sample(range(n_states), rng.randint(1, n_states - 1))
        targets = {(q, ch): rng.randrange(n_states) for q in range(n_states) for ch in "01"}
        reached, frontier = {0}, [0]
        while frontier:
            q = frontier.pop()
            for ch in "01":
                if targets[q, ch] not in reached:
                    reached.add(targets[q, ch])
                    frontier.append(targets[q, ch])
        if len(reached) == n_states:
            break
    transitions = [[q, ch, r] for (q, ch), r in targets.items()]
    return {"arity": 1, "alphabet": "01", "states": list(range(n_states)),
            "start": 0, "accepting": sorted(accepting),
            "transitions": transitions}


def dfa_regex(dfa: dict) -> str:
    """Translate a DFA to a Python regex by state elimination."""
    start, end = "start", "end"
    edges: dict = {}

    def union(a, b):
        if a is None:
            return b
        if b is None or a == b:
            return a
        return f"(?:{a}|{b})"

    def add(i, j, rx):
        edges[i, j] = union(edges.get((i, j)), rx)

    add(start, dfa["start"], "")
    for q in dfa["accepting"]:
        add(q, end, "")
    for q, ch, r in dfa["transitions"]:
        add(q, r, re.escape(ch))
    for k in dfa["states"]:
        loop = edges.pop((k, k), None)
        star = f"(?:{loop})*" if loop else ""
        ins = [(i, rx) for (i, j), rx in edges.items() if j == k]
        outs = [(j, rx) for (i, j), rx in edges.items() if i == k]
        for key in [key for key in edges if k in key]:
            del edges[key]
        for i, a in ins:
            for j, b in outs:
                add(i, j, f"(?:{a}){star}(?:{b})")
    rx = edges.get((start, end))
    return "(?!)" if rx is None else rx


def parse_dyadic(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den[2:]) if den else 0


def read_trace(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["stage", "word", "label", "capital_num", "capital_exp"]:
        raise ValueError(f"unexpected trace header {rows[0]}")
    return rows[1:]


def labelled(rows):
    """Rows of labelled stages (the empty word is labelled too)."""
    return [r for r in rows if r[2] != ""]


@dataclass
class Invocation:
    """One `langmart` command line and the artifacts directory it fills."""

    argv: list[str]
    out_dir: Path


class Workload:
    name = ""
    run_flags: list = []
    # True when the re-check is a second run whose artifacts must be
    # byte-identical to the first.
    recheck_is_rerun = True

    def __init__(self, work: Path, seed: int, size: dict):
        self.work = work
        self.seed = seed
        self.size = size
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, content) -> Path:
        path = self.inputs / name
        text = content if isinstance(content, str) else json.dumps(content)
        path.write_text(text)
        return path

    def write_config(self, kind: str, experiment: dict, inputs: dict) -> Path:
        lines = ["[experiment]", f"kind = {kind}", f"seed = {self.seed}"]
        lines += [f"{k} = {v}" for k, v in experiment.items()]
        lines += ["[inputs]"] + [f"{k} = {v}" for k, v in inputs.items()]
        return self.write("experiment.ini", "\n".join(lines) + "\n")

    def run_invocation(self, out_dir: Path) -> Invocation:
        return Invocation(["run", str(self.config), "--seed", str(self.seed),
                           "--out-dir", str(out_dir)] + self.run_flags, out_dir)

    def recheck_invocation(self, run_out: Path, out_dir: Path) -> Invocation:
        """The third party's re-check of a run's output (timed as verify_s):
        by default a reproduction run of the same config and seed."""
        return self.run_invocation(out_dir)

    def check_run(self, out_dir: Path) -> list[str]:
        raise NotImplementedError

    def check_recheck(self, out_dir: Path, stdout: str) -> list[str]:
        """Checks of a re-check that is not a reproduction run."""
        raise NotImplementedError


def audit_problems(out_dir: Path) -> list[str]:
    audit = json.loads((out_dir / "audit.json").read_text())
    return [] if audit == [] else [f"audit.json lists {len(audit)} violations"]


class RegularStream(Workload):
    """The ll stream over 01* bet on by a seeded DFA that is its own oracle:
    the audited run loop, automaton stepping, ll text, big-integer capitals
    and trace writing; no grammar work.  Re-check: a reproduction run."""

    name = "regular-stream"

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        self.language = random_dfa(random.Random(seed))
        self.regex = re.compile(dfa_regex(self.language))
        self.write("sigma.json", SIGMA_STAR)
        self.write("language.json", self.language)
        self.config = self.write_config(
            "regular-bettor", {"steps": size["steps"]},
            {"domain": "sigma.json", "language": "language.json"})

    def check_run(self, out_dir):
        rows = read_trace(out_dir / "trace.csv")
        problems = []
        steps = self.size["steps"]
        if len(rows) != steps + 1:
            problems.append(f"trace has {len(rows) - 1} stages, expected {steps}")
        for row in labelled(rows):
            if row[2] != str(int(bool(self.regex.fullmatch(row[1])))):
                problems.append(f"label {row[2]} of {row[1]!r} disagrees with the regex")
                break
        # every bet wins, so stage n holds exactly 3^n / 2^n
        power = 1
        for row in rows:
            if int(row[3]) != power or int(row[4]) != int(row[0]):
                problems.append(f"capital at stage {row[0]} is not (3/2)^{row[0]}")
                break
            power *= 3
        problems += audit_problems(out_dir)
        return problems


class CflPipeline(Workload):
    """The 0^n1^n grammar: CYK labels every ll word and a bettor on an
    extracted regular subset runs up to a threshold; grammar-bound, small
    capitals.  Re-check: a reproduction run."""

    name = "cfl-pipeline"

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        self.write("sigma.json", SIGMA_STAR)
        self.write("equal.grammar", EQUAL_COUNTS_GRAMMAR)
        self.threshold_exp = size["threshold_exp"]
        self.config = self.write_config(
            "cfl-pipeline",
            {"steps": 10**7, "threshold": f"{2 ** self.threshold_exp}/2^0"},
            {"domain": "sigma.json", "grammar": "equal.grammar"})

    def check_run(self, out_dir):
        rows = read_trace(out_dir / "trace.csv")
        problems = []
        extracted = json.loads((out_dir / "extracted.json").read_text())
        if extracted["side"] not in ("inside", "outside"):
            problems.append(f"extracted subset has side {extracted['side']!r}")
        for row in labelled(rows):
            if row[2] != str(int(equal_counts(row[1]))):
                problems.append(f"label {row[2]} of {row[1]!r} is not 0^n1^n membership")
                break
        # the extracted subset never leaks, so every stage keeps the capital
        # or wins a bet of factor 3/2
        for prev, row in zip(rows, rows[1:]):
            before = int(prev[3]) << int(row[4])
            after = int(row[3]) << int(prev[4])
            if after != before and 2 * after != 3 * before:
                problems.append(f"capital at stage {row[0]} moved by a factor "
                                f"other than 1 or 3/2")
                break
        num, exp = int(rows[-1][3]), int(rows[-1][4])
        if num < 1 << (self.threshold_exp + exp):
            problems.append(f"last capital {num}/2^{exp} is below the threshold")
        problems += audit_problems(out_dir)
        return problems


class Certificate(Workload):
    """diagonalize --replay against seeded component bettors: composite
    setups, certificate replay and one audit per component; no trace file,
    no grammar work.  Re-check: `langmart verify` of the certificate."""

    name = "certificate"
    run_flags = ["--replay"]
    recheck_is_rerun = False

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        rng = random.Random(seed)
        self.write("sigma.json", SIGMA_STAR)
        inputs = {"domain": "sigma.json"}
        for i in range(size["setups"]):
            dfa = random_dfa(rng)
            path = self.write(f"bettor{i}.json", dfa)
            if i % 2 == 0:
                inputs[f"setup{i:02d}"] = f"regular_bettor:{path.name}"
            else:
                side = "inside" if i % 4 == 1 else "outside"
                inputs[f"setup{i:02d}"] = f"subset_bettor:{side}:{path.name}"
        self.config = self.write_config(
            "diagonalize", {"words": size["words"]}, inputs)

    def recheck_invocation(self, run_out, out_dir):
        return Invocation(["verify", str(run_out / "certificate.json")], out_dir)

    def check_run(self, out_dir):
        cert = json.loads((out_dir / "certificate.json").read_text())
        problems = []
        if len(cert["words"]) != self.size["words"]:
            problems.append(f"certificate has {len(cert['words'])} words")
        for row in cert["words"]:
            num, exp = parse_dyadic(row["capital"])
            if num > 2 << exp:
                problems.append(f"capital {row['capital']} at {row['w']!r} exceeds 2")
                break
        problems += audit_problems(out_dir)
        return problems

    def check_recheck(self, out_dir, stdout):
        return [] if "certificate verified" in stdout else ["verify did not confirm"]


class TmSelfScheduled(Workload):
    """The equal-counts machine simulated by a bettor on the text it
    schedules itself: run_dynamic, mostly pauses, TmProgram stepping.
    Re-check: a reproduction run (no CLI command re-checks tm-dynamic)."""

    name = "tm-selfscheduled"

    def __init__(self, work, seed, size):
        super().__init__(work, seed, size)
        self.write("sigma.json", SIGMA_STAR)
        self.write("equal.tm.json", EQUAL_COUNTS_TM)
        self.config = self.write_config(
            "tm-dynamic", {"steps": size["steps"]},
            {"domain": "sigma.json", "tm": "equal.tm.json"})

    def check_run(self, out_dir):
        rows = read_trace(out_dir / "trace.csv")
        problems = []
        if len(rows) != self.size["steps"] + 1:
            problems.append(f"trace has {len(rows) - 1} stages")
        wins = 0
        for row in rows:
            if row[2] != "":
                wins += 1
                if row[2] != str(int(equal_counts(row[1]))):
                    problems.append(f"label {row[2]} of {row[1]!r} is not 0^n1^n membership")
                    break
            if (int(row[3]), int(row[4])) != (1 << wins, 0):
                problems.append(f"capital at stage {row[0]} is not 2^{wins}")
                break
        if wins == 0:
            problems.append("no labelled stage")
        problems += audit_problems(out_dir)
        return problems


WORKLOADS = {w.name: w for w in (RegularStream, CflPipeline, Certificate, TmSelfScheduled)}
