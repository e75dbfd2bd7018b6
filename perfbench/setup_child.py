"""Set-up child: everything a `langmart run` does before its first stage.

    python3 perfbench/setup_child.py <workload> <inputs-dir>

Imports `langmart.cli`, loads the workload's inputs and builds its setup
through the package's public constructors, then exits.  The benchmark
times this process from spawn to exit as `setup_s`.
"""

import configparser
import json
import sys
from pathlib import Path

import langmart.cli  # noqa: F401  (the import is part of set-up time)
from langmart.automata import Dfa
from langmart.constructions import (
    TmProgram,
    build_setup,
    regular_bettor,
    subset_bettor,
    tm_dynamic_bettor,
)
from langmart.grammar import Cfg, infinite_regular_subset, to_cnf


def load_dfa(path: Path) -> Dfa:
    return Dfa.from_json(json.loads(path.read_text()))


def main(workload: str, inputs: Path) -> None:
    config = configparser.ConfigParser()
    config.read(inputs / "experiment.ini")
    files = config["inputs"]
    domain = load_dfa(inputs / files["domain"])
    if workload == "regular-stream":
        regular_bettor(load_dfa(inputs / files["language"]))
    elif workload == "cfl-pipeline":
        cnf = to_cnf(Cfg.from_text((inputs / files["grammar"]).read_text()))
        subset_bettor(*infinite_regular_subset(cnf, domain))
    elif workload == "certificate":
        for key in sorted(k for k in files if k.startswith("setup")):
            kind, *rest = files[key].split(":")
            desc = {"kind": kind, "dfa": json.loads((inputs / rest[-1]).read_text())}
            if kind == "subset_bettor":
                desc["side"] = rest[0]
            build_setup(desc)
    elif workload == "tm-selfscheduled":
        tm_dynamic_bettor(TmProgram.from_json(json.loads((inputs / files["tm"]).read_text())),
                          domain)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
