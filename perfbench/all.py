"""Run every workload untraced and traced, and print all metrics side by side.

    python3 perfbench/all.py [--seed N] [--seconds S]

Each run's own table goes to stderr as it finishes; the combined table,
one row per metric with its unit and one column per workload, goes to
stdout.  Exits 1 if any invocation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys

import run as bench
from tracer import PER_LAYER
from workloads import FULL, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    table: dict = {"error_rate": {}}
    for trace in (False, True):
        for name in WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                bench.bench(bench.ROOT, name, args.seed, args.seconds, trace, FULL[name])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            for key, metric in result["metrics"].items():
                table.setdefault(key, {})[name] = metric["value"]
            failed, attempted = table["error_rate"].get(name, (0, 0))
            table["error_rate"][name] = (failed + result["failed"],
                                         attempted + result["attempted"])
    failed = sum(f for f, _ in table["error_rate"].values())
    table["error_rate"] = {n: f / a for n, (f, a) in table["error_rate"].items()}
    units = {**bench.END_TO_END, **PER_LAYER, "error_rate": "ratio"}
    print(f"{'metric':38s} {'unit':6s} " + " ".join(f"{n:>16s}" for n in WORKLOADS))
    for key, unit in units.items():
        print(f"{key:38s} {unit:6s} "
              + " ".join(f"{table[key][n]:16.6g}" for n in WORKLOADS))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
