"""Smoke test of the benchmark itself; exits 1 on the first failed check.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each result is correct and that every metric is printed with its unit.
Then it flips one capital in each workload's artifacts and checks that
the output checks count the invocation as failed, so error_rate > 0.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import run as bench
from tracer import PER_LAYER
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok   {message}")


def tiny_run(name: str, trace: bool) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bench.bench(ROOT, name, 1, 0.1, trace, TINY[name])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{name} trace={int(trace)}: correct over {result['attempted']} invocations")
    units = PER_LAYER if trace else bench.END_TO_END
    check(set(result["metrics"]) == set(units),
          f"{name} trace={int(trace)}: result lists exactly the declared metrics")
    table = err.getvalue().splitlines()
    for key, unit in {**units, "error_rate": "ratio"}.items():
        check(any(line.split()[::2] == [key, unit] for line in table),
              f"{name} trace={int(trace)}: prints {key} in {unit}")


def tamper(out_dir: Path) -> None:
    """Change one recorded capital in the run's artifacts."""
    trace = out_dir / "trace.csv"
    if trace.exists():
        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        row = rows[len(rows) // 2]
        row[3] = str(int(row[3]) + 1)
        with open(trace, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return
    cert_path = out_dir / "certificate.json"
    cert = json.loads(cert_path.read_text())
    entry = cert["words"][len(cert["words"]) // 2]
    num, _, den = entry["capital"].partition("/")
    entry["capital"] = f"{int(num) + 1}/{den or '2^0'}"
    cert_path.write_text(json.dumps(cert))


def tampered_run(name: str) -> None:
    work = ROOT / ".perfbench_work" / f"smoke-{name}"
    workload = WORKLOADS[name](work, 1, TINY[name])
    checker = bench.Checker(workload)
    env = bench.child_env(ROOT)
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    with bench.Spawner() as spawner:
        run = workload.run_invocation(work / "run")
        _, code, _, _, err = spawner.run(["-m", "langmart.cli"] + run.argv, env, logs / "run")
        check(code == 0, f"{name}: untampered run exits 0")
        tamper(run.out_dir)
        checker.run(run.out_dir, code, err)
        recheck = workload.recheck_invocation(run.out_dir, work / "recheck")
        _, code, _, out, err = spawner.run(["-m", "langmart.cli"] + recheck.argv, env,
                                           logs / "recheck")
        checker.recheck(recheck.out_dir, code, out, err)
    shutil.rmtree(work)
    check(checker.failed > 0,
          f"{name}: one flipped capital gives error_rate {checker.failed}/{checker.attempted}")


def main() -> int:
    for name in WORKLOADS:
        tiny_run(name, trace=False)
        tiny_run(name, trace=True)
        tampered_run(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
