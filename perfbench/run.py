"""Benchmark of the `langmart` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from `src/` of the checkout holding this
directory.  The seed generates the workload's input files; the CLI only
receives those files plus `--seed` for its audit probes.

Load model: closed loop, one client.  One CLI child runs at a time, back
to back, for about `--seconds` seconds.  Each iteration is one
`langmart run` followed by the third party's re-check of its output:
`langmart verify` of a certificate, or else a reproduction run whose
artifacts must be byte-identical to the first.  Before the loop,
set-up children (perfbench/setup_child.py) time everything a run does
before its first stage.

--trace 0 reports the end-to-end metrics, timed on CLI children with
tracing off.  --trace 1 runs the same invocations in this process,
alternating untraced and traced iterations, and reports per-layer
metrics (perfbench/tracer.py) plus the tracing overhead; the spans of
the last traced iteration are written to .perfbench_work/spans/<workload>.json.

Every artifact is checked against the workload's oracles, and all runs of
one seed in one benchmark process must leave byte-identical artifacts.  A failed
exit, a traceback on stderr or a failed check counts as a failed
invocation.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A human-readable table,
and a results file with the machine, Python version, commit, seed and
int->str digit limit, go to stderr and .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import PER_LAYER, Tracer
from workloads import FULL, WORKLOADS

END_TO_END = {
    "run_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "artifact_mb": "MiB",
}
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150
MIB = 2**20
ROOT = Path(__file__).resolve().parent.parent


def child_env(root: Path) -> dict:
    """The caller's environment without int->str limit overrides, so a
    capital too big to print fails the run exactly as it would for a user."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(root / "src")
    return env


class Spawner:
    """Runs python children one at a time through perfbench/spawner.py.

    Each child's peak RSS comes from its own wait4 rusage, not from
    RUSAGE_CHILDREN, which keeps the maximum over all children so far."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], env: dict, log: Path) -> tuple[float, int, int, str, str]:
        """(wall s, exit code, peak RSS KiB, stdout, stderr) of one child."""
        out, err = log.with_suffix(".out"), log.with_suffix(".err")
        request = {"argv": [sys.executable] + argv, "env": env, "stdout": str(out),
                   "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return (reply["wall"], reply["code"], reply["maxrss_kib"],
                out.read_text(errors="replace"), err.read_text(errors="replace"))


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir())


def _guarded(check, *args) -> list[str]:
    """Run an output check; artifacts it cannot even parse are a failure."""
    try:
        return check(*args)
    except Exception as exc:  # any malformed artifact is a failed invocation
        return [f"unreadable artifacts: {exc!r}"]


class Checker:
    """Counts invocations and failures; holds the seed's reference digest."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str, problems: list[str]) -> bool:
        """Record one invocation's problems; True when it passed."""
        self.failures += [f"{what}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems

    def _exit_problems(self, code, stderr: str) -> list[str]:
        problems = [] if code == 0 else [f"exit status {code}"]
        if "Traceback" in stderr:
            problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
        return problems

    def _artifact_problems(self, out_dir: Path) -> list[str]:
        """Full checks on the seed's first good artifacts; later runs of the
        seed must match them byte for byte."""
        digest = dir_digest(out_dir)
        if self.reference is not None:
            return [] if digest == self.reference else [
                "artifacts differ from the first run of this seed"]
        problems = self.workload.check_run(out_dir)
        if not problems:
            self.reference = digest
        return problems

    def setup(self, code, stderr: str) -> bool:
        self.attempted += 1
        return self._fail("setup", self._exit_problems(code, stderr))

    def run(self, out_dir: Path, code, stderr: str) -> bool:
        self.attempted += 1
        problems = self._exit_problems(code, stderr)
        if not problems:
            problems = _guarded(self._artifact_problems, out_dir)
        return self._fail("run", problems)

    def recheck(self, out_dir: Path, code, stdout: str, stderr: str) -> bool:
        self.attempted += 1
        problems = self._exit_problems(code, stderr)
        if not problems:
            if self.workload.recheck_is_rerun:
                problems = _guarded(self._artifact_problems, out_dir)
            else:
                problems = _guarded(self.workload.check_recheck, out_dir, stdout)
        return self._fail("re-check", problems)


def measure_end_to_end(workload, checker: Checker, spawner: Spawner, root: Path,
                       seconds: float) -> dict:
    env = child_env(root)
    logs = workload.work / "logs"
    logs.mkdir(exist_ok=True)
    setup_argv = [str(Path(__file__).with_name("setup_child.py")), workload.name,
                  str(workload.inputs)]
    cli_argv = ["-m", "langmart.cli"]
    deadline = time.perf_counter() + seconds

    samples: dict[str, list] = {"setup_s": [], "run_s": [], "verify_s": [],
                                "peak_rss_mb": [], "artifact_mb": []}
    # the first child also writes the package's bytecode cache; not timed
    for i in range(SETUP_REPEATS + 1):
        wall, code, _, _, err = spawner.run(setup_argv, env, logs / "setup")
        if checker.setup(code, err) and i > 0:
            samples["setup_s"].append(wall)

    # the first run and re-check warm the file cache; they are checked, not timed
    for iteration in itertools.count():
        timed = iteration > 0
        started = time.perf_counter()
        run = workload.run_invocation(workload.work / "run")
        shutil.rmtree(run.out_dir, ignore_errors=True)
        run_wall, code, run_rss, _, err = spawner.run(cli_argv + run.argv, env, logs / "run")
        run_ok = checker.run(run.out_dir, code, err)
        peak_rss = run_rss
        if run_ok:
            recheck = workload.recheck_invocation(run.out_dir, workload.work / "recheck")
            shutil.rmtree(recheck.out_dir, ignore_errors=True)
            wall, code, rss, out, err = spawner.run(cli_argv + recheck.argv, env,
                                                    logs / "recheck")
            peak_rss = max(peak_rss, rss)
            if checker.recheck(recheck.out_dir, code, out, err) and timed:
                samples["verify_s"].append(wall)
        if run_ok and timed:
            samples["run_s"].append(run_wall)
            samples["artifact_mb"].append(dir_bytes(run.out_dir) / MIB)
            samples["peak_rss_mb"].append(peak_rss / 1024)
        now = time.perf_counter()
        if timed and now + (now - started) > deadline:
            break
    return samples


def measure_traced(workload, checker: Checker, root: Path, seconds: float,
                   spans_path: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(root / "src"))
    from langmart import cli

    def invoke(inv, main) -> tuple[float, int | None, str, str]:
        shutil.rmtree(inv.out_dir, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(inv.argv)
            except Exception:  # the CLI must not raise; count it as a failure
                code = None
                traceback.print_exc()
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def iteration(tracer: Tracer | None) -> float | None:
        """Wall time of one run plus its re-check, or None if either failed."""
        main = cli.main
        if tracer is not None:
            tracer.install()
            main = tracer.wrap_main(cli.main)
        tag = "traced" if tracer else "untraced"
        run = workload.run_invocation(workload.work / f"run-{tag}")
        try:
            run_wall, code, _, err = invoke(run, main)
            if not checker.run(run.out_dir, code, err):
                return None
            recheck = workload.recheck_invocation(run.out_dir, workload.work / f"re-{tag}")
            wall, code, out, err = invoke(recheck, main)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return run_wall + wall if checker.recheck(recheck.out_dir, code, out, err) else None

    deadline = time.perf_counter() + seconds
    samples: dict[str, list] = {"untraced_s": [], "traced_s": []}
    layers = []
    last = None
    while True:
        started = time.perf_counter()
        wall = iteration(None)
        if wall is not None:
            samples["untraced_s"].append(wall)
        tracer = Tracer()
        wall = iteration(tracer)
        if wall is not None:
            samples["traced_s"].append(wall)
            counts, seconds = tracer.summary()
            layers.append({**counts, **{f"{k}_share": s / wall for k, s in seconds.items()}})
            for k, s in seconds.items():
                samples.setdefault(f"{k}_s", []).append(s)
            last = tracer
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    metrics = ({k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
               if layers else dict.fromkeys(PER_LAYER, 0.0))
    for key in ("untraced_s", "traced_s"):
        metrics[f"trace.{key}"] = statistics.median(samples[key]) if samples[key] else 0.0
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    if last is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        last.dump(spans_path, {"workload": workload.name, "seed": workload.seed})
    return metrics, samples


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None}
    if n >= 11:
        out[f"p{100 * (n - 10) // n}"] = ordered[n - 11]
    return out


def machine(root: Path, seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for f in sorted((root / "src" / "langmart").glob("*.py")):
        src.update(f.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "source_sha256": src.hexdigest(), "seed": seed,
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "child_env_int_max_str_digits": "interpreter default (variable removed)"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return bench(ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
                 FULL[args.workload])


def bench(root: Path, name: str, seed: int, seconds: float, trace: bool, size: dict) -> int:
    if not (root / "src" / "langmart" / "cli.py").is_file():
        print(f"no langmart source under {root / 'src'}: the benchmark runs from "
              f"a source checkout", file=sys.stderr)
        return 2
    base = root / ".perfbench_work"
    work = base / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = WORKLOADS[name](work, seed, size)
        checker = Checker(workload)
        if trace:
            metrics, samples = measure_traced(workload, checker, root, seconds,
                                              base / "spans" / f"{name}.json")
            units = PER_LAYER
        else:
            with Spawner() as spawner:
                samples = measure_end_to_end(workload, checker, spawner, root, seconds)
            metrics = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    error_rate = checker.failed / checker.attempted
    record = {
        "workload": name, "trace": trace, "machine": machine(root, seed),
        "attempted": checker.attempted, "failures": checker.failures,
        "error_rate": error_rate,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "samples": {k: tail(v) | {"values": v} for k, v in samples.items()},
    }
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {name} seed={seed} trace={int(trace)} "
          f"({checker.attempted} invocations)", file=sys.stderr)
    print(f"# {json.dumps(record['machine'])}", file=sys.stderr)
    for key, unit in units.items():
        print(f"{key:40s} {metrics[key]:14.6f} {unit}", file=sys.stderr)
    print(f"{'error_rate':40s} {error_rate:14.6f} ratio", file=sys.stderr)
    for key, values in samples.items():
        print(f"  {key}: {json.dumps(tail(values))}", file=sys.stderr)
    for failure in checker.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
