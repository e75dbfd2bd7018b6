"""Launches the benchmark's child processes and times them.

    python3 -S perfbench/spawner.py

Reads one JSON request per line on stdin ({"argv", "env", "stdout",
"stderr", "timeout"}), runs that child to completion and answers with one
JSON line {"wall", "code", "maxrss_kib"}.  Exits at end of input.

The children are launched from this small process, not from the
benchmark itself, because Linux starts a child's peak-RSS count at the
memory high-water mark of the process that spawned it.  Spawned from the
benchmark, whose memory grows while it checks large artifacts, a child
would report the benchmark's peak instead of its own.
"""

import json
import os
import signal
import sys
import time


class Timeout(Exception):
    pass


def on_alarm(_signum, _frame):
    raise Timeout


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
    signal.alarm(request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    except Timeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {"wall": wall, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
