"""Run the benchmark's child processes from a small process, one at a time.

    python3 perfbench/spawner.py

Reads one JSON request per line on stdin,
{"argv", "cwd", "env", "stdout", "stderr", "timeout_s", "probe_every_s"},
runs it to the end and answers with one JSON line,
{"exit", "wall_s", "paused_s", "probes", "cpu_s", "maxrss_kb", "timed_out"}.
cpu_s and maxrss_kb come from the child's own os.wait4 rusage.  Exits at
the end of stdin.

A child's ru_maxrss starts from the peak RSS of the process that spawned it
(exec keeps the larger of the two), so children are started from here, a
process that stays small, and not from run.py, which holds numpy and the
output checks.

With probe_every_s set, run.py times its reference work before the
child starts, after it ends, and every probe_every_s while it runs.  For
the last kind the child is stopped (SIGSTOP) while the reference work runs
and continued afterwards, so the two never share the machine; wall_s leaves
out the stopped time, which paused_s reports.  To ask for one timing, the
spawner writes {"probe": true} and reads back the seconds as one line.
"""
from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time


def probe(probes: list[float]) -> None:
    print(json.dumps({"probe": True}), flush=True)
    probes.append(float(sys.stdin.readline()))


def run(request: dict) -> dict:
    every = request["probe_every_s"]
    probes: list[float] = []
    if every:
        probe(probes)
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                cwd=request["cwd"], env=request["env"])
    deadline = start + request["timeout_s"]
    paused, timed_out, reaped = 0.0, False, None
    pidfd = os.pidfd_open(proc.pid)
    try:
        while reaped is None:
            left = deadline - time.perf_counter()
            if select.select([pidfd], [], [], max(0.0, min(left, every or left)))[0]:
                break
            if time.perf_counter() >= deadline:
                timed_out = True
                proc.kill()
                break
            if not every:
                continue
            stop = time.perf_counter()
            os.kill(proc.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if os.WIFSTOPPED(status):
                probe(probes)
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - stop
            else:
                reaped = status, usage
        if reaped is None:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = status, usage
        status, usage = reaped
        wall = time.perf_counter() - start - paused
    except BaseException:
        if reaped is None:  # never leave a child behind, stopped or running
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(pidfd)
    if every:
        probe(probes)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall, "paused_s": paused, "probes": probes,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss,
            "timed_out": timed_out}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
