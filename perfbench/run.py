#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

The workload runs in a child process (``child.py``) in a fresh session.
This process is a child subreaper, so anything the workload starts stays
findable after the child exits.  It stops the child on SIGINT/SIGTERM
and on its own deadline (SIGTERM, wait for the drain, then SIGKILL),
then scans ``/proc`` and fails loudly if any process of the run is
still alive, killing it.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

from harness import (
    CONTAMINATION_SHARE,
    HERE,
    ROOT,
    cpu_jiffies,
    emit,
    host_record,
    processes_of,
    program_env,
    program_present,
)

WORKLOADS = ("bulk", "stream", "serve")
#: The run stops itself this long after it started, well inside the
#: 180 s any caller allows a run.
DEADLINE_S = 165
#: Time the workload gets to close backends and stop its server after
#: SIGTERM before the group is killed.
DRAIN_S = 10
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap() -> None:
    """Collect every exited child (orphans are re-parented to us)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_child(child: subprocess.Popen) -> None:
    """SIGTERM the workload, wait for its drain, then SIGKILL it."""
    if child.poll() is None:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(DRAIN_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()


def survivors(child: subprocess.Popen) -> list:
    """Processes of the run still alive after the teardown."""
    deadline = time.monotonic() + 5
    while True:
        reap()
        alive = [p for p in processes_of(child.pid, os.getpid()) if p[2] != "Z"]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--kernel-delay", type=float, default=0.0,
                    help="self-test only: slow every in-process kernel call of bulk "
                         "by this share")
    args = ap.parse_args()
    if not program_present():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    become_subreaper()
    host = host_record()
    busy0, total0 = cpu_jiffies()
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--budget", str(DEADLINE_S - DRAIN_S - 5),
        "--kernel-delay", str(args.kernel_delay),
    ]
    child = subprocess.Popen(
        cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stop_reason = []

    def on_signal(signum, _frame):
        stop_reason.append(signal.Signals(signum).name)
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)

    # Whatever the workload leaves behind is a teardown failure: it is
    # reported and killed here, never silently reaped.
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    lines: list[str] = []
    reader = threading.Thread(target=lambda: lines.extend(child.stdout), daemon=True)
    reader.start()
    try:
        try:
            child.wait(max(0.1, started + DEADLINE_S - DRAIN_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            stop_reason.append("deadline")
    finally:
        stop_child(child)
        reader.join(DRAIN_S)
        alive = survivors(child)
        if alive:
            for pid, comm, state in alive:
                print(f"perfbench: process {pid} ({comm}, {state}) survived the run",
                      file=sys.stderr)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            survivors(child)
    if alive:
        return 3
    if stop_reason:
        print(f"perfbench: run stopped ({', '.join(stop_reason)})", file=sys.stderr)
        return 4
    if child.returncode != 0 or not lines:
        print(f"perfbench: workload exited with {child.returncode}", file=sys.stderr)
        return 5

    result = json.loads(lines[-1])
    busy1, total1 = cpu_jiffies()
    ticks = os.sysconf("SC_CLK_TCK")
    ours = resource.getrusage(resource.RUSAGE_CHILDREN)
    ours_jiffies = (ours.ru_utime + ours.ru_stime) * ticks
    other = max(0.0, (busy1 - busy0) - ours_jiffies) / max(1, total1 - total0)
    host.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        other_cpu_frac=round(other, 4), contaminated=other > CONTAMINATION_SHARE,
        loadavg_end=list(os.getloadavg()), note=result.get("note"),
    )
    print("host: " + json.dumps(host, sort_keys=True))
    if host["contaminated"]:
        print(f"perfbench: contaminated run: {other:.0%} of the host's CPU time "
              "went to processes outside the benchmark", file=sys.stderr)
    metrics = result["metrics"]
    if args.trace:
        metrics["host.other_cpu_frac"]["value"] = other
    failed = int(result["failed"])
    emit({
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
