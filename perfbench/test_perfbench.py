"""The benchmark's own tests: teardown under SIGTERM, the result contract,
and the seeded-slowdown self-test.

Run from the repository root (several minutes; they drive real runs):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from harness import ROOT, children_of, proc_stat

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def _start(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        RUN + list(args), cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )


def _descendants(pid: int) -> set[int]:
    found, todo = set(), [pid]
    while todo:
        for child in children_of(todo.pop()):
            if child not in found:
                found.add(child)
                todo.append(child)
    return found


def _cmdline(pid: int) -> str:
    try:
        return Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ").decode()
    except OSError:
        return ""


def _wait_for(predicate, timeout: float, proc: subprocess.Popen) -> set[int]:
    """Poll the run's process tree until ``predicate(tree)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, proc.communicate()
        tree = _descendants(proc.pid)
        if predicate(tree):
            return tree
        time.sleep(0.2)
    raise AssertionError("the run never reached the state to interrupt")


def _alive(pids) -> list[tuple[int, str]]:
    out = []
    for pid in pids:
        st = proc_stat(pid)
        if st is not None and st[1] != "Z":
            out.append((pid, st[0]))
    return out


def _sessions_alive(sessions) -> list[int]:
    return [
        int(e) for e in os.listdir("/proc")
        if e.isdigit() and (st := proc_stat(int(e))) is not None
        and st[4] in sessions and st[1] != "Z"
    ]


def _shm() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _sigterm_and_check(proc: subprocess.Popen, tree: set[int], shm_before: set[str]):
    sessions = {proc.pid} | {s[4] for p in tree if (s := proc_stat(p)) is not None}
    proc.send_signal(signal.SIGTERM)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode != 0, out
    assert '"correct"' not in out
    assert not _alive(tree), (_alive(tree), err)
    assert not _sessions_alive(sessions)
    assert _shm() <= shm_before, "shared-memory segments leaked"


def test_sigterm_mid_serve_leaves_nothing_running():
    shm = _shm()
    proc = _start("--workload", "serve", "--seed", "1", "--seconds", "20", "--trace", "0")
    try:
        tree = _wait_for(
            lambda t: any("repro.cli serve" in _cmdline(p) for p in t)
            and len(t) >= 5,  # child, server, pool workers, resource tracker
            60, proc,
        )
        time.sleep(1.0)
        tree = _descendants(proc.pid) | tree
        _sigterm_and_check(proc, tree, shm)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)


def test_sigterm_mid_procpool_leaves_nothing_running():
    """The traced bulk run ends on in-process serial/omp/procpool timings;
    interrupt it while the process pool is live."""
    shm = _shm()
    proc = _start("--workload", "bulk", "--seed", "1", "--seconds", "5", "--trace", "1")
    try:
        # The workload process forks pool workers (and the resource
        # tracker) only for the procpool timing.
        tree = _wait_for(
            lambda t: any(len(children_of(p)) >= 2 for p in t if "child.py" in _cmdline(p)),
            150, proc,
        )
        time.sleep(0.5)
        _sigterm_and_check(proc, _descendants(proc.pid) | tree, shm)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)


def test_fails_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark, the run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def _result(*args: str) -> dict:
    out = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True,
                         timeout=200)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def _worse(name: str, base: float, new: float) -> float:
    """Share by which ``new`` is worse than ``base`` (negative: better)."""
    better = next(m["better"] for m in SPEC["end_to_end"] if m["name"] == name)
    return (base - new) / base if better == "higher" else (new - base) / base


def test_seeded_kernel_slowdown_is_detected_on_bulk_only():
    """A 15 % delay in the kernel-layer shim (the ``--kernel-delay`` self-test
    option) slows ``bulk``: in interleaved pairs, every slowed run reads
    below every base run.  ``serve`` runs its kernels in the server
    process, so the same option leaves every serve metric within its bound.

    The shift on ``bulk`` is about 12 %, below the 0.25 bound that this
    host's run-to-run noise requires (see README.md), so a single
    comparison at the bound would not flag it.
    """
    base, slow = [], []
    for seed in ("3", "4", "5"):
        args = ["--workload", "bulk", "--seed", seed, "--seconds", "15", "--trace", "0"]
        base.append(_result(*args)["compress_gbps"])
        slow.append(_result(*args, "--kernel-delay", "0.15")["compress_gbps"])
    assert max(slow) < min(base), (base, slow)

    args = ["--workload", "serve", "--seed", "3", "--seconds", "15", "--trace", "0"]
    plain = _result(*args)
    delayed = _result(*args, "--kernel-delay", "0.15")
    for name, bound in BOUNDS.items():
        if name != "setup_s":
            assert _worse(name, plain[name], delayed[name]) <= bound, name


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer_metric(workload):
    values = _result("--workload", workload, "--seed", "2", "--seconds", "6", "--trace", "1")
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["trace.unattributed_frac"] >= 0.0
