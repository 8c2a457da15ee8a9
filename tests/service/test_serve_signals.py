"""``pfpl serve`` signal handling around start-up.

The server forks its pool workers inside ``PFPLService.start()``.  A
SIGTERM that reaches it after that fork must drain and close the pool,
never kill the server and orphan the workers -- also when it arrives
before, or the moment that, the readiness line is printed.
"""

import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists() or not Path("/dev/shm").is_dir(),
    reason="needs /proc and /dev/shm to observe child processes and segments",
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _tagged(token: str) -> set[int]:
    """Live processes whose environment carries ``token``.

    Pool workers inherit the server's environment, so this finds them
    even after they were orphaned and re-parented.
    """
    found = set()
    needle = f"PFPL_TEST_TOKEN={token}".encode()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if needle not in (entry / "environ").read_bytes().split(b"\0"):
                continue
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z":
            found.add(int(entry.name))
    return found


def _workers(token: str, server: int) -> set[int]:
    """Children of ``server`` that still run its command line.

    That is the forked pool workers -- and, for an instant between fork
    and exec, the compiler probe, which is why callers keep the first
    non-empty answer instead of asking again.
    """
    found = set()
    for pid in _tagged(token) - {server}:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == server and b"repro.cli" in cmdline:
            found.add(pid)
    return found


def _spawn(token: str):
    env = {**os.environ, "PYTHONUNBUFFERED": "1", "PFPL_TEST_TOKEN": token,
           "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--backend", "procpool", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )


def _finish(proc, token: str, shm_before: set[str]) -> str:
    """Wait for exit; assert a clean drain with nothing left behind."""
    # wait() first, not communicate(): orphaned workers would hold the
    # stdout pipe open and communicate() would never see EOF.
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and _tagged(token):
        time.sleep(0.05)
    survivors = sorted(_tagged(token))
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    out, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, out
    assert "pfpl serve stopped" in out, out
    assert not survivors, f"orphaned processes {survivors}:\n{out}"
    leftover = set(os.listdir("/dev/shm")) - shm_before
    assert not leftover, f"leftover shared-memory segments {leftover}"
    return out


def test_sigterm_at_readiness_line_drains():
    token = uuid.uuid4().hex
    shm_before = set(os.listdir("/dev/shm"))
    proc = _spawn(token)
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, line
        proc.send_signal(signal.SIGTERM)
    except BaseException:
        proc.kill()
        raise
    out = _finish(proc, token, shm_before)
    assert "pfpl serve draining" in out


def test_sigterm_during_startup_drains():
    """SIGTERM as soon as the first pool worker exists, before readiness."""
    token = uuid.uuid4().hex
    shm_before = set(os.listdir("/dev/shm"))
    proc = _spawn(token)
    try:
        deadline = time.monotonic() + 60
        forked: set[int] = set()
        while time.monotonic() < deadline and not forked:
            assert proc.poll() is None, proc.communicate()[0]
            forked = _workers(token, proc.pid)
        assert forked, "no pool worker forked within 60 s"
        proc.send_signal(signal.SIGTERM)
    except BaseException:
        proc.kill()
        raise
    out = _finish(proc, token, shm_before)
    # The stop is honoured once start-up completes: the server still
    # reports readiness, then drains.
    assert out.index("listening on") < out.index("pfpl serve stopped")
