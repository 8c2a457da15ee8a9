"""Shared plumbing for the benchmark: paths, seeded inputs, statistics,
the host record and ``/proc`` process scans.

Nothing here imports the program under test at module load, so the
orchestrator can fail fast in a directory that lacks it.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Logs and scratch files a run leaves in the checkout (ignored by git).
OUT_DIR = ROOT / ".perfbench_out"

#: A run whose host was this busy with work outside the benchmark's own
#: process tree is flagged as contaminated (share of all CPU time).
CONTAMINATION_SHARE = 0.25


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for a subprocess that runs the program from source."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- statistics ----------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (numpy's default rule); 0.0 if empty."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


class Timer:
    """Accumulates wall seconds, calls and bytes for one timed section."""

    __slots__ = ("seconds", "calls", "bytes")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self.bytes = 0

    def add(self, seconds: float, nbytes: int = 0) -> None:
        self.seconds += seconds
        self.calls += 1
        self.bytes += nbytes


# -- seeded inputs ---------------------------------------------------------------

#: Side of the square 2-D spectral tiles inputs are built from (1 MB of
#: float32 each).  Many independent tiles keep the ratio of one seed's
#: inputs within about 1 % of another's.
TILE_SIDE = 512
TILE_VALUES = TILE_SIDE * TILE_SIDE


def spectral_f32(n_values: int, seed: int, stream: int):
    """Smooth f32 field of ``n_values`` built from 2-D spectral tiles.

    Every tile has its own seed, so the same ``(seed, stream)`` always
    gives the same array; a short array is the first rows of one tile.
    """
    import numpy as np
    from repro.datasets.synthesis import spectral_field

    out = np.empty(n_values, dtype=np.float32)
    for i, lo in enumerate(range(0, n_values, TILE_VALUES)):
        hi = min(lo + TILE_VALUES, n_values)
        tile = spectral_field((TILE_SIDE, TILE_SIDE), seed=_derive(seed, stream, i))
        out[lo:hi] = tile.reshape(-1)[: hi - lo]
    return out


def mixture_f64(n_values: int, seed: int):
    """NWChem-like f64 state vector built from 1 MB mixture series.

    One series draws 32 segment scales; joining many keeps the share of
    large-scale (hard) segments nearly the same from seed to seed.
    """
    import numpy as np
    from repro.datasets.synthesis import gaussian_mixture_series

    step = 1 << 17
    return np.concatenate([
        gaussian_mixture_series(min(step, n_values - lo), seed=_derive(seed, 9, i))
        for i, lo in enumerate(range(0, n_values, step))
    ])


def sparse_f32(n_values: int, seed: int, density: float = 1 / 64):
    """Spectral field with all but a ``density`` share of values zeroed."""
    import numpy as np

    field = spectral_f32(n_values, seed, stream=7)
    keep = np.random.default_rng(_derive(seed, 8, 0)).random(n_values) < density
    field[~keep] = 0.0
    return field


def _derive(seed: int, stream: int, index: int) -> int:
    """Distinct, reproducible generator seed per (run seed, input, tile)."""
    return (seed * 1_000_003 + stream * 10_007 + index) % (2**63)


# -- host record -----------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


def cpu_jiffies() -> tuple[int, int]:
    """``(busy, total)`` CPU jiffies summed over the host since boot.

    Busy is user + nice + system + steal.  Interrupt time is left out:
    no process is charged for it, and most of it here is the loopback
    traffic of the benchmark's own requests.
    """
    with open("/proc/stat", encoding="utf-8") as fh:
        user, nice, system, idle, iowait, irq, softirq, steal = (
            int(x) for x in fh.readline().split()[1:9]
        )
    busy = user + nice + system + steal
    return busy, busy + idle + iowait + irq + softirq


# -- process scans ---------------------------------------------------------------


def proc_stat(pid: int) -> tuple[str, str, int, int, int] | None:
    """``(comm, state, ppid, pgrp, session)`` of a live pid, else None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError:
        return None
    comm = raw[raw.index("(") + 1: raw.rindex(")")]
    rest = raw[raw.rindex(")") + 2:].split()
    return comm, rest[0], int(rest[1]), int(rest[2]), int(rest[3])


def processes_of(session: int, parent: int) -> list[tuple[int, str, str]]:
    """Live processes in ``session`` or whose parent is ``parent``.

    Returns ``(pid, comm, state)`` for each; zombies are included (a
    zombie child of ``parent`` is reaped by the caller, not ignored).
    """
    found = []
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        if pid == me:
            continue
        st = proc_stat(pid)
        if st is None:
            continue
        comm, state, ppid, _pgrp, sid = st
        if sid == session or ppid == parent:
            found.append((pid, comm, state))
    return found


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0


def children_of(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            st = proc_stat(int(entry))
            if st is not None and st[2] == pid:
                out.append(int(entry))
    return out


def emit(obj: dict) -> None:
    """Print one JSON object as a single stdout line."""
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    sys.stdout.flush()


def now() -> float:
    return time.perf_counter()
