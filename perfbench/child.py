"""One workload, run in this process: ``run.py`` spawns it in a fresh
process group and reads the JSON object on its last stdout line.

``--probe-setup`` only times set-up (import the program, build the
backend, warm up) and prints ``{"setup_s": ...}``.  SIGTERM, SIGINT and
the ``--budget`` alarm all raise :class:`Terminate`, so every workload
closes its backends and stops its server in ``finally`` blocks.
"""

import time

T0 = time.perf_counter()  # before the program is imported: part of set-up

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from harness import emit, median, use_program  # noqa: E402

#: Set-up samples per run (this process plus probes in fresh processes).
SETUP_SAMPLES = 5


class Terminate(BaseException):
    """Raised in the main thread when the run must stop early."""


def _stop(signum, _frame):
    raise Terminate(signal.Signals(signum).name)


def setup_samples(args, own: float, speed) -> float:
    """Median set-up time over this process and fresh probe processes
    (in-process workloads; ``serve`` times its own server spawns).

    ``own`` is already at the reference host speed; each probe is
    scaled by the calibration samples taken just before and after it.
    """
    samples = [own]
    segments = speed.segments()
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--probe-setup"],
            stdout=subprocess.PIPE, check=True, text=True, timeout=60,
        )
        probe = float(json.loads(out.stdout.splitlines()[-1])["setup_s"])
        samples.append(probe * segments.close())
    return median(samples)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--budget", type=int, default=0,
                    help="seconds after which the run stops itself")
    ap.add_argument("--probe-setup", action="store_true")
    ap.add_argument("--kernel-delay", type=float, default=0.0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    signal.signal(signal.SIGALRM, _stop)
    if args.budget:
        signal.alarm(args.budget)

    use_program()
    workload = importlib.import_module(f"wl_{args.workload}")
    if args.probe_setup:
        emit({"setup_s": workload.probe_setup(T0)})
        return 0
    try:
        result = workload.run(args, T0, setup_samples)
    except Terminate as exc:
        print(f"perfbench: {args.workload} stopped by {exc}", file=sys.stderr)
        return 4
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
