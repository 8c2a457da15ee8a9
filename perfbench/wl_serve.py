"""``serve``: an open loop against ``python -m repro.cli serve --port 0
--backend procpool --workers <nproc>``, run as its own process.

One asyncio client (this process) sends 50/50 compress/decompress
requests of 256 KB and 1 MB spectral f32 bodies.

- The untraced run is a closed loop on one connection: each request is
  sent when the previous one is answered.  It gives the per-request
  throughput and latency that the end-to-end metrics gate.
- The traced run drives open loops at the two fixed Poisson rates over
  at most nproc concurrent connections, then the ``max_rps`` ladder.  A
  request that is due while every connection is busy waits in the
  generator, and that wait counts toward its latency (timed from the
  moment it was due).  On a 2-CPU host the open-loop percentiles move
  by 20-40 % from run to run, too much to gate, so they are per-layer
  figures.

The request schedule (op and body size; arrival gaps in the open
loops) is one fixed trace replayed by every run: drawn afresh per seed,
the burst pattern alone moves the p99 of a 17 s window by about 20 %.
The seed draws the body contents.  Every response must be a 200 whose
body is byte-identical to the serial reference built during set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time

import numpy as np

import repro
from harness import (
    OUT_DIR,
    ROOT,
    children_of,
    median,
    nproc,
    program_env,
    quantile,
    spectral_f32,
    vm_hwm_mb,
)
from hostspeed import HostSpeed
from report import END_TO_END, PER_LAYER, finish, latency_ms, windowed

#: Offered rates (requests/s).  Fixed: they never move with the code.
RATE_LOW = 30.0
RATE_HIGH = 60.0
#: Seed of the fixed request schedule (never the run's seed).
SCHEDULE_SEED = 20251
#: ``max_rps`` ladder: 5 % geometric steps up from RATE_HIGH.
LADDER_STEP = 1.05
LADDER_SECONDS = 2.5
LADDER_MAX_STEPS = 12
LADDER_P99_S = 0.2
BODY_SIZES = (256 << 10, 1 << 20)
BODIES_PER_SIZE = 12
BOUND = 1e-3
REQUEST_TIMEOUT_S = 10.0
LISTEN_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 8.0
SETUP_SPAWNS = 7
#: Consecutive windows of the closed loop the timings are medians over.
WINDOWS = 10
WARMUP_REQUESTS = 24
#: Length of one calibrated segment of the closed loop, in seconds.
SEGMENT_S = 1.0
#: ``peak_rss_mb`` is read once the closed loop has answered this many
#: requests, so it covers the same work however fast the host runs (the
#: server's peak RSS creeps up with the number of requests served).
RSS_REQUESTS = 800


# -- the server process ------------------------------------------------------------


class Server:
    """``pfpl serve`` child process; :meth:`stop` drains it, then kills."""

    def __init__(self, access_log: str | None = None):
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--backend", "procpool", "--workers", str(nproc())]
        if access_log:
            cmd += ["--access-log", access_log]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        line = self._readline(LISTEN_TIMEOUT_S)
        self.ready_s = time.perf_counter() - t0
        if not line.startswith("pfpl serve listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)
        self._await_signal_handlers()

    def _await_signal_handlers(self) -> None:
        """Block until one ``/healthz`` round trip has completed.

        ``pfpl serve`` prints its readiness line just before it installs
        its SIGTERM handler; a SIGTERM in that window kills it outright
        and orphans its pool workers.  The event loop answers a request
        only after the handler is installed.
        """
        with socket.create_connection((self.host, self.port), timeout=LISTEN_TIMEOUT_S) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            while sock.recv(4096):
                pass

    def _readline(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        buf = b""
        deadline = time.monotonic() + timeout
        while not buf.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                break
            byte = os.read(fd, 1)
            if not byte:
                break
            buf += byte
        return buf.decode(errors="replace").strip()

    def tree_hwm_mb(self) -> float:
        """Peak RSS of the server plus its pool workers (sum of VmHWM)."""
        pids = [self.proc.pid] + children_of(self.proc.pid)
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            workers = children_of(self.proc.pid)
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                for pid in [self.proc.pid] + workers + children_of(self.proc.pid):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                self.proc.wait()
        self.proc.stdout.close()


# -- HTTP client -------------------------------------------------------------------


async def http(host: str, port: int, method: str, target: str, body: bytes = b""):
    """One request on its own connection; returns ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.writelines((
            f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode(),
            body,
        ))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                k, v = line.split(":", 1)
                headers[k.strip().lower()] = v.strip()
        payload = await reader.readexactly(int(headers.get("content-length", "0")))
        return status, headers, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


class Bodies:
    """Request bodies and their serial references (built during set-up)."""

    def __init__(self, seed: int):
        self.compress = []  # (body, expected stream)
        self.decompress = []  # (stream body, expected decoded bytes)
        ok = True
        for s, size in enumerate(BODY_SIZES):
            for i in range(BODIES_PER_SIZE):
                data = spectral_f32(size // 4, seed, stream=100 + s * 10 + i)
                stream = repro.compress(data, "abs", BOUND)
                decoded = repro.decompress(stream)
                ok &= repro.check_bound("abs", data, decoded, BOUND).ok
                self.compress.append((data.tobytes(), stream))
                self.decompress.append((stream, decoded.tobytes()))
        self.reference_ok = ok
        self.ratio = sum(len(b) for b, _ in self.compress) / sum(
            len(s) for _, s in self.compress
        )

    def pick(self, rng):
        op = "compress" if rng.random() < 0.5 else "decompress"
        size = int(rng.integers(len(BODY_SIZES)))
        index = size * BODIES_PER_SIZE + int(rng.integers(BODIES_PER_SIZE))
        return op, index


class Result:
    __slots__ = ("op", "size", "due", "latency", "late", "cap_wait", "ok", "bytes_in",
                 "bytes_out", "trace_id", "ref_latency")


class Client:
    def __init__(self, server: Server, bodies: Bodies):
        self.server = server
        self.bodies = bodies
        self.cap = nproc()
        self._phases = 0

    def _schedule(self):
        """The next phase's generator: the same sequence on every run."""
        self._phases += 1
        return np.random.default_rng([SCHEDULE_SEED, self._phases])

    async def one(self, op, index, due, late, sem, out, backlog):
        loop = asyncio.get_running_loop()
        r = Result()
        r.op, r.due, r.late, r.trace_id = op, due, late, None
        r.size = BODY_SIZES[index // BODIES_PER_SIZE]
        waited = loop.time()
        async with sem:
            r.cap_wait = loop.time() - waited
            if op == "compress":
                body, expected = self.bodies.compress[index]
                target = f"/v1/compress?mode=abs&bound={BOUND}&dtype=f4"
            else:
                body, expected = self.bodies.decompress[index]
                target = "/v1/decompress"
            try:
                status, headers, payload = await asyncio.wait_for(
                    http(self.server.host, self.server.port, "POST", target, body),
                    REQUEST_TIMEOUT_S,
                )
                r.ok = status == 200 and payload == expected
                r.trace_id = headers.get("x-pfpl-trace-id")
            except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                r.ok = False
                payload = b""
        r.latency = r.ref_latency = loop.time() - due
        r.bytes_in, r.bytes_out = len(body), len(payload)
        backlog[0] -= 1
        out.append(r)

    async def phase(self, rate: float, seconds: float) -> tuple[list, int]:
        """Open-loop Poisson arrivals at ``rate`` for ``seconds``.

        Returns the results and the backlog (requests due but not yet
        answered) at the moment the last arrival was issued.
        """
        loop = asyncio.get_running_loop()
        sem = asyncio.Semaphore(self.cap)
        out: list[Result] = []
        backlog = [0]
        rng = self._schedule()
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        dues = np.cumsum(gaps)
        dues = dues[dues < seconds]
        picks = [self.bodies.pick(rng) for _ in dues]
        start = loop.time() + 0.05
        tasks = []
        for (op, index), offset in zip(picks, dues):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            backlog[0] += 1
            late = max(0.0, loop.time() - due)
            tasks.append(asyncio.ensure_future(
                self.one(op, index, due, late, sem, out, backlog)
            ))
        pending_at_end = backlog[0]
        await asyncio.gather(*tasks)
        return out, pending_at_end

    async def closed(self, seconds: float, limit: int = 0) -> list:
        """One connection, each request sent when the previous one is
        answered, for ``seconds`` or ``limit`` requests, whichever ends
        first (0 for no limit)."""
        loop = asyncio.get_running_loop()
        sem = asyncio.Semaphore(1)
        out: list[Result] = []
        rng = self._schedule()
        end = loop.time() + seconds if seconds else float("inf")
        while loop.time() < end and (not limit or len(out) < limit):
            op, index = self.bodies.pick(rng)
            await self.one(op, index, loop.time(), 0.0, sem, out, [1])
        return out


def _throughput(results, op: str, field: str, latency: str = "ref_latency") -> float:
    sel = [r for r in results if r.op == op and r.ok]
    seconds = sum(getattr(r, latency) for r in sel)
    return sum(getattr(r, field) for r in sel) / seconds / 1e9 if seconds else 0.0


def _typical_latency(results, latency: str) -> float:
    """Mean over the four request kinds (op x body size) of each kind's
    median latency.

    The plain median of the 50/50 mix falls in the gap between the
    256 KB and the 1 MB latencies, and jumps across it when the mix of
    a window shifts by a few requests.
    """
    kinds: dict = {}
    for r in results:
        kinds.setdefault((r.op, r.size), []).append(getattr(r, latency))
    return sum(median(xs) for xs in kinds.values()) / len(kinds)


def setup_spawns(n: int, speed: HostSpeed) -> list[float]:
    """Spawn-to-listening times of ``n`` servers started and stopped in
    turn, each scaled to the reference host speed by the calibration
    samples taken just before and after it."""
    times = []
    segments = speed.segments()
    for _ in range(n):
        server = Server()
        try:
            ready = server.ready_s
        finally:
            server.stop()
        times.append(ready * segments.close())
    return times


def run(args, t0, setup_samples) -> dict:
    bodies = Bodies(args.seed)
    speed = HostSpeed()
    setup = setup_spawns(SETUP_SPAWNS - 1, speed)
    log = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        log = OUT_DIR / f"access-{os.getpid()}.log"
        if log.exists():
            log.unlink()
    segments = speed.segments()
    server = Server(access_log=str(log) if log else None)
    try:
        setup.append(server.ready_s * segments.close())
        client = Client(server, bodies)
        results = asyncio.run(_drive(client, server, args, log, speed))
        results.setdefault("peak_rss_mb", server.tree_hwm_mb())
    finally:
        server.stop()
    warm, closed = results.pop("warm"), results.pop("closed", [])
    low, high = results.pop("low", []), results.pop("high", [])
    every = warm + closed + low + high + results.pop("ladder", [])
    failed = sum(not r.ok for r in every) + int(not bodies.reference_ok)
    if args.trace:
        m = results
        m["req_p50_ms.low"], m["req_p99_ms.low"] = latency_ms([r.latency for r in low])
        m["req_p50_ms.high"], m["req_p99_ms.high"] = latency_ms([r.latency for r in high])
        m.update(_service_metrics(low + high, log))
        m["gen.late_ms.p99"] = quantile([r.late * 1e3 for r in low + high], 0.99)
        m["gen.cap_wait_ms.p99"] = quantile([r.cap_wait * 1e3 for r in low + high], 0.99)
        m["max_rps"] = results.pop("max_rps")
        return {"attempted": len(every), "failed": failed, "metrics": finish(m, PER_LAYER)}
    # Each timing is the median over consecutive windows of the loop,
    # at the reference host speed; "raw" keeps the wall-clock figures.
    _, p99 = latency_ms([r.latency for r in closed])
    figures = {}
    for kind in ("ref_latency", "latency"):
        figures[kind] = {
            "compress_gbps": windowed(
                closed, WINDOWS, lambda w: _throughput(w, "compress", "bytes_in", kind)
            ),
            "decompress_gbps": windowed(
                closed, WINDOWS, lambda w: _throughput(w, "decompress", "bytes_out", kind)
            ),
            "p50_ms": windowed(closed, WINDOWS, lambda w: _typical_latency(w, kind)) * 1e3,
        }
    metrics = {
        "setup_s": median(setup),
        "peak_rss_mb": results["peak_rss_mb"],
        "ratio": bodies.ratio,
        **figures["ref_latency"],
    }
    return {
        "attempted": len(every),
        "failed": failed,
        "metrics": finish(metrics, END_TO_END),
        "note": {
            "p99_ms": p99,
            "latency_samples": len(closed),
            "rss_requests": results.get("rss_requests"),
            "raw": figures["latency"],
            "host_speed": speed.relative(),
        },
    }


async def _calibrated_closed(client: Client, server: Server, seconds: float,
                             speed: HostSpeed, out: dict) -> list:
    """The closed loop in segments of about ``SEGMENT_S``, each bracketed
    by calibration samples (nothing is in flight while they run); every
    result's ``ref_latency`` is its latency at the reference speed.

    Reads the server tree's peak RSS once ``RSS_REQUESTS`` are answered.
    """
    loop = asyncio.get_running_loop()
    results: list[Result] = []
    segments = speed.segments()
    end = loop.time() + seconds
    while (left := end - loop.time()) > 0:
        limit = RSS_REQUESTS - len(results) if len(results) < RSS_REQUESTS else 0
        part = await client.closed(min(SEGMENT_S, left), limit)
        scale = segments.close()
        for r in part:
            r.ref_latency = r.latency * scale
        results += part
        if "peak_rss_mb" not in out and len(results) >= RSS_REQUESTS:
            out["peak_rss_mb"] = server.tree_hwm_mb()
            out["rss_requests"] = len(results)
    return results


async def _drive(client: Client, server: Server, args, log, speed: HostSpeed) -> dict:
    out = {"warm": await client.closed(0, limit=WARMUP_REQUESTS)}
    if not args.trace:
        out["closed"] = await _calibrated_closed(client, server, args.seconds, speed, out)
        return out
    out["low"], _ = await client.phase(RATE_LOW, args.seconds / 2)
    out["high"], _ = await client.phase(RATE_HIGH, args.seconds / 2)
    ladder = []
    rate, best = RATE_HIGH, 0.0
    for _ in range(LADDER_MAX_STEPS):
        step, backlog = await client.phase(rate, LADDER_SECONDS)
        ladder += step
        p99 = quantile([r.latency for r in step], 0.99)
        # The backlog left when the last arrival is issued must drain
        # within the latency target, or the queue is growing.
        if (p99 > LADDER_P99_S or backlog > rate * LADDER_P99_S
                or not all(r.ok for r in step)):
            break
        best = rate
        rate *= LADDER_STEP
    out["ladder"] = ladder
    out["max_rps"] = best
    _, _, metrics = await http(server.host, server.port, "GET", "/metrics")
    _, _, pool = await http(server.host, server.port, "GET", "/debug/pool")
    pool = json.loads(pool)
    out["procpool.arena_bytes"] = pool["backend"].get("arena_bytes", 0)
    out["scratch.bytes"] = pool["backend"].get("scratch", {}).get("bytes", 0)
    rejected = 0.0
    for line in metrics.decode().splitlines():
        if line.startswith("pfpl_service_rejected_total"):
            rejected += float(line.split()[-1])
    out["service.rejected"] = rejected
    return out


def _service_metrics(results, log) -> dict:
    """Queue wait, handler and outside time per request, joined on trace id."""
    by_id = {}
    with open(log, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            by_id[rec["trace_id"]] = rec
    queue, handler, outside = [], [], []
    errors = 0
    total = unattributed = 0.0
    for rec in by_id.values():
        errors += rec["status"] != 200
    for r in results:
        rec = by_id.get(r.trace_id)
        if rec is None:
            continue
        queue.append(rec["queue_wait_s"] * 1e3)
        handler.append(rec["handler_s"] * 1e3)
        outside.append(r.latency * 1e3 - queue[-1] - handler[-1])
        total += r.latency * 1e3
        unattributed += outside[-1] - r.cap_wait * 1e3
    # Client latency no layer accounts for: not generator cap wait, not
    # service queue wait, not handler time (HTTP, network, event loop).
    m = {"service.errors": errors,
         "trace.unattributed_frac": unattributed / total if total else 0.0}
    for name, xs in (("queue_wait_ms", queue), ("handler_ms", handler),
                     ("outside_ms", outside)):
        m[f"service.{name}.p50"] = median(xs)
        m[f"service.{name}.p99"] = quantile(xs, 0.99)
    return m
