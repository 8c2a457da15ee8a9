"""`pfpl serve` core: asyncio front end over a shared persistent backend.

Concurrency model
-----------------
The event loop owns connection handling and admission; codec work runs
on a small thread pool (``job_threads``) sharing one persistent backend.
With the default :class:`~repro.device.procpool.ProcessPoolBackend`,
each job's bulk work fans out across worker *processes* -- the job
threads only stage bytes and frame results, so the GIL never serializes
the heavy stages.  Offload calls serialize on the backend's arena lock:
the worker processes are the parallel resource, and interleaving two
whole-array offloads would oversubscribe them.

Admission is *bounded*: at most ``queue_depth`` requests may be admitted
(queued or executing) at once; beyond that the service answers ``503``
with ``Retry-After`` instead of building unbounded latency.  Graceful
shutdown stops accepting, drains admitted work (up to
``drain_timeout``), then tears the backend down.

Ops surface
-----------
``GET /metrics`` exposes the shared :class:`~repro.telemetry.Telemetry`
recorder in Prometheus text format: per-tenant request/byte counters
(``service_requests_total{tenant,op,status}``,
``service_bytes_{in,out}_total{tenant,op}``), rejection counters, and
request latency distributions via the ``span_duration_seconds``
histogram (``cat="service"``), from which p50/p99 are derived.

Tracing
-------
Every codec request runs under a :class:`~repro.telemetry.TraceContext`:
the service honors an inbound W3C ``traceparent`` header (malformed
values are ignored), mints a request context, echoes ``traceparent``
back on the response, and threads the context through the job thread
into the backend -- with :class:`~repro.device.procpool.ProcessPoolBackend`
the shard descriptors carry it into the worker processes, so one trace
id links service, job-thread and worker spans.  ``/debug/traces`` lists
the flight recorder, ``/debug/trace/<id>`` exports one trace (JSON or
``?format=chrome``), ``/debug/pool`` reports pool liveness, and
``--access-log`` writes one JSON line per request joinable on trace id.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.compressor import PFPLCompressor, decompress
from ..core.native import status as native_status
from ..device.backend import get_backend
from ..errors import PFPLError, PFPLUsageError
from ..telemetry import Telemetry, TraceContext
from .http import (
    HttpProtocolError,
    Request,
    format_response,
    read_request,
)

__all__ = ["ServiceConfig", "PFPLService"]

_DTYPES = {
    "f4": np.float32, "float32": np.float32,
    "f8": np.float64, "float64": np.float64,
}
_MODES = ("abs", "rel", "noa")


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`PFPLService`.

    ``n_workers`` sizes the backend's pool (processes for ``procpool``,
    threads for ``omp``; ignored by ``serial``/``cuda``).  ``job_threads``
    bounds how many requests *stage* concurrently; keep it small -- the
    backend pool is the real parallel resource.  ``queue_depth`` bounds
    admitted-but-unfinished requests; beyond it clients get 503.
    """

    host: str = "127.0.0.1"
    port: int = 8787
    backend: str = "procpool"
    n_workers: int | None = None
    job_threads: int = 8
    queue_depth: int = 32
    drain_timeout: float = 30.0
    #: Structured JSON access log: a path, ``"-"`` for stdout, or None
    #: (off).  One line per codec request -- trace id, tenant, op,
    #: status, byte counts, queue-wait and handler latency -- so logs
    #: and ``/debug/trace/<id>`` join on the trace id.
    access_log: str | None = None
    #: Default candidate pipelines for format-v3 per-chunk selection,
    #: as a comma-separated spec (``"default,no-shuffle,direct-zero"``
    #: or ids).  None (the default) keeps compress responses on v1/v2;
    #: a per-request ``pipelines=`` query parameter overrides this.
    pipelines: str | None = None


def _parse_pipelines(spec: str | None):
    """Parse a comma-separated pipeline spec into normalize_selection input."""
    if not spec:
        return None
    return [
        int(tok) if tok.lstrip("-").isdigit() else tok
        for tok in (t.strip() for t in spec.split(","))
        if tok
    ] or None


def _build_backend(config: ServiceConfig):
    """Instantiate the configured backend with its pool-size keyword."""
    kwargs = {}
    if config.n_workers is not None:
        if config.backend == "omp":
            kwargs["n_threads"] = config.n_workers
        elif config.backend == "procpool":
            kwargs["n_workers"] = config.n_workers
    return get_backend(config.backend, **kwargs)


class PFPLService:
    """Asyncio compress/decompress service over one shared backend.

    Usage::

        service = PFPLService(ServiceConfig(port=0))
        host, port = await service.start()
        ...
        await service.shutdown()    # drains in-flight work

    Endpoints (one request per connection, ``Connection: close``):

    - ``POST /v1/compress?mode=abs&bound=1e-3&dtype=f4[&checksum=1]
      [&format_version=3][&pipelines=default,no-shuffle][&tenant=t]``
      with the raw little-endian float array as the body; responds with
      the PFPL stream (``pipelines`` / ``format_version=3`` select the
      v3 per-chunk pipeline format; both default to the service config).
    - ``POST /v1/decompress[?tenant=t]`` with a PFPL stream body;
      responds with the raw float array (streams are self-describing).
    - ``GET /metrics`` -- Prometheus text exposition.
    - ``GET /healthz`` -- 200 while serving, 503 while draining.
    - ``GET /debug/traces`` / ``/debug/trace/<id>[?format=chrome]`` /
      ``/debug/pool`` -- flight-recorder and pool introspection.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        backend=None,
        telemetry: Telemetry | None = None,
    ):
        self.config = config or ServiceConfig()
        #: The service *is* an ops surface, so telemetry defaults to live.
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.backend = backend if backend is not None else _build_backend(self.config)
        self._jobs = ThreadPoolExecutor(
            max_workers=self.config.job_threads, thread_name_prefix="pfpl-serve"
        )
        self._pending = 0
        self._draining = False
        #: Native-kernel status, taken once in start() (which loads them).
        self._kernels: dict | None = None
        self._server: asyncio.AbstractServer | None = None
        log = self.config.access_log
        self._access_fp = None
        self._access_owned = False
        if log == "-":
            self._access_fp = sys.stdout
        elif log:
            self._access_fp = open(log, "a", encoding="utf-8")
            self._access_owned = True

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        The backend pool is warmed *first*: a process pool forked after
        connections exist would inherit their fds and keep them open
        past the parent's close (clients would never see EOF).  The
        native kernels load before that, so no request and no forked
        worker ever waits on a compile.
        """
        # Blocking by design: warming must finish before the socket
        # exists (see docstring), and no connections are open yet so
        # there is nothing for the loop to starve.  Loading the native
        # kernels here keeps any first-use compile out of requests.
        self._kernels = native_status()  # pfpl: allow[async-blocking]
        self.backend.warm()  # pfpl: allow[async-blocking]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def shutdown(self) -> None:
        """Graceful stop: refuse new work, drain in-flight, close the pool.

        Admitted requests keep running until done or ``drain_timeout``
        elapses; afterwards the job threads and the backend (worker
        pool, shared arenas) are torn down.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_timeout
        while self._pending and loop.time() < deadline:
            await asyncio.sleep(0.01)
        # Blocking by design: the drain loop above already emptied the
        # pool, and shutdown is the last act of the process -- latency
        # here cannot stall request coroutines.
        self._jobs.shutdown(wait=True)  # pfpl: allow[async-blocking]
        self.backend.close()
        if self._access_owned and self._access_fp is not None:
            self._access_fp.close()
            self._access_fp = None

    # -- admission -----------------------------------------------------------

    def _admit(self) -> bool:
        """Take one admission slot; False when full or draining.

        Single-threaded on the event loop, so a plain counter suffices.
        """
        if self._draining or self._pending >= self.config.queue_depth:
            return False
        self._pending += 1
        return True

    def _release(self) -> None:
        """Return an admission slot."""
        self._pending -= 1

    # -- codec jobs (run on the job thread pool) -----------------------------

    def _execute(self, op: str, request: Request) -> tuple[int, bytes, dict]:
        """Run one codec job; returns ``(status, body, extra_headers)``.

        Runs on a job thread.  Client mistakes (bad parameters, streams
        that fail validation) map to 4xx; only genuinely unexpected
        failures propagate to the handler's 500 path.
        """
        if op == "compress":
            q = request.query
            mode = q.get("mode", "abs")
            if mode not in _MODES:
                return 400, f"unknown mode {mode!r}".encode(), {}
            dtype = _DTYPES.get(q.get("dtype", "f4"))
            if dtype is None:
                return 400, f"unknown dtype {q.get('dtype')!r}".encode(), {}
            try:
                bound = float(q.get("bound", "1e-3"))
            except ValueError:
                return 400, f"invalid bound {q.get('bound')!r}".encode(), {}
            checksum = q.get("checksum", "0") in ("1", "true", "yes")
            format_version = None
            if "format_version" in q:
                try:
                    format_version = int(q["format_version"])
                except ValueError:
                    return 400, (
                        f"invalid format_version {q['format_version']!r}".encode()
                    ), {}
            if len(request.body) % np.dtype(dtype).itemsize:
                return 400, b"body length is not a multiple of the dtype size", {}
            data = np.frombuffer(request.body, dtype=dtype)
            try:
                pipelines = _parse_pipelines(
                    q.get("pipelines", self.config.pipelines)
                )
                compressor = PFPLCompressor(
                    mode=mode, error_bound=bound, dtype=dtype,
                    backend=self.backend, checksum=checksum,
                    format_version=format_version, pipelines=pipelines,
                    telemetry=self.telemetry,
                )
                result = compressor.compress(data)
            except PFPLUsageError as exc:
                return 400, str(exc).encode(), {}
            return 200, result.data, {
                "X-PFPL-Original-Bytes": str(result.original_bytes),
                "X-PFPL-Raw-Chunks": str(result.raw_chunks),
            }
        try:
            out = decompress(
                request.body, backend=self.backend, telemetry=self.telemetry
            )
        except PFPLError as exc:
            # Self-describing decode: any PFPL rejection means the
            # *stream* is unusable -- a client-data problem, not ours.
            return 422, str(exc).encode(), {}
        return 200, out.tobytes(), {
            "X-PFPL-Dtype": np.dtype(out.dtype).str,
            "X-PFPL-Count": str(out.size),
        }

    def _execute_traced(
        self, op: str, request: Request, ctx: TraceContext | None, t_admit: float
    ) -> tuple[int, bytes, dict, float, float]:
        """Job-thread wrapper around :meth:`_execute` with trace binding.

        Binds a deterministic child of the request context to this
        thread (``job_exec`` span) so every codec span the job records
        -- and every shard descriptor the procpool backend derives --
        links back to the request.  Returns the :meth:`_execute` triple
        plus ``(queue_wait, handler)`` seconds for the access log.
        """
        tel = self.telemetry
        t0 = time.perf_counter()
        queue_wait = t0 - t_admit
        if not tel.enabled or ctx is None:
            status, body, headers = self._execute(op, request)
            return status, body, headers, queue_wait, time.perf_counter() - t0
        job_ctx = ctx.child(0)
        with tel.trace(job_ctx):
            with tel.span("job_exec", cat="service", trace=job_ctx,
                          op=op, queue_wait=queue_wait):
                status, body, headers = self._execute(op, request)
        return status, body, headers, queue_wait, time.perf_counter() - t0

    # -- request handling ----------------------------------------------------

    def _log_access(
        self, ctx: TraceContext | None, tenant: str, op: str, status: int,
        bytes_in: int, bytes_out: int, queue_wait: float, handler: float,
    ) -> None:
        """Append one JSON access-log line (no-op when the log is off)."""
        fp = self._access_fp
        if fp is None:
            return
        record = {
            "ts": round(time.time(), 6),
            "trace_id": ctx.trace_id if ctx is not None else None,
            "tenant": tenant,
            "op": op,
            "status": status,
            "bytes_in": bytes_in,
            "bytes_out": bytes_out,
            "queue_wait_s": round(queue_wait, 6),
            "handler_s": round(handler, 6),
        }
        fp.write(json.dumps(record, separators=(",", ":")) + "\n")
        fp.flush()

    async def _codec_response(self, op: str, request: Request) -> bytes:
        """Admission + tracing + execution + accounting for one codec op."""
        tel = self.telemetry
        tenant = request.query.get("tenant", "anonymous")
        # Honor the inbound traceparent (malformed values parse to None
        # and are silently ignored); the minted context is this
        # request's root span, echoed back as a response traceparent.
        inbound = TraceContext.from_traceparent(request.headers.get("traceparent"))
        ctx = TraceContext.mint(parent=inbound)
        if not self._admit():
            if tel.enabled:
                tel.add("service_rejected_total", 1, tenant=tenant, op=op,
                        reason="draining" if self._draining else "queue_full")
            self._log_access(ctx, tenant, op, 503, len(request.body), 0, 0.0, 0.0)
            return format_response(
                503, b"request queue full, retry later", "text/plain",
                {"Retry-After": "1", "traceparent": ctx.to_traceparent()},
            )
        loop = asyncio.get_running_loop()
        t_admit = time.perf_counter()
        try:
            if tel.enabled:
                tel.begin_trace(ctx, op=op, tenant=tenant)
                # The service span *is* the request context (explicit
                # ``trace=``, not a thread binding: concurrent requests
                # interleave on this event-loop thread).
                with tel.span(op, cat="service", trace=ctx, tenant=tenant,
                              bytes_in=len(request.body)):
                    status, body, headers, queue_wait, handler = (
                        await loop.run_in_executor(
                            self._jobs, self._execute_traced, op, request,
                            ctx, t_admit,
                        )
                    )
                tel.finish_trace(ctx.trace_id, status=status)
            else:
                status, body, headers, queue_wait, handler = (
                    await loop.run_in_executor(
                        self._jobs, self._execute_traced, op, request,
                        None, t_admit,
                    )
                )
        finally:
            self._release()
        if tel.enabled:
            tel.add("service_requests_total", 1, tenant=tenant, op=op,
                    status=str(status))
            tel.add("service_bytes_in_total", len(request.body),
                    tenant=tenant, op=op)
            if status == 200:
                tel.add("service_bytes_out_total", len(body),
                        tenant=tenant, op=op)
        self._log_access(ctx, tenant, op, status, len(request.body),
                         len(body) if status == 200 else 0, queue_wait, handler)
        headers = dict(headers)
        headers["traceparent"] = ctx.to_traceparent()
        headers["X-PFPL-Trace-Id"] = ctx.trace_id
        ctype = "application/octet-stream" if status == 200 else "text/plain"
        return format_response(status, body, ctype, headers)

    def _debug_response(self, request: Request) -> bytes:
        """Serve the ``/debug`` introspection family (GET only).

        - ``/debug/traces`` -- flight-recorder summary, newest last;
        - ``/debug/trace/<id>`` -- every retained span of one trace
          (``?format=chrome`` exports a nested Chrome trace instead);
        - ``/debug/pool`` -- admission state plus the backend's worker
          pool and scratch-arena snapshot.
        """
        tel = self.telemetry

        def json_response(payload, status: int = 200) -> bytes:
            body = json.dumps(payload, indent=2, default=repr).encode()
            return format_response(status, body, "application/json")

        if request.path == "/debug/traces":
            return json_response({"traces": tel.traces_summary()})
        if request.path.startswith("/debug/trace/"):
            trace_id = request.path.rsplit("/", 1)[-1]
            spans = tel.trace_spans(trace_id)
            if not spans:
                return json_response(
                    {"error": f"unknown trace {trace_id!r}"}, status=404
                )
            if request.query.get("format") == "chrome":
                return json_response(tel.chrome_trace(trace_id=trace_id))
            return json_response({
                "trace_id": trace_id,
                "spans": [
                    {
                        "name": s.name, "cat": s.cat,
                        "start": s.start, "duration": s.duration,
                        "span_id": s.span_id, "parent_id": s.parent_id,
                        "track": s.args.get("track"),
                        "args": {k: v for k, v in s.args.items() if k != "track"},
                    }
                    for s in spans
                ],
            })
        if request.path == "/debug/pool":
            return json_response({
                "service": {
                    "pending": self._pending,
                    "queue_depth": self.config.queue_depth,
                    "job_threads": self.config.job_threads,
                    "draining": self._draining,
                },
                "backend": self.backend.pool_info(),
                "kernels": self._kernels,
            })
        return json_response({"error": "unknown debug endpoint"}, status=404)

    async def _dispatch(self, request: Request) -> bytes:
        """Route one parsed request to its endpoint."""
        if request.path == "/healthz":
            if request.method != "GET":
                return format_response(405, b"use GET", "text/plain")
            if self._draining:
                return format_response(503, b"draining", "text/plain")
            return format_response(200, b"ok", "text/plain")
        if request.path == "/metrics":
            if request.method != "GET":
                return format_response(405, b"use GET", "text/plain")
            text = self.telemetry.to_prometheus().encode()
            return format_response(200, text, "text/plain; version=0.0.4")
        if request.path.startswith("/debug/"):
            if request.method != "GET":
                return format_response(405, b"use GET", "text/plain")
            return self._debug_response(request)
        if request.path in ("/v1/compress", "/v1/decompress"):
            if request.method != "POST":
                return format_response(405, b"use POST", "text/plain")
            op = request.path.rsplit("/", 1)[-1]
            return await self._codec_response(op, request)
        return format_response(404, b"unknown endpoint", "text/plain")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one request on one connection, then close it."""
        tel = self.telemetry
        try:
            try:
                request = await read_request(reader)
                response = await self._dispatch(request)
            except HttpProtocolError as exc:
                response = format_response(exc.status, str(exc).encode(),
                                           "text/plain")
            except Exception:
                if tel.enabled:
                    tel.add("service_errors_total", 1)
                response = format_response(500, b"internal error", "text/plain")
            writer.write(response)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            # Client went away mid-exchange; nothing to answer.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
