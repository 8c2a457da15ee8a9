"""End-to-end request tracing through the service (the PR 8 acceptance).

Boots the real service on :class:`ProcessPoolBackend`, issues a compress
with an inbound W3C ``traceparent``, and asserts that ONE trace id links
all three execution tiers -- the service span on the event loop, the
``job_exec`` span on the job thread, and the ``batch_encode`` shard
spans inside forked worker processes -- with consistent parent/child
links, a Chrome export nesting all three tracks, a correlatable access
log, and parseable ``/metrics`` exemplars.
"""

import asyncio
import json

import numpy as np

from repro.core.native import status as native_status
from repro.service import PFPLService, ServiceConfig
from repro.telemetry import parse_prometheus

from .test_service import _request


def _payload(n=120_000):
    r = np.random.default_rng(5)
    return np.cumsum(r.normal(0, 0.05, n)).astype(np.float32)


INBOUND_TRACE = "4bf92f3577b34da6a3ce929d0e0e4736"
INBOUND_SPAN = "00f067aa0ba902b7"
INBOUND = f"00-{INBOUND_TRACE}-{INBOUND_SPAN}-01"


class TestEndToEndTrace:
    def test_one_trace_links_service_job_and_worker(self, tmp_path):
        log_path = tmp_path / "access.log"
        body = _payload().tobytes()

        async def drive():
            service = PFPLService(ServiceConfig(
                port=0, backend="procpool", n_workers=2,
                access_log=str(log_path),
            ))
            host, port = await service.start()
            try:
                status, headers, _ = await _request(
                    host, port, "POST",
                    "/v1/compress?mode=abs&bound=1e-4&dtype=f4&tenant=acme",
                    body, headers={"traceparent": INBOUND},
                )
                assert status == 200
                # The response traceparent continues the inbound trace.
                echoed = headers["traceparent"].split("-")
                assert echoed[1] == INBOUND_TRACE
                assert headers["x-pfpl-trace-id"] == INBOUND_TRACE

                st, _, raw = await _request(
                    host, port, "GET", f"/debug/trace/{INBOUND_TRACE}"
                )
                assert st == 200
                doc = json.loads(raw)

                st, _, chrome_raw = await _request(
                    host, port, "GET",
                    f"/debug/trace/{INBOUND_TRACE}?format=chrome",
                )
                assert st == 200
                chrome = json.loads(chrome_raw)

                st, _, traces_raw = await _request(
                    host, port, "GET", "/debug/traces"
                )
                assert st == 200

                st, _, metrics_raw = await _request(
                    host, port, "GET", "/metrics"
                )
                assert st == 200
                return doc, chrome, json.loads(traces_raw), metrics_raw
            finally:
                await service.shutdown()

        doc, chrome, traces, metrics_raw = asyncio.run(drive())
        spans = doc["spans"]

        service_span = next(
            s for s in spans if s["cat"] == "service" and s["name"] == "compress"
        )
        job_span = next(s for s in spans if s["name"] == "job_exec")
        worker_spans = [
            s for s in spans if (s["track"] or "").startswith("proc-")
        ]
        assert worker_spans, "no worker-process spans in the trace"

        # Parent/child chain: inbound -> service -> job -> worker shards.
        assert service_span["parent_id"] == INBOUND_SPAN
        assert job_span["parent_id"] == service_span["span_id"]
        shard_spans = [s for s in worker_spans if s["name"] == "batch_encode"]
        assert shard_spans
        assert all(s["parent_id"] == job_span["span_id"] for s in shard_spans)
        # Worker kernel stages nest under their shard span.
        shard_ids = {s["span_id"] for s in shard_spans}
        assert any(s["parent_id"] in shard_ids for s in worker_spans)

        # Chrome export nests all three tiers under one trace: the
        # service/job tiers on real threads (pid 1), workers on the
        # procpool track group (pid 3) -- three distinct (pid, tid) rows.
        slices = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
        assert all(e["args"]["trace_id"] == INBOUND_TRACE for e in slices)
        tracks = {(e["pid"], e["tid"]) for e in slices}
        assert len(tracks) >= 3
        assert {e["pid"] for e in slices} >= {1, 3}

        # Flight recorder lists the finished trace.
        row = next(
            r for r in traces["traces"] if r["trace_id"] == INBOUND_TRACE
        )
        assert row["finished"] is True
        assert row["meta"]["tenant"] == "acme"

        # Access log joins on the trace id.
        (line,) = [
            json.loads(ln) for ln in log_path.read_text().splitlines()
        ]
        assert line["trace_id"] == INBOUND_TRACE
        assert line["tenant"] == "acme"
        assert line["op"] == "compress"
        assert line["status"] == 200
        assert line["queue_wait_s"] >= 0 and line["handler_s"] > 0

        # /metrics exemplars reference the trace and still parse.
        text = metrics_raw.decode()
        assert any(
            "# {trace_id=" in ln and INBOUND_TRACE in ln
            for ln in text.splitlines()
        )
        parsed = parse_prometheus(text)
        assert any("service_requests_total" in k for k in parsed)


class TestTraceEdgeCases:
    def test_malformed_traceparent_ignored(self):
        body = _payload(30_000).tobytes()

        async def drive():
            service = PFPLService(ServiceConfig(port=0, backend="serial"))
            host, port = await service.start()
            try:
                results = []
                for header in ("not-a-traceparent", "ff-" + "a" * 32 +
                               "-" + "b" * 16 + "-01", ""):
                    status, headers, _ = await _request(
                        host, port, "POST",
                        "/v1/compress?mode=abs&bound=1e-3&dtype=f4",
                        body, headers={"traceparent": header},
                    )
                    results.append((status, headers["traceparent"]))
                return results
            finally:
                await service.shutdown()

        for status, echoed in asyncio.run(drive()):
            assert status == 200
            parts = echoed.split("-")
            assert len(parts[1]) == 32
            # A fresh trace was minted, not the malformed one.
            assert parts[1] != "a" * 32

    def test_requests_without_traceparent_get_fresh_traces(self):
        body = _payload(30_000).tobytes()

        async def drive():
            service = PFPLService(ServiceConfig(port=0, backend="serial"))
            host, port = await service.start()
            try:
                ids = []
                for _ in range(2):
                    status, headers, _ = await _request(
                        host, port, "POST",
                        "/v1/compress?mode=abs&bound=1e-3&dtype=f4", body,
                    )
                    assert status == 200
                    ids.append(headers["x-pfpl-trace-id"])
                st, _, raw = await _request(
                    host, port, "GET", f"/debug/trace/{ids[0]}"
                )
                return ids, st, json.loads(raw)
            finally:
                await service.shutdown()

        ids, st, doc = asyncio.run(drive())
        assert ids[0] != ids[1]
        assert st == 200
        assert all(s["name"] != "" for s in doc["spans"])

    def test_unknown_trace_and_debug_paths_404(self):
        async def drive():
            service = PFPLService(ServiceConfig(port=0, backend="serial"))
            host, port = await service.start()
            try:
                st1, _, _ = await _request(
                    host, port, "GET", "/debug/trace/" + "f" * 32
                )
                st2, _, _ = await _request(host, port, "GET", "/debug/bogus")
                st3, _, _ = await _request(host, port, "POST", "/debug/traces")
                return st1, st2, st3
            finally:
                await service.shutdown()

        st1, st2, st3 = asyncio.run(drive())
        assert st1 == 404 and st2 == 404 and st3 == 405

    def test_debug_pool_reports_backend_and_admission(self):
        async def drive():
            service = PFPLService(ServiceConfig(
                port=0, backend="procpool", n_workers=2,
            ))
            host, port = await service.start()
            try:
                st, _, raw = await _request(host, port, "GET", "/debug/pool")
                return st, json.loads(raw)
            finally:
                await service.shutdown()

        st, doc = asyncio.run(drive())
        assert st == 200
        assert doc["service"]["queue_depth"] == 32
        assert doc["backend"]["kind"] == "process-pool"
        assert len(doc["backend"]["worker_procs"]) == 2
        assert all(w["alive"] for w in doc["backend"]["worker_procs"])
        assert "scratch" in doc["backend"]
        assert doc["kernels"] == native_status()

    def test_rejected_requests_logged_with_trace_id(self, tmp_path):
        """503 rejections still mint a context and write an access line."""
        log_path = tmp_path / "access.log"
        body = _payload(30_000).tobytes()

        async def drive():
            service = PFPLService(ServiceConfig(
                port=0, backend="serial", queue_depth=0,
                access_log=str(log_path),
            ))
            # queue_depth=0 rejects everything immediately.
            host, port = await service.start()
            try:
                status, headers, _ = await _request(
                    host, port, "POST",
                    "/v1/compress?mode=abs&bound=1e-3&dtype=f4",
                    body, headers={"traceparent": INBOUND},
                )
                return status, headers
            finally:
                await service.shutdown()

        status, headers = asyncio.run(drive())
        assert status == 503
        assert headers["traceparent"].split("-")[1] == INBOUND_TRACE
        (line,) = [json.loads(ln) for ln in log_path.read_text().splitlines()]
        assert line["status"] == 503
        assert line["trace_id"] == INBOUND_TRACE

    def test_telemetry_off_service_output_byte_identical(self):
        """The codec bytes served with tracing on equal the NULL-telemetry
        serial reference -- the tracing layer cannot touch payloads."""
        from repro.core import compress as core_compress

        data = _payload(60_000)
        reference = core_compress(data, "abs", 1e-3)

        async def drive():
            service = PFPLService(ServiceConfig(
                port=0, backend="procpool", n_workers=2,
            ))
            host, port = await service.start()
            try:
                status, _, served = await _request(
                    host, port, "POST",
                    "/v1/compress?mode=abs&bound=1e-3&dtype=f4",
                    data.tobytes(), headers={"traceparent": INBOUND},
                )
                assert status == 200
                return served
            finally:
                await service.shutdown()

        assert asyncio.run(drive()) == reference
