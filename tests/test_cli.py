"""The ``pfpl`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.native import status as native_status


@pytest.fixture
def raw_file(tmp_path, rng):
    data = np.cumsum(rng.normal(0, 0.05, 50_000)).astype(np.float32)
    path = tmp_path / "field.f32"
    data.tofile(path)
    return path, data


class TestCompressDecompress:
    def test_roundtrip(self, tmp_path, raw_file, capsys):
        path, data = raw_file
        comp = tmp_path / "field.pfpl"
        out = tmp_path / "field.out.f32"

        assert main(["compress", str(path), str(comp),
                     "--mode", "abs", "--bound", "1e-3"]) == 0
        captured = capsys.readouterr().out
        assert "ratio" in captured

        assert main(["decompress", str(comp), str(out)]) == 0
        recon = np.fromfile(out, dtype=np.float32)
        assert np.abs(data.astype(np.float64) - recon.astype(np.float64)).max() <= 1e-3

    def test_double_precision(self, tmp_path, rng):
        data = rng.normal(0, 1, 10_000)
        src = tmp_path / "d.d64"
        data.tofile(src)
        comp = tmp_path / "d.pfpl"
        assert main(["compress", str(src), str(comp), "--dtype", "f64",
                     "--mode", "rel", "--bound", "1e-2"]) == 0
        out = tmp_path / "d.out"
        assert main(["decompress", str(comp), str(out)]) == 0
        recon = np.fromfile(out, dtype=np.float64)
        assert recon.size == data.size

    def test_backend_choice(self, tmp_path, raw_file):
        path, _ = raw_file
        blobs = []
        for backend in ("serial", "omp", "cuda"):
            comp = tmp_path / f"{backend}.pfpl"
            assert main(["compress", str(path), str(comp),
                         "--backend", backend]) == 0
            blobs.append(comp.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestInfo:
    def test_info_output(self, tmp_path, raw_file, capsys):
        path, _ = raw_file
        comp = tmp_path / "x.pfpl"
        main(["compress", str(path), str(comp), "--mode", "noa"])
        capsys.readouterr()
        assert main(["info", str(comp)]) == 0
        out = capsys.readouterr().out
        assert "mode=noa" in out
        assert "value range" in out
        assert "delta+negabinary -> bitshuffle -> zero-elim" in out
        kernels = "native (" if native_status()["active"] else "numpy ("
        assert f"kernels     : {kernels}" in out


class TestVerify:
    def test_verify_pass(self, tmp_path, raw_file, capsys):
        path, data = raw_file
        comp = tmp_path / "v.pfpl"
        out = tmp_path / "v.out"
        main(["compress", str(path), str(comp), "--bound", "1e-3"])
        main(["decompress", str(comp), str(out)])
        capsys.readouterr()
        assert main(["verify", str(path), str(out), "--bound", "1e-3"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_verify_fail(self, tmp_path, raw_file, capsys):
        path, data = raw_file
        bad = tmp_path / "bad.f32"
        (data + np.float32(0.01)).tofile(bad)
        assert main(["verify", str(path), str(bad), "--bound", "1e-3"]) == 1

    def test_size_mismatch(self, tmp_path, raw_file):
        path, data = raw_file
        short = tmp_path / "short.f32"
        data[:10].tofile(short)
        assert main(["verify", str(path), str(short)]) == 2


class TestTables:
    @pytest.mark.parametrize("n,needle", [(1, "Threadripper"), (2, "CESM-ATM"),
                                          (3, "PFPL")])
    def test_tables(self, n, needle, capsys):
        assert main(["table", str(n)]) == 0
        assert needle in capsys.readouterr().out


def test_figure_command(capsys):
    assert main(["figure", "fig12", "--files", "1"]) == 0
    out = capsys.readouterr().out
    assert "PFPL_CUDA" in out


class TestStatsAndTrace:
    def test_compress_trace_spans_cover_every_chunk_per_stage(
            self, tmp_path, raw_file):
        import json

        from repro.telemetry import ENCODE_STAGES

        path, data = raw_file
        comp = tmp_path / "t.pfpl"
        trace = tmp_path / "trace.json"
        assert main(["compress", str(path), str(comp),
                     "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        n_chunks = -(-data.size // 4096)
        # Full-size chunks ride batch-stage spans (one span, a `chunks`
        # count); the ragged tail keeps per-chunk spans (a `chunk` id).
        # Together every stage must account for every chunk exactly once.
        for stage in ENCODE_STAGES[:-1]:  # assemble is per-stream
            batched = sum(e["args"].get("chunks") or 0 for e in spans
                          if e["name"] == stage)
            singles = {e["args"].get("chunk") for e in spans
                       if e["name"] == stage} - {None}
            assert batched + len(singles) == n_chunks, stage

    def test_decompress_trace(self, tmp_path, raw_file):
        import json

        path, _ = raw_file
        comp = tmp_path / "t.pfpl"
        out = tmp_path / "t.out"
        trace = tmp_path / "dtrace.json"
        main(["compress", str(path), str(comp)])
        assert main(["decompress", str(comp), str(out),
                     "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"fetch", "chunk_decode", "dequantize"} <= names

    def test_stats_table(self, raw_file, capsys):
        path, _ = raw_file
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "encode stages:" in out and "decode stages:" in out
        assert "zero-elim" in out and "outliers" in out
        assert native_status()["reason"] in out.splitlines()[1]

    def test_stats_json(self, raw_file, capsys):
        import json

        path, _ = raw_file
        assert main(["stats", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["chunks_encoded_total"] > 0

    def test_stats_prometheus(self, raw_file, capsys):
        from repro.telemetry import parse_prometheus

        path, _ = raw_file
        assert main(["stats", str(path), "--format", "prom"]) == 0
        parsed = parse_prometheus(capsys.readouterr().out)
        assert parsed["pfpl_chunks_encoded_total"] > 0

    def test_stats_drift_passes(self, raw_file, capsys):
        path, _ = raw_file
        assert main(["stats", str(path), "--drift"]) == 0
        assert "byte accounting vs profile_chunk: exact" in capsys.readouterr().out

    def test_verbose_flag_logs(self, tmp_path, raw_file, capsys):
        import logging

        path, _ = raw_file
        comp = tmp_path / "v.pfpl"
        assert main(["-v", "compress", str(path), str(comp)]) == 0
        # The handler targets stderr; INFO records must have been emitted.
        assert "compressed" in capsys.readouterr().err
        # Leave global logging quiet for the rest of the suite.
        logging.getLogger("repro").setLevel(logging.WARNING)
