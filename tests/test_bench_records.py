"""Benchmark records keep the sections other bench scripts merged in.

``benchmarks/bench_remote.py`` merges a ``"remote"`` section into
``BENCH_pipeline.json``; ``benchmarks/bench_throughput.py`` writes the
pipeline-scaling record into the same file and must not erase it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH_THROUGHPUT = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "bench_throughput.py"
)


def load_bench_throughput():
    spec = importlib.util.spec_from_file_location(
        "bench_throughput", BENCH_THROUGHPUT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_record_keeps_the_remote_section(tmp_path):
    bench = load_bench_throughput()
    out = tmp_path / "BENCH_pipeline.json"
    remote = {"mode": "smoke", "backends": {"memory": {"pts_per_sec": 1}}}
    out.write_text(json.dumps({"mode": "full", "remote": remote}))
    bench.write_pipeline_record(
        out, {"mode": "smoke", "serial_pts_per_sec": 10, "process": {}}
    )
    written = json.loads(out.read_text())
    assert written["remote"] == remote
    assert written["mode"] == "smoke"
    assert written["serial_pts_per_sec"] == 10


def test_pipeline_record_starts_a_missing_file(tmp_path):
    bench = load_bench_throughput()
    out = tmp_path / "BENCH_pipeline.json"
    bench.write_pipeline_record(out, {"mode": "smoke"})
    assert json.loads(out.read_text()) == {"mode": "smoke"}
