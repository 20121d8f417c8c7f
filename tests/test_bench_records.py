"""Benchmark records keep what other bench scripts and earlier runs wrote.

``benchmarks/bench_remote.py`` merges a ``"remote"`` section into
``BENCH_pipeline.json``; ``benchmarks/bench_throughput.py`` writes the
pipeline-scaling record and its query-latency section into the same
file and must not erase it.
Both go through ``bench_throughput.write_record``.
``scripts/record_perfbench.py`` appends each perfbench run to a capped
per-workload history in ``BENCH_perfbench.json`` and folds the runs past
the cap into per-commit metric lists.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

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
    bench.write_record(
        out, {"mode": "smoke", "serial_pts_per_sec": 10, "process": {}}
    )
    written = json.loads(out.read_text())
    assert written["remote"] == remote
    assert written["mode"] == "smoke"
    assert written["serial_pts_per_sec"] == 10


def test_pipeline_record_starts_a_missing_file(tmp_path):
    bench = load_bench_throughput()
    out = tmp_path / "BENCH_pipeline.json"
    bench.write_record(out, {"mode": "smoke"})
    assert json.loads(out.read_text()) == {"mode": "smoke"}


def test_pipeline_query_record(tmp_path):
    """The ungated query-latency section: a median and an IQR over
    queries of a synced process-executor pipeline, merged in beside the
    scaling record."""
    bench = load_bench_throughput()
    record = bench.bench_pipeline_query(3, 64, seed=2)
    assert record["queries"] == 3 and record["num_shards"] == 4
    assert record["executor"] == "process" and record["dim"] == 3
    assert record["median_ms"] > 0 and record["iqr_ms"] >= 0
    out = tmp_path / "BENCH_pipeline.json"
    out.write_text(json.dumps({"mode": "full", "serial_pts_per_sec": 10}))
    bench.write_record(out, {"query": record})
    written = json.loads(out.read_text())
    assert written["query"] == record and written["serial_pts_per_sec"] == 10


RECORD_PERFBENCH = (
    Path(__file__).resolve().parents[1] / "scripts" / "record_perfbench.py"
)


def load_record_perfbench():
    spec = importlib.util.spec_from_file_location(
        "record_perfbench", RECORD_PERFBENCH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_stdout(workload, seed, value):
    """The shape of one ``perfbench/run.py --trace 0`` stdout."""
    result = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {"ingest_pts_per_s": {"value": value, "unit": "pts/s"}},
    }
    return (
        f"# {workload} seed={seed} seconds=20 trace=0 ran 21.3 s\n"
        f"ingest_pts_per_s {value:16.4f} pts/s\n"
        f"# check ok   fingerprint\n"
        f"{json.dumps(result)}\n"
    )


def record_run(module, path, workload, seed, value):
    out = path.parent / f"{workload}-{seed}.txt"
    out.write_text(perfbench_stdout(workload, seed, value))
    assert module.main([str(out), "--record", str(path)]) == 0


def test_perfbench_record_appends_with_provenance(tmp_path):
    module = load_record_perfbench()
    path = tmp_path / "BENCH_perfbench.json"
    record_run(module, path, "sliding-cascade", 1, 100.0)
    record_run(module, path, "sliding-cascade", 2, 110.0)
    history = json.loads(path.read_text())["workloads"]["sliding-cascade"][
        "history"
    ]
    assert [entry["seed"] for entry in history] == [1, 2]
    newest = history[-1]
    assert newest["metrics"]["ingest_pts_per_s"]["value"] == 110.0
    assert newest["correct"] is True and newest["failed"] == 0
    assert isinstance(newest["commit"], str) and newest["commit"]
    for field in ("cpu_count", "python", "numpy"):
        assert field in newest


def test_perfbench_record_caps_each_history():
    module = load_record_perfbench()
    record = {}
    for seed in range(6):
        entry = {
            "workload": "service-churn",
            "seed": seed,
            "commit": "aaa" if seed < 2 else "bbb",
            "cpu_count": 2,
            "python": "3.11.7",
            "numpy": "2.4.6",
            "metrics": {
                "ingest_pts_per_s": {"value": 100.0 + seed, "unit": "pts/s"},
                "state_bytes": {"value": 7.0, "unit": "bytes"},
            },
        }
        module.append_run(record, entry, cap=3)
        if seed < 3:
            assert "by_commit" not in record["workloads"]["service-churn"]
    workload = record["workloads"]["service-churn"]
    assert [entry["seed"] for entry in workload["history"]] == [3, 4, 5]
    # The entries past the cap are folded per commit, not dropped.
    assert workload["by_commit"] == {
        "aaa": {
            "runs": 2,
            "cpu_count": 2,
            "python": "3.11.7",
            "numpy": "2.4.6",
            "metrics": {
                "ingest_pts_per_s": [100.0, 101.0],
                "state_bytes": [7.0, 7.0],
            },
        },
        "bbb": {
            "runs": 1,
            "cpu_count": 2,
            "python": "3.11.7",
            "numpy": "2.4.6",
            "metrics": {"ingest_pts_per_s": [102.0], "state_bytes": [7.0]},
        },
    }


def test_perfbench_record_keeps_other_workloads(tmp_path):
    module = load_record_perfbench()
    path = tmp_path / "BENCH_perfbench.json"
    record_run(module, path, "sliding-cascade", 1, 100.0)
    record_run(module, path, "highdim-pipeline", 7, 5.0)
    record_run(module, path, "highdim-pipeline", 8, 6.0)
    workloads = json.loads(path.read_text())["workloads"]
    assert [e["seed"] for e in workloads["sliding-cascade"]["history"]] == [1]
    assert [e["seed"] for e in workloads["highdim-pipeline"]["history"]] == [
        7,
        8,
    ]


def git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_perfbench_record_does_not_dirty_the_commit_label(
    tmp_path, monkeypatch
):
    """Appending changes the tracked record itself; only a change to
    other tracked files marks the measured commit ``-dirty``."""
    module = load_record_perfbench()
    repo = tmp_path / "repo"
    repo.mkdir()
    code, record = repo / "code.py", repo / "BENCH_perfbench.json"
    code.write_text("x = 1\n")
    record.write_text("{}\n")
    git(repo, "init", "-q")
    git(repo, "add", ".")
    git(repo, "commit", "-q", "-m", "seed")
    monkeypatch.setattr(module, "ROOT", repo.resolve())
    clean = module.provenance(record)["commit"]
    assert clean not in ("", "unknown") and not clean.endswith("-dirty")
    record.write_text('{"workloads": {}}\n')
    assert module.provenance(record)["commit"] == clean
    code.write_text("x = 2\n")
    assert module.provenance(record)["commit"] == clean + "-dirty"


def test_perfbench_record_rejects_output_without_result(tmp_path, capsys):
    module = load_record_perfbench()
    out = tmp_path / "broken.txt"
    out.write_text("Traceback (most recent call last):\n  boom\n")
    path = tmp_path / "BENCH_perfbench.json"
    assert module.main([str(out), "--record", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not path.exists()
